"""Brute-force localization model of equivariant K-theory of G/B.

On the shared localization core (localization.py) with the character
ring as coefficients, the module provides motivic Chern classes of
Schubert cells (by the right Demazure-Lusztig recursion) and the
expansion of a line bundle times a motivic class in the motivic basis,
on G/B and on G/P.  The module imports only charring and localization, so
nothing here reads the lambda-chain combinatorics, and agreement with
the chain formulas is a genuine cross-check.

Every value is a GA element (packed keys, see charring.py); the slice
parts of the MC classes, and the classes the solve reads and writes,
are kept as their y-lines, GA elements on weight keys whose
coefficients give each power of y = -v^2 one 64-bit slot, certified on
every run (localization.py).  A line bundle multiplies each value by
one monomial e^{x(lambda)}, a shift of its keys (`KOracle._twist`).
The Demazure-Lusztig steps (right, on MC classes and their slice
parts, and in the affine Hecke action on stable envelopes, which is
`dl_right` at y = -q conjugated by the star e^mu -> e^{-mu}) and the
triangular solve are exact divisions, and so is each coset v W_P of
`pushforward`: with E_P = prod_{g in Phi_P^+} (1 - e^g), (vp)(E_P) =
(-1)^{l(p)} e^{v(p rho_P - rho_P)} v(E_P), so a coset is one monomial per
point and one exact division by v(E_P) (`weyl_quotient`, which also
gives specialfn's orbit sums and Weyl characters).

Stable envelopes of the cotangent bundle are classes of the oracle
(`KOracle.stab`, with the affine Hecke action on them); only these use
half powers of q (odd powers of v).
"""

from __future__ import annotations

from .charring import (FIELD, GA, Scalar, _BIAS, _add_products, _check,
                       _pack, _wneg, fits)
from .localization import Localization


def weyl_quotient(rs, values, roots, s, u=0):
    """sum_x f_x / (u x)(E) over values = ((x, f_x), ...), for E = prod_{g
    in roots} (1 - e^{s g}), roots the positive roots (fundamental
    coordinates) of a root subsystem whose Weyl group holds every x.  Such
    an x permutes the subsystem's roots and negates its inversions, so
    x(E) = (-1)^{l(x)} e^{s(x rho_E - rho_E)} E, rho_E half the sum of
    roots, and the sum is

        sum_x (-1)^{l(x)} e^{s u(rho_E - x rho_E)} f_x  /  u(E):

    one monomial per term, a shift of f_x's keys by a key offset (the key
    of a weight is linear in it), and one exact division, asserted."""
    W = rs.weyl()
    one = GA.const(1, rs.rank)
    rho2 = rs.weight([sum(g[i] for g in roots) for i in range(rs.rank)])
    top = W.act_key(u, rho2)
    den = one
    for g in roots:
        den = den * (one - GA.term(rs.weight([s * c for c in W.act(u, g)])))
    acc = {}
    for x, f in values:
        off = s * (top - W.act_key(W.mul(u, x), rho2)) // 2
        _add_products(acc, ((off, (-1) ** W.length[x]),), f.c.items())
    _check(acc, rs.rank)
    q = GA._new(acc).exact_div(den)
    assert q is not None, "localization sum is not polynomial"
    return q


class KOracle(Localization):
    """Localization model of K_T(G/B) over the character ring."""

    ring = GA

    def _euler(self, mu):
        """1 - e^{mu}."""
        return self._one() - GA.term(self.rs.weight(mu))

    def _act(self, w, g):
        return g.transform(self.W.mats[w])

    @staticmethod
    def dl_coeffs(rs, i):
        """(b, e, d) of T_i = (a s_i - b) / d with a = 1 + y e^{-a_i},
        b = 1 + y and d = 1 - e^{-a_i}, the left operator T~vee_i: e =
        (a - b) / d = -y.  specialfn's T~_i shares b and d."""
        nai = _wneg(rs.weight(rs.simple_roots[i].fund))
        return (Scalar.one() + Scalar.y(1), Scalar.y(1, -1),
                GA.const(1, rs.rank) - GA.term(nai))

    def scale(self, F, c):
        return {w: f * c for w, f in F.items()}

    # -- stable envelopes ----------------------------------------------
    def stab(self, w):
        """The stable envelope of T*(G/B) at w for the anti-dominant
        chamber, anchored to the motivic class of the opposite cell:

            stab(w) = (-1)^N q^{N - l(w)/2} [MC_y(Y(w)^o)]_{y -> -q^{-1}}
                      (x) L_{-2 rho}."""
        if w not in self._stab:
            W = self.W
            pref = Scalar.v(2 * self.N - W.length[w], (-1) ** self.N)
            rho2 = tuple(2 * c for c in self.rs.rho())
            out = {}
            for v, f in self.opposite_cell_class(w).items():
                g = f.y_inverse()  # y -> -q^{-1} is v -> 1/v
                g = g * GA.term(_wneg(W.act(v, rho2)), pref)
                if g:
                    out[v] = g
            self._stab[w] = out
        return self._stab[w]

    def _stab_star(self, w):
        """stab(w) under the star e^mu -> e^{-mu}, made once per w."""
        if w not in self._starred:
            self._starred[w] = {v: g.star() for v, g in self.stab(w).items()}
        return self._starred[w]

    def hecke_T_on_stab(self, i, w):
        """(lhs, rhs) of T_i(stab(w)) = the two-case expansion

            (q-1) stab(w) + q^{1/2} stab(w s_i)   if w s_i < w,
            q^{1/2} stab(w s_i)                   if w s_i > w,

        both under the star, which fixes scalars.  The affine Hecke
        operator on the localization model,

            (T_i F)|_w = ((1 - q e^{-w a_i}) F|_{w s_i} - (1 - q) F|_w)
                         / (1 - e^{w a_i}),

        is star o `dl_right`(i) o star, since the oracle's operator is at
        y = Scalar.y(1) = -q."""
        W = self.W
        lhs = self.dl_right(i, self._stab_star(w))
        ws = W.step(w, i)
        rhs = self.scale(self._stab_star(ws), Scalar.v(1))
        if W.length[ws] < W.length[w]:
            rhs = self.add(rhs, self.scale(self._stab_star(w),
                                           Scalar.q(1) - Scalar.one()))
        return lhs, rhs

    # -- Chevalley expansion -------------------------------------------
    def _twist(self, lam_fund, F):
        """L_lambda F for F as (lines, norms): each line shifted by the
        weight key offset of x(lambda), range-checked, the norms kept;
        lambda is checked first, so no offset carries across the packed
        fields."""
        lam = self.rs.weight(lam_fund)
        _pack(lam)  # raises on a weight outside the packed range
        lines, norms = F
        out = {}
        for x, f in lines.items():
            s = self.W.act_key(x, lam) >> FIELD
            out[x] = GA._new({k + s: a for k, a in f.c.items()})
            _check(out[x].c, self.rank - 1)
        return out, norms

    def expand_product(self, lam_fund, w):
        """{u: C^w_{u,lambda}} by expanding L_lambda (x) MC(X(w)^o) on
        slice parts."""
        return self._expand(self._twist(lam_fund, self._slice_lines(w)),
                            self._slice_lines)

    def product_holds(self, lam_fund, w, table, bound):
        """Whether L_lambda MC(X(w)^o) = sum_u C_u MC(X(u)^o), with C_u's
        y-lines in table = {u: {weight key: line}} and bound >= sum_u
        ||C_u||_1.  As cell(u)|_x = P_x Q_{u,x}: whether the twisted slice
        part of w is sum_u C_u Q_{u,x} at every x, one line product per (u,
        x).  `fits` first certifies both sides' max norms (the right's is at
        most bound times a Q_{u,x}'s), so equal lines are equal values."""
        lines, norms = self._twist(lam_fund, self._slice_lines(w))
        cells = {u: self._slice_lines(u) for u in table}
        top = max((max(N.values()) for _, N in cells.values()), default=0)
        fits(max(max(norms.values()), bound * top))
        bias = _BIAS[self.rank - 1]  # line keys hold the weight fields only
        rem = {x: dict(f.c) for x, f in lines.items()}
        for u, c in table.items():
            neg = [(k - bias, -a) for k, a in c.items()]
            for x, f in cells[u][0].items():
                _add_products(rem.setdefault(x, {}), neg, f.c.items())
        return not any(rem.values())

    # -- parabolic model -----------------------------------------------
    def pushforward(self, F, parabolic):
        """pi_*: (pi_* F)|_v = sum_{p in W_P} F|_{vp} / (vp)(E_P), E_P =
        prod_{gamma in Phi_P^+} (1 - e^gamma) the Euler factors of the
        fibre, so each coset v W_P is one `weyl_quotient` with u = v: F|_{vp}
        times (-1)^{l(p)} e^{v(rho_P - p rho_P)}, over v(E_P)."""
        rs, W = self.rs, self.W
        horiz = rs.horizontal_roots(parabolic)
        levi = [a.fund for a in rs.positive_roots if a not in horiz]
        wp = W.parabolic_elements(parabolic)
        out = {}
        for v in W.min_coset_reps(parabolic):
            g = weyl_quotient(rs, [(p, F.get(W.mul(v, p), GA())) for p in wp],
                              levi, 1, v)
            if g:
                out[v] = g
        return out

    def expand_product_parabolic(self, lam_fund, w, parabolic):
        """{u in W^P: C^{w,P}_{u,lambda}} in the G/P localization model,
        by the triangular solve against the pushed-forward cell classes."""
        points = self.W.min_coset_reps(parabolic)
        if w not in points:
            raise ValueError("w must be a minimal coset representative")
        cells = {x: self._lines(self.pushforward(self.cell_class(x),
                                                 parabolic))
                 for x in points}
        return self._expand(self._twist(lam_fund, cells[w]),
                            cells.__getitem__, points)

