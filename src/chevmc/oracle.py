"""Brute-force localization model of equivariant K-theory of G/B.

On the shared localization core (localization.py) with the character
ring as coefficients, the module provides line bundles, motivic Chern
classes of Schubert cells (by the right Demazure-Lusztig recursion),
Segre motivic classes (by their defining formula), Euler
characteristics by the Atiyah-Bott fixed-point sum, and the expansion
of a line bundle times a motivic class in the motivic basis, on G/B
and on G/P.  The module imports only charring and localization, so
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
triangular solve are exact divisions,
and so is each genuine quotient, over a W-fixed denominator: the
Atiyah-Bott sum and each coset of `pushforward` over root factors, and
the Segre-type classes (`smc`, `mc_prime`) are a numerator class over
Lambda = prod over all roots beta of (1 + y e^beta), so that pairing
with one is one more division by Lambda.

Stable envelopes of the cotangent bundle are classes of the oracle
(`KOracle.stab`, with the affine Hecke action on them); only these use
half powers of q (odd powers of v).
"""

from __future__ import annotations

from .charring import FIELD, GA, Scalar, _check, _pack, _wneg
from .localization import Localization


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
        b = 1 + y and d = 1 - e^{-a_i}, which is also specialfn's
        T~vee_i: e = (a - b) / d = -y."""
        nai = _wneg(rs.weight(rs.simple_roots[i].fund))
        return (Scalar.one() + Scalar.y(1), Scalar.y(1, -1),
                GA.const(1, rs.rank) - GA.term(nai))

    # -- basic classes -------------------------------------------------
    def line_bundle(self, lam_fund):
        """L_lambda with restriction e^{w(lambda)} at e_w."""
        lam = self.rs.weight(lam_fund)
        return {w: GA.term(self.W.act(w, lam)) for w in range(self.W.n)}

    def scale(self, F, c):
        return {w: f * c for w, f in F.items()}

    def lambda_y_cotangent(self, w, sign=1):
        """lambda_y(T*)|_w = prod_{alpha>0} (1 + y e^{w(alpha)}); with
        sign=-1 the product over the -w(alpha), so that the two signs
        multiply to Lambda = prod over all roots beta of (1 + y e^beta),
        which W fixes."""
        y = Scalar.y(1)
        g = self._one()
        for b in self.pos_roots:
            wb = self.rs.weight(self.W.act(w, b))
            g = g * (self._one() + GA.term(tuple(sign * c for c in wb), y))
        return g

    # -- motivic classes -----------------------------------------------
    def _over_lambda_y(self, F):
        """F / lambda_y(T*) as (numerator class, Lambda)."""
        num = {w: f * self.lambda_y_cotangent(w, -1) for w, f in F.items()}
        return num, self.lambda_y_cotangent(0) * self.lambda_y_cotangent(0, -1)

    def _segre(self, F, d):
        """(-y)^d D(F) / lambda_y(T*) as (numerator class, Lambda), with
        the duality D(F)|_w = (-1)^{dim G/B} e^{2 w rho} (F|_w)^vee."""
        W = self.W
        pref = Scalar.q(d) * ((-1) ** self.N)
        rho2 = tuple(2 * c for c in self.rs.rho())
        return self._over_lambda_y({
            w: f.dual_vee() * GA.term(W.act(w, rho2), pref)
            for w, f in F.items()
        })

    def smc(self, u):
        """SMC_y(Y(u)^o) = (-y)^{dim Y(u)} D(MC_y(Y(u)^o)) / lambda_y(T*),
        the basis dual to the MC classes, as (numerator class, Lambda)."""
        return self._segre(self.opposite_cell_class(u),
                           self.N - self.W.length[u])

    def mc_prime(self, w):
        """MC'_y(X(w)^o) = lambda_y(id) MC_y(X(w)^o) / lambda_y(T*) as
        (numerator class, Lambda)."""
        return self._over_lambda_y(
            self.scale(self.cell_class(w), self.lambda_y_cotangent(0))
        )

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

    # -- parabolic model -----------------------------------------------
    def pushforward(self, F, parabolic):
        """pi_*: inside a coset v W_P the vertical Euler factors are units
        times prod_{gamma in Phi_P^+} (1 - e^{-v gamma}), so each coset
        is one exact division."""
        rs = self.rs
        W = self.W
        horiz = rs.horizontal_roots(parabolic)
        levi = [a.fund for a in rs.positive_roots if a not in horiz]
        wp = W.parabolic_elements(parabolic)
        out = {}
        for v in W.min_coset_reps(parabolic):
            roots = [W.act(v, g) for g in levi]
            coset = [W.mul(v, p) for p in wp]
            num = GA.dot(
                (F[x], self.cofactor([W.act(x, g) for g in levi], roots))
                for x in coset if x in F
            )
            g = self.root_quotient(num, roots)
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

