"""Chern-Schwartz-MacPherson classes in equivariant cohomology.

CohPoly, the integer polynomial ring on the fundamental-weight linear
forms, is a subclass of the character ring charring.GA: it inherits
all of GA's arithmetic, exact division and rendering and supplies only
the polynomial (not Laurent) exponent range, linear forms, the Weyl
action and its monomial format.  On it sit a localization model of
H_T*(G/B) (the shared core of localization.py with the cohomological
Demazure-Lusztig operator; CohPoly has no v, so the lines of its slice
recursion and solve hold plain int coefficients and need no
certificate), the left action of the degenerate affine
Hecke algebra (`t_left`, `t_w_times_x`, functions of the root system)
with its commutation lemma, CSM classes of Schubert cells
(`CohOracle.cell_class`), and the first-Chern-class Chevalley formula

    c1(L_lambda) . csm(X(w W_P)^o)
        = w(lambda) csm(X(w W_P)^o)
          - sum_{alpha>0, w s_alpha < w} <lambda, alpha^vee>
                csm(X(w s_alpha W_P)^o).

csm_chevalley computes its right-hand side, which at P = B, with T_u
for csm(X(u)^o), is also the right-hand side of the commutation lemma
for T_w x_lambda in the degenerate affine Hecke algebra.
"""

from __future__ import annotations

from .charring import (
    FIELD, GA, MASK, _BIAS, _HALF, _add_products, _check, _weight,
    power_mono,
)
from .localization import Localization, dl_step


_POWERS = {}


def _powers(mat):
    """(shift, powers) for each weight field j that mat moves, with
    powers[n] the n-th power of the image of varpi_j, extended on use;
    one list per matrix."""
    moves = _POWERS.get(mat)
    if moves is None:
        r = len(mat)
        moves = _POWERS[mat] = [
            (FIELD * (r - j), [CohPoly.const(1, r), CohPoly.linear(col)])
            for j, col in enumerate(zip(*mat))
            if any(c != (i == j) for i, c in enumerate(col))
        ]
    return moves


class CohPoly(GA):
    """Polynomial in the fundamental weights with integer coefficients:
    an element of H_T*(pt) = Z[varpi_1..varpi_r].

    `c` maps a packed key of GA (with its v field 0) to a nonzero int.
    Arithmetic, exact division and rendering are GA's.
    """

    __slots__ = ()

    laurent = False  # exponents >= 0; only the constants +-1 are units

    def terms(self):
        """(exponent tuple, int) pairs, exponents ascending."""
        r = self.rank()
        return [(_weight(k, r), self.c[k]) for k in sorted(self.c)]

    @staticmethod
    def linear(fund_coords):
        """The linear form sum c_i varpi_i."""
        r = len(fund_coords)
        return CohPoly(
            (tuple(1 if j == i else 0 for j in range(r)), a)
            for i, a in enumerate(fund_coords)
        )

    def act(self, W, w):
        """The Weyl action through the fundamental-coordinate matrices:
        varpi_j goes to the linear form of column j.  Only the generators
        that w moves are expanded: the terms are grouped by their
        exponents of those, and each group is one product with the
        images' powers, built once per matrix (`_powers`)."""
        mat = W.mats[w]
        r = len(mat)
        moves = _powers(mat)
        bias = _BIAS[r]
        groups = {}
        for k, x in self.c.items():
            exps = ()
            for s, _ in moves:
                e = (k >> s & MASK) - _HALF
                k -= e << s
                exps += (e,)
            groups.setdefault(exps, []).append((k - bias, x))
        acc = {}
        for exps, pairs in groups.items():
            image = None
            for (_, pw), e in zip(moves, exps):
                if not e:
                    continue  # pw[0] = 1
                while len(pw) <= e:
                    pw.append(pw[-1] * pw[1])
                image = pw[e] if image is None else image * pw[e]
            if image is None:
                image = CohPoly.const(1, r)
            _add_products(acc, pairs, image.c.items())
        _check(acc, r)
        return CohPoly._new(acc)

    def render(self):
        """Like w1^2*w2 - 3*w2 + 1."""
        return GA.render(self, power_mono("w"))

    def __repr__(self):
        return "CohPoly(%s)" % self.render()


# -- degenerate affine Hecke algebra -----------------------------------
# Elements are maps w -> CohPoly meaning sum p_w(x) T_w (with the
# polynomial part written on the left).

def t_left(rs, i, elem):
    """T_i . (sum p_w T_w) with T_i x_lam = x_{s_i lam} T_i
    - <lam, a_i^vee>, that is T_i p T_w = s_i(p) T_{s_i w}
    - partial_i(p) T_w: s_i acts once per term, and -partial_i(p) =
    (s_i p - p) / alpha_i."""
    W = rs.weyl()
    si = W.from_word((i,))
    ai = CohPoly.linear(rs.simple_roots[i].fund)
    out = {}

    def put(w, p):
        s = out.get(w, CohPoly()) + p
        if s:
            out[w] = s
        elif w in out:
            del out[w]

    for w, p in elem.items():
        sp = p.act(W, si)
        put(W.mul(si, w), sp)
        put(w, dl_step(1, 0, sp, p, ai))
    return out


def t_w_times_x(rs, w, lam_fund):
    """T_w x_lambda rewritten to normal form by direct relation use."""
    elem = {0: CohPoly.linear(lam_fund)}
    for i in reversed(rs.weyl().word(w)):
        elem = t_left(rs, i, elem)
    return elem


# -- cohomological localization oracle ---------------------------------

class CohOracle(Localization):
    """Localization model of H_T*(G/B) over the polynomial ring."""

    ring = CohPoly
    packed = False  # no v: a line holds plain ints

    def _euler(self, mu):
        """-mu."""
        return -CohPoly.linear(mu)

    def _act(self, w, p):
        return p.act(self.W, w)

    @staticmethod
    def dl_coeffs(rs, i):
        """(b, e, d) of T_i = ((alpha_i + 1) s_i^L - 1) / alpha_i: b = 1,
        d = alpha_i and e = (alpha_i + 1 - b) / d = 1."""
        return 1, 1, CohPoly.linear(rs.simple_roots[i].fund)

    def first_chern(self, lam_fund):
        """c1(L_lambda)|_v = v(lambda)."""
        W = self.W
        lam = CohPoly.linear(lam_fund)
        out = {}
        for v in range(W.n):
            p = lam.act(W, v)
            if p:
                out[v] = p
        return out

    def expand_chern_product(self, lam_fund, w):
        """{u: coefficient} of c1(L_lambda) . csm(X(w)^o) in the CSM
        basis."""
        chern, _ = self._lines(self.first_chern(lam_fund))
        lines, _ = self._slice_lines(w)
        return self._expand((self.mul(chern, lines), None), self._slice_lines)


# -- closed Chevalley formulas -----------------------------------------

def csm_chevalley(rs, lam_fund, w, parabolic=()):
    """{u in W^P: CohPoly} for c1(L_lambda) . csm(X(w W_P)^o): w(lambda)
    at w minus <lambda, alpha^vee> at the minimal representative of
    w s_alpha W_P, over alpha > 0 with w s_alpha < w."""
    W = rs.weyl()
    if any(lam_fund[i] for i in parabolic):
        raise ValueError("lambda must pair to zero with the parabolic roots")
    if W.min_coset_rep(w, parabolic) != w:
        raise ValueError("w must be a minimal coset representative")
    out = {}
    diag = CohPoly.linear(lam_fund).act(W, w)
    if diag:
        out[w] = diag
    for a in rs.positive_roots:
        ws = W.mul_refl(w, a.index)
        if W.length[ws] < W.length[w]:
            pairing = rs.pairing(lam_fund, a)
            if pairing:
                u = W.min_coset_rep(ws, parabolic)
                s = out.get(u, CohPoly()) - CohPoly.const(pairing, rs.rank)
                if s:
                    out[u] = s
                elif u in out:
                    del out[u]
    return out
