"""Scalar Demazure-Lusztig operators and their consequences.

Iwahori-Whittaker functions, Casselman-Shalika summation, the
Euler-characteristic series R_lambda and its parabolic quotient
H_lambda, and Hall-Littlewood polynomials by a closed localization
formula and by two lambda-chain formulas.  The Hall-Littlewood
parameter t is the Hecke parameter q of the shared coefficient ring
(t = -y), so no new generator is introduced.
"""

from __future__ import annotations

from .params import Scalar
from .charring import GA, Frac
from .alcove import chain_lex_height, chain_reflections, descent_subsets
from .chevalley import chevalley_table


def _wneg(t):
    return tuple(-c for c in t)


class ScalarDL:
    """The Demazure-Lusztig operators on the character ring:

        T~_i     = (1 + y e^{a_i})/(1 - e^{-a_i}) s_i - (1 + y)/(1 - e^{-a_i})
        T~vee_i  = (1 + y e^{-a_i})/(1 - e^{-a_i}) s_i - (1 + y)/(1 - e^{-a_i})

    Both satisfy the braid relations and the common quadratic relation,
    so T~_w is defined along any reduced word.
    """

    def __init__(self, rs):
        self.rs = rs
        self.W = rs.weyl()

    def _alpha(self, i):
        rs = self.rs
        return rs.weight(tuple(rs.cartan[k][i] for k in range(rs.rank)))

    def apply_simple(self, i, f, variant="tilde"):
        rs = self.rs
        W = self.W
        rank = rs.rank
        ai = self._alpha(i)
        one = GA.const(1, rank)
        den = (one - GA.term(_wneg(ai)),)
        top = ai if variant == "tilde" else _wneg(ai)
        if variant not in ("tilde", "tilde_vee"):
            raise ValueError("unknown variant %r" % variant)
        c1 = Frac(one + GA.term(top, Scalar.y(1)), den)
        c2 = Frac(one + GA.const(Scalar.y(1), rank), den)
        si = W.from_word((i,))
        moved = f.map(lambda g: g.map_weights(lambda k: W.act(si, k)))
        return c1 * moved - c2 * f

    def apply(self, w, f, variant="tilde"):
        for i in reversed(self.W.word(w)):
            f = self.apply_simple(i, f, variant)
        return f


def whittaker(rs, lam_fund, w, as_frac=False):
    """The Iwahori-Whittaker function W_{lambda,w} = T~_w(e^lambda) for
    anti-dominant lambda."""
    if not all(c <= 0 for c in lam_fund):
        raise ValueError("weight must be anti-dominant")
    dl = ScalarDL(rs)
    f = dl.apply(w, Frac(GA.term(rs.weight(lam_fund))))
    if as_frac:
        return f
    g = f.as_poly()
    assert g is not None, "Whittaker function did not reduce to a polynomial"
    return g


def whittaker_chevalley(rs, lam_fund, w):
    """W_{lambda,w} from the Chevalley coefficients:

        e^rho sum_u (-1)^{l(u)} C^w_{u,lambda-rho}|_{y -> 1/y} y^{l(w)-l(u)}
    """
    W = rs.weyl()
    shifted = tuple(c - 1 for c in lam_fund)
    table = chevalley_table(rs, shifted, w, sign=1)
    acc = GA()
    lw = W.length[w]
    for u, g in table.items():
        s = Scalar.y(lw - W.length[u], (-1) ** W.length[u])
        acc = acc + g.y_inverse() * s
    return GA.term(rs.rho()) * acc


def big_r(rs, lam_fund, method="localization"):
    """R_lambda(y) = chi_T(G/B, lambda_y(T*) (x) L_lambda)."""
    W = rs.weyl()
    if method == "localization":
        return _fixed_point_sum(
            rs, rs.weight(lam_fund), range(W.n),
            [rs.weight(a.fund) for a in rs.positive_roots], Scalar.y(1),
        )
    if method == "operators":
        dl = ScalarDL(rs)
        e_lam = Frac(GA.term(rs.weight(lam_fund)))
        acc = Frac(GA())
        for w in range(W.n):
            acc = acc + dl.apply(w, e_lam, variant="tilde_vee")
        g = acc.as_poly()
        assert g is not None
        return g
    if method == "chevalley":
        return big_h(rs, lam_fund, method="chevalley", parabolic=())
    raise ValueError("unknown method %r" % method)


def _lambda_parabolic(rs, lam_fund):
    return tuple(i for i in range(rs.rank) if lam_fund[i] == 0)


def _horizontal_roots(rs, parabolic):
    """Positive roots outside the Levi of P: the tangent weights of G/P."""
    return [
        a for a in rs.positive_roots
        if any(a.simple[i] for i in range(rs.rank) if i not in parabolic)
    ]


def _fixed_point_sum(rs, lam, reps, roots, c):
    """sum_{w in reps} e^{w lam} prod_{a in roots} (1 + c e^{wa})/(1 - e^{wa})

    for a fine weight lam and fine-lattice roots; the localization
    formulas below are all of this shape and sum to a polynomial."""
    W = rs.weyl()
    one = GA.const(1, rs.rank)
    acc = Frac(GA())
    for w in reps:
        num = GA.term(W.act(w, lam))
        den = []
        for a in roots:
            wa = W.act(w, a)
            num = num * (one + GA.term(wa, c))
            den.append(one - GA.term(wa))
        acc = acc + Frac(num, tuple(den))
    g = acc.as_poly()
    assert g is not None, "localization sum is not polynomial"
    return g


def big_h(rs, lam_fund, method="localization", parabolic=None):
    """H_lambda(y) = chi_T(G/P_lambda, lambda_y(T*) (x) L_lambda)."""
    W = rs.weyl()
    if parabolic is None:
        if not (all(c >= 0 for c in lam_fund) or all(c <= 0 for c in lam_fund)):
            raise ValueError("lambda or -lambda must be dominant")
        parabolic = _lambda_parabolic(rs, lam_fund)
    if method == "localization":
        return _fixed_point_sum(
            rs, rs.weight(lam_fund), W.min_coset_reps(parabolic),
            [rs.weight(a.fund) for a in _horizontal_roots(rs, parabolic)],
            Scalar.y(1),
        )
    if method == "chevalley":
        # H_lambda = sum_{w in W^P} sum_u C^w_{u,lambda} (-y)^{l(u)}
        acc = GA()
        for w in W.min_coset_reps(parabolic):
            for u, g in chevalley_table(rs, lam_fund, w, sign=1).items():
                lu = W.length[u]
                acc = acc + g * Scalar.y(lu, (-1) ** lu)
        return acc
    if method == "quotient":
        r = big_r(rs, lam_fund)
        den = Scalar.zero()
        for p in W.parabolic_elements(parabolic):
            lp = W.length[p]
            den = den + Scalar.y(lp, (-1) ** lp)
        out = {}
        for k, x in r.c.items():
            d = x.divide(den)
            assert d is not None, "R_lambda is not divisible by the W_P sum"
            if d:
                out[k] = d
        return GA(out)
    raise ValueError("unknown method %r" % method)


# -- Hall-Littlewood ---------------------------------------------------

def hall_littlewood(rs, lam_fund, method="closed", chain=None):
    """HL_lambda(x; t) for dominant lambda, as a GA element whose
    scalars are polynomials in t = q and whose weights are exponents of
    x (e^mu stands for x^mu)."""
    if not all(c >= 0 for c in lam_fund):
        raise ValueError("lambda must be dominant")
    W = rs.weyl()
    parabolic = _lambda_parabolic(rs, lam_fund)
    if method == "closed":
        # (1 - t e^{-wa})/(1 - e^{-wa}) over the negated horizontal roots
        return _fixed_point_sum(
            rs, rs.weight(lam_fund), W.min_coset_reps(parabolic),
            [_wneg(rs.weight(a.fund)) for a in _horizontal_roots(rs, parabolic)],
            -Scalar.q(1),
        )
    if method in ("chain_restricted", "chain_opposite"):
        formula = 1 if method == "chain_restricted" else 2
        acc = GA()
        for _w, _j, _u, mono in hl_terms(
            rs, lam_fund, formula, chain=chain
        ):
            acc = acc + mono
        return acc
    raise ValueError("unknown method %r" % method)


def hl_terms(rs, lam_fund, formula, chain=None):
    """The individual terms of the two chain formulas for HL_lambda.

    Both run over a reduced (-lambda)-chain with hyperplanes
    H_{beta_j, d_j}.  Yields (w, J, u, monomial):

      formula 1 (restricted Bruhat condition u ->(J>) w, w in W^P):
          t^{(l(w)+l(u)-|J|)/2} (1-t)^{|J|} x^{w rhat_{J<}(lambda)}
      formula 2 (opposite condition u ->(J<) w, w in W^P):
          t^{(2 dim G/P - l(w)-l(u)-|J|)/2} (1-t)^{|J|} x^{u rhat_{J<}(lambda)}
    """
    if not all(c >= 0 for c in lam_fund):
        raise ValueError("lambda must be dominant")
    W = rs.weyl()
    parabolic = _lambda_parabolic(rs, lam_fund)
    if chain is None:
        chain = chain_lex_height(rs, _wneg(lam_fund))
    if tuple(chain.lam_fund) != _wneg(tuple(lam_fund)):
        raise ValueError("chain must be a (-lambda)-chain")
    lam = rs.weight(lam_fund)
    horiz = len(_horizontal_roots(rs, parabolic))
    t = Scalar.q(1)
    one_minus_t = Scalar.one() - t
    out = []
    for w in W.min_coset_reps(parabolic):
        for u, J in descent_subsets(chain, w, ascending=formula == 1):
            data = chain_reflections(chain, J)
            nj = len(J)
            if formula == 1:
                power2 = W.length[w] + W.length[u] - nj
                mu = W.act(w, data["rhat_Jlt"](lam))
            else:
                power2 = 2 * horiz - W.length[w] - W.length[u] - nj
                mu = W.act(u, data["rhat_Jlt"](lam))
            assert power2 % 2 == 0 and power2 >= 0
            coeff = Scalar.q(power2 // 2) * one_minus_t ** nj
            out.append((w, tuple(J), u, GA.term(mu, coeff)))
    return out


# -- GL_n coordinates (type A) -----------------------------------------

def gl_exponents(rs, mu_fund, degree):
    """x-exponents (a_1, ..., a_n) of x^mu for type A rank n-1, where
    x_i = e^{eps_i}; `degree` is the total degree sum(a_i), constant on
    a Weyl orbit and supplied by the dominant weight of the context."""
    if rs.family != "A":
        raise ValueError("x-coordinates exist only in type A")
    n = rs.rank + 1
    partial = [sum(mu_fund[k:]) for k in range(rs.rank)] + [0]
    total = sum(partial)
    shift, r = divmod(degree - total, n)
    if r:
        raise ValueError("degree %d unreachable from %r" % (degree, mu_fund))
    return tuple(a + shift for a in partial)


def render_x(rs, g, degree, var="t"):
    """Render a GA element in GL_n x-monomials (type A)."""
    parts = []
    for k in sorted(g.c, reverse=True):
        mu = rs.weight_user(k)
        exps = gl_exponents(rs, mu, degree)
        mono = "*".join(
            ("x%d" % (i + 1)) if e == 1 else "x%d^%d" % (i + 1, e)
            for i, e in enumerate(exps)
            if e
        ) or "1"
        cs = g.c[k].render(var=var)
        parts.append(mono if cs == "1" else "(%s)*%s" % (cs, mono))
    return " + ".join(parts) if parts else "0"


def schur_expansion(rs, g):
    """Expand a Weyl-invariant GA element in Weyl characters.

    Returns {dominant weight (fund coords): Scalar}; peels the leading
    dominant term repeatedly, so it terminates exactly when g lies in
    the character ring."""
    from .oracle import KOracle

    o = KOracle(rs)

    def key(fine):
        # partition-style partial sums give a dominance-compatible order
        return tuple(sum(fine[k:]) for k in range(len(fine)))

    out = {}
    rem = g
    while rem:
        doms = [k for k in rem.c if all(c >= 0 for c in k)]
        if not doms:
            raise ValueError("element is not a character combination")
        lead = max(doms, key=key)
        mu = rs.weight_user(lead)
        coeff = rem.c[lead]
        out[mu] = coeff
        rem = rem - o.weyl_character(mu) * coeff
    return out


def render_schur(rs, expansion, degree, var="t"):
    """Type-A rendering like 's22 - t*s211' with partition subscripts.

    `degree` is the GL partition size; each dominant weight is lifted to
    the partition of that size in rank+1 parts."""
    parts = []

    def pkey(mu):
        return tuple(sum(mu[k:]) for k in range(len(mu)))

    for mu in sorted(expansion, key=pkey, reverse=True):
        partition = list(gl_exponents(rs, mu, degree))
        while partition and not partition[-1]:
            partition.pop()
        label = "s" + "".join(str(p) for p in partition) if partition else "1"
        cs = expansion[mu].render(var=var)
        if cs == "1":
            parts.append(label)
        elif cs == "-1":
            parts.append("-" + label)
        elif len(expansion[mu].c) == 1:
            parts.append("%s*%s" % (cs, label))
        else:
            parts.append("(%s)*%s" % (cs, label))
    out = parts[0] if parts else "0"
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


# -- summation identities ----------------------------------------------

def casselman_shalika_sides(rs, lam_fund):
    """(sum_w W_{lambda,w},  prod(1+y e^alpha) chi_{w0 lambda})."""
    from .oracle import KOracle

    W = rs.weyl()
    acc = GA()
    for w in range(W.n):
        acc = acc + whittaker(rs, lam_fund, w)
    lam_id = GA.const(1, rs.rank)
    for a in rs.positive_roots:
        af = tuple(rs.h * c for c in a.fund)
        lam_id = lam_id * (GA.const(1, rs.rank) + GA.term(af, Scalar.y(1)))
    w0lam = rs.weight_user(W.act(W.w0, rs.weight(lam_fund)))
    chi = KOracle(rs).weyl_character(w0lam)
    return acc, lam_id * chi


def whittaker_r_sides(rs, lam_fund):
    """(sum_w y^{-l(w)} W_{lambda,w},  e^rho R_{lambda-rho}(1/y))."""
    W = rs.weyl()
    acc = GA()
    for w in range(W.n):
        lw = W.length[w]
        acc = acc + whittaker(rs, lam_fund, w) * Scalar.y(-lw)
    shifted = tuple(c - 1 for c in lam_fund)
    rhs = GA.term(rs.rho()) * big_r(rs, shifted).y_inverse()
    return acc, rhs
