"""Left Demazure-Lusztig operators on the character ring and their
consequences.

The operator is a function of the root system (`dl_coeffs`,
`dl_simple`) that makes only the Weyl elements it reaches:

    T~_i = (1 + y e^{a_i})/(1 - e^{-a_i}) s_i - (1 + y)/(1 - e^{-a_i}).

It satisfies the braid relations and the quadratic relation, so T~_w
is defined along any reduced word.  It is one step
(localization.dl_step) with b = 1 + y and d = 1 - e^{-a_i}, the
oracle's (KOracle.dl_coeffs), and e = y e^{a_i}, the first numerator
minus b over d.

On it rest Iwahori-Whittaker functions, one step per element
(`whittaker`), and Casselman-Shalika summation.  Beside them are the
Euler-characteristic series R_lambda and its parabolic analogue
H_lambda, and Hall-Littlewood polynomials by a closed localization
formula and by two lambda-chain formulas, with their expansion in Weyl
characters.  The Hall-Littlewood
parameter t is the Hecke parameter q of the shared coefficient ring
(t = -y), so no new generator is introduced.

Everything here stays in the character ring GA: each operator step is
one exact division (localization.dl_step), and each localization
formula and Weyl character is sum_w w(n) / w(D_s) for one numerator n
and D_s = prod_{b>0} (1 - e^{s b}) (`_weyl_sum`).  As w(D_s) =
(-1)^{l(w)} e^{s(w rho - rho)} D_s, that is n moved by each w's matrix
times one monomial, and one exact division by D_s
(oracle.weyl_quotient); no oracle is built.

The chain formulas (Lenart 2011) sum over w in W^P and the subsets J
of the reduced (-lambda)-chain along which w descends to u, with
translation B (see alcove.descent_subsets):

  chain_restricted (u ->(J>) w): t^{(l(w)+l(u)-|J|)/2} (1-t)^{|J|}
      x^{w rhat_{J<}(lambda)}, that is x^{u(lambda) + B};
  chain_opposite (u ->(J<) w): t^{(2 dim G/P - l(w)-l(u)-|J|)/2}
      (1-t)^{|J|} x^{u rhat_{J<}(lambda)}, that is x^{w(lambda) - B}.

With t = q = -y and S^sign_lambda = sum_{w in W^P} sum_u q^{l(u)}
C^w_{u,sign*lambda} (chevalley.chevalley_sum), H_lambda = S^+_lambda,
chain_restricted = star(S^+_{-lambda}) term for term (keys starred,
coefficients times q^{l(u)}; no sign, as every root of the -lambda chain
is negative) and chain_opposite = star(S^-_lambda) as sums; so nothing
here walks subsets.
"""

from __future__ import annotations

from .charring import GA, Scalar, _pack, _wneg, power_mono, render_terms
from .chevalley import chevalley_sum
from .localization import dl_step
from .oracle import KOracle, weyl_quotient


def dl_coeffs(rs, i):
    """(b, e, d) of T~_i: the oracle's b and d, and e = y e^{a_i}."""
    b, _, d = KOracle.dl_coeffs(rs, i)
    return b, GA.term(rs.weight(rs.simple_roots[i].fund), Scalar.y(1)), d


def dl_simple(rs, i, f):
    """T~_i f; only s_i is made in the element store."""
    b, e, d = dl_coeffs(rs, i)
    W = rs.weyl()
    return dl_step(b, e, f.transform(W.mats[W.step(0, i)]), f, d)


def whittaker(rs, lam_fund, w):
    """The Iwahori-Whittaker function W_{lambda,w} = T~_w(e^lambda) for
    anti-dominant lambda: T~_i W_{lambda,s_i w}, i the first letter of w's
    canonical word, whose suffix (lex-least too) spells s_i w.  Kept in
    rs.whittakers, so all w take one climb, one step per element."""
    if not all(c <= 0 for c in lam_fund):
        raise ValueError("weight must be anti-dominant")
    memo, key = rs.whittakers, (tuple(lam_fund), w)
    if key not in memo:
        W = rs.weyl()
        word = W.word(w)
        memo[key] = GA.term(rs.weight(lam_fund)) if not word else dl_simple(
            rs, word[0], whittaker(rs, lam_fund, W.from_word(word[1:])))
    return memo[key]


def whittaker_chevalley(rs, lam_fund, w):
    """W_{lambda,w} from the Chevalley coefficients:

        e^rho sum_u (-1)^{l(u)} C^w_{u,lambda-rho}|_{y -> 1/y} y^{l(w)-l(u)}
      = e^rho y^{l(w)} (sum_u q^{l(u)} C^w_{u,lambda-rho})|_{y -> 1/y},

    as (-1)^{l(u)} y^{-l(u)} is q^{l(u)} under y -> 1/y."""
    shifted = tuple(c - 1 for c in lam_fund)
    acc = chevalley_sum(rs, shifted, (w,), 1).y_inverse()
    return GA.term(rs.rho(), Scalar.y(rs.weyl().length[w])) * acc


def big_r(rs, lam_fund):
    """R_lambda(y) = chi_T(G/B, lambda_y(T*) (x) L_lambda)."""
    return big_h(rs, lam_fund, parabolic=())


def _lambda_parabolic(rs, lam_fund):
    return tuple(i for i in range(rs.rank) if lam_fund[i] == 0)


def _weyl_sum(rs, n, ws, s):
    """sum_{w in ws} w(n) / w(D_s), D_s = prod_{b>0} (1 - e^{s b}): n is
    moved by each w's matrix (GA.transform), as w acts by a ring map that
    fixes y, and `weyl_quotient` does the rest."""
    W = rs.weyl()
    return weyl_quotient(rs, [(w, n.transform(W.mats[w])) for w in ws],
                         [a.fund for a in rs.positive_roots], s)


def _orbit_sum(rs, lam_fund, parabolic, s):
    """sum_{w in W^P} e^{w lam} prod_a (1 + y e^{s wa})/(1 - e^{s wa})
    over the horizontal roots a: the Levi's factors 1 - e^{s g} complete
    the denominators to D_s, so it is `_weyl_sum` of n = e^lam
    prod_a (1 + y e^{s a}) prod_g (1 - e^{s g}), built once."""
    one = GA.const(1, rs.rank)
    horiz = rs.horizontal_roots(parabolic)
    n = GA.term(rs.weight(lam_fund))
    for a in rs.positive_roots:
        e = rs.weight([s * c for c in a.fund])
        n = n * (one + GA.term(e, Scalar.y(1)) if a in horiz
                 else one - GA.term(e))
    return _weyl_sum(rs, n, rs.weyl().min_coset_reps(parabolic), s)


def big_h(rs, lam_fund, parabolic=None):
    """H_lambda(y) = chi_T(G/P_lambda, lambda_y(T*) (x) L_lambda) by the
    localization sum over W^P, which the Chevalley formula sum_{w in W^P}
    sum_u q^{l(u)} C^w_{u,lambda} equals."""
    if parabolic is None:
        if not (all(c >= 0 for c in lam_fund) or all(c <= 0 for c in lam_fund)):
            raise ValueError("lambda or -lambda must be dominant")
        parabolic = _lambda_parabolic(rs, lam_fund)
    return _orbit_sum(rs, lam_fund, parabolic, 1)


# -- Hall-Littlewood ---------------------------------------------------

def hall_littlewood(rs, lam_fund, method="closed"):
    """HL_lambda(x; t) for dominant lambda, as a GA element whose
    scalars are polynomials in t = q and whose weights are exponents of
    x (e^mu stands for x^mu); the chain formulas are stars of
    chevalley_sum over W^P (see the module docstring)."""
    if not all(c >= 0 for c in lam_fund):
        raise ValueError("lambda must be dominant")
    parabolic = _lambda_parabolic(rs, lam_fund)
    if method == "closed":
        # (1 - t e^{-wa})/(1 - e^{-wa}) over the horizontal roots
        return _orbit_sum(rs, lam_fund, parabolic, -1)
    if method in ("chain_restricted", "chain_opposite"):
        # lambda is range-checked as given, ahead of the sum at -lambda
        _pack(rs.weight(lam_fund))
        ws = rs.weyl().min_coset_reps(parabolic)
        if method == "chain_restricted":
            return chevalley_sum(rs, _wneg(lam_fund), ws, 1).star()
        return chevalley_sum(rs, lam_fund, ws, -1).star()
    raise ValueError("unknown method %r" % method)


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


def render_x(rs, g, degree):
    """Render a GA element in GL_n x-monomials (type A), its
    coefficients in t."""
    xmono = power_mono("x")
    parts = []
    for k, x in reversed(g.terms()):
        mono = xmono(gl_exponents(rs, rs.weight_user(k), degree))
        cs = x.render(var="t")
        parts.append(mono if cs == "1" else "(%s)*%s" % (cs, mono))
    return " + ".join(parts) if parts else "0"


def weyl_character(rs, mu_fund):
    """chi_mu = sum_w w(e^mu) / w(D_-) for dominant mu, the Weyl
    character formula over e^rho D_- = sum_w (-1)^{l(w)} e^{w rho}."""
    if not all(c >= 0 for c in mu_fund):
        raise ValueError("weight must be dominant")
    return _weyl_sum(rs, GA.term(rs.weight(mu_fund)), range(rs.weyl().n), -1)


def schur_expansion(rs, g):
    """Expand a Weyl-invariant GA element in Weyl characters.

    Returns {dominant weight (fund coords): Scalar}; peels the leading
    dominant term repeatedly, so it terminates exactly when g lies in
    the character ring."""

    def key(fine):
        # partition-style partial sums give a dominance-compatible order
        return tuple(sum(fine[k:]) for k in range(len(fine)))

    out = {}
    rem = g
    while rem:
        coeffs = dict(rem.terms())
        doms = [k for k in coeffs if all(c >= 0 for c in k)]
        if not doms:
            raise ValueError("element is not a character combination")
        lead = max(doms, key=key)
        mu = rs.weight_user(lead)
        coeff = coeffs[lead]
        out[mu] = coeff
        rem = rem - weyl_character(rs, mu) * coeff
    return out


def render_schur(rs, expansion, degree):
    """Type-A rendering like 's22 - t*s211' with partition subscripts.

    `degree` is the GL partition size; each dominant weight is lifted to
    the partition of that size in rank+1 parts.  A partition with a part
    of 10 or more is written with commas, like 's(11,1)'."""

    def pkey(mu):
        return tuple(sum(mu[k:]) for k in range(len(mu)))

    terms = []
    for mu in sorted(expansion, key=pkey, reverse=True):
        partition = list(gl_exponents(rs, mu, degree))
        while partition and not partition[-1]:
            partition.pop()
        if not partition:
            label = "1"
        elif max(partition) >= 10:
            label = "s(%s)" % ",".join(map(str, partition))
        else:
            label = "s" + "".join(map(str, partition))
        x = expansion[mu]
        terms.append((x.render(var="t"), len(x.c) == 1, label))
    return render_terms(terms)


# -- summation identities ----------------------------------------------

def casselman_shalika_sides(rs, lam_fund):
    """(sum_w W_{lambda,w},  prod(1+y e^alpha) chi_{w0 lambda})."""
    W = rs.weyl()
    acc = GA.dot((whittaker(rs, lam_fund, w), 1) for w in range(W.n))
    lam_id = GA.const(1, rs.rank)
    for a in rs.positive_roots:
        lam_id = lam_id * (GA.const(1, rs.rank)
                           + GA.term(rs.weight(a.fund), Scalar.y(1)))
    chi = weyl_character(rs, rs.weight_user(W.act(W.w0, rs.weight(lam_fund))))
    return acc, lam_id * chi


def whittaker_r_sides(rs, lam_fund):
    """(sum_w y^{-l(w)} W_{lambda,w},  e^rho R_{lambda-rho}(1/y))."""
    W = rs.weyl()
    acc = GA.dot((whittaker(rs, lam_fund, w), Scalar.y(-W.length[w]))
                 for w in range(W.n))
    shifted = tuple(c - 1 for c in lam_fund)
    rhs = GA.term(rs.rho()) * big_r(rs, shifted).y_inverse()
    return acc, rhs
