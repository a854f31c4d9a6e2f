"""Left Demazure-Lusztig operators on the character ring and their
consequences.

The operators are functions of the root system (`dl_coeffs`,
`dl_simple`, `dl_apply`) that make only the Weyl elements they reach:

    T~_i     = (1 + y e^{a_i})/(1 - e^{-a_i}) s_i - (1 + y)/(1 - e^{-a_i})
    T~vee_i  = (1 + y e^{-a_i})/(1 - e^{-a_i}) s_i - (1 + y)/(1 - e^{-a_i})

T~vee_i is the oracle's left operator (KOracle.dl_coeffs), and T~_i
differs from it only in the sign of a_i in the first numerator.  Both
satisfy the braid relations and the common quadratic relation, so
T~_w is defined along any reduced word.  Each is one step
(localization.dl_step) with b = 1 + y, d = 1 - e^{-a_i} and e the
first numerator minus b over d: -y for T~vee_i, y e^{a_i} for T~_i.

On them rest Iwahori-Whittaker functions, Casselman-Shalika summation,
the Euler-characteristic series R_lambda and its parabolic quotient
H_lambda, and Hall-Littlewood polynomials by a closed localization
formula and by two lambda-chain formulas, with their expansion in Weyl
characters.  The Hall-Littlewood parameter t is the Hecke parameter q
of the shared coefficient ring (t = -y), so no new generator is
introduced.

Everything here stays in the character ring GA: each operator step is
one exact division (localization.dl_step), and each localization
formula is one exact division by the Weyl denominator.

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
from .oracle import KOracle


def dl_coeffs(rs, i, variant="tilde"):
    """(b, e, d) of T~_i (variant "tilde") or T~vee_i ("tilde_vee")."""
    if variant not in ("tilde", "tilde_vee"):
        raise ValueError("unknown variant %r" % variant)
    b, e, d = KOracle.dl_coeffs(rs, i)
    if variant == "tilde":
        e = GA.term(rs.weight(rs.simple_roots[i].fund), Scalar.y(1))
    return b, e, d


def dl_simple(rs, i, f, variant="tilde"):
    """T~_i f or T~vee_i f; only s_i is made in the element store."""
    b, e, d = dl_coeffs(rs, i, variant)
    W = rs.weyl()
    return dl_step(b, e, f.transform(W.mats[W.step(0, i)]), f, d)


def dl_apply(rs, w, f, variant="tilde"):
    """T~_w f or T~vee_w f along the canonical word of w."""
    for i in reversed(rs.weyl().word(w)):
        f = dl_simple(rs, i, f, variant)
    return f


def whittaker(rs, lam_fund, w):
    """The Iwahori-Whittaker function W_{lambda,w} = T~_w(e^lambda) for
    anti-dominant lambda."""
    if not all(c <= 0 for c in lam_fund):
        raise ValueError("weight must be anti-dominant")
    return dl_apply(rs, w, GA.term(rs.weight(lam_fund)))


def whittaker_chevalley(rs, lam_fund, w):
    """W_{lambda,w} from the Chevalley coefficients:

        e^rho sum_u (-1)^{l(u)} C^w_{u,lambda-rho}|_{y -> 1/y} y^{l(w)-l(u)}
      = e^rho y^{l(w)} (sum_u q^{l(u)} C^w_{u,lambda-rho})|_{y -> 1/y},

    as (-1)^{l(u)} y^{-l(u)} is q^{l(u)} under y -> 1/y."""
    shifted = tuple(c - 1 for c in lam_fund)
    acc = chevalley_sum(rs, shifted, (w,), 1).y_inverse()
    return GA.term(rs.rho(), Scalar.y(rs.weyl().length[w])) * acc


def big_r(rs, lam_fund, method="localization"):
    """R_lambda(y) = chi_T(G/B, lambda_y(T*) (x) L_lambda)."""
    if method == "operators":
        e_lam = GA.term(rs.weight(lam_fund))
        return GA.dot((dl_apply(rs, w, e_lam, variant="tilde_vee"), 1)
                      for w in range(rs.weyl().n))
    if method in ("localization", "chevalley"):
        return big_h(rs, lam_fund, method=method, parabolic=())
    raise ValueError("unknown method %r" % method)


def _lambda_parabolic(rs, lam_fund):
    return tuple(i for i in range(rs.rank) if lam_fund[i] == 0)


def _orbit_sum(rs, lam_fund, parabolic, roots):
    """sum_{w in W^P} e^{w lam} prod_{a in roots} (1 + y e^{wa})/(1 - e^{wa})

    for roots in fundamental coordinates, each +-a positive root: the
    denominators are Euler factors of the K-theory oracle, so the sum is
    one exact division by the Weyl denominator (Localization.cofactor)."""
    o = KOracle(rs)
    W = o.W
    lam = rs.weight(lam_fund)
    one = GA.const(1, rs.rank)
    pairs = []
    for w in W.min_coset_reps(parabolic):
        wroots = [W.act(w, a) for a in roots]
        g = GA.term(W.act(w, lam))
        for wa in wroots:
            g = g * (one + GA.term(rs.weight(wa), Scalar.y(1)))
        pairs.append((g, o.cofactor(wroots)))
    return o.root_quotient(GA.dot(pairs))


def big_h(rs, lam_fund, method="localization", parabolic=None):
    """H_lambda(y) = chi_T(G/P_lambda, lambda_y(T*) (x) L_lambda), by the
    Chevalley formula sum_{w in W^P} sum_u q^{l(u)} C^w_{u,lambda}."""
    W = rs.weyl()
    if parabolic is None:
        if not (all(c >= 0 for c in lam_fund) or all(c <= 0 for c in lam_fund)):
            raise ValueError("lambda or -lambda must be dominant")
        parabolic = _lambda_parabolic(rs, lam_fund)
    if method == "localization":
        return _orbit_sum(
            rs, lam_fund, parabolic,
            [a.fund for a in rs.horizontal_roots(parabolic)],
        )
    if method == "chevalley":
        return chevalley_sum(rs, lam_fund, W.min_coset_reps(parabolic), 1)
    if method == "quotient":
        r = big_r(rs, lam_fund)
        den = Scalar.zero()
        for p in W.parabolic_elements(parabolic):
            lp = W.length[p]
            den = den + Scalar.q(lp)
        out = []
        for k, x in r.terms():
            d = x.exact_div(den)
            assert d is not None, "R_lambda is not divisible by the W_P sum"
            out.append((k, d))
        return GA(out)
    raise ValueError("unknown method %r" % method)


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
        # (1 - t e^{-wa})/(1 - e^{-wa}) over the negated horizontal roots
        return _orbit_sum(
            rs, lam_fund, parabolic,
            [_wneg(a.fund) for a in rs.horizontal_roots(parabolic)],
        )
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


def render_x(rs, g, degree, var="t"):
    """Render a GA element in GL_n x-monomials (type A)."""
    xmono = power_mono("x")
    parts = []
    for k, x in reversed(g.terms()):
        mono = xmono(gl_exponents(rs, rs.weight_user(k), degree))
        cs = x.render(var=var)
        parts.append(mono if cs == "1" else "(%s)*%s" % (cs, mono))
    return " + ".join(parts) if parts else "0"


def weyl_character(rs, mu_fund):
    """chi_mu for dominant mu by the Weyl character formula."""
    if not all(c >= 0 for c in mu_fund):
        raise ValueError("weight must be dominant")
    W = rs.weyl()
    rho = rs.rho()
    mur = tuple(a + b for a, b in zip(rs.weight(mu_fund), rho))
    num = GA()
    den = GA()
    for w in range(W.n):
        s = (-1) ** W.length[w]
        num = num + GA.term(W.act(w, mur), s)
        den = den + GA.term(W.act(w, rho), s)
    out = num.exact_div(den)
    assert out is not None
    return out


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


def render_schur(rs, expansion, degree, var="t"):
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
        terms.append((x.render(var=var), len(x.c) == 1, label))
    return render_terms(terms)


# -- summation identities ----------------------------------------------

def casselman_shalika_sides(rs, lam_fund):
    """(sum_w W_{lambda,w},  prod(1+y e^alpha) chi_{w0 lambda})."""
    W = rs.weyl()
    acc = GA.dot((whittaker(rs, lam_fund, w), 1) for w in range(W.n))
    lam_id = GA.const(1, rs.rank)
    for a in rs.positive_roots:
        af = tuple(rs.h * c for c in a.fund)
        lam_id = lam_id * (GA.const(1, rs.rank) + GA.term(af, Scalar.y(1)))
    w0lam = rs.weight_user(W.act(W.w0, rs.weight(lam_fund)))
    chi = weyl_character(rs, w0lam)
    return acc, lam_id * chi


def whittaker_r_sides(rs, lam_fund):
    """(sum_w y^{-l(w)} W_{lambda,w},  e^rho R_{lambda-rho}(1/y))."""
    W = rs.weyl()
    acc = GA.dot(
        (whittaker(rs, lam_fund, w), Scalar.y(-W.length[w]))
        for w in range(W.n)
    )
    shifted = tuple(c - 1 for c in lam_fund)
    rhs = GA.term(rs.rho()) * big_r(rs, shifted).y_inverse()
    return acc, rhs
