"""Group-algebra elements and factored fractions."""

import signal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chevmc import charring
from chevmc.charring import (
    FIELD, GA, LIMIT, Scalar, _HALF, _pack, decode_line, line_max,
    line_pairs, to_line,
)
from chevmc.csm import CohPoly
from chevmc.rootsystem import RootSystem
from conftest import ref_chain_div, ref_to_json


weights = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
scalars = st.dictionaries(
    st.integers(-4, 4), st.integers(-5, 5), max_size=3
).map(Scalar)
gas = st.dictionaries(weights, scalars, max_size=4).map(GA)
# the polynomial subclass: exponents >= 0, integer coefficients
cohpolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5),
    max_size=4,
).map(CohPoly)
rings = pytest.mark.parametrize("elems", [gas, cohpolys], ids=["GA", "CohPoly"])


def test_basics():
    g = GA.term((1, 0)) + GA.term((0, 1), Scalar.y(1))
    assert dict(g.terms())[(1, 0)] == Scalar.one()
    assert bool(g)
    assert g - g == GA()
    assert GA.const(3, 2).terms() == [((0, 0), Scalar.int(3))]


@rings
@given(data=st.data())
def test_ring_axioms(elems, data):
    a, b, c = (data.draw(elems) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(gas)
def test_dualities(g):
    assert g.dual_vee().dual_vee() == g
    assert g.star().star() == g
    assert g.y_inverse().y_inverse() == g
    # star and y_inverse commute and compose to dual_vee
    assert g.star().y_inverse() == g.dual_vee()


@rings
@given(data=st.data())
@settings(max_examples=60)
def test_exact_div_of_product(elems, data):
    a, b = data.draw(elems), data.draw(elems)
    if not b:
        return
    q = (a * b).exact_div(b)
    assert q is not None and q == a


def test_exact_div_indivisible():
    one = GA.const(1, 2)
    a1 = GA.term((2, -1))
    # 1 - e^alpha does not divide 1 + e^alpha
    assert (one + a1).exact_div(one - a1) is None
    # and does not divide a bare constant
    assert one.exact_div(one - a1) is None


def test_exact_div_laurent_box():
    # denominators with constant lex-leading term used to recurse forever
    one = GA.const(1, 2)
    d = one - GA.term((-2, 1))
    n = one - GA.term((-4, 2))
    q = n.exact_div(d)
    assert q == one + GA.term((-2, 1))


# the two-term divisors of the package: 1 - e^mu and 1 + y e^mu (the
# Demazure-Lusztig denominators and numerators), 2 - e^mu with a
# non-unit leading coefficient, and linear forms of CohPoly
nonzero_weights = weights.filter(any)
ga_two_terms = st.builds(
    lambda c, mu, s: GA.const(c, 2) + GA.term(mu, s),
    st.sampled_from([1, 2]), nonzero_weights,
    st.sampled_from([Scalar.int(-1), Scalar.y(1)]),
)
coh_two_terms = st.one_of(
    # sum a_i varpi_i with both a_i nonzero, e.g. 2 varpi_1 - varpi_2
    st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    .filter(all).map(CohPoly.linear),
    # varpi_i + c
    st.builds(lambda i, c: CohPoly.linear((1 - i, i)) + CohPoly.const(c, 2),
              st.integers(0, 1), st.integers(-3, 3).filter(bool)),
)
ga_monomials = st.builds(lambda w, n, c: GA.term(w, Scalar.v(n, c)), weights,
                         st.integers(-4, 4), st.integers(-5, 5).filter(bool))
coh_monomials = st.builds(
    lambda e, c: CohPoly.term(e, c),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5).filter(bool),
)


@pytest.mark.parametrize(
    "elems, divisors, monomials",
    [(gas, ga_two_terms, ga_monomials),
     (cohpolys, coh_two_terms, coh_monomials)],
    ids=["GA", "CohPoly"],
)
@given(data=st.data())
@settings(max_examples=80)
def test_exact_div_two_terms(elems, divisors, monomials, data):
    """The line-by-line division by a two-term divisor: a returned
    quotient is exact, a product divides back, a product plus a stray
    term does not, and it agrees with the long division by d*m."""
    n, p, m = data.draw(elems), data.draw(elems), data.draw(elems)
    d = data.draw(divisors)
    assert len(d.c) == 2
    q = n.exact_div(d)
    if q is not None:
        assert q * d == n
    assert (p * d).exact_div(d) == p
    assert (p * d + data.draw(monomials)).exact_div(d) is None
    if m:  # d*m is divided by the long division unless it has two terms
        assert (n * m).exact_div(d * m) == q


def test_cohpoly_is_a_polynomial_ring():
    w1 = CohPoly.linear((1, 0))
    two = CohPoly.const(2, 2)
    # no Laurent quotients and no monomial units
    assert CohPoly.const(1, 2).exact_div(w1) is None
    # 2 does not divide w1 + 1 in Z[varpi]
    assert (w1 + CohPoly.const(1, 2)).exact_div(two) is None
    assert (w1 * w1 - two * two).exact_div(w1 + two) == w1 - two
    assert (w1 * w1 * -2 + w1 + CohPoly.const(3, 2)).render() == (
        "-2*w1^2 + w1 + 3")
    assert CohPoly().render() == "0"


def test_monomial_unit_absorbed():
    unit = GA.term((2, 0), Scalar.v(3))
    want = GA.term((0, 2), Scalar.v(-3))
    assert GA.term((2, 2)).exact_div(unit) == want


@given(gas)
def test_json_round_trip(g):
    # the reference encoder writes what `terms` reads back
    assert ref_to_json(g) == [{"weight": list(w), "coeff": x.to_json()}
                           for w, x in g.terms()]


# -- the packed layout --------------------------------------------------

weights3 = st.tuples(*[st.integers(-60, 60)] * 3)
vscalars = st.dictionaries(
    st.integers(-9, 9), st.integers(-5, 5), max_size=3
).map(Scalar)
gas3 = st.lists(st.tuples(weights3, vscalars), max_size=5).map(GA)


def _model(g):
    """{(weight, v exponent): coefficient} read back through `terms`."""
    return {
        (w, int(n)): x
        for w, s in g.terms() for n, x in s.to_json().items()
    }


def _model_mul(a, b):
    out = {}
    for (wa, va), xa in _model(a).items():
        for (wb, vb), xb in _model(b).items():
            k = (tuple(p + q for p, q in zip(wa, wb)), va + vb)
            out[k] = out.get(k, 0) + xa * xb
    return {k: x for k, x in out.items() if x}


@given(gas3, gas3, gas3)
@settings(max_examples=60)
def test_packed_ring_laws(a, b, c):
    """Rank 3 with negative exponents and odd powers of v: the ring laws,
    and products agree with exponent-tuple arithmetic."""
    one = GA.const(1, 3)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one == a and a - a == GA()
    assert _model(a * b) == _model_mul(a, b)
    assert _model(a * Scalar.v(3)) == _model_mul(a, GA.const(Scalar.v(3), 3))


WEYL = {label: RootSystem(label[0], int(label[1])).weyl()
        for label in ("A3", "B3", "G2", "B2")}
gas2 = st.lists(st.tuples(st.tuples(*[st.integers(-60, 60)] * 2), vscalars),
                max_size=5).map(GA)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_transform_is_the_weyl_action(data):
    """Over every element of A3, B3 and G2, the identity included, and
    on the zero element, whose layout comes from the matrix alone."""
    for label, elems in (("A3", gas3), ("B3", gas3), ("G2", gas2)):
        W = WEYL[label]
        g = data.draw(elems)
        for w in range(W.n):
            want = GA((W.act(w, k), x) for k, x in g.terms())
            assert g.transform(W.mats[w]) == want, (label, w)
            assert GA().transform(W.mats[w]) == GA()


def _cohpolys(rank):
    exps = st.tuples(*[st.integers(0, 3)] * rank)
    return st.dictionaries(exps, st.integers(-5, 5), max_size=4).map(CohPoly)


@pytest.mark.parametrize("label", ["A3", "B2", "G2"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_cohpoly_act_is_the_substitution(label, data):
    """CohPoly.act against the product of linear forms: varpi_j goes to
    the form of column j of w's matrix, in every monomial."""
    W = WEYL[label]
    r = len(W.mats[0])
    p = data.draw(_cohpolys(r))
    for w in range(W.n):
        mat = W.mats[w]
        forms = [CohPoly.linear(col) for col in zip(*mat)]
        want = CohPoly()
        for k, x in p.terms():
            mono = CohPoly.const(x, r)
            for form, e in zip(forms, k):
                for _ in range(e):
                    mono = mono * form
            want = want + mono
        assert p.act(W, w) == want, w
        assert CohPoly().act(W, w) == CohPoly()


def test_exponent_out_of_range_raises():
    for weight in ((LIMIT, 0), (0, -LIMIT - 1)):
        with pytest.raises(ValueError):
            GA.term(weight)
    with pytest.raises(ValueError):
        Scalar.v(LIMIT)
    top = GA.term((LIMIT - 1, -LIMIT))
    assert top * GA.const(1, 2) == top
    # a product that leaves a field raises instead of carrying
    with pytest.raises(ValueError):
        top * GA.term((1, 0))
    with pytest.raises(ValueError):
        top * GA.term((0, -1))
    with pytest.raises(ValueError):
        GA.term((0, 0), Scalar.v(LIMIT - 1)) * Scalar.v(1)
    with pytest.raises(ValueError):
        top.dual_vee()


def test_exact_div_fails_promptly():
    """A non-divisible input returns None; the alarm turns a division
    that never stops into a failure instead of a hang."""
    def stop(signum, frame):
        raise AssertionError("exact_div did not return")

    one = GA.const(1, 3)
    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        for alpha in ((2, -1, 0), (0, -2, 4), (6, 0, -2)):
            a = GA.term(alpha)
            far = GA.term(tuple(40 * c for c in alpha))
            assert (one + a).exact_div(one - a) is None
            assert (one + far).exact_div(one - a) is None
            assert (one + far).exact_div(one - a * Scalar.y(1)) is None
        # the polynomial subclass: linear forms and a longer divisor
        cone = CohPoly.const(1, 3)
        for form in ((2, -1, 0), (1, 1, 1), (0, 3, -2)):
            lin = CohPoly.linear(form)
            far = cone + lin ** 12
            assert (cone + lin).exact_div(lin) is None
            assert cone.exact_div(lin - 2 * cone) is None
            assert far.exact_div(lin - 2 * cone) is None
            assert far.exact_div(lin * lin + cone) is None
            assert (lin ** 3 + cone).exact_div(lin ** 2) is None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_exact_div_quotient_out_of_range_raises():
    """Divisible inputs whose quotient leaves the range raise, in a
    weight field and in the v field: by the line-by-line division, whose
    final `_check` always runs, and by the long division, whose box
    straddles the range, so its final `_check` is not skipped."""
    d = GA.term((-1, 0)) - GA.term((-2, 0))
    # d (1 + e^{(LIMIT, 0)})
    n = d + GA.term((LIMIT - 1, 0)) - GA.term((LIMIT - 2, 0))
    with pytest.raises(ValueError):
        n.exact_div(d)
    d = GA.term((0, 0), Scalar.v(-1)) - GA.term((1, 0), Scalar.v(-1))
    n = d + GA.term((0, 0), Scalar.v(LIMIT - 1)) - GA.term(
        (1, 0), Scalar.v(LIMIT - 1))  # d (1 + v^LIMIT)
    with pytest.raises(ValueError):
        n.exact_div(d)
    d = GA.term((0, -1)) + GA.term((0, -2)) + GA.term((1, -2))
    top = GA.term((0, LIMIT - 1)) + GA.term((0, LIMIT - 2)) + GA.term(
        (1, LIMIT - 2))  # d e^{(0, LIMIT)}
    with pytest.raises(ValueError):
        (d + top).exact_div(d)
    # inside the range the same shapes divide
    q = GA.term((0, 5)) + GA.const(1, 2)
    assert (d * q).exact_div(d) == q


# -- two-term division by lines, against the chain-by-chain reference ----

def _fine_roots(rs):
    return [tuple(rs.h * c for c in a.fund) for a in rs.roots]


ROOTS = {r: _fine_roots(RootSystem("A" if r == 1 else "B", r))
         for r in range(1, 5)}
nonzero = st.integers(-3, 3).filter(bool)


def _ga_case(r):
    """(term strategy, divisor strategy) in GA at rank r: 1 + y differs
    only in the v field, 1 -+ e^{-k varpi_r} only in the lowest weight
    field, 1 - e^root in several fields, 2 - e^mu has the leading
    coefficient 2 when mu < 0, and 1 - y^50 e^mu, with mu a first
    fundamental weight, differs far more in the v field than in the
    most significant one."""
    weights = st.tuples(*[st.integers(-4, 4)] * r)
    term = st.builds(lambda w, n, c: GA.term(w, Scalar.v(n, c)),
                     weights, st.integers(-4, 4), nonzero)
    one = GA.const(1, r)
    zero = (0,) * (r - 1)
    divisor = st.one_of(
        st.just(one + GA.const(Scalar.y(1), r)),
        st.builds(lambda k, c: one + GA.term(zero + (-k,), c),
                  st.integers(1, 3), st.sampled_from([1, -1])),
        st.sampled_from(ROOTS[r]).map(lambda a: one - GA.term(a)),
        weights.filter(any).map(lambda mu: 2 * one - GA.term(mu)),
        st.just(one - GA.term((1,) + zero, Scalar.y(50))),
    )
    return term, divisor


def _scalar_case():
    term = st.builds(Scalar.v, st.integers(-6, 6), nonzero)
    one = Scalar.one()
    divisor = st.one_of(
        st.just(one + Scalar.y(1)),
        st.builds(lambda n, c: c * one - Scalar.v(n),
                  st.integers(-5, 5).filter(bool), st.sampled_from([1, 2])),
    )
    return term, divisor


def _coh_case(r):
    """varpi_r + c in the lowest field, a varpi_i + b varpi_j in two
    fields (leading coefficient a, not a unit when |a| > 1)."""
    term = st.builds(CohPoly.term, st.tuples(*[st.integers(0, 3)] * r),
                     nonzero)
    one = CohPoly.const(1, r)

    def form(i, j, a, b):
        coords = [0] * r
        coords[i] += a
        coords[j] += b
        return CohPoly.linear(coords)

    divisor = st.builds(
        lambda c: CohPoly.linear((0,) * (r - 1) + (1,)) + c * one, nonzero)
    if r > 1:
        pair = st.lists(st.integers(0, r - 1), min_size=2, max_size=2,
                        unique=True)
        divisor |= st.builds(lambda ij, a, b: form(*ij, a, b), pair,
                             nonzero, nonzero)
    return term, divisor


@st.composite
def two_term_cases(draw):
    """(dividend, two-term divisor) over GA, Scalar and CohPoly at ranks
    1-4: a product p d, or a product plus one stray term."""
    ring = draw(st.sampled_from(["GA", "Scalar", "CohPoly"]))
    r = draw(st.integers(1, 4))
    term, divisor = (_ga_case(r) if ring == "GA" else _scalar_case()
                     if ring == "Scalar" else _coh_case(r))
    d = draw(divisor)
    p = d * 0
    for t in draw(st.lists(term, min_size=1, max_size=6)):
        p = p + t
    n = p * d
    if draw(st.booleans()):
        n = n + draw(term)
    return n, d


def _quotient(n, d, div):
    try:
        return div(n, d)
    except ValueError:
        return "out of range"


@given(two_term_cases())
@settings(max_examples=300, deadline=None)
def test_exact_div_lines_match_chains(case):
    """Line-by-line division against the chain-by-chain reference, with
    its box: the same quotient or the same None.  A walk over residue
    classes modulo the gap without the box would lump keys of many
    lines (all keys with one v exponent, for 1 + e^{-varpi_r}) and, on
    a product plus a stray term, carry on for minutes; the alarm turns
    that into a failure."""
    n, d = case
    assert len(d.c) == 2

    def stop(signum, frame):
        raise AssertionError("exact_div did not return")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        got = _quotient(n, d, type(n).exact_div)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got == _quotient(n, d, ref_chain_div)


def test_exact_div_steep_lines_stay_apart():
    """1 - y^4000 e^{2 varpi_1} moves the v field 4000 times as far as
    the weight field along a line.  e^{263 varpi_1} v^-276 and v^300 lie
    on two lines, so the difference is not divisible; a walk that went
    on past the range would reach the packed key of v^300 after 131
    steps, its v field borrowing from the weight field, cancel there
    and raise on its out-of-range quotient."""
    d = GA.const(1, 1) - GA.term((2,), Scalar.y(4000))
    n = GA.term((263,), Scalar.v(-276)) - GA.term((0,), Scalar.v(300))
    assert n.exact_div(d) is None
    assert ref_chain_div(n, d) is None
    q = GA.term((263,), Scalar.v(-276))
    assert (q * d).exact_div(d) == q


# -- one-term quotients by a longer divisor -------------------------------

KINDS = ("GA", "line", "CohPoly")


def _element(data, kind, rank, size):
    """An element of `kind` with rank weight fields and `size` terms: a
    GA with Scalar coefficients, a y-line whose ints span several slots
    (keys of one rank less), or a CohPoly."""
    low = 0 if kind == "CohPoly" else -4
    weight = st.tuples(*[st.integers(low, 4)] * rank)
    if kind == "GA":
        terms = data.draw(st.dictionaries(
            st.tuples(weight, st.integers(-4, 4)),
            st.integers(-5, 5).filter(bool), min_size=size, max_size=size))
        return GA((w, Scalar.v(e, x)) for (w, e), x in terms.items())
    big = 1 << 3 * charring.SLOT
    coeffs = (st.integers(-5, 5) if kind == "CohPoly"
              else st.integers(-big, big)).filter(bool)
    terms = data.draw(st.dictionaries(weight, coeffs, min_size=size,
                                      max_size=size))
    if kind == "CohPoly":
        return CohPoly(terms)
    return GA._new({_pack(w): x for w, x in terms.items()})


def _long_only(a, d):
    """a.exact_div(d) with the one-term attempt switched off: the long
    division's answer."""
    with mock.patch.object(charring, "_monomial_div", lambda a, d, b: None):
        return a.exact_div(d)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_exact_div_by_a_longer_divisor_finds_a_monomial(kind, data):
    """(q d) / d == q for a monomial q and a divisor d of three or more
    terms, at rank 1 to 3: q d has |d| terms, so the one-term
    quotient is tried first and found."""
    rank = data.draw(st.integers(1, 3))
    q = _element(data, kind, rank, 1)
    d = _element(data, kind, rank, data.draw(st.integers(3, 6)))
    a = q * d
    assert len(a.c) == len(d.c)
    assert a.exact_div(d) == q


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_exact_div_of_equal_length_non_multiples(kind, data):
    """A dividend with as many terms as d that is no monomial times d,
    random or one coefficient away from q d, gets the long division's
    answer, None or its quotient; in the polynomial ring a quotient
    x_1^-1 c with a = c p and d = x_1 p is None."""
    rank = data.draw(st.integers(1, 3))
    d = _element(data, kind, rank, data.draw(st.integers(3, 6)))
    near = dict((_element(data, kind, rank, 1) * d).c)
    k = data.draw(st.sampled_from(sorted(near)))
    near[k] += data.draw(st.sampled_from([-1, 1]))
    for c in (near, _element(data, kind, rank, len(d.c)).c):
        a = type(d)._new(c)
        if len(a.c) == len(d.c):
            q = a.exact_div(d)
            assert q == _long_only(a, d)
            assert q is None or q * d == a
    if kind == "CohPoly":
        x1 = CohPoly.term((1,) + (0,) * (rank - 1))
        p = _element(data, kind, rank, data.draw(st.integers(3, 6)))
        assert (3 * p).exact_div(x1 * p) is None


def test_exact_div_of_equal_length_by_a_longer_quotient():
    """(1 - x)(1 + x + x^2 + x^4) = 1 - x^3 + x^4 - x^5 has as many terms
    as its divisor, yet its quotient has two: the one-term attempt
    fails and the long division finds it, in both rings."""
    for ring in (GA, CohPoly):
        x = [ring.term((j, 0)) for j in range(6)]
        d = x[0] + x[1] + x[2] + x[4]
        a = x[0] - x[3] + x[4] - x[5]
        assert len(a.c) == len(d.c)
        assert a.exact_div(d) == x[0] - x[1]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_line_round_trip(data):
    """GA -> y-line -> GA is the identity, with the l1 norm, and
    `line_max` reads the max norm, for even v exponents 0..40 and
    coefficients up to +-(2^63 - 1); `line_pairs` reads each line alone
    as `decode_line` reads them all, with or without a shared memo."""
    rank = data.draw(st.integers(1, 3))
    big = 2 ** 63 - 1
    terms = data.draw(st.dictionaries(st.tuples(
        st.tuples(*[st.integers(-5, 5)] * rank),
        st.integers(0, 20).map(lambda j: 2 * j)),
        st.integers(-big, big), max_size=12))
    g = GA((w, Scalar({e: x})) for (w, e), x in terms.items())
    line = to_line(g.c)
    c = decode_line(line)
    n1 = sum(map(abs, c.values()))
    assert c == g.c
    assert n1 == sum(map(abs, g.c.values()))
    memo = {}
    assert decode_line(line, memo) == decode_line(line, memo) == g.c
    assert set(memo) == set(line.values())
    assert line_max(line) == max(map(abs, g.c.values()), default=0)
    assert {(wk << FIELD) + vk: x for wk, y in line.items()
            for vk, x in line_pairs(y)} == g.c


def test_line_refuses_negative_powers_of_v():
    with pytest.raises(ValueError):
        to_line(GA.term((0, 0), Scalar.v(-1)).c)
    with pytest.raises(ValueError):
        to_line(GA.term((0, 0), Scalar.y(-1)).c)


@pytest.mark.parametrize("e", [1, 3, 41])
def test_line_refuses_odd_powers_of_v(e):
    """A y-line has one slot per power of y = -v^2: an odd power of v,
    alone or next to even ones, raises ValueError."""
    with pytest.raises(ValueError):
        to_line(GA.term((0, 0), Scalar.v(e)).c)
    with pytest.raises(ValueError):
        to_line(GA.term((1, 0), Scalar({0: 1, 2: 5, e: 1})).c)


def test_line_slot_j_holds_y_to_the_j():
    """y^j = (-1)^j v^(2j) lands in slot j, and the line decodes back:
    y^3 is -2^(3 SLOT) at its weight key, 1 + y is 1 - 2^SLOT, and
    slots 0..2 of one weight hold the coefficients of 1, v^2 and v^4."""
    slot = charring.SLOT
    k = _pack((0, 0))
    assert to_line(GA.term((0, 0), Scalar.y(3)).c) == {k: -(1 << 3 * slot)}
    assert to_line(GA.term((0, 0), Scalar.y(0) + Scalar.y(1)).c) == {
        k: 1 - (1 << slot)}
    g = GA.term((2, -1), Scalar.y(0, 5) + Scalar.y(1, 7) + Scalar.y(2, -3))
    line = to_line(g.c)
    assert line == {_pack((2, -1)): 5 - (7 << slot) - (3 << 2 * slot)}
    c = decode_line(line)
    assert (c, sum(map(abs, c.values()))) == (g.c, 15)
    assert line_pairs(line[_pack((2, -1))]) == (
        (_HALF, 5), (_HALF + 2, -7), (_HALF + 4, -3))


def test_narrow_slots_are_refused(monkeypatch):
    """With 8-bit slots the certificate cannot bound the B2 expansion at
    2 rho and w0 below 2^7, nor the B3 one, whose decoded coefficients
    differ from the chain table when the bounds are not checked, so both
    raise ValueError; with 64-bit slots the B2 one equals the chain
    table."""
    from chevmc.chevalley import chevalley_table
    from chevmc.oracle import KOracle

    b2, b3 = RootSystem("B", 2), RootSystem("B", 3)
    w0 = b2.weyl().w0
    assert KOracle(b2).expand_product((2, 2), w0) == chevalley_table(
        b2, (2, 2), w0, sign=1)
    monkeypatch.setattr(charring, "SLOT", 8)
    with pytest.raises(ValueError):
        KOracle(b2).expand_product((2, 2), w0)
    with pytest.raises(ValueError):
        KOracle(b3).expand_product((2, 2, 2), b3.weyl().w0)
