"""Whittaker functions, summation identities, Hall-Littlewood polynomials."""

import hashlib
import itertools
import sys

import pytest

from chevmc.charring import GA, Scalar, exp_mono
from chevmc.rootsystem import RootSystem
from chevmc.alcove import chain_lex_height
from chevmc.oracle import KOracle
from chevmc.specialfn import (
    dl_apply,
    dl_simple,
    weyl_character,
    whittaker,
    whittaker_chevalley,
    big_r,
    big_h,
    hall_littlewood,
    gl_exponents,
    schur_expansion,
    render_schur,
    casselman_shalika_sides,
    whittaker_r_sides,
)

RS = RootSystem("A", 2)
W = RS.weyl()


@pytest.fixture(scope="module")
def oracle():
    return KOracle(RS)


@pytest.mark.parametrize("variant", ["tilde", "tilde_vee"])
def test_operator_relations(variant):
    f = GA.term(RS.weight((1, -2)))
    y = Scalar.y(1)
    for i in range(2):
        T1 = dl_simple(RS, i, f, variant)
        T2 = dl_simple(RS, i, T1, variant)
        assert T2 + T1 * (Scalar.one() + y) + f * y == GA(), i
    a = dl_simple(
        RS, 0, dl_simple(RS, 1, dl_simple(RS, 0, f, variant), variant), variant
    )
    b = dl_simple(
        RS, 1, dl_simple(RS, 0, dl_simple(RS, 1, f, variant), variant), variant
    )
    assert a == b


@pytest.mark.parametrize("lam", [(0, 0), (-1, 0), (-1, -2), (1, -1)])
def test_twisted_euler_char_vs_operators(oracle, lam):
    o = oracle
    L = o.line_bundle(lam)
    e_lam = GA.term(RS.weight(lam))
    for w in range(W.n):
        lhs1 = o.integral(o.mul(L, o.cell_class(w)))
        assert lhs1 == dl_apply(RS, w, e_lam, "tilde_vee"), (lam, w)
        num, den = o.mc_prime(w)
        lhs2 = o.integral(o.mul(L, num)).exact_div(den)
        assert lhs2 == dl_apply(RS, w, e_lam, "tilde"), (lam, w)


def test_operator_conjugation():
    neg_rho = tuple(-c for c in RS.rho())
    for w in range(W.n):
        f = GA.term(RS.weight((-2, -1)))
        lhs = dl_apply(RS, w, f, "tilde")
        inner = dl_apply(RS, w, (f * GA.term(neg_rho)).y_inverse(),
                         "tilde_vee")
        rhs = inner.y_inverse() * GA.term(RS.rho()) * Scalar.y(W.length[w])
        assert lhs == rhs, w


@pytest.mark.parametrize("lam", [(0, 0), (-1, 0), (0, -2), (-1, -1)])
def test_whittaker_chevalley_form(lam):
    for w in range(W.n):
        assert whittaker(RS, lam, w) == whittaker_chevalley(RS, lam, w), (lam, w)


@pytest.mark.parametrize("rank,word,lam", [
    (7, "s1s3s4s2", (-1, 0, 0, 0, 0, 0, 0)),
    (7, "s7s6s5s4", (0, 0, 0, 0, 0, 0, -1)),
    (8, "s8s7s6s5", (0, 0, 0, 0, 0, 0, 0, -1)),
    (8, "s2s4s3s5", (-1, 0, 0, 0, 0, 0, 0, 0)),
])
def test_whittaker_chevalley_form_above_the_cap(no_completion, rank, word,
                                                lam):
    # one E7 or E8 word: the operator walk and the Chevalley sum make only
    # the elements they reach
    rs = RootSystem("E", rank)
    w = rs.weyl().from_word_str(word)
    assert whittaker(rs, lam, w) == whittaker_chevalley(rs, lam, w)


def test_whittaker_rho_twist(oracle):
    # chi_T(L_rho (x) MC'(X(w)^o)) = (-1)^{l(w)} e^rho
    o = oracle
    L = o.line_bundle((1, 1))
    for w in range(W.n):
        num, den = o.mc_prime(w)
        val = o.integral(o.mul(L, num)).exact_div(den)
        assert val == GA.term(RS.rho(), (-1) ** W.length[w]), w


@pytest.mark.parametrize("lam", [(-1, 0), (-1, -1), (0, -2)])
def test_casselman_shalika(lam):
    a, b = casselman_shalika_sides(RS, lam)
    assert a == b


@pytest.mark.parametrize("lam", [(0, 0), (-1, -1), (-2, 0)])
def test_whittaker_r_corollary(lam):
    a, b = whittaker_r_sides(RS, lam)
    assert a == b


@pytest.mark.parametrize("lam", [(0, 0), (1, 1), (-1, -1), (2, 1)])
def test_big_r_methods(lam):
    a = big_r(RS, lam, "localization")
    b = big_r(RS, lam, "operators")
    c = big_r(RS, lam, "chevalley")
    assert a == b == c


def test_big_r_at_zero():
    want = GA()
    for w in range(W.n):
        l = W.length[w]
        want = want + GA.const(Scalar.y(l, (-1) ** l), 2)
    assert big_r(RS, (0, 0)) == want


@pytest.mark.parametrize("lam", [(1, 0), (0, 2), (2, 0), (-1, 0), (1, 1)])
def test_big_h_methods(lam):
    a = big_h(RS, lam, "localization")
    b = big_h(RS, lam, "chevalley")
    c = big_h(RS, lam, "quotient")
    assert a == b == c


def _digest(rs, values):
    mono = exp_mono(rs.h)
    text = "\n".join(g.render(mono) for g in values)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family,lam,digest", [
    ("B", (-1, -1),
     "4a517f7bccd1324c6c20a428b5a9a34828af92a92f65e90223a85344299d60df"),
    ("B", (-2, -1),
     "1f1f2b82fb932ab06a05289f09a051af0ae26e9d5eb9a3904e8b1cae4afa09ec"),
    ("G", (-1, -1),
     "005da42047bd279db4a4de08adf05bc0ef8be2a2dc8fb39e461b8d422a909dad"),
    ("G", (-1, -2),
     "3e9ed97fcc0b066a4b23de5b85ce960ec8069f8e519beb8ec684f060109a9406"),
])
def test_whittaker_chevalley_digests(family, lam, digest):
    # the rendered W_{lambda,w} of every w, one line each
    rs = RootSystem(family, 2)
    values = [whittaker_chevalley(rs, lam, w) for w in range(rs.weyl().n)]
    assert _digest(rs, values) == digest


@pytest.mark.parametrize("lam,digest", [
    ((1, 1, 1),
     "1f2917f4ea28b8c5e6b13a391f7af914ce1358ddb26836f15ac54c82d422ec23"),
    ((-1, -1, -1),
     "5e37ae2ac8e68ff3418f1907f746f81f64364a7c27e185f6845dbf70144ff4ae"),
])
def test_big_h_chevalley_digests(lam, digest):
    rs = RootSystem("B", 3)
    assert _digest(rs, [big_h(rs, lam, "chevalley")]) == digest


@pytest.mark.parametrize("lam", [(1, 0), (0, 2), (1, 1), (2, 1)])
def test_hl_methods_and_bridges(lam):
    closed = hall_littlewood(RS, lam, "closed")
    assert closed == hall_littlewood(RS, lam, "chain_restricted")
    assert closed == hall_littlewood(RS, lam, "chain_opposite")
    # bridge 1: HL = star(H_{-lambda}), t = q
    assert closed == big_h(RS, tuple(-c for c in lam)).star()
    # bridge 2: HL = ((-y)^-d H_lambda) under v -> v^-1
    parab = tuple(i for i in range(2) if lam[i] == 0)
    d = sum(
        1
        for a in RS.positive_roots
        if any(a.simple[i] for i in range(2) if i not in parab)
    )
    pref = Scalar.y(-d, (-1) ** d)
    assert closed == (big_h(RS, lam) * pref).y_inverse()


@pytest.mark.parametrize("family,rank,lams", [
    ("A", 2, [(0, 0), (1, 0), (2, 1)]),
    ("B", 2, [(1, 0), (1, 1), (0, 2)]),
    ("G", 2, [(0, 1), (1, 1)]),
    ("A", 3, [(1, 0, 1), (0, 1, 0)]),
])
def test_chain_sums_walk_no_subsets(monkeypatch, family, rank, lams):
    # the Hall-Littlewood chain formulas, H_lambda by the Chevalley
    # formula and the Whittaker functions from the Chevalley coefficients
    # all run the one backward pass: with the depth-first walk made to
    # fail wherever it is bound, they equal the closed formula, the
    # localization sum and the scalar Demazure-Lusztig operators
    def refuse(*args, **kwargs):
        raise AssertionError("a subset walk ran")

    for name, module in list(sys.modules.items()):
        if name.startswith("chevmc"):
            for attr in ("descent_subsets", "chevalley_chain"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    rs = RootSystem(family, rank)
    W = rs.weyl()
    for lam in lams:
        closed = hall_littlewood(rs, lam, "closed")
        for method in ("chain_restricted", "chain_opposite"):
            assert hall_littlewood(rs, lam, method) == closed, (lam, method)
        for sign in (1, -1):
            mu = tuple(sign * c for c in lam)
            assert big_h(rs, mu, "chevalley") == big_h(rs, mu), mu
        anti = tuple(-c for c in lam)
        for w in range(W.n):
            assert whittaker_chevalley(rs, anti, w) == whittaker(
                rs, anti, w), (anti, w)


@pytest.mark.parametrize("lam", [(1, 0), (1, 1), (2, 1), (0, 2)])
def test_hl_at_t_zero_is_schur(lam):
    hl = hall_littlewood(RS, lam, "closed")
    at0 = GA((k, Scalar.int(x.q_coeffs().get(0, 0))) for k, x in hl.terms())
    assert at0 == weyl_character(RS, lam)


# -- golden term tables ------------------------------------------------

from conftest import (
    GOLD_W1_F1,
    GOLD_W1_F2,
    GOLD_2W2_F1,
    GOLD_2W2_F2,
    hl_terms,
    hl_terms_as_tuples,
)


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3), ("B", 3)])
def test_hl_packed_sum_equals_reference_terms(family, rank):
    # the packed-key sum of each chain formula is the sum of its terms,
    # for the dominant weights in [0, 2]^r; B3 takes those of coordinate
    # sum at most 2 and rho, since its whole cube costs the reference
    # 1.4 million terms and over a minute, 22 s of it at (2, 2, 2)
    rs = RootSystem(family, rank)
    for lam in itertools.product(range(3), repeat=rank):
        if family == "B" and rank == 3 and sum(lam) > 2 and lam != (1, 1, 1):
            continue
        for formula, method in ((1, "chain_restricted"),
                                (2, "chain_opposite")):
            ref = GA.dot((mono, 1) for *_, mono in hl_terms(rs, lam, formula))
            assert hall_littlewood(rs, lam, method) == ref, (lam, method)


def test_hl_chain_builds_no_term(monkeypatch):
    # no ring element is made per term: the sum runs on packed keys
    rs = RootSystem("A", 3)
    closed = hall_littlewood(rs, (1, 1, 0), "closed")

    def refuse(*args):
        raise AssertionError("a term was built")

    monkeypatch.setattr(GA, "term", classmethod(refuse))
    for method in ("chain_restricted", "chain_opposite"):
        assert hall_littlewood(rs, (1, 1, 0), method) == closed, method


def test_hl_chain_for_golden_examples():
    ch1 = chain_lex_height(RS, (-1, 0))
    assert [b.simple for b in ch1.betas] == [(-1, -1), (-1, 0)]
    ch2 = chain_lex_height(RS, (0, -2))
    assert [b.simple for b in ch2.betas] == [
        (-1, -1), (0, -1), (-1, -1), (0, -1)
    ]
    assert ch2.levels == (1, 1, 2, 2)


def test_hl_golden_table_w1():
    assert hl_terms_as_tuples(RS, (1, 0), 1, 1) == GOLD_W1_F1
    assert hl_terms_as_tuples(RS, (1, 0), 2, 1) == GOLD_W1_F2


def test_hl_golden_table_2w2():
    assert hl_terms_as_tuples(RS, (0, 2), 1, 4) == GOLD_2W2_F1
    assert hl_terms_as_tuples(RS, (0, 2), 2, 4) == GOLD_2W2_F2


def test_schur_expansion_2w2():
    g = hall_littlewood(RS, (0, 2), "closed")
    exp = schur_expansion(RS, g)
    assert exp == {
        (0, 2): Scalar.one(),
        (1, 0): -Scalar.q(1),
    }
    assert render_schur(RS, exp, 4) == "s22 - t*s211"


def test_schur_expansion_w1():
    g = hall_littlewood(RS, (1, 0), "closed")
    exp = schur_expansion(RS, g)
    assert exp == {(1, 0): Scalar.one()}
    assert render_schur(RS, exp, 1) == "s1"


def test_schur_labels_with_two_digit_parts():
    # with a part of 10 or more the parts are comma-separated, so that
    # s_{11,1} does not read as s_{111}; smaller labels keep no commas
    a1 = RootSystem("A", 1)
    exp = schur_expansion(a1, hall_littlewood(a1, (12,), "closed"))
    assert render_schur(a1, exp, 12) == "s(12) - t*s(11,1)"
    exp = schur_expansion(RS, hall_littlewood(RS, (10, 1), "closed"))
    assert render_schur(RS, exp, 12) == (
        "s(11,1) - t*s(10,2) - t*s(10,1,1) + t^2*s921")


@pytest.mark.parametrize("family", ["B", "G"])
def test_operators_off_type_a(family):
    # the exact T~ / T~vee steps where the roots have two lengths: the
    # quadratic and braid relations, Whittaker functions against the
    # Chevalley coefficients, and the three ways to R_lambda
    rs = RootSystem(family, 2)
    W = rs.weyl()
    f = GA.term(rs.weight((1, -2)))
    y = Scalar.y(1)
    for variant in ("tilde", "tilde_vee"):
        for i in range(2):
            T1 = dl_simple(rs, i, f, variant)
            T2 = dl_simple(rs, i, T1, variant)
            assert T2 + T1 * (Scalar.one() + y) + f * y == GA(), (variant, i)
        a = b = f
        for k in range(W.length[W.w0]):  # both alternating words for w0
            a = dl_simple(rs, k % 2, a, variant)
            b = dl_simple(rs, 1 - k % 2, b, variant)
        assert a == b, variant
    for lam in [(-1, 0), (0, -1), (-1, -1)]:
        for w in range(W.n):
            assert whittaker(rs, lam, w) == whittaker_chevalley(rs, lam, w), (
                lam, w)
    for lam in [(1, 0), (0, -1)]:
        a = big_r(rs, lam, "localization")
        assert a == big_r(rs, lam, "operators") == big_r(rs, lam, "chevalley")
