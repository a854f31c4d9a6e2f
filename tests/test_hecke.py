"""Affine Hecke relations on the Demazure-Lusztig operators, and the
transition coefficients of the bridge route."""

import pytest
from hypothesis import given, settings, strategies as st

from chevmc.charring import GA, Scalar
from chevmc.rootsystem import RootSystem
from chevmc.alcove import chain_lex_height
from chevmc.chevalley import chevalley_table, transition_direct
from chevmc.specialfn import dl_simple
from conftest import ref_transition_direct, reflect

TYPES = {label: RootSystem(label[0], 2) for label in ("A2", "B2", "G2")}
VARIANTS = ("tilde", "tilde_vee")

RS = TYPES["A2"]
W = RS.weyl()


def _scalars():
    return st.dictionaries(
        st.sampled_from([-2, 0, 2, 4]), st.integers(-3, 3), max_size=2
    ).map(Scalar)


@st.composite
def _characters(draw):
    """(type label, random character f) on A2, B2 or G2."""
    label = draw(st.sampled_from(sorted(TYPES)))
    lams = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    c = draw(st.dictionaries(lams, _scalars(), min_size=1, max_size=3))
    rs = TYPES[label]
    return label, GA.dot((GA.term(rs.weight(lam)), s) for lam, s in c.items())


@given(_characters(), st.sampled_from(VARIANTS))
@settings(max_examples=60, deadline=None)
def test_quadratic_relation(lf, variant):
    # T_i^2 = (q - 1) T_i + q, applied on random characters
    label, f = lf
    q = Scalar.q(1)
    for i in range(2):
        tf = dl_simple(TYPES[label], i, f, variant)
        ttf = dl_simple(TYPES[label], i, tf, variant)
        assert ttf == tf * (q - Scalar.one()) + f * q, (label, variant, i)


@given(_characters(), st.sampled_from(VARIANTS))
@settings(max_examples=60, deadline=None)
def test_braid_relation(lf, variant):
    # T_1 T_2 T_1 ... = T_2 T_1 T_2 ..., m factors each, m = |W| / 2
    label, f = lf
    rs = TYPES[label]
    lhs, rhs = f, f
    for k in range(rs.weyl().n // 2):
        lhs = dl_simple(rs, k % 2, lhs, variant)
        rhs = dl_simple(rs, 1 - k % 2, rhs, variant)
    assert lhs == rhs, (label, variant)


@given(_characters(), st.sampled_from(VARIANTS), st.integers(0, 1),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
@settings(max_examples=60, deadline=None)
def test_bernstein_divisibility(lf, variant, i, lam):
    """(T_i(e^mu f) - e^{s_i mu} T_i f)(1 - e^-alpha_i) = (1-q)(e^{s_i mu} - e^mu) f,

    the relation whose quotient chevalley.transition_direct sums in
    closed form, term by term."""
    label, f = lf
    rs = TYPES[label]
    root = rs.simple_roots[i]
    mu = rs.weight(lam)
    smu = reflect(rs, mu, root)
    alpha = rs.weight(root.fund)
    comm = (dl_simple(rs, i, GA.term(mu) * f, variant)
            - GA.term(smu) * dl_simple(rs, i, f, variant))
    lhs = comm * (GA.const(1, 2) - GA.term(tuple(-c for c in alpha)))
    rhs = (GA.term(smu) - GA.term(mu)) * f * (Scalar.one() - Scalar.q(1))
    assert lhs == rhs, (label, variant, i, lam)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_transition_direct_vs_chain(label):
    # the bridge table is read off transition_direct; the chain table off
    # the lambda-chain of each weight
    rs = TYPES[label]
    for lam in [(1, 0), (0, 1), (2, 1), (1, -2)]:
        chain = chain_lex_height(rs, lam)
        for w in range(rs.weyl().n):
            for sign in (1, -1):
                a = chevalley_table(rs, lam, w, sign=sign, chain=chain)
                b = chevalley_table(rs, lam, w, sign=sign, method="bridge")
                assert a == b, (lam, w, sign)


def test_transition_identity_weight_zero():
    t = transition_direct(RS, W.from_word_str("s1s2"), (0, 0))
    assert t == {W.from_word_str("s1s2"): GA.term((0, 0))}


@pytest.mark.parametrize("family,rank,lams", [
    ("A", 2, [(2, -1), (0, -2), (-1, 1)]),
    ("B", 2, [(2, -1), (0, -2), (-1, 1)]),
    ("G", 2, [(2, -1), (0, -2), (-1, 1)]),
    ("A", 3, [(-1, 0, 2), (0, 2, -1)]),
    ("B", 3, [(-1, 0, 2), (0, 2, -1)]),
    ("C", 3, [(-1, 0, 2), (0, 2, -1)]),
])
def test_transition_direct_equals_division_reference(family, rank, lams):
    # the closed-form Bernstein step against one exact division per
    # character, key for key, at every w and at weights whose pairings
    # with the simple coroots are positive, negative and zero
    rs = RootSystem(family, rank)
    for lam in lams:
        for w in range(rs.weyl().n):
            got = transition_direct(rs, w, lam)
            ref = ref_transition_direct(rs, w, lam)
            assert list(got) == list(ref), (lam, w)
            assert all(got[u].c == ref[u].c for u in ref), (lam, w)


def test_transition_direct_equals_division_reference_e8():
    # one word on the lazy E8 store, at the first fundamental weight
    rs = RootSystem("E", 8)
    w = rs.weyl().from_word_str("s8s7s6s5s4s3s2s1")
    lam = (1, 0, 0, 0, 0, 0, 0, 0)
    got = transition_direct(rs, w, lam)
    assert len(got) > 1 and got == ref_transition_direct(rs, w, lam)
    assert len(rs.weyl().mats) < rs.weyl_order  # the group was not completed
