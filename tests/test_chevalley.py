"""Chevalley coefficient formulas: chain, bridge, operator, dualities."""

import pytest
from hypothesis import given, settings, strategies as st

from chevmc.params import Scalar
from chevmc.charring import GA
from chevmc.rootsystem import RootSystem
from chevmc.alcove import chain_from_word, chain_lex_height
from chevmc.oracle import KOracle
from chevmc.chevalley import (
    chevalley_table,
    chevalley_terms,
    chevalley_parabolic,
    duality_check,
    positivity_terms,
    render_table,
)

RS = RootSystem("A", 2)
W = RS.weyl()


def _tables_equal(a, b):
    return set(a) == set(b) and all(a[u] == b[u] for u in a)


@pytest.mark.parametrize("lam", [(1, 0), (0, -1), (2, 1), (-1, 2)])
def test_methods_agree(lam):
    for w in range(W.n):
        chain = chevalley_table(RS, lam, w, sign=1, method="chain")
        bridge = chevalley_table(RS, lam, w, sign=1, method="bridge")
        op = chevalley_table(RS, lam, w, sign=1, method="operator")
        assert _tables_equal(chain, bridge), (lam, w)
        assert _tables_equal(chain, op), (lam, w)


@pytest.mark.parametrize("lam", [(1, 0), (2, 1)])
def test_sign_consistency(lam):
    # the -lambda formula on a +lambda chain equals the +formula at -lambda
    neg = tuple(-c for c in lam)
    for w in range(W.n):
        a = chevalley_table(RS, lam, w, sign=-1)
        b = chevalley_table(RS, neg, w, sign=1)
        assert _tables_equal(a, b), (lam, w)


def test_diagonal_term():
    # C^w_{w,lambda} = e^{w(lambda)}
    lam = (2, 1)
    for w in range(W.n):
        t = chevalley_table(RS, lam, w, sign=1)
        expect = GA.term(W.act(w, RS.weight(lam)))
        assert t[w] == expect


def test_weight_zero():
    for w in range(W.n):
        t = chevalley_table(RS, (0, 0), w, sign=1)
        assert _tables_equal(t, {w: GA.const(1, 2)})


def test_support_in_bruhat_interval():
    lam = (2, 1)
    for w in range(W.n):
        for u in chevalley_table(RS, lam, w, sign=1):
            assert W.leq(u, w)


@pytest.mark.parametrize(
    "kind", ["serre", "star", "dynkin", "star_dynkin", "palindromic"]
)
def test_dualities_a2(kind):
    def fn(w, lam_fund, sign):
        return chevalley_table(RS, lam_fund, w, sign=sign)

    for lam in [(1, 0), (0, -1), (1, 1)]:
        for w in range(W.n):
            for u in range(W.n):
                lhs, rhs = duality_check(RS, lam, w, u, kind, fn)
                assert lhs == rhs, (kind, lam, w, u)


def test_chain_independence():
    # distinct reduced words and a non-reduced word give the same table
    lam = (2, 1)
    w = W.from_word_str("s2s1")
    chains = [
        chain_lex_height(RS, lam),
        chain_from_word(RS, lam, [1, 0, 1, -1, 0, 1]),
        chain_from_word(RS, lam, [0, 1, 0, -1, 0, 1]),
        chain_from_word(RS, lam, [1, 0, 1, -1, 0, 1, 0, 0],
                        require_reduced=False),
    ]
    base = chevalley_table(RS, lam, w, sign=1, chain=chains[0])
    for chain in chains[1:]:
        t = chevalley_table(RS, lam, w, sign=1, chain=chain)
        assert _tables_equal(base, t)


def test_parabolic_min_rep_required():
    with pytest.raises(ValueError):
        chevalley_parabolic(RS, (1, 0), W.from_word_str("s2"), (1,))
    with pytest.raises(ValueError):
        chevalley_parabolic(RS, (1, 1), 0, (1,))


def test_parabolic_diagonal():
    lam = (2, 0)
    for w in W.min_coset_reps((1,)):
        t = chevalley_parabolic(RS, lam, w, (1,))
        assert t[w].c.get(W.act(w, RS.weight(lam))) is not None


def test_positivity_structure():
    chain = chain_lex_height(RS, (2, 1))
    for w in range(W.n):
        for u, mu, a, b in positivity_terms(chain, w):
            assert a >= 0 and b >= 0
            assert (W.length[w] - W.length[u] - b) % 2 == 0


def test_positivity_rejects_non_dominant():
    chain = chain_lex_height(RS, (-1, 1))
    with pytest.raises(ValueError):
        positivity_terms(chain, W.w0)


def test_cancellation_example_a3():
    # A3, lambda = w2, w = s1s2s3s1s2s1, u = s3s1: two Bruhat paths whose
    # contributions combine to e^{u(lambda)} (y^2+y+1)(y+1)^2
    rs = RootSystem("A", 3)
    W3 = rs.weyl()
    w = W3.from_word_str("s1s2s3s1s2s1")
    u = W3.from_word_str("s3s1")
    chain = chain_from_word(rs, (0, 1, 0), [1, 2, 0, 1])
    assert [b.simple for b in chain.betas] == [
        (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)
    ]
    terms = [t for t in chevalley_terms(chain, w, +1) if t[0] == u]
    assert {t[1] for t in terms} == {(2, 3), (1, 2, 3, 4)}
    y = Scalar.y(1)
    one = Scalar.one()
    expect = (y * y + y + one) * (y + one) ** 2
    total = GA()
    for _u, _J, mu, coeff in terms:
        total = total + GA.term(mu, coeff)
    assert total == GA.term(W3.act(u, rs.weight((0, 1, 0))), expect)


def test_render_table():
    t = chevalley_table(RS, (1, 0), W.from_word_str("s1"), sign=1)
    s = render_table(RS, t)
    assert "C[u=e]" in s and "C[u=s1]" in s


# differential fuzzing: random (type, lambda, w), every route and, on rank
# 2, the localization oracle
_FUZZ_TYPES = [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]
_FUZZ_RS = {t: RootSystem(*t) for t in _FUZZ_TYPES}
_FUZZ_ORACLES = {}


@st.composite
def _fuzz_cases(draw):
    family, rank = draw(st.sampled_from(_FUZZ_TYPES))
    rs = _FUZZ_RS[family, rank]
    lam = draw(st.tuples(*[st.integers(-2, 2)] * rank).filter(any))
    # a random word of length up to l(w0) reaches every element but
    # mostly reduces to a short one, which keeps w0 at lambda = (2,2,2)
    # on B3/C3, by far the slowest case, rare
    Wr = rs.weyl()
    word = draw(st.lists(st.integers(0, rank - 1),
                         max_size=Wr.length[Wr.w0]))
    return rs, lam, Wr.from_word(word)


@given(_fuzz_cases())
@settings(max_examples=25, deadline=None)
def test_routes_agree_fuzzed(case):
    rs, lam, w = case
    chain = chevalley_table(rs, lam, w, sign=1, method="chain")
    for method in ("operator", "bridge"):
        other = chevalley_table(rs, lam, w, sign=1, method=method)
        assert _tables_equal(chain, other), method
    if rs.rank == 2:
        if rs not in _FUZZ_ORACLES:
            _FUZZ_ORACLES[rs] = KOracle(rs)
        assert _tables_equal(chain, _FUZZ_ORACLES[rs].expand_product(lam, w))
