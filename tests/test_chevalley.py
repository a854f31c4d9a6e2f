"""Chevalley coefficient formulas: chain, bridge, operator, dualities."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chevmc.charring import FIELD, GA, MASK, Scalar, _HALF
from chevmc.rootsystem import RootSystem
from chevmc import alcove, charring, chevalley, cli, verify
from chevmc.alcove import chain_from_word, chain_lex_height, descent_subsets
from chevmc.oracle import KOracle
from chevmc.chevalley import (
    chevalley_chain,
    chevalley_operator,
    chevalley_table,
    chevalley_tables,
    chevalley_terms,
    chevalley_parabolic,
    chevalley_sum,
    duality_sides,
    render_table,
)
from conftest import (
    duality_check, ref_chevalley_chain, ref_descent_subsets, ref_operator,
    ref_walls, v_minus_lambda,
)

RS = RootSystem("A", 2)
W = RS.weyl()

# (type, rank, lambda, stride through the elements): every w up to rank 3,
# sampled w of D4 and F4; weights with negative and off-origin walls
_GOLDEN_CASES = [
    ("A", 1, (3,), 1), ("A", 2, (2, -1), 1), ("B", 2, (1, 1), 1),
    ("C", 2, (-1, 2), 1), ("G", 2, (1, -1), 1), ("A", 3, (1, -1, 1), 1),
    ("B", 3, (1, 0, 1), 1), ("C", 3, (0, 1, -1), 1),
    ("D", 4, (1, 0, 0, -1), 17), ("F", 4, (1, 0, 0, 0), 97),
]
# SHA-256 of the rendered chain +lambda, chain -lambda and operator tables
# in that order, taken from the tuple-weight chain and operator routes
# that the packed-key walk replaced
_GOLDEN_SHA256 = (
    "a297772aea3ddd554856822ec86239f267b39678d230a11a046f27a84c8ac479"
)


def test_tables_golden_digest():
    h = hashlib.sha256()
    for family, rank, lam, stride in _GOLDEN_CASES:
        rs = RootSystem(family, rank)
        for w in range(0, rs.weyl().n, stride):
            for sign, method in ((1, "chain"), (-1, "chain"), (1, "operator")):
                table = chevalley_table(rs, lam, w, sign=sign, method=method)
                h.update(render_table(rs, table).encode())
    assert h.hexdigest() == _GOLDEN_SHA256


@pytest.mark.parametrize("family,rank,lam,stride", _GOLDEN_CASES,
                         ids=["%s%d" % c[:2] for c in _GOLDEN_CASES])
def test_operator_equals_reference(family, rank, lam, stride):
    # the fused step (one shift and one product per descent at each chain
    # position) against the three-state reference, key for key: every w
    # up to rank 3, sampled w of D4 and F4
    rs = RootSystem(family, rank)
    W = rs.weyl()
    chain = chain_lex_height(rs, lam)
    assert any(not b.positive for b in chain.betas) == any(c < 0 for c in lam)
    for w in range(0, W.n, stride):
        assert chevalley_operator(chain, w) == ref_operator(chain, w), w


@pytest.mark.parametrize("family,rank,top", [
    ("A", 1, 1), ("A", 2, 1), ("A", 3, 1), ("A", 4, 1), ("B", 2, 1),
    ("B", 3, 1), ("B", 4, 2), ("C", 3, 1), ("D", 4, 1), ("G", 2, 1),
    ("F", 4, 4),
])
def test_operator_bound_holds_on_every_state(monkeypatch, family, rank,
                                              top):
    # a spy on the route's product kernel sees every state it writes:
    # each stored key, an exponent less its element's offset, keeps every
    # field, weight and v fields alike, within bias +- 2 bound, so below
    # the route's guard no key carries into the next field, and every
    # exponent of the output lies within the bound; at every weight in
    # [-1, 1]^r and three w per weight out of the first 1/top of the
    # elements (the longer elements of B4 and F4 take up to seconds per
    # table)
    rs = RootSystem(family, rank)
    W = rs.weyl()
    real = chevalley._add_products
    calls = []

    def spy(acc, pairs, items):
        # every field of k - lo lies in [0, 2^(p+1)), 2^p <= 2 bound, iff
        # k - lo sets no bit of bad; a dict that fails this is measured
        # field by field
        real(acc, pairs, items)
        if any(map(bad.__and__, map(lo.__rsub__, acc))):
            assert max(abs((k >> (FIELD * f) & MASK) - _HALF)
                       for k in acc for f in range(rank + 1)) <= 2 * bound
        calls.append(len(acc))

    monkeypatch.setattr(chevalley, "_add_products", spy)
    stride = max(1, W.n // top // 3)
    for n, lam in enumerate(itertools.product((-1, 0, 1), repeat=rank)):
        if not any(lam):
            continue
        chain = chain_lex_height(rs, lam)
        bound = chain.exponent_bound
        p = (2 * bound).bit_length() - 1
        lo = sum((_HALF - (1 << p)) << (FIELD * f) for f in range(rank + 1))
        bad = ~sum(((2 << p) - 1) << (FIELD * f) for f in range(rank + 1))
        for w in range(n % stride, W.n // top, stride):
            table = chevalley_operator(chain, w)
            assert max(abs((k >> (FIELD * f) & MASK) - _HALF)
                       for g in table.values() for k in g.c
                       for f in range(rank + 1)) <= bound, (lam, w)
    assert calls


def test_operator_checks_its_output_only_at_a_bound_reaching_limit(
        monkeypatch):
    # A1 at lambda = 2048 (w = e) and 4095 (w = s1): the bound
    # 2 * lambda * (1 + 1) reaches LIMIT, so the route range-checks its
    # output once; at 2047 and on B3 at (1, 0, 1) (bound 100, every w) it
    # makes no check; every table equals the reference route's and the
    # chain route's
    calls = []
    real = chevalley._check

    def counting(keys, r):
        calls.append(r)
        real(keys, r)

    monkeypatch.setattr(chevalley, "_check", counting)
    for (family, rank), lam, ws, checked in (
        (("A", 1), (2048,), (0,), True), (("A", 1), (4095,), (1,), True),
        (("A", 1), (2047,), (0,), False), (("B", 3), (1, 0, 1), None, False),
    ):
        rs = RootSystem(family, rank)
        W = rs.weyl()
        W.order  # completed first: 0..n-1 in order
        chain = chain_lex_height(rs, lam)
        assert (chain.exponent_bound >= chevalley.LIMIT) == checked
        for w in ws or range(W.n):
            del calls[:]
            got = chevalley_operator(chain, w)
            assert len(calls) == (1 if checked else 0), (lam, w)
            assert got == ref_operator(chain, w), (lam, w)
            assert got == chevalley_table(rs, lam, w), (lam, w)
    # a chain whose bound reaches 2^17 is refused before the loop; one
    # just below it is walked and checked once
    rs = RootSystem("A", 1)
    rs.weyl().order  # completed first: 0..n-1 in order
    chain = chain_lex_height(rs, (1,))
    want = ref_operator(chain, 1)
    monkeypatch.setattr(chain, "exponent_bound", 1 << 17)
    with pytest.raises(ValueError):
        chevalley_operator(chain, 1)
    monkeypatch.setattr(chain, "exponent_bound", (1 << 17) - 1)
    del calls[:]
    assert chevalley_operator(chain, 1) == want and len(calls) == 1


@pytest.mark.parametrize("rank,lam,word", [
    (6, (1, 0, 0, 0, 0, 0), (5, 4, 3, 1, 2, 0)),
    (6, (0, 0, 0, 0, 0, -1), (0, 2, 3, 1, 4, 3, 2, 0)),
    (7, (0, 0, 0, 0, 0, 0, 1), tuple(range(7)) * 3),
    (7, (-1, 0, 0, 0, 0, 0, 0), tuple(range(6, -1, -1)) * 2 + (0,)),
])
def test_operator_equals_reference_on_a_lazy_store(rank, lam, word):
    rs = _lazy_rs("E", rank)
    L = rs.weyl()
    x = L.from_word(word)
    chain = chain_lex_height(rs, lam)
    got = chevalley_operator(chain, x)
    assert x in got and got == ref_operator(chain, x)


def test_one_chain_per_root_system_and_weight(monkeypatch):
    built = []
    init = alcove.LambdaChain.__init__

    def counting_init(self, *args):
        built.append(args[1])
        init(self, *args)

    monkeypatch.setattr(alcove.LambdaChain, "__init__", counting_init)
    rs = RootSystem("B", 3)
    rs.weyl().order  # completed first: 0..n-1 in order
    chevalley_table(rs, (1, -1, 1), 5, sign=1)
    chevalley_table(rs, (1, -1, 1), 7, sign=-1)
    chevalley_table(rs, (1, -1, 1), 7, method="operator")
    assert built == [(1, -1, 1)]
    chain = chain_lex_height(rs, (1, -1, 1))
    for seq in (chain.betas, chain.levels, chain.steps(True),
                chain.steps(False)):
        assert type(seq) is tuple
    # the memo belongs to the root system
    other = RootSystem("B", 3)
    other.weyl().order  # completed first: 0..n-1 in order
    chevalley_table(other, (1, -1, 1), 5)
    assert len(built) == 2


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


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_duality_sides_are_the_reference(label):
    # the table-wide right-hand sides, entry for entry, against the
    # per-entry reference, for every kind at +-varpi_i and +-rho
    rs = RootSystem(label[0], int(label[1:]))
    n = rs.weyl().n
    fn = verify._table_fn(rs)
    for kind in ("serre", "star", "dynkin", "star_dynkin", "palindromic"):
        for lam in verify._lams_pm_fund_rho(rs.rank):
            sides = duality_sides(rs, lam, kind, fn)
            assert all(g for row in sides.values() for g in row.values())
            for w in range(n):
                for u in range(n):
                    want = duality_check(rs, lam, w, u, kind, fn)[1]
                    assert sides.get(w, {}).get(u, GA()) == want, (
                        label, kind, lam, w, u)
    with pytest.raises(ValueError, match="unknown duality 'mirror'"):
        duality_sides(rs, (1,) * rs.rank, "mirror", fn)


def test_chain_independence():
    # distinct reduced words and a non-reduced word give the same table
    lam = (2, 1)
    w = W.from_word_str("s2s1")
    chains = [
        chain_lex_height(RS, lam),
        chain_from_word(RS, lam, [1, 0, 1, -1, 0, 1]),
        chain_from_word(RS, lam, [0, 1, 0, -1, 0, 1]),
        chain_from_word(RS, lam, [1, 0, 1, -1, 0, 1, 0, 0]),
    ]
    assert not chains[-1].reduced
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
        assert dict(t[w].terms()).get(W.act(w, RS.weight(lam))) is not None


def test_positivity_structure(monkeypatch):
    assert verify.case_positivity("A", 2, (2, 1)) is None
    # one term's coefficient bent to -q^a (q - 1)^b leaves the shape; the
    # run above memoised the key pairs of every coefficient the tables
    # need, and the memo is dropped afterwards, so no table reads the
    # bent coefficient
    real = chevalley._term_coeff
    bent = []

    def bend(t, dl, odd, positive):
        c = real(t, dl, odd, positive)
        if t and not bent:
            bent.append(c)
            return -c
        return c

    monkeypatch.setattr(chevalley, "_term_coeff", bend)
    try:
        got = verify.case_positivity("A", 2, (2, 1))
    finally:
        chevalley._term_pairs.cache_clear()
    assert bent and got.startswith("term q^") and "out of shape" in got, got


def test_positivity_rejects_non_dominant():
    assert (verify.case_positivity("A", 2, (-1, 1))
            == "lambda (-1, 1) is not dominant")


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
    assert sorted(t[1] for t in terms) == [2, 4]
    assert {J for v, J, _, _ in ref_descent_subsets(
        chain, w, True, ref_walls(chain, far=False)) if v == u} == {
            (2, 3), (1, 2, 3, 4)}
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


# single words on a store grown one word at a time against the whole
# group of a second root system: every capped type the CLI accepts, each
# route the single-word path runs
_LAZY_TYPES = (
    [("A", n) for n in range(1, 6)] + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(3, 6)]
    + [("G", 2), ("F", 4)]
)
_LAZY_RS = {}
_WHOLE_RS = {}
_ROUTES = ((1, "chain"), (-1, "chain"), (1, "operator"), (1, "bridge"),
           (-1, "bridge"))


def _lazy_rs(family, rank):
    if (family, rank) not in _LAZY_RS:
        _LAZY_RS[family, rank] = RootSystem(family, rank)
    return _LAZY_RS[family, rank]


def _whole_rs(family, rank):
    if (family, rank) not in _WHOLE_RS:
        rs = _WHOLE_RS[family, rank] = RootSystem(family, rank)
        rs.weyl().order  # completed first: 0..n-1 in order
    return _WHOLE_RS[family, rank]


def _listed(W, table):
    """(canonical word, value) of every entry, in the table's order."""
    return [(W.word_str(u), table[u]) for u in W.ordered(table)]


def _assert_stores_agree(family, rank, lam, word):
    whole, lazy = _whole_rs(family, rank), _lazy_rs(family, rank)
    W, L = whole.weyl(), lazy.weyl()
    w, x = W.from_word(word), L.from_word(word)
    assert L.word_str(x) == W.word_str(w)
    for sign, method in _ROUTES:
        exhaustive = chevalley_table(whole, lam, w, sign=sign, method=method)
        single = chevalley_table(lazy, lam, x, sign=sign, method=method)
        assert _listed(L, single) == _listed(W, exhaustive), (sign, method)


@pytest.mark.parametrize("family,rank", _LAZY_TYPES,
                         ids=["%s%d" % t for t in _LAZY_TYPES])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_lazy_tables_equal_exhaustive(family, rank, data):
    rs = _lazy_rs(family, rank)
    if rank <= 3:
        lam = data.draw(st.tuples(*[st.integers(-1, 1)] * rank).filter(any))
    else:
        i = data.draw(st.integers(0, rank - 1))
        c = data.draw(st.sampled_from((1, -1)))
        lam = tuple(c * (j == i) for j in range(rank))
    word = data.draw(st.lists(st.integers(0, rank - 1),
                              max_size=rs.n_positive()))
    _assert_stores_agree(family, rank, lam, word)


@pytest.mark.parametrize("lam,word", [
    ((1, 0, 0, 0, 0, 0), (5, 4, 3, 1, 2, 0)),
    ((0, 0, 0, 0, 0, -1), (0, 2, 3, 1, 4, 3, 2, 0)),
    ((0, 1, 0, 0, 0, 0), (1, 3, 2, 4, 3, 1, 5)),
])
def test_lazy_tables_equal_exhaustive_e6(lam, word):
    _assert_stores_agree("E", 6, lam, word)


@pytest.mark.parametrize("rank", [7, 8])
def test_chain_and_operator_agree_e7_e8(rank):
    rs = RootSystem("E", rank)
    L = rs.weyl()
    top = tuple(int(j == rank - 1) for j in range(rank))
    down = tuple(range(rank - 1, -1, -1))
    # the cube of the Coxeter element s1...sr is reduced (3 < h/2)
    for lam, word, entries in [
        (top, down, 2),
        (top, tuple(range(rank)) * 3, {7: 112, 8: 116}[rank]),
        (tuple(-int(j == 0) for j in range(rank)), down * 2 + (0,),
         {7: 34, 8: 66}[rank]),
    ]:
        x = L.from_word(word)
        chain = chevalley_table(rs, lam, x, method="chain")
        assert x in chain and len(chain) == entries
        for method in ("operator", "bridge"):
            assert chain == chevalley_table(rs, lam, x, method=method)


# -- the grouped walk ------------------------------------------------

def _keys(table):
    return {u: g.c for u, g in table.items()}


_GROUPED_CASES = [
    ("A", 3, [(1, -1, 1), (0, 2, 0)]), ("B", 3, [(1, 0, 1), (0, 1, -1)]),
    ("C", 3, [(0, 1, -1), (1, 1, 0)]), ("G", 2, [(1, -1), (2, 1)]),
]


@pytest.mark.parametrize("family,rank,lams", _GROUPED_CASES,
                         ids=["%s%d" % c[:2] for c in _GROUPED_CASES])
def test_grouped_walk_matches_per_leaf_reference(family, rank, lams):
    # the chain route counts the keys of each coefficient and multiplies
    # once, reading its steps off the chain and its moves off the store's
    # tables; the per-leaf reference reads neither.  Key for key on every
    # w at +-lambda, on the lex chain and then on chains of words for
    # v_{-lambda} (one reduced, one with s_1 s_1 inserted), with the
    # walk of each scan checked against the reference walk in between:
    # descent masks kept under the wrong chain or the wrong scan would
    # be read back here
    rs = RootSystem(family, rank)
    W = rs.weyl()
    for lam in lams:
        lex = chain_lex_height(rs, lam)
        word = v_minus_lambda(rs, lam)
        mid = len(word) // 2
        padded = chain_from_word(rs, lam, word[:mid] + (0, 0) + word[mid:])
        assert not padded.reduced
        assert (padded.betas, padded.levels) != (lex.betas, lex.levels)
        for chain in (lex, chain_from_word(rs, lam, word), padded):
            for w in range(W.n):
                assert _keys(chevalley_chain(chain, w, 1)) == _keys(
                    ref_chevalley_chain(chain, w, 1)), (lam, w)
                for asc in (True, False):
                    assert descent_subsets(chain, w, asc) == [
                        (u, len(J), B, odd) for u, J, B, odd in
                        ref_descent_subsets(chain, w, asc,
                                            ref_walls(chain, not asc))]
                assert _keys(chevalley_chain(chain, w, -1)) == _keys(
                    ref_chevalley_chain(chain, w, -1)), (lam, w)


# -- the all-w pass ----------------------------------------------------

def _per_w(chain, ws, sign):
    """The reference: one depth-first walk per w."""
    return {w: chevalley_chain(chain, w, sign) for w in ws}


def _weights(rank):
    return itertools.product(range(-1, 3), repeat=rank)


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2),
])
def test_chain_many_equals_per_w(family, rank):
    rs = RootSystem(family, rank)
    W = rs.weyl()
    for lam in _weights(rank):
        chain = chain_lex_height(rs, lam)
        for sign in (1, -1):
            assert chevalley_tables(rs, lam, range(W.n), sign) == (
                _per_w(chain, range(W.n), sign)), (lam, sign)


@pytest.mark.parametrize("family", ["B", "C"])
def test_chain_many_equals_per_w_rank3(family):
    # every weight in [-1, 2]^3: all w inside [-1, 1]^3, and a stratified
    # sample of w through the (length, word) order where a 2 makes the
    # chains long (the pass then runs on that proper subset)
    rs = RootSystem(family, 3)
    W = rs.weyl()
    for n, lam in enumerate(_weights(3)):
        ws = range(W.n) if max(lam) < 2 else range(n % 24, W.n, 24)
        chain = chain_lex_height(rs, lam)
        for sign in (1, -1):
            assert chevalley_tables(rs, lam, ws, sign) == (
                _per_w(chain, ws, sign)), (lam, sign)


@pytest.mark.parametrize("family,rank,lam,stride", [
    ("D", 4, (1, 1, 1, 1), 17), ("F", 4, (1, 0, 0, 0), 97),
])
def test_chain_many_equals_per_w_rank4(family, rank, lam, stride):
    rs = RootSystem(family, rank)
    W = rs.weyl()
    ws = list(range(0, W.n, stride)) + [W.w0]
    chain = chain_lex_height(rs, lam)
    for sign in (1, -1):
        assert chevalley_tables(rs, lam, ws, sign) == (
            _per_w(chain, ws, sign)), sign


@pytest.mark.parametrize("family,rank,lam,word", [
    ("A", 2, (2, 1), [1, 0, 1, -1, 0, 1]),
    ("A", 2, (2, 1), [1, 0, 1, -1, 0, 1, 0, 0]),    # not reduced
    ("A", 3, (0, 1, 0), [1, 2, 0, 1]),
    ("A", 3, (0, 1, 0), [1, 2, 0, 1, 2, 2]),        # not reduced
    ("C", 2, (-1, 0), [-1, 1, -1]),
])
def test_chain_many_on_word_chains(family, rank, lam, word):
    rs = RootSystem(family, rank)
    W = rs.weyl()
    chain = chain_from_word(rs, lam, word)
    assert chain.reduced == (len(word) == len(chain_lex_height(rs, lam)))
    for sign in (1, -1):
        got = chevalley_tables(rs, lam, range(W.n), sign, chain=chain)
        assert got == _per_w(chain, range(W.n), sign), sign


def test_chain_many_keeps_the_asked_elements():
    rs = RootSystem("A", 3)
    W = rs.weyl()
    W.order  # completed first: 0..n-1 in order
    chain = chain_lex_height(rs, (1, -1, 2))
    ws = [W.w0, 5, 0, 5, 17]
    got = chevalley_tables(rs, (1, -1, 2), ws, -1)
    assert list(got) == [W.w0, 5, 0, 17]
    assert got == _per_w(chain, got, -1)


def test_chain_many_range_error():
    # on A1 the fine exponents of lambda = 4096 reach 8192, just outside
    # the packed range; chevalley_tables refuses it ahead of the walk and
    # the pass alike, and each still refuses it when called on its own
    rs = RootSystem("A", 1)
    W = rs.weyl()
    chain = chain_lex_height(rs, (4096,))
    for sign in (1, -1):
        with pytest.raises(ValueError) as walk:
            chevalley_tables(rs, (4096,), [0], sign)
        with pytest.raises(ValueError) as many:
            chevalley_tables(rs, (4096,), range(W.n), sign)
        assert str(many.value) == str(walk.value) == (
            "exponent 8192 out of range [-8192, 8192)")
        with pytest.raises(ValueError, match="out of range"):
            chevalley._chain_pass(chain, range(W.n), sign)
    with pytest.raises(ValueError, match="out of range"):
        chevalley_chain(chain, 0, 1)


# -- the pass's y-lines and their certificate -------------------------

@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3),
])
def test_pass_bound_covers_every_coefficient(family, rank):
    # each table's bound is at least the largest |coefficient| of any of
    # its entries, at rho and at an alternating weight, at both signs
    rs = RootSystem(family, rank)
    W = rs.weyl()
    for lam in ((1,) * rank, tuple((-1) ** i for i in range(rank))):
        for sign in (1, -1):
            for w, t in chevalley_tables(rs, lam, range(W.n), sign).items():
                top = max((abs(x) for g in t.values() for x in g.c.values()),
                          default=0)
                assert 1 <= top <= t.bound, (lam, sign, w)


def test_pass_refuses_a_bound_its_slots_cannot_hold(monkeypatch, capsys):
    # G2 (1,1) has a table of bound 2037: with 8-bit slots (room for
    # |c| < 128) the pass, the weighted sum and `chevmc chevalley` refuse
    # it before decoding; with 16-bit slots the tables are the walk's
    rs = RootSystem("G", 2)
    W = rs.weyl()
    lam = (1, 1)
    chain = chain_lex_height(rs, lam)
    want = {sign: _per_w(chain, range(W.n), sign) for sign in (1, -1)}
    sums = {sign: chevalley_sum(rs, lam, range(W.n), sign) for sign in (1, -1)}
    assert max(t.bound for t in chevalley_tables(
        rs, lam, range(W.n)).values()) == 2037
    monkeypatch.setattr(charring, "SLOT", 8)
    for sign in (1, -1):
        with pytest.raises(ValueError, match="reaches 2\\^7 of a y-line"):
            chevalley_tables(rs, lam, range(W.n), sign)
        with pytest.raises(ValueError, match="reaches 2\\^7 of a y-line"):
            chevalley_sum(rs, lam, range(W.n), sign)
    assert cli.run(["chevalley", "--type", "G2", "--lambda=1,1", "--w",
                    "all"]) == 2
    assert capsys.readouterr().err.startswith("error: coefficient bound ")
    monkeypatch.setattr(charring, "SLOT", 16)
    for sign in (1, -1):
        assert chevalley_tables(rs, lam, range(W.n), sign) == want[sign]
        assert chevalley_sum(rs, lam, range(W.n), sign) == sums[sign]


def test_range_checked_ahead_of_every_route(monkeypatch):
    # a weight outside the packed range is refused before a chain is
    # built or any route takes a step: the operator route used to run
    # until its keys left the range, for seconds on A1 at 5000
    def refuse(*args, **kwargs):
        raise AssertionError("a route ran")

    for name in ("chain_lex_height", "chevalley_chain", "_chain_pass",
                 "chevalley_operator", "chevalley_bridge"):
        monkeypatch.setattr(chevalley, name, refuse)
    for (family, rank), lam, exponent in (
        (("A", 1), (5000,), 10000), (("A", 2), (3000, 3000), 9000),
        (("B", 3), (0, -3000, 0), -18000),
    ):
        rs = RootSystem(family, rank)
        for method in ("chain", "operator", "bridge"):
            for ws in ([1], [0, 1]):
                with pytest.raises(ValueError, match=(
                        r"^exponent %d out of range" % exponent)):
                    chevalley_tables(rs, lam, ws, method=method)


# -- the weighted sum --------------------------------------------------

@pytest.mark.parametrize("family,rank,lams", [
    ("A", 2, [(0, 0), (2, 1), (1, -2)]),
    ("B", 2, [(0, 0), (1, 1), (-1, 2)]),
    ("G", 2, [(0, 0), (1, 0), (1, -1)]),
    ("A", 3, [(0, 0, 0), (1, 0, 1), (1, -1, 0)]),
    ("B", 3, [(0, 0, 0), (0, 1, 0), (1, 0, -1), (2, -1, 1)]),
    ("C", 3, [(0, 0, 0), (1, 0, 0), (0, 1, -1), (1, 1, -2)]),
])
def test_chevalley_sum_equals_weighted_tables(family, rank, lams):
    # sum_{w in ws} sum_u q^{l(u)} C^w_{u, sign*lambda}, read off the
    # tables, for ws every w, the minimal coset representatives W^P of
    # the first maximal parabolic's complement, and one w
    rs = RootSystem(family, rank)
    W = rs.weyl()
    sets = (list(range(W.n)), W.min_coset_reps(tuple(range(1, rank))),
            [W.n // 2])
    for lam in lams:
        for sign in (1, -1):
            for ws in sets:
                tables = chevalley_tables(rs, lam, ws, sign)
                ref = GA.dot((g, Scalar.q(W.length[u]))
                             for t in tables.values() for u, g in t.items())
                assert chevalley_sum(rs, lam, ws, sign) == ref, (
                    lam, sign, len(ws))


def test_chevalley_sum_range_error():
    # refused ahead of the pass, with the exponent of lambda named
    rs = RootSystem("A", 1)
    for sign in (1, -1):
        with pytest.raises(ValueError, match=(
                r"^exponent 10000 out of range \[-8192, 8192\)$")):
            chevalley_sum(rs, (5000,), [0, 1], sign)


# -- the entry point ---------------------------------------------------

def test_tables_contract(monkeypatch):
    rs = RootSystem("B", 2)
    W = rs.weyl()
    W.order  # completed first: 0..n-1 in order
    lam = (1, -1)
    calls = []
    real = chevalley._chain_pass

    def pass_of_many(chain, ws, sign):
        assert len(ws) > 1, "the pass ran for one w"
        calls.append(list(ws))
        return real(chain, ws, sign)

    monkeypatch.setattr(chevalley, "_chain_pass", pass_of_many)
    chain = chain_lex_height(rs, lam)
    for sign in (1, -1):
        # one w walks, repeated or not
        assert chevalley_tables(rs, lam, [3, 3], sign) == (
            _per_w(chain, [3], sign))
        assert not calls
        # more take the pass; repeats are dropped, the order is kept
        got = chevalley_tables(rs, lam, [W.w0, 2, W.w0, 0, 2], sign)
        assert list(got) == [W.w0, 2, 0] and calls.pop() == [W.w0, 2, 0]
        assert got == _per_w(chain, got, sign)
    for method in ("operator", "bridge"):
        got = chevalley_tables(rs, lam, [5, 1, 5], method=method)
        assert list(got) == [5, 1]
        assert got == {w: chevalley_table(rs, lam, w, method=method)
                       for w in (5, 1)}
    # lambda = 0 is the identity on every route and sign
    one = GA.const(1, rs.rank)
    for method in ("chain", "operator", "bridge"):
        for sign in (1, -1):
            assert chevalley_tables(rs, (0, 0), [4, 1], sign, method) == {
                4: {4: one}, 1: {1: one}}, (method, sign)
    with pytest.raises(ValueError, match="operator method"):
        chevalley_tables(rs, lam, [1], -1, "operator")
    with pytest.raises(ValueError, match="unknown method"):
        chevalley_tables(rs, lam, [1], method="walk")



# SHA-256 of (u, w, sorted packed key items) over the entries of the
# shift and wall-crossing matrices, pinned while they were built from a
# dict keyed by (u, w) and by summing every row of every wall crossing
_STABLE_GOLDEN = [
    ("A", 2, (2, 1),
     "8f372fd538490bdefea5ec350e6188c54bffc7717274843b6a82dfccfb920fd2",
     "a5472cb0fd9bcf2a418436c64c49ac8105b8261db334a521f089cbe6dcf71fab"),
    ("A", 2, (-1, 1),
     "cd59de1eb44868f4b60642d365ce0db2994807386a2566cd5ac3abedf349e88a",
     "99a7f1e1bde161ac49e6c148791c04832339995dc576a20b15e08593cf622381"),
    ("B", 2, (1, 1),
     "ae562d3150d3ed70bad673f316eb193618141330f204a78c6638867da2145802",
     "135a65c60e186b545b01d88cb2367909e784482ee5540d72de928366fa55963a"),
    ("G", 2, (1, 0),
     "a645ffba377327c0c2875ac4ee00b1d1243c151b71a0612e665d154718512fcd",
     "83a7bbeecdb7b646272f63fb0be369eb9e1095820f05435380b294380a57eb6d"),
    ("G", 2, (-1, 2),
     "b68163b4ae75b3955a4f1c5a7a9631694cf7647ba0ea0612218e811a82b59aa7",
     "5a20ac9a969215d24962498eabf23ec3b064743390dfbeb50bec4496a2c4cbfc"),
    ("A", 3, (1, 0, 1),
     "9c9b49027f6d72e81638b354306358576975ae5efa25d541a9e6da2b83aec4e8",
     "c4c36976b995e1257fefba1d8fbf0f924aa5da17f1fcf654e9acc145e9735843"),
    ("B", 3, (1, 0, 0),
     "cc68bc1f532cb1d01acd9fc2d3556329b74228983e7aa2b38c2815ee2b1a82a0",
     "f57dd1501cbfdaea88827ba0d41922b2e0b3d4d27415ee00b3f89802de43ae1f"),
    ("C", 3, (0, 1, -1),
     "e3f8fd56680d613a56c33fa37d4c9ed3d8a4765bbfefce8ff436290b58265ff7",
     "24c1371ffa113da953c825baccb204c2789e9ad7f45a7d1b52dc6a4ff2789c53"),
]


def _matrix_digest(m):
    return hashlib.sha256(repr([
        (u, w, sorted(m[u][w].c.items()))
        for u in sorted(m) for w in sorted(m[u])
    ]).encode()).hexdigest()


@pytest.mark.parametrize("family,rank,lam,shift,wall", _STABLE_GOLDEN, ids=[
    "%s%d:%s" % (f, r, ",".join(map(str, lam)))
    for f, r, lam, _, _ in _STABLE_GOLDEN])
def test_stable_basis_matrices_golden(family, rank, lam, shift, wall):
    rs = RootSystem(family, rank)
    assert _matrix_digest(chevalley.shift_matrix(rs, lam)) == shift
    assert _matrix_digest(chevalley.wall_cross_path(rs, lam)) == wall
