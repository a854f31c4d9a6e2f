"""Root systems, Weyl groups, Bruhat order."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chevmc.charring import MAX_RANK, _BIAS, _weight
from chevmc.chevalley import chevalley_table, chevalley_tables, render_table
from chevmc.oracle import KOracle
from chevmc.rootsystem import WEYL_CAP, RootSystem, _mat_vec, cartan_matrix
from conftest import reflect


@pytest.mark.parametrize(
    "family,rank,n_pos,order,h",
    [
        ("A", 1, 1, 2, 2),
        ("A", 2, 3, 6, 3),
        ("A", 3, 6, 24, 4),
        ("B", 2, 4, 8, 4),
        ("C", 3, 9, 48, 6),
        ("D", 4, 12, 192, 6),
        ("G", 2, 6, 12, 6),
    ],
)
def test_counts(family, rank, n_pos, order, h):
    rs = RootSystem(family, rank)
    assert rs.n_positive() == n_pos
    assert rs.weyl().n == order
    assert rs.h == h
    assert len(rs.roots) == 2 * n_pos


def test_cartan_a2():
    assert cartan_matrix("A", 2) == ((2, -1), (-1, 2))


def test_cartan_g2_asymmetry():
    A = cartan_matrix("G", 2)
    assert sorted((A[0][1], A[1][0])) == [-3, -1]


def test_rank_cap():
    # one bound for every family: the packed ring's MAX_RANK
    for family in "ABCD":
        assert RootSystem(family, MAX_RANK).rank == MAX_RANK
        with pytest.raises(ValueError):
            RootSystem(family, MAX_RANK + 1)


def test_weight_scaling():
    rs = RootSystem("A", 2)
    assert rs.weight((1, 0)) == (3, 0)
    assert rs.weight_user((3, 0)) == (1, 0)
    with pytest.raises(ValueError):
        rs.weight_user((1, 0))
    assert rs.rho() == (3, 3)


def test_pairing_and_reflect():
    rs = RootSystem("A", 2)
    a1 = rs.positive_roots[0]
    assert rs.pairing((1, 0), a1) in (0, 1)
    rho = rs.rho()
    for a in rs.positive_roots:
        # s_alpha is an involution
        assert reflect(rs, reflect(rs, rho, a), a) == rho
        # <rho, alpha^vee> = coheight
        assert rs.pair_coroot(rho, a) == rs.h * sum(a.coroot)


def test_weyl_words_canonical():
    rs = RootSystem("A", 2)
    W = rs.weyl()
    assert W.words[0] == ()
    assert W.length[W.w0] == 3
    # lex-least reduced word for w0 in A2 is s1 s2 s1
    assert W.word(W.w0) == (0, 1, 0)
    for w in range(W.n):
        assert W.from_word(W.words[w]) == w
        assert W.length[W.from_word(W.words[w])] == len(W.words[w])


def test_mul_inverse():
    rs = RootSystem("B", 2)
    W = rs.weyl()
    for w in range(W.n):
        assert W.mul(w, W.inv(w)) == 0
        assert W.length[W.inv(w)] == W.length[w]


def test_reflection_lengths():
    rs = RootSystem("A", 3)
    W = rs.weyl()
    for a in rs.positive_roots:
        s = W.mul_refl(0, a.index)
        # l(s_alpha) = 2 height' - 1 is odd
        assert W.length[s] % 2 == 1


def test_bruhat_order():
    rs = RootSystem("A", 2)
    W = rs.weyl()
    for w in range(W.n):
        assert W.leq(0, w)
        assert W.leq(w, W.w0)
        assert W.leq(w, w)
    s1 = W.from_word_str("s1")
    s2 = W.from_word_str("s2")
    assert not W.leq(s1, s2)
    assert not W.leq(s2, s1)
    # counting: in A2, #\{u <= s1s2\} = 4
    s1s2 = W.from_word_str("s1s2")
    assert sum(1 for u in range(W.n) if W.leq(u, s1s2)) == 4


def test_cosets():
    rs = RootSystem("A", 2)
    W = rs.weyl()
    reps = W.min_coset_reps((1,))
    assert len(reps) == 3
    for w in reps:
        assert W.min_coset_rep(w, (1,)) == w
    assert len(W.parabolic_elements((0, 1))) == 6


def test_word_str_round_trip():
    rs = RootSystem("A", 3)
    W = rs.weyl()
    for w in range(W.n):
        assert W.from_word_str(W.word_str(w)) == w


# the A-D types of rank <= 5, G2 and F4; E6, with 51840 elements, and the
# larger groups are left out for time
_CLI_TYPES = (
    [("A", n) for n in range(1, 6)] + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(3, 6)]
    + [("G", 2), ("F", 4)]
)

# SHA-256 of repr(W.words), taken from the matrix-product build that the
# column-update walk replaced: any renumbering of the elements fails here
_WORDS_SHA256 = {
    ("D", 5): "b2373262daf9826d97bc1a6d86c85524c828f9f7984c4589a095eb53b3818d1b",
    ("F", 4): "d48e2419bcbce582cd7f4679712cd4418d6ef29a73ab74c0ec2e19c1b2d38d54",
}


@pytest.mark.parametrize(
    "family,rank", _CLI_TYPES, ids=["%s%d" % t for t in _CLI_TYPES]
)
def test_weyl_invariants(family, rank):
    rs = RootSystem(family, rank)
    W = rs.weyl()
    assert W.n == rs.weyl_order
    assert list(range(W.n)) == sorted(
        range(W.n), key=lambda w: (W.length[w], W.words[w])
    )
    ident = tuple(tuple(int(a == b) for b in range(rank)) for a in range(rank))
    for w in range(W.n):
        for i in range(rank):
            v = W.right[w][i]
            assert W.right[v][i] == w
            assert abs(W.length[v] - W.length[w]) == 1
        m, mi = W.mats[w], W.mats[W.inv(w)]
        assert tuple(
            tuple(sum(mi[a][k] * m[k][b] for k in range(rank))
                  for b in range(rank))
            for a in range(rank)
        ) == ident
    for a in rs.positive_roots:
        assert W.length[W.mul_refl(0, a.index)] % 2 == 1
    if (family, rank) in _WORDS_SHA256:
        digest = hashlib.sha256(repr(W.words).encode()).hexdigest()
        assert digest == _WORDS_SHA256[family, rank]


# (family, rank, stride through the elements)
_PACKED_CASES = (
    [("A", n, 1) for n in range(1, 5)] + [("B", n, 1) for n in range(2, 5)]
    + [("C", 3, 1), ("D", 4, 1), ("G", 2, 1), ("F", 4, 1), ("E", 6, 97)]
)


@pytest.mark.parametrize(
    "family,rank,stride", _PACKED_CASES,
    ids=["%s%d" % c[:2] for c in _PACKED_CASES],
)
def test_packed_action_matches_matrices(family, rank, stride):
    # the packed keys give the matrix action on the fundamental weights
    # and on every root, and the negative root images are the right
    # descents l(w s_beta) < l(w)
    rs = RootSystem(family, rank)
    W = rs.weyl()
    vectors = [rs.weight(tuple(int(i == j) for j in range(rank)))
               for i in range(rank)]
    vectors += [rs.weight(a.fund) for a in rs.roots]
    refls = [(a.index, W.mul_refl(0, a.index)) for a in rs.positive_roots]
    for w in range(0, W.n, stride):
        for v in vectors:
            key = _BIAS[rank] + W.act_key(w, v)
            assert _weight(key, rank) == _mat_vec(W.mats[w], v)
        img = W.images(w)
        for i, s in refls:
            assert (img[i] >= W.npos) == (W.length[W.mul(w, s)] < W.length[w])


def _reflection_words(rs):
    """A word for each s_beta, beta > 0, from the simple reflections up:
    s_{s_j beta} = s_j s_beta s_j."""
    words = {a.simple: (i,) for i, a in enumerate(rs.simple_roots)}
    todo = list(rs.simple_roots)
    while todo:
        b = todo.pop()
        for j in range(rs.rank):
            up = tuple(c - b.fund[j] * (k == j) for k, c in enumerate(b.simple))
            if min(up) >= 0 and up not in words:
                words[up] = (j,) + words[b.simple] + (j,)
                todo.append(rs.root_by_simple(up))
    return [words[a.simple] for a in rs.positive_roots]


def _check_tables(rs, W, elements, roots_of):
    """The store's tables against the matrices at each w of `elements`:
    root images against W.act, w s_beta against w times s_beta's word
    (roots_of(w) of them) and against its action on rho, the negative
    images against the shorter w s_beta, and the shift key k key(w(beta))
    against act_key."""
    n = W.npos
    signed = {a.fund: a.index for a in rs.positive_roots}
    signed.update({tuple(-c for c in f): b + n for f, b in signed.items()})
    refls = [W.from_word(word) for word in _reflection_words(rs)]
    rho = rs.rho()
    for w in elements:
        img = W.images(w)
        assert list(img) == [signed[W.act(w, a.fund)]
                             for a in rs.positive_roots]
        assert [b >= n for b in img] == [
            W.length[W.mul_refl(w, a.index)] < W.length[w]
            for a in rs.positive_roots]
        for a in rs.positive_roots:
            v = W.mul_refl(w, a.index)
            assert W.act(v, rho) == W.act(w, reflect(rs, rho, a))
            for k in (1, -2, 3):
                fine = tuple(k * rs.h * c for c in a.fund)
                assert k * rs.h * W.root_keys[img[a.index]] == (
                    W.act_key(w, fine))
        for a in roots_of(w):
            assert W.mul_refl(w, a.index) == W.mul(w, refls[a.index])


@pytest.mark.parametrize("family,rank", [
    ("B", 3), ("C", 3), ("G", 2), ("D", 4), ("F", 4)])
def test_store_tables_match_matrices(family, rank):
    # every element, every positive root; the order of the elements is
    # reversed so that the images are built from the matrices as well as
    # permuted from a neighbour's.  The Bruhat masks, which fill the
    # products of the descents from a shorter neighbour's, equal the
    # masks of products walked along the reflections' words, on this
    # store (products all made) and on a fresh one (none made)
    rs = RootSystem(family, rank)
    W = rs.weyl()
    _check_tables(rs, W, reversed(range(W.n)), lambda w: rs.positive_roots)
    refls = [W.from_word(word) for word in _reflection_words(rs)]
    masks = [0] * W.n
    for w in W.order:
        masks[w] = 1 << w
        for v in (W.mul(w, s) for s in refls):
            if W.length[v] == W.length[w] - 1:
                masks[w] |= masks[v]
    assert W.leq_masks() == masks
    assert RootSystem(family, rank).weyl().leq_masks() == masks


@pytest.mark.parametrize("rank,seed", [(7, 7), (8, 8)])
def test_lazy_store_tables_match_matrices(rank, seed):
    # a store grown by seeded random words, never completed: the products
    # are made straight from w(rho) and the matrices, and each is walked
    # against s_beta's word for a seeded sample of roots
    rs = RootSystem("E", rank)
    W = rs.weyl()
    rng = random.Random(seed)
    for _ in range(3):
        W.from_word([rng.randrange(rank) for _ in range(rng.randrange(12))])
    elements = range(len(W.mats))
    _check_tables(rs, W, elements,
                  lambda w: rng.sample(rs.positive_roots, 3))
    assert len(elements) < len(W.mats) < rs.weyl_order


def _reached_elements(rs):
    """Every element of a store that is never completed, reached through
    right steps by the simple reflections."""
    L = rs.weyl()
    seen = {0}
    frontier = [0]
    while frontier:
        frontier = {L.step(w, i) for w in frontier
                    for i in range(rs.rank)} - seen
        seen |= frontier
    return L, seen


@pytest.mark.parametrize("family,rank", sorted(_WORDS_SHA256))
def test_lazy_words_match_pinned(family, rank):
    # the store spells each element's canonical word from w(rho) alone,
    # and its length from the steps, without completing itself
    rs = RootSystem(family, rank)
    L, elements = _reached_elements(rs)
    # completing the store would have spelled every word
    assert len(elements) == rs.weyl_order == L.words.count(None) + 1
    assert all(L.length[w] == len(L.word(w)) for w in elements)
    words = sorted((L.word(w) for w in elements),
                   key=lambda ww: (len(ww), ww))
    digest = hashlib.sha256(repr(words).encode()).hexdigest()
    assert digest == _WORDS_SHA256[family, rank]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_lazy_store_matches_exhaustive(family, rank):
    # single words on one root system's store, longest first, against the
    # whole group of another
    rs = RootSystem(family, rank)
    W, L = rs.weyl(), RootSystem(family, rank).weyl()
    lazy = [None] * W.n
    for w in reversed(range(W.n)):
        lazy[w] = L.from_word(W.words[w])
    assert [L.word(x) for x in lazy] == W.words
    assert lazy[0] == 0
    vectors = [rs.weight(a.fund) for a in rs.roots] + [rs.rho()]
    for w, x in enumerate(lazy):
        assert L.length[x] == W.length[w]
        assert L.images(x) == W.images(w)
        assert tuple(L.mul(x, L.from_word((i,))) for i in range(rank)) == (
            tuple(lazy[v] for v in W.right[w]))
        assert L.from_word_str(W.word_str(w)) == x
        for v in vectors:
            assert L.act(x, v) == W.act(w, v)
            assert L.act_key(x, v) == W.act_key(w, v)
        assert L.inv(x) == lazy[W.inv(w)] and L.mul(x, L.inv(x)) == 0
    for a in rs.positive_roots:
        assert L.mul_refl(0, a.index) == lazy[W.mul_refl(0, a.index)]
    assert "order" not in vars(L)  # the store was not completed


_FRESH = {}


def _fresh(family, rank):
    """A root system whose group was completed first, and its oracle."""
    if (family, rank) not in _FRESH:
        rs = RootSystem(family, rank)
        rs.weyl().order  # completed first: 0..n-1 in order
        _FRESH[family, rank] = rs, KOracle(rs)
    return _FRESH[family, rank]


def _all_w_tables(rs, lam, sign):
    W = rs.weyl()
    tables = chevalley_tables(rs, lam, W.order, sign)
    return "\n\n".join("w = %s\n%s" % (W.word_str(w), render_table(rs, t))
                       for w, t in tables.items())


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_grown_store_completes_to_the_fresh_group(family, rank, data):
    # a store grown by single words and a single-word table, then
    # completed, numbers its elements in another order than a fresh one;
    # matched by canonical word, everything that reads the order agrees
    grown = RootSystem(family, rank)
    L = grown.weyl()
    # s_r ... s_1 first, so that the integers never follow the words
    L.from_word(range(rank - 1, -1, -1))
    words = data.draw(st.lists(st.lists(st.integers(0, rank - 1),
                                        max_size=2 * grown.n_positive()),
                               max_size=4))
    for word in words:
        L.from_word(word)
    lam = data.draw(st.tuples(*[st.integers(-1, 1)] * rank).filter(any))
    x = L.from_word(data.draw(st.lists(st.integers(0, rank - 1),
                                       max_size=grown.n_positive())))
    chevalley_table(grown, lam, x, sign=data.draw(st.sampled_from((1, -1))))
    W = grown.weyl()
    fresh, oracle = _fresh(family, rank)
    F = fresh.weyl()
    assert list(F.order) == list(range(F.n))
    to_fresh = [F.from_word(W.words[w]) for w in range(W.n)]
    assert sorted(to_fresh) == list(range(F.n))
    assert [to_fresh[w] for w in W.order] == list(F.order)
    vectors = [grown.weight(a.fund) for a in grown.roots]
    for w, f in enumerate(to_fresh):
        assert W.words[w] == F.words[f] and W.length[w] == F.length[f]
        assert [to_fresh[v] for v in W.right[w]] == F.right[f]
        assert W.images(w) == F.images(f)
        assert [W.act_key(w, v) for v in vectors] == [
            F.act_key(f, v) for v in vectors]
        for u, g in enumerate(to_fresh):
            assert W.leq(u, w) == F.leq(g, f)
    for size in range(rank + 1):
        for parabolic in itertools.combinations(range(rank), size):
            assert [to_fresh[v] for v in W.min_coset_reps(parabolic)] == (
                F.min_coset_reps(parabolic))
    for sign in (1, -1):
        assert _all_w_tables(grown, lam, sign) == _all_w_tables(
            fresh, lam, sign)
    mine = KOracle(grown)
    for w in data.draw(st.lists(st.sampled_from(range(W.n)), min_size=1,
                                max_size=2)):
        got = mine.expand_product(lam, w)
        want = oracle.expand_product(lam, to_fresh[w])
        assert render_table(grown, got) == render_table(fresh, want)


@pytest.mark.parametrize("rank,n_pos,h", [(7, 63, 18), (8, 120, 30)])
def test_e7_e8_lazy_only(rank, n_pos, h):
    # E7 and E8 construct and make the elements a word reaches, and
    # completing the store refuses them with the cap message
    rs = RootSystem("E", rank)
    assert rs.n_positive() == n_pos and rs.h == h
    L = rs.weyl()
    word = tuple(range(rank - 1, -1, -1))
    w = L.from_word(word)
    assert L.length[w] == rank
    assert L.word(w) == word[:rank - 3] + (1, 2, 0)  # s4 s2 s3 s1 in E
    with pytest.raises(ValueError, match="above the cap 100000"):
        L.order
    with pytest.raises(ValueError, match="above the cap 100000"):
        rs.weyl().n


# every type whose group is within the cap: A8, B7, C7 and D7 are above it
_CAPPED_TYPES = [
    (family, rank) for family, ranks in (
        ("A", range(1, 9)), ("B", range(2, 8)), ("C", range(2, 8)),
        ("D", range(3, 8)), ("E", (6,)), ("F", (4,)), ("G", (2,)))
    for rank in ranks if RootSystem(family, rank).weyl_order <= WEYL_CAP
]


@pytest.mark.parametrize("family,rank", _CAPPED_TYPES,
                         ids=["%s%d" % t for t in _CAPPED_TYPES])
def test_w0_from_minus_rho_is_the_last_element(family, rank):
    # w0 is made along the canonical word of -rho, one element per
    # letter, and is the last element of the completed group
    rs = RootSystem(family, rank)
    W = rs.weyl()
    w0 = W.w0
    assert len(W.mats) == rs.n_positive() + 1 == W.length[w0] + 1
    assert w0 == W.order[-1]


@pytest.mark.parametrize("rank,made", [(7, 64), (8, 121)])
def test_w0_above_the_cap(no_completion, rank, made):
    # w0(rho) = -rho names w0, made with l(w0) + 1 elements in all
    rs = RootSystem("E", rank)
    W = rs.weyl()
    w0 = W.w0
    assert len(W.mats) == made
    assert W.act(w0, rs.rho()) == tuple(-c for c in rs.rho())


def _root_lengths(A):
    """(alpha_k, alpha_k) up to one common factor, from the Cartan matrix
    with A[j][k] = <alpha_k, alpha_j^vee>: d_j A[j][k] = d_k A[k][j]."""
    r = len(A)
    d = [None] * r
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        j = todo.pop()
        for k in range(r):
            if A[j][k] and d[k] is None:
                d[k] = d[j] * A[j][k] / A[k][j]
                todo.append(k)
    return d


@pytest.mark.parametrize("family,rank", [
    ("A", r) for r in range(1, 6)] + [("B", r) for r in range(2, 6)]
    + [("C", r) for r in range(2, 6)] + [("D", 4), ("D", 5)]
    + [("E", r) for r in (6, 7, 8)] + [("F", 4), ("G", 2)])
def test_root_coordinates_match_cartan(family, rank):
    # the root walk updates fundamental coordinates one reflection at a
    # time; each must equal the Cartan matrix applied to the simple
    # coordinates, and each coroot 2 alpha / (alpha, alpha)
    rs = RootSystem(family, rank)
    A = rs.cartan
    d = _root_lengths(A)
    assert len(rs.roots) == 2 * rs.n_positive()
    assert len({t.simple for t in rs.roots}) == len(rs.roots)
    for t in rs.roots:
        s = t.simple
        assert t.fund == tuple(
            sum(A[j][k] * s[k] for k in range(rank)) for j in range(rank))
        norm = sum(s[k] * t.fund[k] * d[k] for k in range(rank)) / 2
        assert t.coroot == tuple(s[k] * d[k] / norm for k in range(rank))
        assert sum(c * f for c, f in zip(t.coroot, t.fund)) == 2
