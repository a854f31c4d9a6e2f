"""Root systems, Weyl groups, Bruhat order."""

import hashlib

import pytest

from chevmc.rootsystem import RootSystem, cartan_matrix


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
    with pytest.raises(ValueError):
        RootSystem("A", 6)


def test_highest_root_dominant():
    for fam, rk in [("A", 3), ("B", 3), ("C", 2), ("D", 4), ("G", 2)]:
        rs = RootSystem(fam, rk)
        assert all(c >= 0 for c in rs.highest_root.fund)


def test_weight_scaling():
    rs = RootSystem("A", 2)
    assert rs.weight((1, 0)) == (3, 0)
    assert rs.weight_user((3, 0)) == (1, 0)
    with pytest.raises(ValueError):
        rs.weight_user((1, 0))
    assert rs.rho() == (3, 3)


def test_pairing_and_reflect():
    rs = RootSystem("A", 2)
    a1 = rs.positive_root(0)
    assert rs.pairing((1, 0), a1) in (0, 1)
    rho = rs.rho()
    for a in rs.positive_roots:
        # s_alpha is an involution
        assert rs.reflect(rs.reflect(rho, a), a) == rho
        # <rho, alpha^vee> = coheight
        assert rs.pair_coroot(rho, a) == rs.h * sum(a.coroot)


def test_weyl_words_canonical():
    rs = RootSystem("A", 2)
    W = rs.weyl()
    assert W.words[0] == ()
    assert W.length[W.w0] == 3
    # lex-least reduced word for w0 in A2 is s1 s2 s1
    assert W.words[W.w0] == (0, 1, 0)
    for w in range(W.n):
        assert W.from_word(W.words[w]) == w
        assert W.is_reduced(W.words[w])


def test_mul_inverse():
    rs = RootSystem("B", 2)
    W = rs.weyl()
    for w in range(W.n):
        assert W.mul(w, W.inv[w]) == 0
        assert W.length[W.inv[w]] == W.length[w]


def test_reflection_lengths():
    rs = RootSystem("A", 3)
    W = rs.weyl()
    for a in rs.positive_roots:
        s = W.reflection(a)
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
    assert W.stabilizer_parabolic(rs.weight((1, 0))) == [1]


def test_word_str_round_trip():
    rs = RootSystem("A", 3)
    W = rs.weyl()
    for w in range(W.n):
        assert W.from_word_str(W.word_str(w)) == w


# every A-D type the CLI accepts (rank <= 5), G2 and F4; E6, with 51840
# elements, is left out for time
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
        m, mi = W.mats[w], W.mats[W.inv[w]]
        assert tuple(
            tuple(sum(mi[a][k] * m[k][b] for k in range(rank))
                  for b in range(rank))
            for a in range(rank)
        ) == ident
    for a in rs.positive_roots:
        assert W.length[W.reflection(a)] % 2 == 1
    if (family, rank) in _WORDS_SHA256:
        digest = hashlib.sha256(repr(W.words).encode()).hexdigest()
        assert digest == _WORDS_SHA256[family, rank]
