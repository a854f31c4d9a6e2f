"""Lambda-chains, alcove paths and hyperplane data."""

import itertools

import pytest

from chevmc.rootsystem import RootSystem
from chevmc.chevalley import chevalley_table
from chevmc.alcove import (
    Hyperplane,
    chain_from_word,
    chain_lex_height,
    chain_reflections,
    v_minus_lambda,
)


def test_hyperplane_canonical():
    rs = RootSystem("A", 2)
    a1 = rs.root_by_simple((1, 0))
    neg = rs.root_by_simple((-1, 0))
    h1 = Hyperplane(rs, a1, 2)
    h2 = Hyperplane(rs, neg, -2)
    assert h1 == h2
    assert h1.level == 2
    assert h1.root.positive


def test_chain_lengths():
    # l(v_-lambda) = sum over alpha > 0 of |<lambda, alpha^vee>|
    rs = RootSystem("A", 2)
    assert len(chain_lex_height(rs, (1, 0))) == 2
    assert len(chain_lex_height(rs, (1, 1))) == 4
    assert len(chain_lex_height(rs, (2, 1))) == 6


def test_appendix_chain_from_word():
    # the worked A2 example: v_-lambda = s2 s1 s2 s0 s1 s2 for 2w1+w2
    rs = RootSystem("A", 2)
    chain = chain_from_word(rs, (2, 1), [1, 0, 1, -1, 0, 1])
    assert chain.reduced
    betas = [b.simple for b in chain.betas]
    assert betas == [(0, 1), (1, 1), (1, 0), (1, 1), (1, 0), (1, 1)]
    assert chain.levels == [0, 0, 0, 1, 1, 2]
    # separating hyperplanes are H_{-beta_j, d_j}
    h4 = chain.hyperplane(4)
    assert h4.root.simple == (1, 1) and h4.level == -1


def test_nonreduced_word_rejected_then_allowed():
    rs = RootSystem("A", 2)
    word = [1, 0, 1, -1, 0, 1, 0, 0]
    with pytest.raises(ValueError):
        chain_from_word(rs, (2, 1), word)
    chain = chain_from_word(rs, (2, 1), word, require_reduced=False)
    assert not chain.reduced
    assert len(chain) == 8


def test_wrong_endpoint_rejected():
    rs = RootSystem("A", 2)
    with pytest.raises(ValueError):
        chain_from_word(rs, (1, 1), [1, 0, 1, -1, 0, 1])


def test_lex_height_minuscule_levels():
    rs = RootSystem("A", 2)
    chain = chain_lex_height(rs, (1, 0))
    # minuscule: all separating hyperplanes pass through the origin
    assert all(h.level == 0 for h in chain.walls)


def test_reverse():
    rs = RootSystem("A", 2)
    chain = chain_lex_height(rs, (2, 1))
    rev = chain.reverse()
    assert rev.lam_fund == (-2, -1)
    assert len(rev) == len(chain)
    assert [b.simple for b in rev.betas] == [
        tuple(-c for c in b.simple) for b in reversed(chain.betas)
    ]
    # reversed_hyperplane(j) of the original equals hyperplane(l-j+1) data
    l = len(chain)
    for j in range(1, l + 1):
        h = chain.reversed_hyperplane(j)
        assert h == rev.hyperplane(j)


def test_chain_reflections_identity():
    rs = RootSystem("A", 2)
    chain = chain_lex_height(rs, (2, 1))
    data = chain_reflections(chain, ())
    mu = rs.weight((1, -1))
    assert data["rhat_Jlt"](mu) == mu
    assert data["rtilde_Jgt"](mu) == mu
    assert data["n_J"] == 0


def test_chain_reflections_single():
    rs = RootSystem("A", 2)
    chain = chain_lex_height(rs, (1, 0))
    for j in (1, 2):
        data = chain_reflections(chain, (j,))
        h = chain.hyperplane(j)
        mu = rs.weight((2, -1))
        assert data["rhat_Jlt"](mu) == h.reflect_weight(rs, mu)


def test_v_minus_lambda_word():
    rs = RootSystem("A", 2)
    word = v_minus_lambda(rs, (2, 1))
    assert len(word) == 6
    # the chain built from this word is reduced and self-consistent
    chain = chain_from_word(rs, (2, 1), word)
    assert chain.reduced


# (type, rank, stride through [-1, 2]^r minus 0)
_CHAIN_WORD_CASES = [
    ("A", 2, 1), ("B", 2, 1), ("C", 2, 1), ("G", 2, 1),
    ("A", 3, 7), ("B", 3, 7), ("C", 3, 7), ("D", 4, 41), ("F", 4, 41),
]


@pytest.mark.parametrize("family,rank,stride", _CHAIN_WORD_CASES)
def test_v_minus_lambda_chain_in_every_type(family, rank, stride):
    # s0 reflects in H_{theta~,1} with theta~ the root of maximal
    # coheight, so the walked word is reduced in the non-simply-laced
    # types too and its chain gives the lex-height chain's tables
    rs = RootSystem(family, rank)
    W = rs.weyl()
    lams = [
        lam for lam in itertools.product(range(-1, 3), repeat=rank) if any(lam)
    ][::stride]
    # s1 and the Coxeter element s1...sr, and w0 in rank 2
    ws = [1, W.from_word(range(rank))] + ([W.w0] if rank == 2 else [])
    for lam in lams:
        word = v_minus_lambda(rs, lam)
        lex = chain_lex_height(rs, lam)
        length = sum(abs(rs.pairing(lam, a)) for a in rs.positive_roots)
        assert len(word) == length == len(lex), lam
        chain = chain_from_word(rs, lam, word)
        assert chain.reduced, lam
        for w in ws:
            for sign in (1, -1):
                assert chevalley_table(
                    rs, lam, w, sign, chain=chain
                ) == chevalley_table(rs, lam, w, sign, chain=lex), (lam, w)
