"""Lambda-chains, alcove paths and hyperplane data."""

import hashlib
import itertools

import pytest

from chevmc.charring import _BIAS, _weight
from chevmc.rootsystem import RootSystem
from chevmc.chevalley import chevalley_table
from chevmc.alcove import (
    Hyperplane,
    chain_from_word,
    chain_lex_height,
    descent_subsets,
)
from conftest import v_minus_lambda


def test_hyperplane_canonical():
    rs = RootSystem("A", 2)
    a1 = rs.root_by_simple((1, 0))
    neg = rs.root_by_simple((-1, 0))
    h1 = Hyperplane(rs, a1, 2)
    h2 = Hyperplane(rs, neg, -2)
    assert (h1.root, h1.level) == (h2.root, h2.level)
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
    assert chain.levels == (0, 0, 0, 1, 1, 2)
    # separating hyperplanes are H_{-beta_j, d_j}
    h4 = chain.walls[3]
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


def test_letter_out_of_range_rejected():
    # letters are -1..r, with -1 and r both s0: on A2 the appendix word
    # with 2 in place of -1 builds the same chain
    rs = RootSystem("A", 2)
    word = [1, 0, 1, -1, 0, 1]
    assert chain_from_word(rs, (2, 1), [1, 0, 1, 2, 0, 1]).betas == (
        chain_from_word(rs, (2, 1), word).betas)
    for bad in (5, 3, -2, -3):
        with pytest.raises(ValueError, match="letters"):
            chain_from_word(rs, (2, 1), word[:5] + [bad])


def test_lex_height_minuscule_levels():
    rs = RootSystem("A", 2)
    chain = chain_lex_height(rs, (1, 0))
    # minuscule: all separating hyperplanes pass through the origin
    assert all(h.level == 0 for h in chain.walls)


def _compose(rs, walls, order, x):
    """r_{order[0]} ... r_{order[-1]}(x) with r_j the affine reflection in
    walls[j - 1]; the rightmost reflection acts first."""
    for j in reversed(order):
        h = walls[j - 1]
        x = rs.affine_reflect(x, h.root, h.level)
    return x


def _neg(v):
    return tuple(-c for c in v)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _leaves(chain, w, ascending, far):
    """descent_subsets with each translation B read back as a weight,
    after checking the sign parity the walk carries: whether an odd
    number of the roots beta_j, j in J, is negative."""
    r = chain.rs.rank
    negative = {j for j, b in enumerate(chain.betas, 1) if not b.positive}
    out = []
    for u, J, B, odd in descent_subsets(chain, w, ascending, far):
        assert odd == len(negative.intersection(J)) % 2, (w, J)
        out.append((u, J, _weight(_BIAS[r] + B, r), odd))
    return out


@pytest.mark.parametrize("family,rank,lam,stride", [
    ("A", 3, (1, -1, 1), 1), ("C", 3, (0, 1, -1), 1), ("G", 2, (1, -1), 1),
    ("D", 4, (1, 0, 0, -1), 7),
])
def test_descent_parity_counts_negative_roots(family, rank, lam, stride):
    # chains with negative roots, both scan directions: the parity carried
    # by the walk is that of the negative roots of each J, and both
    # parities occur
    rs = RootSystem(family, rank)
    chain = chain_lex_height(rs, lam)
    assert not all(b.positive for b in chain.betas)
    seen = set()
    for w in range(0, rs.weyl().n, stride):
        for ascending in (True, False):
            seen.update(odd for *_, odd in _leaves(chain, w, ascending,
                                                   not ascending))
    assert seen == {False, True}


@pytest.mark.parametrize("family", ["A", "B", "G"])
def test_descent_translation_matches_affine_reflections(family):
    # every leaf weight read off the DFS translation B equals the explicit
    # composition of affine reflections named by the chain formulas:
    # r^_{J<} = r_{h_j1} ... r_{h_jt} and r~_{J>} = r_{h'_jt} ... r_{h'_j1}
    rs = RootSystem(family, 2)
    W = rs.weyl()
    translated = 0  # leaves whose walls lie off the origin
    for lam_fund in [(1, 0), (0, 1), (1, 1), (2, -1), (-1, 2), (-2, -1)]:
        chain = chain_lex_height(rs, lam_fund)
        lam = chain.lam
        walls, far = chain.walls, chain.far_walls
        for w in range(W.n):
            for u, J, B, _ in _leaves(chain, w, True, False):
                rhat = _compose(rs, walls, J, _neg(lam))
                # Chevalley +lambda: mu = u(lambda) - B = -w r^_{J<}(-lambda)
                assert _add(W.act(u, lam), _neg(B)) == _neg(W.act(w, rhat))
                # HL formula 1 on this (-lambda')-chain, lambda' = -lambda:
                # mu = u(lambda') + B = w r^_{J<}(lambda')
                assert _add(W.act(u, _neg(lam)), B) == W.act(w, rhat)
                translated += any(B)
            for u, J, B, _ in _leaves(chain, w, False, True):
                rtilde = _compose(rs, far, J[::-1], lam)
                # Chevalley -lambda: mu = -u(lambda) - B = -w r~_{J>}(lambda)
                assert _add(_neg(W.act(u, lam)), _neg(B)) == _neg(
                    W.act(w, rtilde)
                )
                translated += any(B)
            for u, J, B, _ in _leaves(chain, w, False, False):
                rhat = _compose(rs, walls, J, _neg(lam))
                # HL formula 2: mu = w(lambda') - B = u r^_{J<}(lambda')
                assert _add(W.act(w, _neg(lam)), _neg(B)) == W.act(u, rhat)
                translated += any(B)
    assert translated > 0


def test_e8_chain_from_word_reads_no_right_row():
    # each letter steps the prefix by one right step w s_i, made on first
    # use (no row of r right products is built), an s_0 letter by one
    # product w s_theta~, so the store holds no more than the prefixes;
    # and the chain's roots and levels are those pinned for this word
    rs = RootSystem("E", 8)
    lam = (0,) * 7 + (1,)
    word = v_minus_lambda(rs, lam)
    chain = chain_from_word(rs, lam, word)
    assert chain.reduced and len(chain) == len(word) == 58
    assert len(rs.lazy_weyl().mats) <= len(word) + 1
    digest = hashlib.sha256(repr(
        ([b.simple for b in chain.betas], chain.levels)).encode()).hexdigest()
    assert digest == (
        "619314aba2fcada126a8326d5d65178bbda6838aef16040ea349e00ae43e8d2e")


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
