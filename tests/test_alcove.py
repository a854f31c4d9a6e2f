"""Lambda-chains, alcove paths and hyperplane data."""

import hashlib
import itertools

import pytest

from chevmc.charring import _BIAS, _weight
from chevmc.rootsystem import RootSystem
from chevmc.chevalley import chevalley_table
from chevmc.alcove import chain_from_word, chain_lex_height, descent_subsets
from conftest import ref_descent_subsets, ref_walls, v_minus_lambda


def test_scan_roots_positive():
    # H_{alpha,k} = H_{-alpha,-k}: every scan position holds the positive
    # root +-beta_j, and kh is k h for the wall H_{beta_j, k} (k = -d_j,
    # or <lambda, beta_j^vee> - d_j on the far walls), negated where
    # beta_j < 0; the far walls are scanned from the last position down
    for family, rank, lam in [("A", 2, (2, -1)), ("C", 3, (0, 1, -1)),
                              ("G", 2, (1, -1))]:
        rs = RootSystem(family, rank)
        chain = chain_lex_height(rs, lam)
        assert not all(b.positive for b in chain.betas)
        near, far = chain.steps(True), chain.steps(False)[::-1]
        for j, (b, d) in enumerate(zip(chain.betas, chain.levels)):
            s = 1 if b.positive else -1
            k = rs.pairing(lam, b) - d
            for (a, kh, odd, c), level in ((near[j], -d), (far[j], k)):
                root = rs.positive_roots[a]
                assert root.simple == tuple(s * x for x in b.simple)
                assert kh == s * level * rs.h and odd == (s < 0)
                assert c == root.coheight()


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
    # separating hyperplanes are H_{-beta_j, d_j}: h_4 = H_{a1+a2, -1}
    a, kh, _, _ = chain.steps(True)[3]
    assert rs.positive_roots[a].simple == (1, 1) and kh == -rs.h


def test_nonreduced_word_builds_unreduced_chain():
    rs = RootSystem("A", 2)
    word = [1, 0, 1, -1, 0, 1, 0, 0]
    chain = chain_from_word(rs, (2, 1), word)
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
    assert all(kh == 0 for _, kh, _, _ in chain.steps(True))


def _compose(rs, walls, order, x):
    """r_{order[0]} ... r_{order[-1]}(x) with r_j the affine reflection in
    walls[j - 1]; the rightmost reflection acts first."""
    for j in reversed(order):
        root, level = walls[j - 1]
        x = rs.affine_reflect(x, root, level)
    return x


def _neg(v):
    return tuple(-c for c in v)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _leaves(chain, w, ascending, far):
    """ref_descent_subsets over the walls (the far walls if far) with
    each translation B read back as a weight, after checking the sign
    parity the walk carries (whether an odd number of the roots beta_j,
    j in J, is negative) and, on the two scans of the chain (walls
    ascending, far walls descending), that descent_subsets yields the
    same (u, |J|, B, odd)."""
    r = chain.rs.rank
    negative = {j for j, b in enumerate(chain.betas, 1) if not b.positive}
    ref = ref_descent_subsets(chain, w, ascending, ref_walls(chain, far))
    if ascending != far:
        assert descent_subsets(chain, w, ascending) == [
            (u, len(J), B, odd) for u, J, B, odd in ref], (w, ascending)
    out = []
    for u, J, B, odd in ref:
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
        walls, far = ref_walls(chain, False), ref_walls(chain, True)
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
    assert len(rs.weyl().mats) <= len(word) + 1
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
