"""Cohomological layer: CSM classes and the degenerate Hecke algebra."""

import pytest

from chevmc.rootsystem import RootSystem
from chevmc.csm import (
    CohPoly,
    CohOracle,
    csm_chevalley,
    t_w_times_x,
)
from conftest import dl_left, integral

RS = RootSystem("A", 2)
W = RS.weyl()


@pytest.fixture(scope="module")
def oracle():
    return CohOracle(RS)


def _classes_equal(F, G):
    zero = CohPoly()
    return all(
        F.get(w, zero) == G.get(w, zero) for w in set(F) | set(G)
    )


def test_operator_involution(oracle):
    o = oracle
    for i in range(2):
        for F in (o.point_class(), o.cell_class(W.w0)):
            G = dl_left(o, i, dl_left(o, i, F))
            assert _classes_equal(F, G), i


def test_integrals(oracle):
    o = oracle
    assert integral(o, o.point_class()) == CohPoly.const(1, 2)
    const1 = {w: CohPoly.const(1, 2) for w in range(W.n)}
    assert integral(o, const1) == CohPoly()
    for w in range(W.n):
        assert integral(o, o.cell_class(w)) == CohPoly.const(1, 2), w


def _sm_y(o, u):
    """s_M(Y(u)^o) = c_SM(Y(u)^o) / c(T), the basis dual to the CSM
    classes, as (numerator class, C): c(T)|_w = prod_{alpha>0}
    (1 - w(alpha)) times prod_{alpha>0} (1 + w(alpha)) is
    C = prod over all roots beta of (1 + beta), which W fixes."""
    one = o._one()
    out = {}
    for w, f in o.opposite_cell_class(u).items():
        for b in o.pos_roots:
            f = f * (one + CohPoly.linear(o.W.act(w, b)))
        out[w] = f
    c = one
    for b in o.pos_roots:
        c = c * (one - CohPoly.linear(b) ** 2)
    return out, c


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_duality_pairing(label):
    # s_M as a numerator over C = prod (1 + beta), from its defining formula
    o = CohOracle(RootSystem(label[0], int(label[1])))
    n = o.W.n
    for u in range(n):
        num, c = _sm_y(o, u)
        for w in range(n):
            p = integral(o, o.mul(o.cell_class(w), num)).exact_div(c)
            assert p == CohPoly.const(1 if u == w else 0, o.rank), (w, u)


@pytest.mark.parametrize("lam", [(1, 0), (0, 1), (1, 1)])
def test_chevalley_closed_vs_oracle(oracle, lam):
    o = oracle
    for w in range(W.n):
        closed = csm_chevalley(RS, lam, w)
        got = o.expand_chern_product(lam, w)
        for u in set(closed) | set(got):
            a = closed.get(u, CohPoly())
            b = got.get(u, CohPoly())
            assert a == b, (lam, w, u)


@pytest.mark.parametrize("lam", [(1, 0), (0, 1), (1, 1)])
def test_commutation_lemma(lam):
    for w in range(W.n):
        # x_{w lambda} T_w - sum_{alpha>0, w s_alpha < w}
        # <lambda, alpha^vee> T_{w s_alpha}: the CSM Chevalley table
        lhs = t_w_times_x(RS, w, lam)
        rhs = csm_chevalley(RS, lam, w)
        assert set(lhs) == set(rhs), (lam, w)
        for u in lhs:
            assert lhs[u] == rhs[u], (lam, w, u)


@pytest.mark.parametrize("rank,word,lam", [
    (7, "s1s3s4s2s5", (1, 0, 0, 0, 0, 0, 0)),
    (7, "s7s6s5s4", (0, 0, 0, 0, 0, 0, 1)),
    (8, "s8s7s6s5s4", (1, 0, 0, 0, 0, 0, 0, 0)),
    (8, "s2s4s3s5s4", (0, 0, 0, 0, 0, 0, 0, 1)),
])
def test_commutation_lemma_above_the_cap(no_completion, rank, word, lam):
    # one E7 or E8 word reads w's inversions and the steps s_i w of its
    # word alone: the closed table is T_w x_lambda without the whole group
    rs = RootSystem("E", rank)
    w = rs.weyl().from_word_str(word)
    table = csm_chevalley(rs, lam, w)
    assert table and t_w_times_x(rs, w, lam) == table


def test_parabolic_min_rep_and_support():
    w = W.from_word_str("s2s1")
    tab = csm_chevalley(RS, (1, 0), w, parabolic=(1,))
    reps = set(W.min_coset_reps((1,)))
    assert set(tab) <= reps
    assert w in tab


def test_a3_quick_cross_check():
    rs = RootSystem("A", 3)
    W3 = rs.weyl()
    o = CohOracle(rs)
    lam = (1, 0, 1)
    w = W3.from_word_str("s1s2s3")
    closed = csm_chevalley(rs, lam, w)
    got = o.expand_chern_product(lam, w)
    for u in set(closed) | set(got):
        assert closed.get(u, CohPoly()) == got.get(u, CohPoly()), u
