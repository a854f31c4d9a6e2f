"""Equivariant-localization oracle and the stable basis layer."""

import ast
import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chevmc
from chevmc.charring import GA, LIMIT, Scalar, _wneg
from chevmc.rootsystem import RootSystem
from chevmc.oracle import KOracle
from chevmc.chevalley import (
    chevalley_table, chevalley_parabolic, shift_matrix, wall_cross_path,
)
from chevmc.specialfn import weyl_character
from chevmc.verify import case_stable
from conftest import dl_left, ref_expand, solve_classes

RS = RootSystem("A", 2)
W = RS.weyl()


@pytest.fixture(scope="module")
def oracle():
    return KOracle(RS)


def test_quadratic_relation(oracle):
    o = oracle
    y = Scalar.y(1)
    for i in range(2):
        for F in (o.line_bundle((1, 2)), o.cell_class(3), o.point_class()):
            T1 = dl_left(o, i, F)
            T2 = dl_left(o, i, T1)
            expr = o.add(o.add(T2, o.scale(T1, Scalar.one() + y)), o.scale(F, y))
            assert all(not f for f in expr.values()), i


def test_braid_relation(oracle):
    o = oracle
    F = o.line_bundle((1, -1))
    a = dl_left(o, 0, dl_left(o, 1, dl_left(o, 0, F)))
    b = dl_left(o, 1, dl_left(o, 0, dl_left(o, 1, F)))
    assert o.classes_equal(a, b)


def test_euler_characteristics(oracle):
    o = oracle
    assert o.integral(o.point_class()) == GA.const(1, 2)
    assert o.integral({w: GA.const(1, 2) for w in W.order}) == GA.const(1, 2)
    for w in range(W.n):
        l = W.length[w]
        assert o.integral(o.cell_class(w)) == GA.const(
            Scalar.y(l, (-1) ** l), 2), w


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_pairing_identity(label):
    # SMC as a numerator over Lambda, from its defining formula
    o = KOracle(RootSystem(label[0], int(label[1])))
    n = o.W.n
    for u in range(n):
        num, den = o.smc(u)
        for w in range(n):
            g = o.integral(o.mul(o.cell_class(w), num)).exact_div(den)
            assert g == GA.const(1 if u == w else 0, o.rank), (label, w, u)


def test_motivic_additivity(oracle):
    # sum_w MC / lambda_y(T*) = 1, equivalently sum_w MC' = lambda_y(TG/B)
    o = oracle
    tot = {}
    for w in range(W.n):
        num, den = o.mc_prime(w)
        tot = o.add(tot, num)
    lam_id = GA.const(1, 2)
    for a in RS.positive_roots:
        lam_id = lam_id * (
            GA.const(1, 2)
            + GA.term(tuple(RS.h * c for c in a.fund), Scalar.y(1))
        )
    assert o.classes_equal(tot, {w: lam_id * den for w in W.order})
    plain = {}
    for w in range(W.n):
        plain = o.add(
            plain,
            {v: f * o.lambda_y_cotangent(v, -1)
             for v, f in o.cell_class(w).items()},
        )
    assert o.classes_equal(plain, {w: den for w in W.order})


def test_weyl_character_localization(oracle):
    o = oracle
    for lam in [(-1, 0), (0, -1), (-1, -1), (-2, -1)]:
        got = o.integral(o.line_bundle(lam))
        w0lam = RS.weight_user(W.act(W.w0, RS.weight(lam)))
        assert got == weyl_character(RS, w0lam), lam


@pytest.mark.parametrize("lam", [(1, 0), (0, 1), (1, 1), (-1, 0), (2, -1)])
def test_expand_product_vs_chain(oracle, lam):
    o = oracle
    for w in range(W.n):
        chain = chevalley_table(RS, lam, w, sign=1)
        a = o.expand_product(lam, w)
        assert set(a) == set(chain), (lam, w)
        for u in a:
            assert a[u] == chain[u], (lam, w, u)


def _expand_by_pairing(o, lam, w):
    """{u: <L_lambda MC(X(w)^o), SMC(Y(u)^o)>}, the expansion by the
    pairing with the dual basis."""
    F = o.mul(o.line_bundle(lam), o.cell_class(w))
    out = {}
    for u in range(o.W.n):
        num, den = o.smc(u)
        g = o.integral(o.mul(F, num)).exact_div(den)
        assert g is not None, u
        if g:
            out[u] = g
    return out


def test_expand_product_pairing_method(oracle):
    o = oracle
    lam = (1, 1)
    b = _expand_by_pairing(o, lam, W.w0)
    cb = chevalley_table(RS, lam, W.w0, sign=1)
    for u in set(b) | set(cb):
        assert b.get(u, GA()) == cb.get(u, GA()), u


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_expand_leaves_its_inputs(label):
    """The solve subtracts in place into remainders copied from the
    input once: the input class and every cached cell and slice class
    stay as they were, also when the input is a cached class itself."""
    o = KOracle(RootSystem(label[0], int(label[1])))
    cells = [o.cell_class(w) for w in range(o.W.n)]
    slices = [o._slice_lines(w) for w in range(o.W.n)]
    before = copy.deepcopy(cells)
    slices_before = copy.deepcopy(slices)
    for w in range(o.W.n):
        for lam in ((1, 1), (-1, 0)):
            F = o._lines(o.mul(o.line_bundle(lam), o.cell_class(w)))
            F0 = copy.deepcopy(F)
            assert o.expand_product(lam, w) == o._expand(
                F, lambda v: o._lines(o.cell_class(v)))
            assert F == F0
        assert solve_classes(o, o.cell_class(w), o.cell_class) == {
            w: GA.const(1, 2)}
        assert o._expand(o._slice_lines(w), o._slice_lines) == {
            w: GA.const(1, 2)}
    assert cells == before
    assert slices == slices_before
    assert all(o.cell_class(w) is cells[w] for w in range(o.W.n))
    assert all(o._slice_lines(w) is slices[w] for w in range(o.W.n))


def test_expand_raises_on_out_of_range_remainder():
    """F = e^mu cell(v) where that product stays in range: the solve
    takes g = e^mu at v, and the remainder -e^mu cell(v)|_x at a point
    x where the product leaves [-LIMIT, LIMIT) raises ValueError at its
    check instead of being divided."""
    o = KOracle(RootSystem("B", 2))

    def top(g):
        return max(w[0] for w, _ in g.terms())

    v, x = next((v, x) for v in range(o.W.n)
                for x, f in o.cell_class(v).items()
                if top(f) > top(o.cell_class(v)[v]))
    mu = GA.term((LIMIT - 1 - top(o.cell_class(v)[v]), 0))
    F = {}
    for y, f in o.cell_class(v).items():
        try:
            F[y] = f * mu
        except ValueError:
            pass
    assert v in F and x not in F
    with pytest.raises(ValueError):
        solve_classes(o, F, o.cell_class)


@pytest.mark.parametrize("parab,lam", [((1,), (2, 0)), ((0,), (0, 1))])
def test_parabolic_pushforward(oracle, parab, lam):
    # the two maximal parabolics of A2, B2 and G2
    for o in (oracle, KOracle(RootSystem("B", 2)),
              KOracle(RootSystem("G", 2))):
        for w in o.W.min_coset_reps(parab):
            a = o.expand_product_parabolic(lam, w, parab)
            b = chevalley_parabolic(o.rs, lam, w, parab)
            for u in set(a) | set(b):
                assert a.get(u, GA()) == b.get(u, GA()), (o.rs, parab, w, u)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_parabolic_solve_is_the_reference(label):
    """expand_product_parabolic, on lines, equals key for key the
    reference solve on full keys against the pushed-forward cells, at
    +-varpi_j and 2 varpi_j on both maximal parabolics."""
    o = KOracle(RootSystem(label[0], int(label[1])))
    for parab, j in (((1,), 0), ((0,), 1)):
        points = o.W.min_coset_reps(parab)
        cells = {x: o.pushforward(o.cell_class(x), parab) for x in points}
        for c in (1, -1, 2):
            lam = tuple(c * (i == j) for i in range(2))
            G = o.line_bundle(lam)
            for w in points:
                got = o.expand_product_parabolic(lam, w, parab)
                want = ref_expand(o, o.mul(G, cells[w]), cells.__getitem__,
                                  points)
                assert {u: g.c for u, g in got.items()} == {
                    u: g.c for u, g in want.items()}, (label, parab, lam, w)


def test_star_identity(oracle):
    """Both sides, times Lambda, of the identity

    C_{-rho} (x) L_{-rho} (x) MC(X(w)^o)
        = (-1)^{dim-l(w)} prod(1 + y e^{-alpha}) * (SMC(X(w)^o)),

    with * negating the weights pointwise and fixing y, so that *
    fixes Lambda."""
    o = oracle
    for w in range(W.n):
        # SMC(X(w)^o) from the defining formula with dim X(w) = l(w)
        smcx, lam = o._segre(o.cell_class(w), W.length[w])
        lhs = o.mul(o.line_bundle((-1,) * RS.rank), o.cell_class(w))
        lhs = o.scale(lhs, GA.term(_wneg(RS.rho())) * lam)
        const = o.lambda_y_cotangent(0, -1) * (-1) ** (o.N - W.length[w])
        rhs = {v: f.star() * const for v, f in smcx.items()}
        assert o.classes_equal(lhs, rhs), w


# -- stable basis ------------------------------------------------------

def test_stab_support(oracle):
    for w in range(W.n):
        for v in oracle.stab(w):
            assert W.leq(w, v), (w, v)


def test_hecke_action_on_stab(oracle):
    o = oracle
    for i in range(2):
        for w in range(W.n):
            lhs, rhs = o.hecke_T_on_stab(i, w)
            assert o.classes_equal(lhs, rhs), (i, w)


@pytest.mark.parametrize("family", ["B", "G"])
def test_stable_layer_off_type_a(family):
    # stab support, the right Hecke step and wall crossing where the
    # roots have two lengths
    assert case_stable(family, 2, (1, 1)) is None


def test_shift_matrix_worked_examples():
    lam = (2, 1)
    S = shift_matrix(RS, lam)
    s2 = W.from_word_str("s2")
    s2s1 = W.from_word_str("s2s1")
    s1s2 = W.from_word_str("s1s2")
    s1s2s1 = W.from_word_str("s1s2s1")
    alpha1 = RS.weight((2, -1))
    neg = tuple(-c for c in alpha1)
    qdiff = Scalar.v(-1) - Scalar.v(1)  # q^{-1/2} - q^{1/2}
    row = S[s2s1]
    expect = {
        s2s1: GA.const(1, 2),
        s1s2s1: GA.term(neg, qdiff),
    }
    assert set(row) == set(expect) and all(row[k] == expect[k] for k in row)
    row = S[s2]
    geo = (
        GA.term(neg)
        + GA.term(tuple(2 * c for c in neg))
        + GA.term(tuple(3 * c for c in neg))
    )
    assert row[s2] == GA.const(1, 2)
    assert row[s1s2] == geo * qdiff


def test_wall_crossing_inverts_shift():
    lam = (2, 1)
    S = shift_matrix(RS, lam)
    M = wall_cross_path(RS, lam)
    for w in range(W.n):
        for z in range(W.n):
            acc = GA()
            for x, c in M[w].items():
                if z in S[x]:
                    acc = acc + c * S[x][z]
            assert acc == GA.const(1 if w == z else 0, 2), (w, z)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_mc_diagonal_is_a_product_of_factors(label):
    """MC(X(v)^o)|_v = prod over alpha > 0 of 1 + y e^{v alpha} when
    v s_alpha < v and 1 - e^{v alpha} otherwise."""
    rs = RootSystem(label[0], int(label[1]))
    Wl = rs.weyl()
    o = KOracle(rs)
    one = GA.const(1, rs.rank)
    for v in range(Wl.n):
        want = one
        for a in rs.positive_roots:
            e = GA.term(Wl.act(v, rs.weight(a.fund)))
            down = Wl.length[Wl.mul(v, Wl.reflection(a))] < Wl.length[v]
            want = want * (one + e * Scalar.y(1) if down else one - e)
        assert o.cell_class(v)[v] == want, (label, Wl.word_str(v))


@pytest.mark.parametrize("label,lams", [
    ("A2", [(1, 0), (-1, 1), (1, 1)]),
    ("B2", [(1, 0), (0, -1), (1, 1)]),
])
def test_expand_solve_equals_pairing(label, lams):
    rs = RootSystem(label[0], int(label[1]))
    o = KOracle(rs)
    for lam in lams:
        for w in range(rs.weyl().n):
            a = o.expand_product(lam, w)
            b = _expand_by_pairing(o, lam, w)
            assert a == b, (label, lam, w)


def test_oracle_above_the_cap_refused_before_its_point_class(monkeypatch):
    # the oracle reads the whole group first: E7 is refused at once, not
    # after the 2.9M-term Weyl denominator of its point class
    def refuse(self):
        raise AssertionError("point class built above the cap")
    monkeypatch.setattr(KOracle, "point_class", refuse)
    with pytest.raises(ValueError, match="above the cap 100000"):
        KOracle(RootSystem("E", 7))


def test_oracles_import_no_chain_module():
    # the oracles check the chain formulas, so a fresh interpreter that
    # imports them loads none of the modules those formulas live in
    code = ("import sys, chevmc.oracle, chevmc.csm, chevmc.localization; "
            "print(sorted(m for m in sys.modules if m.startswith('chevmc')))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(chevmc.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(ast.literal_eval(out))
    assert "chevmc.oracle" in loaded
    assert not loaded & {"chevmc.alcove", "chevmc.chevalley",
                         "chevmc.specialfn"}, sorted(loaded)
