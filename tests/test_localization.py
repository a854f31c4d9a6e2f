"""The split Demazure-Lusztig step b (x - f)/d + e x, the paired left
reference operator, the right operator `dl_right` (and the affine Hecke
operator of the stable layer as its conjugate by the star) and the right
slice recursion of both localization oracles."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from chevmc import charring, localization
from chevmc.charring import GA, Scalar, decode_line
from chevmc.csm import CohOracle, CohPoly
from chevmc.localization import dl_step
from chevmc.oracle import KOracle
from chevmc.rootsystem import RootSystem
from chevmc.specialfn import dl_coeffs
from conftest import (
    dl_left, line_bundle, ref_expand, ref_slices, slice_class, solve_classes,
)

LABELS = ("A2", "B2", "G2", "A3")
TYPES = {label: RootSystem(label[0], int(label[1])) for label in LABELS}
ORACLES = {label: KOracle(rs) for label, rs in TYPES.items()}


def _alpha(rs, i):
    return rs.weight(rs.simple_roots[i].fund)


def _hecke_coeffs(rs, i, w):
    """(b, e, d) of the affine Hecke operator T_i of the stable layer at
    the point w: b = 1 - q, d = 1 - e^{w a_i} and e = (a - b) / d =
    -q e^{-w a_i} for the first numerator a = 1 - q e^{-w a_i}."""
    q = Scalar.q(1)
    wa = rs.weyl().act(w, _alpha(rs, i))
    return (Scalar.one() - q, GA.term(tuple(-c for c in wa), -q),
            GA.const(1, rs.rank) - GA.term(wa))


def _coefficient_sets(label):
    """(name, ring, (b, e, d), a) over every operator of the package: a is
    the first numerator of the paper's formula, written out here."""
    rs = TYPES[label]
    W = rs.weyl()
    one = GA.const(1, rs.rank)
    y, q = Scalar.y(1), Scalar.q(1)
    out = []
    for i in range(rs.rank):
        ai = _alpha(rs, i)
        nai = tuple(-c for c in ai)
        out.append(("K left", GA, KOracle.dl_coeffs(rs, i),
                    one + GA.term(nai, y)))
        out.append(("tilde_vee", GA, KOracle.dl_coeffs(rs, i),
                    one + GA.term(nai, y)))
        out.append(("tilde", GA, dl_coeffs(rs, i),
                    one + GA.term(ai, y)))
        for w in range(W.n):
            wa = tuple(-c for c in W.act(w, ai))
            out.append(("Hecke T_i at %d" % w, GA, _hecke_coeffs(rs, i, w),
                        one - GA.term(wa, q)))
        lin = CohPoly.linear(rs.simple_roots[i].fund)
        out.append(("CSM", CohPoly, CohOracle.dl_coeffs(rs, i),
                    lin + CohPoly.const(1, rs.rank)))
        # csm.t_left: (s_i p - p) / alpha_i
        out.append(("degenerate T_i", CohPoly, (1, 0, lin),
                    CohPoly.const(1, rs.rank)))
    return out


def _ring(ring, c, rank):
    """A coefficient (int, Scalar or element) as an element of `ring`."""
    return ring.const(1, rank) * c


@pytest.mark.parametrize("label", LABELS)
def test_first_numerator_is_b_plus_e_d(label):
    rank = TYPES[label].rank
    for name, ring, (b, e, d), a in _coefficient_sets(label):
        assert _ring(ring, b, rank) + _ring(ring, e, rank) * d == a, name


def _elements(rank, ring):
    if ring is GA:
        weights = st.tuples(*[st.integers(-3, 3)] * rank)
        scalars = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3),
                                  max_size=2).map(Scalar)
        return st.dictionaries(weights, scalars, max_size=4).map(GA)
    exps = st.tuples(*[st.integers(0, 2)] * rank)
    return st.dictionaries(exps, st.integers(-3, 3), max_size=4).map(CohPoly)


@pytest.mark.parametrize("label", LABELS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_step_is_the_direct_quotient(label, data):
    """On x = h + d k and f = h, the split step equals (a x - b f) / d
    with a = b + e d, for every coefficient set."""
    rank = TYPES[label].rank
    draws = {ring: (data.draw(_elements(rank, ring)),
                    data.draw(_elements(rank, ring)))
             for ring in (GA, CohPoly)}
    for name, ring, (b, e, d), _ in _coefficient_sets(label):
        h, k = draws[ring]
        x = h + d * k
        a = _ring(ring, b, rank) + _ring(ring, e, rank) * d
        want = (a * x - _ring(ring, b, rank) * h).exact_div(d)
        assert want is not None, name
        assert dl_step(b, e, x, h, d) == want, name


@pytest.mark.parametrize("label", LABELS[:3])
@pytest.mark.parametrize("oracle", [KOracle, CohOracle])
def test_dl_left_is_the_pointwise_formula(label, oracle):
    """dl_left(i, cell(w)) at every point v equals (a s_i(F|_{s_i v}) -
    b F|_v) / d, the formula without the pairing of v with s_i v, so
    the pair identity D(s_i v) = u_i s_i(D(v)) holds on every bond."""
    rs = TYPES[label]
    o = oracle(rs)
    W = o.W
    zero = o.ring()
    for i in range(rs.rank):
        si = W.from_word((i,))
        if oracle is KOracle:
            def act(g):
                return g.transform(W.mats[si])
        else:
            def act(g):
                return g.act(W, si)
        b, e, d = o.dl_coeffs(rs, i)
        b = _ring(o.ring, b, rs.rank)
        a = b + _ring(o.ring, e, rs.rank) * d
        for w in range(W.n):
            F = o.cell_class(w)
            G = dl_left(o, i, F)
            for v in range(W.n):
                x = act(F.get(W.mul(si, v), zero))
                want = (a * x - b * F.get(v, zero)).exact_div(d)
                assert G.get(v, zero) == want, (i, w, v)


@pytest.mark.parametrize("label", LABELS[:3])
@pytest.mark.parametrize("oracle", [KOracle, CohOracle])
def test_dl_right_is_the_pointwise_formula(label, oracle):
    """dl_right(i, cell(w)) at every point v equals ((v s_i)(a) F|_{v s_i}
    - b F|_v) / v(d), the formula without the pairing of v with v s_i."""
    rs = TYPES[label]
    o = oracle(rs)
    W = o.W
    zero = o.ring()
    for i in range(rs.rank):
        si = W.from_word((i,))
        b, e, d = o.dl_coeffs(rs, i)
        b = _ring(o.ring, b, rs.rank)
        a = b + _ring(o.ring, e, rs.rank) * d
        for w in range(W.n):
            F = o.cell_class(w)
            G = o.dl_right(i, F)
            for v in range(W.n):
                vs = W.mul(v, si)
                num = o._act(vs, a) * F.get(vs, zero) - b * F.get(v, zero)
                want = num.exact_div(o._act(v, d))
                assert G.get(v, zero) == want, (i, w, v)


@pytest.mark.parametrize("label", LABELS[:3])
def test_hecke_T_is_the_pointwise_formula(label):
    """The affine Hecke operator T_i of the stable layer, (a F|_{v s_i} -
    b F|_v) / d with (b, e, d) = `_hecke_coeffs(rs, i, v)` and a = b + e d
    at every point v, is star o dl_right(i) o star on every stab(w)."""
    rs = TYPES[label]
    o = ORACLES[label]
    W = o.W
    zero = GA()
    for i in range(rs.rank):
        si = W.from_word((i,))
        for w in range(W.n):
            F = o.stab(w)
            G = o.dl_right(i, {v: f.star() for v, f in F.items()})
            for v in range(W.n):
                b, e, d = _hecke_coeffs(rs, i, v)
                b = _ring(GA, b, rs.rank)
                a = b + _ring(GA, e, rs.rank) * d
                x = F.get(W.mul(v, si), zero)
                want = (a * x - b * F.get(v, zero)).exact_div(d)
                assert G.get(v, zero).star() == want, (i, w, v)


# -- slice parts ---------------------------------------------------------

SLICE_LABELS = ("A2", "B2", "C2", "G2", "A3", "B3", "C3", "A4")


def _reference_cells(o):
    """cell(w) for every w by the reference operator `dl_left`, from the
    point class along the word of w."""
    W = o.W
    cells = {0: o.point_class()}
    for w in range(1, W.n):
        word = W.word(w)
        cells[w] = dl_left(o, word[0], cells[W.from_word(word[1:])])
    return cells


@pytest.mark.parametrize("label", SLICE_LABELS)
@pytest.mark.parametrize("oracle", [KOracle, CohOracle])
def test_cell_class_is_the_dl_left_recursion(label, oracle):
    """The slice parts of the right recursion times their factors are
    the classes of the left Demazure-Lusztig recursion from the point
    class, at every w and every point."""
    o = oracle(RootSystem(label[0], int(label[1])))
    ref = _reference_cells(o)
    for w in range(o.W.n):
        assert o.cell_class(w) == ref[w], (label, w)


def _refusing_weyl_moves(oracle):
    """A B3 oracle with `_dr(i)` built for every i, whose `_act` raises."""
    o = oracle(RootSystem("B", 3))
    for i in range(o.rank):
        o._dr(i)

    def refuse(w, g):
        raise AssertionError("Weyl move in the right recursion")

    o._act = refuse
    return o


@pytest.mark.parametrize("oracle", [KOracle, CohOracle])
def test_slice_recursion_makes_no_weyl_move(oracle):
    """Once `_dr(i)` is built for every i, every slice class on B3 is
    built without a Weyl move: the right step is K_T(pt)-linear."""
    o = _refusing_weyl_moves(oracle)
    for w in range(o.W.n):
        o._slice_lines(w)
    assert len(o._slices) == o.W.n


@pytest.mark.parametrize("oracle", [KOracle, CohOracle])
def test_cell_recursion_makes_no_weyl_move(oracle):
    """Once `_dr(i)` is built for every i, `dl_right` builds every cell
    class on B3 without a Weyl move."""
    o = _refusing_weyl_moves(oracle)
    for w in range(o.W.n):
        o.cell_class(w)
    assert len(o._cells) == o.W.n


def _canonical_prefixes(W, w):
    word = W.word(w)
    return {W.from_word(word[:k]) for k in range(len(word) + 1)}


def _class_digest(F):
    return hashlib.sha256(repr(sorted(
        (x, sorted(f.c.items())) for x, f in F.items())).encode()).hexdigest()


# sha256 of the slice and cell classes at w0, built before the climb
# followed the canonical prefixes (by a search for the nearest class
# already built)
_W0_DIGESTS = {
    ("KOracle", "B3"): (
        "35c09efc4249c80506a2cdfa203fc1cfaf1c50996663e64c47994dcaac84dc8d",
        "f44f6f5a8af5d1d2657df91d014da9083fb5a6d3c027f3bc38675d21699a2a39"),
    ("KOracle", "G2"): (
        "d8d98ba0d8c73b49ef4864ddcb929d59ebb5e5fd213eddd0f16e1548aaddf3a5",
        "377ffdc3d27f408d825ad33983fe5c28b2d56d7aa0d2660c525cada01839db3f"),
    ("CohOracle", "B3"): (
        "3ab6b15070b330dbe4c294586c1e5a04848f5b04ec0daaa53a868a518d11713d",
        "1e8f437c626a13f56c01021f319e788b9be92023895f72bf9e5678ac0c7057e7"),
    ("CohOracle", "G2"): (
        "41360b354f9a12841eb678937519b2e286f30f1e03f32e8fff9e1d929339a460",
        "98a79d5c5f342f760abedceee0589c1ec70f0ed62faf538eb92d3d326d7a148e"),
}


@pytest.mark.parametrize("label", ["B3", "G2"])
@pytest.mark.parametrize("oracle", [KOracle, CohOracle])
def test_climb_builds_the_canonical_prefixes(label, oracle):
    """On a fresh oracle, the slice class of w builds exactly the classes
    of the prefixes of w's canonical word, one slice step each."""
    rs = RootSystem(label[0], int(label[1]))
    W = rs.weyl()
    for w in (W.w0, W.order[W.n // 2], W.order[W.n - 2]):
        o = oracle(rs)
        steps = []
        step = o._slice_step
        o._slice_step = lambda i, Q: steps.append(i) or step(i, Q)
        o._slice_lines(w)
        assert set(o._slices) == _canonical_prefixes(W, w), w
        assert len(steps) == len(o._slices) - 1 == W.length[w]


@pytest.mark.parametrize("label", ["B3", "G2"])
@pytest.mark.parametrize("oracle", [KOracle, CohOracle])
def test_climb_in_any_order_builds_the_same_classes(label, oracle):
    """Slice and cell classes built in three seeded random orders equal
    those built in W.order, and at w0 those pinned before the climb
    followed the canonical prefixes; each slice step makes one new
    class."""
    rs = RootSystem(label[0], int(label[1]))
    W = rs.weyl()
    ref = oracle(rs)
    slices = {w: slice_class(ref, w) for w in W.order}
    cells = {w: ref.cell_class(w) for w in W.order}
    assert (_class_digest(slices[W.w0]), _class_digest(cells[W.w0])) == (
        _W0_DIGESTS[oracle.__name__, label])
    for seed in range(3):
        order = list(W.order)
        random.Random(seed).shuffle(order)
        o = oracle(rs)
        steps = []
        step = o._slice_step
        o._slice_step = lambda i, Q: steps.append(i) or step(i, Q)
        for w in order:
            assert slice_class(o, w) == slices[w], (seed, w)
            assert len(steps) == len(o._slices) - 1, (seed, w)
        for w in order:
            assert o.cell_class(w) == cells[w], (seed, w)
        assert len(steps) == W.n - 1


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("oracle", [KOracle, CohOracle])
def test_cell_factor_is_the_inversion_product(label, oracle):
    """P_x, the slice step's cell factor, is the product of l(x) factors,
    1 + y e^{x beta} in K-theory and 1 - x(beta) in cohomology over the
    beta > 0 with x beta < 0: Q_{x,x} times them is cell(x)|_x."""
    rs = TYPES[label]
    o = oracle(rs)
    W = o.W
    ref = _reference_cells(o)
    one = o._one()
    for x in range(W.n):
        want = []
        for b in o.pos_roots:
            xb = W.act(x, b)
            if xb in o.pos_roots:
                continue
            if oracle is KOracle:
                want.append(one + GA.term(rs.weight(xb), Scalar.y(1)))
            else:
                want.append(one - CohPoly.linear(xb))
        assert len(want) == W.length[x], (label, x)
        g = slice_class(o, x)[x]
        for f in want:
            g = g * f
        assert g == ref[x][x], (label, x)


def _expand_product(o, lam, w):
    """The oracle's expansion of L_lambda cell(w) (c1(L_lambda) cell(w)
    in cohomology), which solves on slice parts."""
    if isinstance(o, KOracle):
        return o.expand_product(lam, w)
    return o.expand_chern_product(lam, w)


def _full_solve(o, lam, w):
    """The same expansion by the solve on the full cell classes."""
    G = line_bundle(o, lam) if isinstance(o, KOracle) else o.first_chern(lam)
    return solve_classes(o, o.mul(G, o.cell_class(w)), o.cell_class)


def _weights(rank):
    """varpi_1, -varpi_1 and rho."""
    fund = tuple(int(j == 0) for j in range(rank))
    return (fund, tuple(-c for c in fund), (1,) * rank)


@pytest.mark.parametrize("label", ["B2", "G2", "A3"])
@pytest.mark.parametrize("oracle", [KOracle, CohOracle])
def test_slice_solve_is_the_full_solve(label, oracle):
    """expand_product and expand_chern_product equal the solve on the
    full cell classes at varpi_1, -varpi_1 and rho for every w."""
    o = oracle(TYPES[label])
    for lam in _weights(o.rank):
        for w in range(o.W.n):
            assert _expand_product(o, lam, w) == _full_solve(o, lam, w), (
                label, lam, w)


def _keyed(F):
    return {x: (type(f), f.c) for x, f in F.items()}


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
@pytest.mark.parametrize("oracle", [KOracle, CohOracle])
def test_line_recursion_and_solve_are_the_references(label, oracle):
    """Every slice class built on lines, and every expansion at varpi_1,
    -varpi_1 and rho solved on lines, equals key for key the reference
    step and solve on full keys (`ref_slices`, `ref_expand`)."""
    rs = RootSystem(label[0], int(label[1]))
    o = oracle(rs)
    W = o.W
    ref = ref_slices(o)
    for w in W.order:
        assert _keyed(slice_class(o, w)) == _keyed(ref[w]), (label, w)
    for lam in _weights(o.rank):
        G = (line_bundle(o, lam) if oracle is KOracle
             else o.first_chern(lam))
        for w in W.order:
            want = ref_expand(o, o.mul(G, ref[w]), ref.__getitem__)
            assert _keyed(_expand_product(o, lam, w)) == _keyed(want), (
                label, lam, w)


def test_slice_step_certificate(monkeypatch):
    """The slice step is K_T(pt)-linear: from 100 times the point class
    it builds 100 times every slice class of B2, but with 8-bit slots its
    quotients and sums are no longer bounded below 2^7, and it raises
    ValueError rather than store a line it cannot decode."""
    rs = TYPES["B2"]
    W = rs.weyl()
    want = {w: slice_class(KOracle(rs), w) for w in W.order}

    def scaled():
        o = KOracle(rs)
        o._slices = {0: o._lines({0: o.point_class()[0] * 100})}
        return o

    o = scaled()
    for w in W.order:
        assert slice_class(o, w) == {x: f * 100 for x, f in want[w].items()}
    monkeypatch.setattr(charring, "SLOT", 8)
    o = scaled()
    with pytest.raises(ValueError):
        o._slice_lines(W.w0)


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_slice_norms_bound_the_parts(label):
    """At every point of every slice class, the norm that the step keeps
    bounds the decoded part's max norm: read off the slots for E, the
    certified bound for Q'_x."""
    o = KOracle(RootSystem(label[0], int(label[1])))
    for w in o.W.order:
        lines, norms = o._slice_lines(w)
        assert set(norms) == set(lines), (label, w)
        for x, g in lines.items():
            c = decode_line(g.c)
            assert norms[x] >= max(map(abs, c.values())), (label, w, x)


def test_certified_bounds_stay_small(monkeypatch):
    """The largest bound certified in a fresh D4 varpi_1 expansion at w0
    stays below 2^24, far from 2^63, so slice norms taken from their
    certified bounds do not compound."""
    seen = []

    def fits(n):
        seen.append(n)
        charring.fits(n)

    monkeypatch.setattr(localization, "fits", fits)
    o = KOracle(RootSystem("D", 4))
    o.expand_product((1, 0, 0, 0), o.W.w0)
    assert seen and max(seen) < 1 << 24


@pytest.mark.parametrize("oracle", [KOracle, CohOracle])
def test_a_changed_slice_part_is_caught(oracle):
    """One monomial added to one cached Q_{v,x}, x != v, makes some
    expansion raise or differ from the closed formulas, for every such
    (v, x) on B2."""
    from chevmc.chevalley import chevalley_table
    from chevmc.csm import csm_chevalley

    rs = TYPES["B2"]
    W = rs.weyl()
    if oracle is KOracle:
        mono = GA.term((1, 0))
        closed = {(lam, w): chevalley_table(rs, lam, w, sign=1)
                  for lam in _weights(2) for w in range(W.n)}
    else:
        mono = CohPoly.linear((1, 0))
        closed = {(lam, w): csm_chevalley(rs, lam, w)
                  for lam in _weights(2) for w in range(W.n)}

    def caught(o):
        for (lam, w), table in closed.items():
            try:
                if _expand_product(o, lam, w) != table:
                    return True
            except (AssertionError, ValueError):
                return True
        return False

    o = oracle(rs)
    assert not caught(o)
    pairs = [(v, x) for v in range(W.n) for x in slice_class(o, v) if x != v]
    assert pairs
    for v, x in pairs:
        o = oracle(rs)
        for w in range(W.n):
            o._slice_lines(w)
        Q, N = o._slices[v]
        Q = dict(Q)
        m = o._lines({0: mono})[0][0]
        Q[x] = Q[x] + m if Q[x] + m else Q[x] - m
        o._slices[v] = (Q, N)
        assert caught(o), (v, x)
