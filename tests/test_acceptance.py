"""Acceptance gate: one test per frozen acceptance criterion.

Each test prints a single PASS line on success and enforces a wall-clock
budget.  Golden values are frozen; the remaining criteria are exact
cross-checks between independent implementations.
"""

import itertools
import random
import time

from chevmc.charring import GA, Scalar
from chevmc.rootsystem import RootSystem
from chevmc.alcove import chain_from_word
from chevmc.chevalley import (
    chevalley_table, chevalley_terms, shift_matrix, transition_direct,
)
from chevmc.oracle import KOracle
from chevmc.specialfn import (
    dl_simple,
    hall_littlewood,
    schur_expansion,
    render_schur,
    weyl_character,
)
from chevmc.verify import (
    case_csm,
    case_duality,
    case_hl,
    case_methods_agree,
    case_oracle_equivalence,
    case_positivity,
    case_stable,
    case_whittaker,
)
from conftest import (
    GOLD_W1_F1,
    GOLD_W1_F2,
    GOLD_2W2_F1,
    GOLD_2W2_F2,
    hl_terms_as_tuples,
    ref_descent_subsets,
    ref_walls,
    reflect,
    v_minus_lambda,
)

A2 = RootSystem("A", 2)
W2 = A2.weyl()


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.t0 = time.monotonic()

    def done(self, line):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.seconds, (
            "time budget exceeded: %.1fs >= %.1fs" % (elapsed, self.seconds)
        )
        print("PASS %s (%.2fs)" % (line, elapsed))


def _tables_equal(a, b):
    return set(a) == set(b) and all(a[u] == b[u] for u in a)


def _ga(entries, coeff=None):
    g = GA()
    for lam in entries:
        g = g + GA.term(A2.weight(lam))
    if coeff is not None:
        g = g * coeff
    return g


def _coefficients(table):
    """{(u, mu): c_{u,mu}} of a transition table {u: GA}."""
    return {(u, mu): c for u, g in table.items() for mu, c in g.terms()}


def test_criterion_01_hecke_transition_golden_tables():
    """Frozen affine-Hecke transition tables for w = s2s1, both signs,
    and the chain table on a word chain against the bridge table."""
    budget = Budget(1.0)
    chain = chain_from_word(A2, (2, 1), [1, 0, 1, -1, 0, 1])
    w = W2.from_word_str("s2s1")
    one = Scalar.one()
    qi = Scalar.q(-1)
    c2 = one - qi - qi + qi * qi    # 1 - 2q^-1 + q^-2
    c1 = one - qi                   # 1 - q^-1
    d1 = qi - one                   # q^-1 - 1
    e, s1, s2 = (W2.from_word_str(t) for t in ("e", "s1", "s2"))

    plus = {}
    for lam in [(-1, 1), (0, -1), (1, -3), (1, 0), (2, -2)]:
        plus[(e, A2.weight(lam))] = c2
    for lam in [(-1, 1), (0, -1), (1, -3)]:
        plus[(s1, A2.weight(lam))] = c1
    for lam in [(1, -3), (2, -2)]:
        plus[(s2, A2.weight(lam))] = c1
    plus[(w, A2.weight((1, -3)))] = one
    got = _coefficients(transition_direct(A2, w, (2, 1)))
    assert len(got) == 11 and got == plus

    minus = {}
    for lam in [(-2, -1), (-1, 0), (0, -2)]:
        minus[(e, A2.weight(lam))] = c2
    for lam in [(0, 1), (1, -1), (2, -3)]:
        minus[(s1, A2.weight(lam))] = d1
    for lam in [(-3, 1), (-2, 2)]:
        minus[(s2, A2.weight(lam))] = d1
    minus[(w, A2.weight((-1, 3)))] = one
    got = _coefficients(transition_direct(A2, w, (-2, -1)))
    assert len(got) == 9 and got == minus
    for sign in (1, -1):
        a = chevalley_table(A2, (2, 1), w, sign=sign, chain=chain)
        b = chevalley_table(A2, (2, 1), w, sign=sign, method="bridge")
        assert _tables_equal(a, b), sign
    budget.done("criterion 1: frozen Hecke transition tables, both signs")


def test_criterion_02_line_bundle_expansion_golden():
    """Frozen line-bundle expansions for lambda = 2w1+w2, w = s2s1."""
    budget = Budget(1.0)
    w = W2.from_word_str("s2s1")
    y = Scalar.y(1)
    one = Scalar.one()
    neg = -(one + y)        # q - 1 with q = -y
    sq = (one + y) ** 2     # (q - 1)^2
    expect_plus = {
        w: _ga([(1, -3)]),
        W2.from_word_str("s1"): _ga([(0, -1), (-1, 1), (-2, 3)], neg),
        W2.from_word_str("s2"): _ga([(3, -1), (2, -2)], neg),
        W2.from_word_str("e"): _ga([(2, 1), (0, 2), (1, 0)], sq),
    }
    expect_minus = {
        w: _ga([(-1, 3)]),
        W2.from_word_str("s1"): _ga([(1, -1), (0, 1), (-1, 3)], one + y),
        W2.from_word_str("s2"): _ga([(-2, 2), (-1, 3)], one + y),
        W2.from_word_str("e"): _ga(
            [(-1, 0), (1, -1), (-2, 2), (0, 1), (-1, 3)], sq
        ),
    }
    oracle = KOracle(A2)
    for lam, expect in (((2, 1), expect_plus), ((-2, -1), expect_minus)):
        for method in ("chain", "operator", "bridge"):
            got = chevalley_table(A2, lam, w, sign=1, method=method)
            assert _tables_equal(got, expect), (lam, method)
        got = oracle.expand_product(lam, w)
        assert _tables_equal(got, expect), (lam, "oracle")
    budget.done("criterion 2: line-bundle expansion example, both signs, "
                "three methods plus oracle")


def test_criterion_03_cancellation_example():
    """Two interfering paths summing to e^{u(lambda)}(y^2+y+1)(y+1)^2."""
    budget = Budget(1.0)
    rs = RootSystem("A", 3)
    W = rs.weyl()
    w = W.from_word_str("s1s2s3s1s2s1")
    u = W.from_word_str("s3s1")
    chain = chain_from_word(rs, (0, 1, 0), [1, 2, 0, 1])
    terms = [t for t in chevalley_terms(chain, w, +1) if t[0] == u]
    assert sorted(t[1] for t in terms) == [2, 4]
    assert {J for v, J, _, _ in ref_descent_subsets(
        chain, w, True, ref_walls(chain, far=False)) if v == u} == {
            (2, 3), (1, 2, 3, 4)}
    y = Scalar.y(1)
    one = Scalar.one()
    total = GA()
    for _u, _J, mu, coeff in terms:
        total = total + GA.term(mu, coeff)
    expect = GA.term(
        W.act(u, rs.weight((0, 1, 0))), (y * y + y + one) * (y + one) ** 2
    )
    assert total == expect
    budget.done("criterion 3: rank-3 cancellation example, exactly two paths")


def test_criterion_04_bridge_identity():
    """Chain formula agrees with the Hecke bridge and the operator
    formula."""
    budget = Budget(10.0)
    lams = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (2, 1)]
    for lam in lams:
        detail = case_methods_agree("A", 2, lam)
        assert detail is None, (lam, detail)
    budget.done("criterion 4: bridge identity on the rank-2 weight sample")


def test_criterion_05_oracle_equivalence():
    """Chain formula vs localization oracle: exhaustive in rank 2 then
    randomized samples in A3, B2, G2."""
    budget = Budget(600.0)
    for lam in itertools.product(range(-2, 3), repeat=2):
        detail = case_oracle_equivalence("A", 2, lam)
        assert detail is None, (lam, detail)
    rng = random.Random(20260824)
    for family, rank in [("A", 3), ("B", 2), ("G", 2)]:
        rs = RootSystem(family, rank)
        W = rs.weyl()
        o = KOracle(rs)
        for _ in range(50):
            lam = tuple(rng.randint(-2, 2) for _ in range(rank))
            w = rng.randrange(W.n)
            a = chevalley_table(rs, lam, w, sign=1)
            b = o.expand_product(lam, w)
            assert _tables_equal(a, b), (family, rank, lam, w)
    budget.done("criterion 5: oracle equivalence, exhaustive rank-2 grid "
                "plus 50 samples in each of A3, B2, G2")


def test_criterion_06_duality_suite():
    """Serre, star, Dynkin, combined, palindromicity in A2 and B2."""
    budget = Budget(120.0)
    kinds = ("serre", "star", "dynkin", "star_dynkin", "palindromic")
    for family, rank in [("A", 2), ("B", 2)]:
        lams = []
        for i in range(rank):
            e = tuple(1 if j == i else 0 for j in range(rank))
            lams += [e, tuple(-c for c in e)]
        lams += [(1,) * rank, (-1,) * rank]
        for kind in kinds:
            for lam in lams:
                detail = case_duality(family, rank, kind, lam)
                assert detail is None, (family, rank, kind, lam, detail)
    budget.done("criterion 6: five dualities over all pairs in A2 and B2")


def test_criterion_07_hecke_axioms_randomized():
    """Quadratic, braid and Bernstein relations of the affine Hecke
    algebra on random characters, for both Demazure-Lusztig operators."""
    budget = Budget(60.0)
    rng = random.Random(4891)
    q = Scalar.q(1)
    cases = 0
    for family in ("A", "B", "G"):
        rs = RootSystem(family, 2)
        for _ in range(20):
            f = GA()
            for _k in range(rng.randint(1, 3)):
                lam = (rng.randint(-2, 2), rng.randint(-2, 2))
                f = f + GA.term(
                    rs.weight(lam),
                    Scalar({2 * rng.randint(-2, 2): rng.randint(-3, 3)}),
                )
            for variant in ("tilde", "tilde_vee"):
                for i in range(2):
                    # T_i^2 = (q - 1) T_i + q
                    tf = dl_simple(rs, i, f, variant)
                    ttf = dl_simple(rs, i, tf, variant)
                    assert ttf == tf * (q - Scalar.one()) + f * q
                    cases += 1
                    # Bernstein: (T_i(e^mu f) - e^{s_i mu} T_i f)
                    # (1 - e^-alpha_i) = (1 - q)(e^{s_i mu} - e^mu) f
                    root = rs.simple_roots[i]
                    mu = rs.weight((rng.randint(-3, 3), rng.randint(-3, 3)))
                    smu = reflect(rs, mu, root)
                    alpha = rs.weight(root.fund)
                    comm = (dl_simple(rs, i, GA.term(mu) * f, variant)
                            - GA.term(smu) * tf)
                    lhs = comm * (GA.const(1, 2)
                                  - GA.term(tuple(-c for c in alpha)))
                    rhs = (GA.term(smu) - GA.term(mu)) * f * (Scalar.one() - q)
                    assert lhs == rhs, (family, variant, i, mu)
                    cases += 1
                # braid: m factors on each side, m = |W| / 2
                lhs, rhs = f, f
                for k in range(rs.weyl().n // 2):
                    lhs = dl_simple(rs, k % 2, lhs, variant)
                    rhs = dl_simple(rs, 1 - k % 2, rhs, variant)
                assert lhs == rhs, (family, variant)
                cases += 1
    assert cases >= 200
    budget.done("criterion 7: Hecke axioms on %d randomized cases" % cases)


def test_criterion_08_hall_littlewood():
    """Closed form, both chain formulas, frozen term tables, Schur form."""
    budget = Budget(5.0)
    for lam in ((1, 0), (0, 2)):
        detail = case_hl("A", 2, lam)
        assert detail is None, (lam, detail)
    p1 = hall_littlewood(A2, (1, 0), "closed")
    # t-independent: x1 + x2 + x3 as a character
    assert p1 == weyl_character(A2, (1, 0))
    exp = schur_expansion(A2, hall_littlewood(A2, (0, 2), "closed"))
    assert exp == {(0, 2): Scalar.one(), (1, 0): -Scalar.q(1)}
    assert render_schur(A2, exp, 4) == "s22 - t*s211"
    assert hl_terms_as_tuples(A2, (1, 0), 1, 1) == GOLD_W1_F1
    assert hl_terms_as_tuples(A2, (1, 0), 2, 1) == GOLD_W1_F2
    assert hl_terms_as_tuples(A2, (0, 2), 1, 4) == GOLD_2W2_F1
    assert hl_terms_as_tuples(A2, (0, 2), 2, 4) == GOLD_2W2_F2
    budget.done("criterion 8: Hall-Littlewood closed forms, term tables, "
                "and Schur expansion")


def test_criterion_09_whittaker():
    """Euler characteristic twist and Whittaker identities."""
    budget = Budget(30.0)
    oracle = KOracle(A2)
    L = oracle.line_bundle((1, 1))
    for w in range(W2.n):
        num, den = oracle.mc_prime(w)
        val = oracle.integral(oracle.mul(L, num)).exact_div(den)
        assert val == GA.term(A2.rho(), (-1) ** W2.length[w]), w
    for lam in [(-1, 0), (0, -1), (-1, -1), (-2, -1)]:
        detail = case_whittaker("A", 2, lam)
        assert detail is None, (lam, detail)
    budget.done("criterion 9: Whittaker twist, Casselman-Shalika, and "
                "R-function identities")


def test_criterion_10_stable_layer():
    """Worked shift-matrix rows, wall crossing, Hecke two-case formula."""
    budget = Budget(60.0)
    lam = (2, 1)
    S = shift_matrix(A2, lam)
    s2 = W2.from_word_str("s2")
    s2s1 = W2.from_word_str("s2s1")
    s1s2 = W2.from_word_str("s1s2")
    s1s2s1 = W2.from_word_str("s1s2s1")
    neg = tuple(-c for c in A2.weight((2, -1)))
    qdiff = Scalar.v(-1) - Scalar.v(1)
    row = S[s2s1]
    expect = {s2s1: GA.const(1, 2), s1s2s1: GA.term(neg, qdiff)}
    assert set(row) == set(expect) and all(row[k] == expect[k] for k in row)
    row = S[s2]
    geo = (
        GA.term(neg)
        + GA.term(tuple(2 * c for c in neg))
        + GA.term(tuple(3 * c for c in neg))
    )
    assert row[s2] == GA.const(1, 2) and row[s1s2] == geo * qdiff
    # stab support, the Hecke two-case action and wall crossing against S
    assert case_stable("A", 2, lam) is None
    budget.done("criterion 10: stable envelopes, wall crossing, and the "
                "Hecke two-case action")


def test_criterion_11_csm_layer():
    """Cohomological Chevalley table vs localization; commutation lemma.
    B2, C2 and G2 have simple roots with fundamental coordinates of
    content 2 or 3, so the integer division meets leading coefficients
    other than +-1."""
    budget = Budget(120.0)
    for family, rank in [("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3)]:
        w1 = tuple(1 if j == 0 else 0 for j in range(rank))
        w2 = tuple(1 if j == 1 else 0 for j in range(rank))
        for lam in (w1, w2, (1,) * rank):
            detail = case_csm(family, rank, lam)
            assert detail is None, (family, rank, lam, detail)
    budget.done("criterion 11: cohomological tables vs localization and "
                "the commutation lemma in A2, B2, C2, G2 and A3")


def _reduced_words_for_chain(lam, count):
    """Brute-force distinct reduced words producing a valid lambda-chain."""
    base = v_minus_lambda(A2, lam)
    found = []
    for word in itertools.product((-1, 0, 1), repeat=len(base)):
        try:
            chain_from_word(A2, lam, list(word))
        except Exception:
            continue
        found.append(list(word))
        if len(found) >= count:
            break
    assert len(found) >= count, (lam, found)
    return found


def test_criterion_12_chain_independence():
    """Identical tables across reduced and non-reduced chain words."""
    budget = Budget(10.0)
    for lam in ((1, 1), (2, 1), (1, 2)):
        words = _reduced_words_for_chain(lam, 2)
        chains = [chain_from_word(A2, lam, wd) for wd in words]
        chains.append(chain_from_word(A2, lam, words[0] + [0, 0]))
        assert not chains[-1].reduced
        for w in range(W2.n):
            base = chevalley_table(A2, lam, w, sign=1, chain=chains[0])
            for chain in chains[1:]:
                t = chevalley_table(A2, lam, w, sign=1, chain=chain)
                assert _tables_equal(base, t), (lam, w)
    budget.done("criterion 12: chain independence over two reduced words "
                "and one non-reduced word for three weights")


def test_criterion_13_positivity():
    """Every dominant-weight term is q^a (q-1)^b with the right parity."""
    budget = Budget(30.0)
    for family, rank in [("A", 2), ("B", 2)]:
        for lam in itertools.product(range(0, 3), repeat=rank):
            if any(lam):
                assert case_positivity(family, rank, lam) is None, lam
    budget.done("criterion 13: positivity normal form on the dominant "
                "grids of A2 and B2")
