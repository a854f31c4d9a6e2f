"""Affine Hecke algebra axioms and transition coefficients."""

import pytest
from hypothesis import given, settings, strategies as st

from chevmc.params import Scalar
from chevmc.charring import GA
from chevmc.rootsystem import RootSystem
from chevmc.alcove import chain_from_word, chain_lex_height
from chevmc.hecke import HeckeAlgebra

RS = RootSystem("A", 2)
W = RS.weyl()
ALG = HeckeAlgebra(RS)


def _weights():
    return st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(RS.weight)


def _scalars():
    return st.dictionaries(
        st.sampled_from([-2, 0, 2, 4]), st.integers(-3, 3), max_size=2
    ).map(Scalar)


def _elements():
    pair = st.tuples(st.integers(0, W.n - 1), _weights())
    return st.dictionaries(pair, _scalars(), min_size=1, max_size=3).map(
        lambda c: ALG.zero() + ALG.zero().__class__(ALG, c)
    )


@given(_elements())
@settings(max_examples=60, deadline=None)
def test_quadratic_relation(a):
    # (T_i - q)(T_i + 1) = 0, applied on random elements
    for i in range(2):
        t = ALG.basis(W.from_word((i,)))
        ta = ALG.mul(t, a)
        tta = ALG.mul(t, ta)
        rhs = ta.scale(Scalar.q(1) - Scalar.one()) + a.scale(Scalar.q(1))
        assert tta == rhs, i


@given(_elements())
@settings(max_examples=60, deadline=None)
def test_braid_relation(a):
    t1 = ALG.basis(W.from_word((0,)))
    t2 = ALG.basis(W.from_word((1,)))
    lhs = ALG.mul(t1, ALG.mul(t2, ALG.mul(t1, a)))
    rhs = ALG.mul(t2, ALG.mul(t1, ALG.mul(t2, a)))
    assert lhs == rhs


@given(_elements())
@settings(max_examples=60, deadline=None)
def test_theta_involution(a):
    assert ALG.theta(ALG.theta(a)) == a


@given(st.integers(0, 1), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
@settings(max_examples=60, deadline=None)
def test_bernstein_divisibility(i, lam):
    """(T_i X^lam - X^{s_i lam} T_i) (1 - X^-alpha_i) = (1-q)(X^{s lam} - X^lam).

    In particular the geometric-sum quotient of the Bernstein relation is
    an exact polynomial."""
    mu = RS.weight(lam)
    si = W.from_word((i,))
    t = ALG.basis(si)
    x = ALG.basis(0, mu)
    smu = RS.reflect(mu, RS.root_by_simple(tuple(1 if j == i else 0 for j in range(2))))
    comm = ALG.mul(t, x) - ALG.mul(ALG.basis(0, smu), t)
    # the commutator is supported on T_id only
    g = GA()
    for (w, nu), c in comm.c.items():
        assert w == 0
        g = g + GA.term(nu, c)
    alpha = RS.weight(tuple(RS.cartan[k][i] for k in range(2)))
    lhs = g * (GA.const(1, 2) - GA.term(tuple(-c for c in alpha)))
    rhs = (GA.term(smu) - GA.term(mu)) * (Scalar.one() - Scalar.q(1))
    assert lhs == rhs


def test_t_inverse():
    for i in range(2):
        t = ALG.basis(W.from_word((i,)))
        assert ALG.mul(t, ALG.t_simple_inverse(i)) == ALG.one()
    for w in range(W.n):
        # T_{w^-1} . T_{i_1}^-1 ... T_{i_l}^-1 = 1 along the word of w
        inverse = ALG.one()
        for i in W.word(w):
            inverse = ALG.mul(inverse, ALG.t_simple_inverse(i))
        assert ALG.mul(ALG.basis(W.inv[w]), inverse) == ALG.one()


def test_theta_on_generators():
    # Theta(X^mu) = X^-mu
    mu = RS.weight((1, -1))
    assert ALG.theta(ALG.basis(0, mu)) == ALG.basis(0, tuple(-c for c in mu))


def test_t_mul_reduced():
    s1 = W.from_word((0,))
    s2 = W.from_word((1,))
    prod = ALG.mul(ALG.basis(s1), ALG.basis(s2))
    assert prod == ALG.basis(W.from_word((0, 1)))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_transition_direct_vs_chain(label):
    rs = RootSystem(label[0], int(label[1]))
    weyl = rs.weyl()
    alg = HeckeAlgebra(rs)
    for lam in [(1, 0), (0, 1), (2, 1), (1, -2)]:
        chain = chain_lex_height(rs, lam)
        for w in range(weyl.n):
            for sign in (1, -1):
                a = alg.transition_chain(w, chain, sign)
                b = alg.transition_direct(w, tuple(sign * c for c in lam))
                assert a == b, (lam, w, sign)


def test_transition_identity_weight_zero():
    t = ALG.transition_direct(W.from_word_str("s1s2"), (0, 0))
    assert t == {(W.from_word_str("s1s2"), (0, 0)): Scalar.one()}
