"""Scalar coefficient ring Z[v, v^-1] with y = -v^2 and q = v^2."""

import pytest
from hypothesis import given, strategies as st

from chevmc.charring import Scalar


scalars = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=5
).map(Scalar)


def test_constructors():
    assert Scalar() == Scalar.int(0)
    assert not Scalar()
    assert Scalar.one() == Scalar.int(1)
    assert Scalar.y(1) == Scalar.v(2, -1)
    assert Scalar.q(1) == Scalar.v(2)
    assert Scalar.y(2) == Scalar.v(4)
    assert Scalar.y(1, 3) == Scalar.v(2, -3)


def test_y_q_relation():
    # y = -q as elements of the shared ring
    assert Scalar.y(1) == -Scalar.q(1)
    assert Scalar.y(3) == -Scalar.q(3)
    assert Scalar.y(2) == Scalar.q(2)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Scalar() == a
    assert a * Scalar.one() == a
    assert a - a == Scalar()


@given(scalars)
def test_v_inverse_involution(a):
    assert a.y_inverse().y_inverse() == a


@given(scalars, scalars)
def test_divide_exact(a, b):
    if not b:
        return
    q = (a * b).exact_div(b)
    assert q is not None and q == a


def test_divide_inexact():
    assert (Scalar.one() + Scalar.v(1)).exact_div(Scalar.v(1) - Scalar.one()) is None


def test_coeff_views():
    x = Scalar.y(2) + Scalar.y(1, 3) + Scalar.one()
    assert x.is_even()
    assert x.y_coeffs() == {0: 1, 1: 3, 2: 1}
    assert x.q_coeffs() == {0: 1, 1: -3, 2: 1}
    assert x.render(var="t") == x.render(var="q").replace("q", "t")
    assert not (Scalar.v(1) + Scalar.one()).is_even()


def test_render():
    assert Scalar().render() == "0"
    assert (Scalar.y(1) + Scalar.one()).render() == "y +1"
    assert (Scalar.q(1) - Scalar.one()).render(var="q") == "q -1"
    assert Scalar.v(-1).render(var="v") == "v^-1"


@given(scalars)
def test_power(a):
    assert a ** 0 == Scalar.one()
    assert a ** 3 == a * a * a
