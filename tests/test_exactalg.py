from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from p6tau.exactalg import (
    LaurentPoly,
    NotDivisible,
    UniPoly,
    poly_gcd,
)

T = UniPoly.t()

scalars = st.builds(
    Fraction, st.integers(min_value=-8, max_value=8), st.integers(min_value=1, max_value=6)
)


def unipolys(max_deg=4):
    return st.lists(scalars, min_size=0, max_size=max_deg + 1).map(UniPoly)


def laurents(max_len=5):
    return st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.lists(scalars, min_size=0, max_size=max_len),
    ).map(lambda t: LaurentPoly(*t))


def test_product_difference_of_squares():
    assert (T + 1) * (T - 1) == T * T - 1


def test_additive_identity():
    p = UniPoly((3, 0, Fraction(1, 2)))
    assert UniPoly.zero() + p == p


def test_exact_rational_coefficients():
    half_t = UniPoly((0, Fraction(1, 2)))
    two_thirds = UniPoly.constant(Fraction(2, 3))
    assert half_t * two_thirds == UniPoly((0, Fraction(1, 3)))


def test_derivative_basics():
    assert (T * T * T).derivative() == 3 * T * T
    assert UniPoly.constant(7).derivative().is_zero()
    inv_t = LaurentPoly.monomial(1, -1)
    assert inv_t.derivative() == LaurentPoly.monomial(-1, -2)


def test_exact_divide_examples():
    t2m1 = LaurentPoly(0, (-1, 0, 1))
    tm1 = LaurentPoly(0, (-1, 1))
    assert t2m1.exact_divide(tm1) == LaurentPoly(0, (1, 1))
    t2p1 = LaurentPoly(0, (1, 0, 1))
    t = LaurentPoly.monomial(1, 1)
    assert t2p1.exact_divide(t) == LaurentPoly(-1, (1, 0, 1))
    with pytest.raises(NotDivisible):
        t2p1.exact_divide(tm1)
    with pytest.raises(ZeroDivisionError):
        t2p1.exact_divide(LaurentPoly.zero())


@settings(deadline=None, max_examples=80)
@given(unipolys(), unipolys(), unipolys())
def test_distributivity(a, b, c):
    assert (a + b) * c == a * c + b * c


@settings(deadline=None, max_examples=80)
@given(laurents(), laurents())
def test_product_rule(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@settings(deadline=None, max_examples=80)
@given(laurents(), laurents())
def test_exact_divide_round_trip(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_divide(b) == a


def test_poly_gcd_examples():
    common = T * T + Fraction(1, 2)
    g = poly_gcd(3 * common * (T - 2), Fraction(-5, 4) * common * (T + 1))
    assert g == common and g.leading() == 1
    assert poly_gcd(UniPoly.zero(), UniPoly.zero()).is_zero()
    assert poly_gcd(2 * (T - 1), 7 * (T + 1)) == 1
    assert poly_gcd(UniPoly.zero(), 4 * (T - 1)) == T - 1


def test_serialization_round_trips():
    p = UniPoly((Fraction(1, 2), 0, -3))
    assert p.to_degree_map() == {"0": "1/2", "2": "-3"}
    q = LaurentPoly(-2, (1, Fraction(-2, 3), 0, 5))
    assert LaurentPoly.from_json(q.to_json()) == q
    assert str(Fraction(3, 1)) == "3" and str(Fraction(-3, 2)) == "-3/2"


def test_evaluation_is_exact():
    p = (T - 1) * (T + 2)
    assert p(Fraction(1, 2)) == Fraction(-5, 4)
