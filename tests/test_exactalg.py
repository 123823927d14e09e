from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from p6tau.exactalg import (
    LaurentPoly,
    NotDivisible,
    poly_gcd,
)

T = LaurentPoly.t()

scalars = st.builds(
    Fraction, st.integers(min_value=-8, max_value=8), st.integers(min_value=1, max_value=6)
)


def polys(max_deg=4):
    return st.lists(scalars, min_size=0, max_size=max_deg + 1).map(
        lambda cs: LaurentPoly(0, cs))


def laurents(max_len=5):
    return st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.lists(scalars, min_size=0, max_size=max_len),
    ).map(lambda t: LaurentPoly(*t))


def test_product_difference_of_squares():
    assert (T + 1) * (T - 1) == T * T - 1


def test_additive_identity():
    p = LaurentPoly(0, (3, 0, Fraction(1, 2)))
    assert LaurentPoly.zero() + p == p


def test_exact_rational_coefficients():
    half_t = LaurentPoly(0, (0, Fraction(1, 2)))
    two_thirds = LaurentPoly.constant(Fraction(2, 3))
    assert half_t * two_thirds == LaurentPoly(0, (0, Fraction(1, 3)))


def test_derivative_basics():
    assert (T * T * T).derivative() == 3 * T * T
    assert LaurentPoly.constant(7).derivative().is_zero()
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
@given(polys(), polys(), polys())
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
    assert poly_gcd(LaurentPoly.zero(), LaurentPoly.zero()).is_zero()
    assert poly_gcd(2 * (T - 1), 7 * (T + 1)) == 1
    assert poly_gcd(LaurentPoly.zero(), 4 * (T - 1)) == T - 1
    assert poly_gcd(T * T * (T - 1), Fraction(1, 3) * T * (T - 1) * (T + 5)) == T * (T - 1)


def test_serialization_round_trips():
    p = LaurentPoly(0, (Fraction(1, 2), 0, -3))
    assert p.to_degree_map() == {"0": "1/2", "2": "-3"}
    q = LaurentPoly(-2, (1, Fraction(-2, 3), 0, 5))
    assert LaurentPoly.from_json(q.to_json()) == q
    assert str(Fraction(3, 1)) == "3" and str(Fraction(-3, 2)) == "-3/2"


def test_evaluation_is_exact():
    p = (T - 1) * (T + 2)
    assert p(Fraction(1, 2)) == Fraction(-5, 4)


# ---------------------------------------------------------------------------
# property tests against a Fraction-coefficient oracle
# ---------------------------------------------------------------------------
#
# The oracle is a dict {degree: nonzero Fraction}, with naive arithmetic.
# Coefficients are small or about 200 bits, some are zero, degrees start
# below zero, and each polynomial is built over an extra denominator k, so
# its integer coefficients and its denominator are not in lowest terms.

BIG = 2 ** 200
oracle_scalars = st.one_of(
    scalars,
    st.builds(Fraction, st.integers(min_value=-BIG, max_value=BIG),
              st.integers(min_value=1, max_value=BIG)),
    st.just(Fraction(0)),
)


@st.composite
def pairs(draw, max_len=5):
    """(LaurentPoly, oracle dict) of one random value."""
    lo = draw(st.integers(min_value=-4, max_value=3))
    cs = draw(st.lists(oracle_scalars, max_size=max_len))
    k = draw(st.integers(min_value=1, max_value=10 ** 6))
    poly = LaurentPoly(lo, [c * k for c in cs], k)
    return poly, {lo + i: c for i, c in enumerate(cs) if c}


def as_dict(p: LaurentPoly) -> dict:
    """The value p represents; also checks the representation's invariants."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.coeffs)
    if p.coeffs:
        assert p.coeffs[0] and p.coeffs[-1]
    else:
        assert (p.min_degree, p.den) == (0, 1)
    return {p.min_degree + i: Fraction(c, p.den) for i, c in enumerate(p.coeffs) if c}


def ref_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for n, c in b.items():
        out[n] = out.get(n, 0) + sign * c
    return {n: c for n, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m, x in a.items():
        for n, y in b.items():
            out[m + n] = out.get(m + n, 0) + x * y
    return {n: c for n, c in out.items() if c}


def ref_json(a: dict) -> dict:
    if not a:
        return {"min_degree": 0, "coeffs": []}
    lo, hi = min(a), max(a)
    return {"min_degree": lo, "coeffs": [str(a.get(n, Fraction(0))) for n in range(lo, hi + 1)]}


@settings(deadline=None, max_examples=60)
@given(pairs(), pairs(), oracle_scalars, st.integers(min_value=-BIG, max_value=BIG))
def test_ring_operations_match_fraction_oracle(x, y, q, n):
    (a, ra), (b, rb) = x, y
    assert as_dict(a) == ra and as_dict(b) == rb
    assert as_dict(a + b) == ref_add(ra, rb)
    assert as_dict(a - b) == ref_add(ra, rb, -1)
    assert as_dict(-a) == ref_add({}, ra, -1)
    assert as_dict(a * b) == ref_mul(ra, rb)
    assert as_dict(a * n) == as_dict(n * a) == ref_mul(ra, {0: Fraction(n)} if n else {})
    assert as_dict(a * q) == as_dict(q * a) == ref_mul(ra, {0: q} if q else {})
    assert as_dict(a + n) == ref_add(ra, {0: Fraction(n)} if n else {})
    assert as_dict(q - a) == ref_add({0: q} if q else {}, ra, -1)
    assert as_dict(a.derivative()) == {m - 1: m * c for m, c in ra.items() if m}


@settings(deadline=None, max_examples=60)
@given(pairs(), pairs(), st.integers(min_value=2, max_value=10 ** 30))
def test_equality_across_unreduced_denominators(x, y, k):
    (a, ra), (b, rb) = x, y
    same = LaurentPoly(a.min_degree, [c * k for c in a.coeffs], a.den * k)
    assert same.den != a.den or a.is_zero()
    assert same == a and a == same and hash(same) == hash(a)
    assert same.to_json() == a.to_json()
    assert (a == b) == (ra == rb)
    assert (a - same).is_zero()


@settings(deadline=None, max_examples=60)
@given(pairs(), pairs(), oracle_scalars.filter(bool), st.integers(min_value=-6, max_value=6))
def test_exact_divide_and_split_match_fraction_oracle(x, y, c, n):
    (a, ra), (b, rb) = x, y
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.exact_divide(b)
        return
    assert as_dict((a * b).exact_divide(b)) == ra
    # the same product with its coefficients reduced, so that the division
    # must take the content out of b
    assert as_dict(LaurentPoly.from_json((a * b).to_json()).exact_divide(b)) == ra
    # a nonzero polynomial narrower than b is no multiple of b
    if b.degree > b.min_degree:
        with pytest.raises(NotDivisible):
            (a * b + LaurentPoly.monomial(c, n)).exact_divide(b)
    m, P = a.split()
    assert P.is_zero() == a.is_zero()
    if ra:
        assert m == min(ra) and P.min_degree == 0 and P.coeff(0) != 0
        assert as_dict(P) == {d - m: v for d, v in ra.items()}


@settings(deadline=None, max_examples=60)
@given(pairs())
def test_json_round_trip_matches_naive_reference(x):
    a, ra = x
    assert a.to_json() == ref_json(ra)
    assert as_dict(LaurentPoly.from_json(ref_json(ra))) == ra
    assert LaurentPoly.from_json(a.to_json()) == a
    assert a.to_degree_map() == {str(n): str(c) for n, c in ra.items()}
