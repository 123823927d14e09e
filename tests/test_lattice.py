from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from p6tau.exactalg import LaurentPoly
from p6tau.lattice import (
    E0_VECTOR,
    LatticePoint,
    MoveIJK,
    all_moves,
    ball,
    big_GH,
    c5_c6,
    e0_translate,
    gh_polys,
    move_vector,
    n_coeff,
    r_weight,
    twice_v,
)

T = LaurentPoly.t()


def lattice_points(span=3):
    base = st.lists(st.integers(min_value=-span, max_value=span), min_size=5, max_size=5)
    return base.map(lambda xs: LatticePoint(tuple(xs) + (-sum(xs),)))


def test_membership_enforced():
    with pytest.raises(ValueError):
        LatticePoint((1, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        LatticePoint((1, 0, 0, 0, 0))


def test_r_weight_examples():
    assert r_weight(LatticePoint((0, 0, 0, 0, 0, 0))) == 0
    assert r_weight(move_vector(1, 2)) == -1
    assert r_weight(move_vector(4, 1)) == 0


@settings(deadline=None, max_examples=100)
@given(lattice_points())
def test_r_weight_is_integer(p):
    assert isinstance(r_weight(p), int)


def test_c5_c6_examples():
    zero = LatticePoint((0, 0, 0, 0, 0, 0))
    assert c5_c6(zero) == (0, 0)
    p = LatticePoint((2, -1, 2, 0, -3, 0))  # a1 == a3 kills c5
    assert c5_c6(p)[0] == 0
    q = LatticePoint((1, 0, -1, 0, 0, 0))
    assert c5_c6(q) == (-4, 0)  # (4 c5, 4 c6): c5 = -1, c6 = 0


def test_twice_v_is_twice_the_fraction_formula_on_ball_2():
    for p in ball(2):
        a = p.alpha
        half_sum = Fraction(a[0] + a[2], 2)
        v = (half_sum + a[3], half_sum + a[4], half_sum + a[5], Fraction(a[0] - a[2], 2))
        assert twice_v(p) == twice_v(a) == tuple(2 * x for x in v)
        assert all(type(x) is int for x in twice_v(p))


def test_n_coeff_rules():
    zero = LatticePoint((0, 0, 0, 0, 0, 0))
    assert n_coeff(zero, MoveIJK(4, 2, 1)) == 0
    for m in all_moves():
        if m.j == 3:
            assert n_coeff(zero, m) == 0
    # independent evaluation of both weights
    p = move_vector(4, 5)
    m = MoveIJK(4, 1, 2)
    direct = r_weight(p + move_vector(4, 2)) - r_weight(p)
    assert direct == 1
    assert n_coeff(p, m) == direct


@settings(deadline=None, max_examples=60)
@given(lattice_points(), st.sampled_from(all_moves()))
def test_n_coeff_antisymmetry(p, m):
    m1 = MoveIJK(m.i, 1, m.k) if 1 not in (m.i, m.k) else None
    m2 = MoveIJK(m.i, 2, m.k) if 2 not in (m.i, m.k) else None
    if m1 and m2:
        assert n_coeff(p, m1) == -n_coeff(p, m2)


def test_gh_polys():
    g, h = gh_polys(1, 2)
    assert g.is_zero() and h == LaurentPoly.constant(2)
    g, h = gh_polys(2, 0)
    assert g == -T and h.is_zero()
    g, h = gh_polys(2, 3)
    assert h == 3 * (T - 1)
    # j = 3: the quotient b_3/(t(t-1)) = -t/(t-1) has scaled log-derivative -1
    g, h = gh_polys(3, 5)
    assert g == LaurentPoly.constant(-1) and h.is_zero()


def test_big_gh_frozen_values():
    zero = LatticePoint((0, 0, 0, 0, 0, 0))
    m = MoveIJK(4, 1, 5)
    # independent re-evaluation from the four c5/c6 pairs
    pts = {
        "a": zero,
        "ik": zero + move_vector(4, 5),
        "ij": zero + move_vector(4, 1),
        "jk": zero + move_vector(1, 5),
    }
    c5 = {k: Fraction(c5_c6(v)[0], 4) for k, v in pts.items()}
    c6 = {k: Fraction(c5_c6(v)[1], 4) for k, v in pts.items()}
    d5 = c5["ij"] + c5["jk"] - c5["ik"] - c5["a"]
    d6 = c6["ij"] + c6["jk"] - c6["ik"] - c6["a"]
    assert (d5, d6) == (Fraction(-1, 2), Fraction(0))
    G, H = big_GH(zero, m)
    assert G == LaurentPoly(0, (Fraction(1, 2), Fraction(-1, 2)))
    assert H == LaurentPoly.constant(Fraction(1, 2))


def _big_gh_fraction_oracle(p, m):
    """G and H straight from the four points' c5/c6, in Fractions."""
    corners = [p + move_vector(m.i, m.j), p + move_vector(m.j, m.k),
               p + move_vector(m.i, m.k), p]
    (c5ij, c6ij), (c5jk, c6jk), (c5ik, c6ik), (c5a, c6a) = (
        tuple(Fraction(c, 4) for c in c5_c6(q)) for q in corners)
    g, h = gh_polys(m.j, n_coeff(p, m))
    one_minus_t = LaurentPoly(0, (1, -1))
    G = (g - one_minus_t * (c5ij + c5jk - c5ik - c5a)
         - LaurentPoly.constant((c6ij + c6jk - c6ik - c6a) / 2))
    H = h + one_minus_t * (c5a - c5ik) + LaurentPoly.constant((c6a - c6ik) / 2)
    return G, H


def test_big_gh_matches_fraction_formula_on_ball_2():
    for m in all_moves():
        Gs = set()
        for p in ball(2):
            G, H = big_GH(p, m)
            assert (G, H) == _big_gh_fraction_oracle(p, m)
            Gs.add(G)
        assert len(Gs) == 1  # G depends on the move alone


def test_big_gh_reduces_to_gh_when_its_differences_vanish():
    # pick a configuration where both differences entering H vanish:
    # c5 is untouched by mu-block moves with j = 2, and the weights of the
    # base and its (4,5)-shift agree here.
    p = LatticePoint((0, 0, 0, 0, 1, -1))
    m = MoveIJK(4, 2, 5)
    ik = p + move_vector(4, 5)
    assert c5_c6(p)[0] == c5_c6(ik)[0]
    assert c5_c6(p)[1] == c5_c6(ik)[1]
    _, H = big_GH(p, m)
    _, h = gh_polys(2, n_coeff(p, m))
    assert H == h


def test_big_gh_degree_bound():
    for p in ball(2)[::9]:
        for m in all_moves()[::7]:
            G, H = big_GH(p, m)
            assert G.degree <= 1 and H.degree <= 1


def test_e0_translate():
    zero = LatticePoint((0, 0, 0, 0, 0, 0))
    q, sign = e0_translate(zero)
    assert q == E0_VECTOR and sign == 1
    p = LatticePoint((0, 1, -1, 0, 0, 0))
    q, sign = e0_translate(p)
    assert q == LatticePoint((1, 2, 0, -1, -1, -1)) and sign == -1


def test_e0_translate_preserves_weight_and_inverts():
    for p in ball(2)[::5]:
        q, sign = e0_translate(p)
        assert r_weight(q) == r_weight(p)
        back = q - E0_VECTOR
        assert back == p
        # sign matches the returned one on the way back
        assert e0_translate(back)[1] == sign


def test_ball_counts_and_determinism():
    assert len(ball(0)) == 1
    b1 = ball(1)
    assert len(b1) == 31  # 1 + 30 unit moves
    assert b1 == sorted(b1, key=lambda p: p.alpha)
    assert len(ball(2)) == 271


def test_all_moves_count():
    assert len(all_moves()) == 60


@settings(deadline=None, max_examples=60)
@given(lattice_points(), st.sampled_from(all_moves()))
def test_n_coeff_is_an_int(p, m):
    n = n_coeff(p, m)
    assert type(n) is int
    assert n == {1: 1, 2: -1, 3: 0}[m.j] * (r_weight(p + move_vector(m.i, m.k)) - r_weight(p))
