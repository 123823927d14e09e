"""The bilinear sides and sigma-square residuals of the SquareSweep walk,
square by square, against the public residuals, the sigma kernel, the F4
sigma step and oracles written out from the relations' definitions; and the
lemma the walk rests on, that the sigma-square residual is a multiple of the
Wronskian of the bilinear sides, on random Laurent-polynomial taus."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p6tau.backlund import (B_POLYS, DegenerateK, SquareSweep, bilinear_combination,
                            bilinear_residual, eps_block_inversions, sigma_backlund_residual,
                            sigma_difference, sigma_of, sigma_residual_of_sides)
from p6tau.exactalg import LaurentPoly
from p6tau.f4 import sigma_step
from p6tau.grassmann import FrameMatrix, TauT, TauTable
from p6tau.lattice import LatticePoint, all_moves, big_GH, move_vector, n_coeff, r_weight
from p6tau.suites import perturb_table, suite_f4, suite_sigma_backlund

# the dense frame of test_smallest_perturbation_on_a_dense_frame_is_caught
DENSE_FRAME = [[(59, 75), (-73, 87), (-82, 63)],
               [(54, 65), (-85, 77), (-86, 57)],
               [(-86, 87), (53, 64), (-85, 58)]]
# the perturbed radius-2 points of test_suites.FROZEN_REPORTS
PERTURBED = [(-1, 0, 0, 1, 0, 0), (0, 0, 0, 1, -1, 0), (0, 0, 0, -2, 0, 2),
             (1, 0, -1, 0, 0, 0), (1, 1, 0, -1, -1, 0)]
TABLES = ["r2", "dense"] + [f"r2+{p}" for p in PERTURBED]
# the zero-entry frame of test_grassmann.ORACLE_FRAMES
ZERO_ENTRY_FRAME = [[0, 1, 2], [3, 0, 5], [7, 11, 0]]
# (squares of four nonzero taus, those with a nonzero residual R, those where
# K vanishes) on each table; the bump at (1, 0, -1, 0, 0, 0) makes a zero tau
# nonzero, which adds 24 squares, and K vanishes on 24 squares
SQUARES = [(1332, 0, 0), (1332, 0, 0), (1332, 0, 0), (1332, 54, 0), (1332, 6, 0),
           (1356, 0, 24), (1332, 0, 0)]


@pytest.fixture(scope="module")
def dense_table():
    return TauTable.build(FrameMatrix([[Fraction(*x) for x in row] for row in DENSE_FRAME]), 2)


@pytest.fixture
def table(request, table2, dense_table):
    """(name, table) for a name of TABLES or "zero-entries"."""
    name = request.param
    if name == "r2":
        return name, table2
    if name == "dense":
        return name, dense_table
    if name == "zero-entries":
        return name, TauTable.build(FrameMatrix(ZERO_ENTRY_FRAME), 2)
    return name, perturb_table(table2, LatticePoint(PERTURBED[TABLES.index(name) - 2]))


def _bilinear_oracle(taus, m, eps):
    """Tik d_j(Ta) - Ta d_j(Tik) + n_j Ta Tik - eps Tij Tjk with d_j = b_j d/dt."""
    a, ik, ij, jk = (tau.T for tau in taus)
    b = B_POLYS[m.j]
    n = n_coeff(taus[0].point, m)
    return ik * (b * a.derivative()) - a * (b * ik.derivative()) + n * a * ik - eps * (ij * jk)


def _sigma_oracle(sigmas, m, h_sign=1):
    """The cleared sigma-level residual Ln Kn - t(t-1)(Kn' Kd - Kn Kd') Dij Djk,
    with Ln = (Nij Djk + Njk Dij) Kd - (Nik Da + Na Dik + G Kd) Dij Djk; None
    when Kn = Na Dik - Nik Da + H Kd vanishes.  h_sign = -1 flips H."""
    s_a, s_ik, s_ij, s_jk = sigmas
    G, H = big_GH(s_a.point, m)
    H = h_sign * H
    Kd = s_a.den * s_ik.den
    Kn = s_a.num * s_ik.den - s_ik.num * s_a.den + H * Kd
    if Kn.is_zero():
        return None
    t = LaurentPoly.t()
    D = s_ij.den * s_jk.den
    Ln = ((s_ij.num * s_jk.den + s_jk.num * s_ij.den) * Kd
          - (s_ik.num * s_a.den + s_a.num * s_ik.den + G * Kd) * D)
    return Ln * Kn - t * (t - 1) * (Kn.derivative() * Kd - Kn * Kd.derivative()) * D


def _or_degenerate(fn, *args):
    try:
        return fn(*args)
    except DegenerateK:
        return None


@pytest.mark.parametrize("table", TABLES, indirect=True)
def test_bilinear_sides_match_the_residual_square_by_square(table):
    _, table = table
    squares = 0
    for m, move_squares in SquareSweep(table).moves():
        for square in move_squares:
            lhs, rhs = square.sides
            for eps in (1, -1):
                expected = _bilinear_oracle(square.taus, m, eps)
                assert lhs - eps * rhs == bilinear_residual(*square.taus, m, eps) == expected
            squares += 1
    assert squares == 3840


@pytest.mark.parametrize("table", TABLES, indirect=True)
def test_sigma_kernel_is_the_residual_and_minus_the_f4_step_residual(table):
    """The walk's R, formed from the bilinear sides, is the sigma kernel's
    residual of the four taus' sigmas, the oracle's, and minus the f4 sigma
    step's round trip; it is None exactly where L = 0."""
    name, table = table
    sigma = {p: sigma_of(table.get(p)) for p in table.nonzero_points()}
    steps, degenerate, nonzero = [], 0, 0
    for m, move_squares in SquareSweep(table).moves():
        for square in move_squares:
            if any(tau.is_zero() for tau in square.taus):
                assert square.residual is None
                continue
            s_a, s_ik, s_ij, s_jk = s = tuple(sigma[tau.point] for tau in square.taus)
            R = square.residual
            public = _or_degenerate(sigma_backlund_residual, *s, m)
            stepped = _or_degenerate(sigma_step, s_a, s_ik, s_ij, m)
            oracle = _sigma_oracle(s, m)
            # the same squares are degenerate on every path, and they are those with L = 0
            assert ((R is None) == (public is None) == (stepped is None) == (oracle is None)
                    == square.sides[0].is_zero())
            if R is None:
                degenerate += 1
                continue
            diff = sigma_difference(stepped, s_jk)
            assert R == public == oracle and diff == -R
            assert stepped.point == s_jk.point
            nonzero += not R.is_zero()
            steps.append({"check": "sigma-step", "move": [m.i, m.j, m.k],
                          "base": s_a.point.to_json(), "ok": diff.is_zero(),
                          **({} if diff.is_zero() else
                             {"terms": sum(1 for c in diff.coeffs if c)})})
    assert suite_sigma_backlund(table).notes["degenerate_K"] == degenerate
    # suite_f4 records exactly the entries of the sigma_step round trip
    f4 = suite_f4(table).configurations
    assert [c for c in f4 if c.get("check") == "sigma-step"] == steps
    assert (len(steps) + degenerate, nonzero, degenerate) == SQUARES[TABLES.index(name)]


@pytest.mark.parametrize("table", ["r2", "dense", "zero-entries", "r2+(0, 0, 0, 1, -1, 0)"],
                         indirect=True)
def test_mirror_squares_match_a_direct_computation(table):
    """The walk computes the square of (i, j, k), i < k, and the square of
    (k, j, i) on the same four points reads its records negated; every
    square's (L, P), L - eps P and R must equal those computed for it
    directly, R by the sigma kernel on the sigmas of its taus."""
    name, table = table
    direct = SquareSweep(table)
    sigma = {p: sigma_of(table.get(p)) for p in table.nonzero_points()}
    squares, nonzero = 0, {True: 0, False: 0}
    for m, move_squares in SquareSweep(table).moves():
        for square in move_squares:
            lhs, rhs = square.sides
            assert square.sides == direct.bilinear_sides(m, square.taus)
            assert square.difference == lhs - eps_block_inversions(m.i, m.j, m.k) * rhs
            if any(tau.is_zero() for tau in square.taus):
                assert square.residual is None
                continue
            s = tuple(sigma[tau.point] for tau in square.taus)
            R = _or_degenerate(sigma_backlund_residual, *s, m)
            assert square.residual == R
            if R is not None and not R.is_zero():
                nonzero[m.i < m.k] += 1
            squares += 1
    assert squares == (SQUARES[TABLES.index(name)][0] if name in TABLES else 702)
    # the perturbed table's nonzero residuals sit on computed and mirrored
    # squares alike
    assert nonzero == ({True: 27, False: 27} if name.startswith("r2+") else
                       {True: 0, False: 0})


# the 31 points a + d_x - d_y of the 60 move squares at a base a, a first
OFFSETS = [(0,) * 6] + [move_vector(x, y).alpha for x, y in itertools.permutations(range(1, 7), 2)]
laurent_taus = st.builds(
    LaurentPoly, st.integers(-3, 3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(any))


def _move_squares(base, polys):
    """(m, (Ta, Tik, Tij, Tjk)) for the 60 moves at `base`, with the tau
    polys[n] at base + OFFSETS[n]."""
    taus = {}
    for offset, poly in zip(OFFSETS, polys):
        p = LatticePoint(tuple(a + b for a, b in zip(base, offset)))
        taus[p] = TauT(p, poly, r_weight(p))
    a = LatticePoint(tuple(base))
    for m in all_moves():
        yield m, (taus[a], *(taus[a + move_vector(x, y)]
                             for x, y in ((m.i, m.k), (m.i, m.j), (m.j, m.k))))


def _lemma_mismatches(base, polys, formula=sigma_residual_of_sides,
                      kernel=sigma_backlund_residual):
    """The moves at `base` whose square breaks the lemma: the kernel's
    residual of the four sigmas is not the formula's from the bilinear sides
    (L, P), or the kernel raises DegenerateK other than exactly where L = 0."""
    bad = []
    for m, square in _move_squares(base, polys):
        L, P = bilinear_combination(square[0], square[1], m), square[2].T * square[3].T
        want = _or_degenerate(kernel, *map(sigma_of, square), m)
        got = _or_degenerate(formula, m, square, L, P)
        if (want is None) != L.is_zero() or got != want:
            bad.append(m)
    return bad


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=5, max_size=5),
       st.lists(laurent_taus, min_size=len(OFFSETS), max_size=len(OFFSETS)))
def test_sigma_residual_is_a_multiple_of_the_wronskian_of_the_bilinear_sides(base, polys):
    assert _lemma_mismatches(base + [-sum(base)], polys) == []


def test_the_lemma_check_fails_on_a_broken_formula_or_kernel():
    """Negative controls: the lemma's check sees a formula without its t^k
    and a kernel with H flipped; on constant taus it sees K vanish with L."""
    rng = random.Random(20)
    base = [1, 0, -1, 0, 1, -1]
    polys = [LaurentPoly(rng.randint(-3, 3), [rng.choice((-2, -1, 1, 2, 3))
                                              for _ in range(rng.randint(2, 4))])
             for _ in OFFSETS]
    assert _lemma_mismatches(base, polys) == []

    def shift(taus):
        m_a, m_ik, m_ij, m_jk = (tau.T.min_degree for tau in taus)
        return -(m_ij + m_jk) - 2 * (m_a + m_ik)

    def without_shift(m, taus, L, P):
        return sigma_residual_of_sides(m, taus, L, P) * LaurentPoly.monomial(1, -shift(taus))

    def flipped_h(s_a, s_ik, s_ij, s_jk, m):
        R = _sigma_oracle((s_a, s_ik, s_ij, s_jk), m, h_sign=-1)
        if R is None:
            raise DegenerateK
        return R

    shifted = [m for m, square in _move_squares(base, polys) if shift(square)]
    assert _lemma_mismatches(base, polys, formula=without_shift) == shifted != []
    # flipping H changes nothing only where H = 0
    assert _lemma_mismatches(base, polys, kernel=flipped_h) == [
        m for m in all_moves() if not big_GH(LatticePoint(tuple(base)), m)[1].is_zero()]
    # K = (t(t-1)/b_j) L/(Ta Tik) vanishes on constant taus wherever n_j does
    ones = [LaurentPoly.constant(1)] * len(OFFSETS)
    assert _lemma_mismatches(base, ones) == []
    assert sum(bilinear_combination(*square[:2], m).is_zero()
               for m, square in _move_squares(base, ones)) > 20
