"""The sigma-square kernel and the cached bilinear sides of the SquareSweep
walk, square by square, against the public residuals, the F4 sigma step and
oracles written out from the relations' definitions."""

from fractions import Fraction

import pytest

from p6tau.backlund import (B_POLYS, DegenerateK, SquareSweep, bilinear_residual,
                            sigma_backlund_residual, sigma_difference, sigma_of)
from p6tau.exactalg import LaurentPoly
from p6tau.f4 import sigma_step
from p6tau.grassmann import FrameMatrix, TauTable
from p6tau.lattice import LatticePoint, big_GH, n_coeff
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


def _sigma_oracle(sigmas, m):
    """The cleared sigma-level residual Ln Kn - t(t-1)(Kn' Kd - Kn Kd') Dij Djk,
    with Ln = (Nij Djk + Njk Dij) Kd - (Nik Da + Na Dik + G Kd) Dij Djk; None
    when Kn = Na Dik - Nik Da + H Kd vanishes."""
    s_a, s_ik, s_ij, s_jk = sigmas
    G, H = big_GH(s_a.point, m)
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
    for m, move_squares in SquareSweep(table).moves(sigmas=False):
        for square in move_squares:
            lhs, rhs = square.sides
            for eps in (1, -1):
                expected = _bilinear_oracle(square.taus, m, eps)
                assert lhs - eps * rhs == bilinear_residual(*square.taus, m, eps) == expected
            squares += 1
    assert squares == 3840


@pytest.mark.parametrize("table", TABLES, indirect=True)
def test_sigma_kernel_is_the_residual_and_minus_the_f4_step_residual(table):
    name, table = table
    steps, degenerate, nonzero = [], 0, 0
    squares = [(m, square) for m, move_squares in SquareSweep(table).moves(sides=False)
               for square in move_squares if square.sigmas is not None]
    for m, square in squares:
        s_a, s_ik, s_ij, s_jk = s = square.sigmas
        R = square.residual
        public = _or_degenerate(sigma_backlund_residual, *s, m)
        stepped = _or_degenerate(sigma_step, s_a, s_ik, s_ij, m)
        oracle = _sigma_oracle(s, m)
        # the same squares are degenerate on every path
        assert (R is None) == (public is None) == (stepped is None) == (oracle is None)
        if R is None:
            degenerate += 1
            continue
        diff = sigma_difference(stepped, s_jk)
        assert R == public == oracle and diff == -R
        assert stepped.point == s_jk.point
        nonzero += not R.is_zero()
        steps.append({"check": "sigma-step", "move": [m.i, m.j, m.k],
                      "base": s_a.point.to_json(), "ok": diff.is_zero(),
                      **({} if diff.is_zero() else {"terms": sum(1 for c in diff.coeffs if c)})})
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
    square's (L, P) and R must equal those computed for it directly."""
    name, table = table
    direct = SquareSweep(table)
    sigma = {p: sigma_of(table.get(p)) for p in table.nonzero_points()}
    squares, nonzero = 0, {True: 0, False: 0}
    for m, move_squares in SquareSweep(table).moves():
        for square in move_squares:
            assert square.sides == direct.bilinear_sides(m, square.taus)
            if any(tau.is_zero() for tau in square.taus):
                assert square.sigmas is square.residual is None
                continue
            assert square.sigmas == tuple(sigma[tau.point] for tau in square.taus)
            R = _or_degenerate(direct.sigma_residual, m, square.sigmas)
            assert square.residual == R
            if R is not None and not R.is_zero():
                nonzero[m.i < m.k] += 1
            squares += 1
    assert squares == (SQUARES[TABLES.index(name)][0] if name in TABLES else 702)
    # the perturbed table's nonzero residuals sit on computed and mirrored
    # squares alike
    assert nonzero == ({True: 27, False: 27} if name.startswith("r2+") else
                       {True: 0, False: 0})
