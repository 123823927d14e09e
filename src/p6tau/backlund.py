"""The identity engine on tau tables.

Everything here is a verifier or a solver for one of the exact relations the
tau family satisfies: the three Toda lines, the bilinear relation for a move
(i, j, k) with its calibrated sign table, the two six-point product
identities, the sigma function with its second-order quadratic residual, and
the sigma-level relation with first-order corrections G and H.  Residuals are
exact Laurent polynomials, or, for the sigma-level identities, polynomials in t
with every denominator cleared (each residual's docstring names its clearing
factor); a relation holds iff its residual is literally zero.

Sweeps find their configurations (move squares, six-point stencils, Toda
neighbours) through a PointIndex, which keys every point of one table by an
integer, so that a step along a root is an integer addition.  The move
squares of a table are walked once, by a SquareSweep: the bilinear sides
(L, P) and sigma-square residual of each set of four points are computed
there once, for every suite that reads them and for both move squares on
those points.  No sigma is computed there: K vanishes exactly when L does, and
the residual is a multiple of the Wronskian L' P - L P' (sigma_residual_of_sides).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exactalg import LaurentPoly, poly_gcd
from .grassmann import TauT, TauTable
from .lattice import (
    LatticePoint,
    MoveIJK,
    all_moves,
    big_GH,
    c5_c6,
    delta,
    move_vector,
    n_coeff,
    r_weight,
    twice_v,
)


class ConfigurationMismatch(ValueError):
    """The four tau points do not form the move's parallelogram."""


class ZeroTau(ArithmeticError):
    """A sigma function was requested for the zero tau."""


class DegenerateK(ArithmeticError):
    """The log-derivative argument K vanishes identically."""


class NoConsistentSign(ArithmeticError):
    """No single sign makes the bilinear relation hold for a move."""


class InsufficientData(ValueError):
    """The table held no informative configuration for a move."""


T_POLY = LaurentPoly(1, (1,))           # t
T_SQUARED = LaurentPoly(2, (1,))
T_MINUS_1 = LaurentPoly(0, (-1, 1))
TT1 = LaurentPoly(1, (-1, 1))          # t(t-1)
TWO_T_MINUS_1 = LaurentPoly(0, (-1, 2))
ONE_MINUS_2T = -TWO_T_MINUS_1
TT1_SQUARED = TT1 * TT1

# directional derivatives d_j = b_j(t) d/dt: b1 = t(t-1), b2 = t, b3 = -t^2
B_POLYS = {1: TT1, 2: T_POLY, 3: -T_SQUARED}
# t^2 (t-1)^2 / b_j
WRONSKIAN_FACTORS = {1: TT1, 2: TT1 * T_MINUS_1, 3: -(T_MINUS_1 * T_MINUS_1)}


@dataclass(frozen=True)
class SigmaFn:
    """Sigma function num/den of a nonzero tau: t(t-1) dlogT/dt + c5(t-1) - c6/2.

    The quotient is not reduced: compare two sigmas with sigma_difference.
    """

    point: LatticePoint
    num: LaurentPoly
    den: LaurentPoly

    def to_json(self) -> dict:
        """num/den in lowest terms with a monic denominator; zero is 0/1."""
        if self.num.is_zero():
            num, den = self.num, LaurentPoly.constant(1)
        else:
            g = poly_gcd(self.num, self.den)
            num, den = self.num.exact_divide(g), self.den.exact_divide(g)
            num, den = num * (1 / den.leading()), den.monic()
        return {"num": num.to_degree_map(), "den": den.to_degree_map()}


def sigma_difference(a: SigmaFn, b: SigmaFn) -> LaurentPoly:
    """a.num b.den - b.num a.den: zero iff the two sigmas are equal."""
    return a.num * b.den - b.num * a.den


@dataclass(frozen=True)
class EpsTable:
    """Calibrated sign for each valid move triple (i, j, k)."""

    signs: dict

    def __getitem__(self, key) -> int:
        if isinstance(key, MoveIJK):
            key = (key.i, key.j, key.k)
        return self.signs[key]

    def to_json(self) -> dict[str, int]:
        return {f"{i},{j},{k}": s for (i, j, k), s in sorted(self.signs.items())}


# ---------------------------------------------------------------------------
# integer point keys and move squares
# ---------------------------------------------------------------------------

class PointIndex:
    """Injective integer keys for the points of one table, so that a unit
    move is one integer addition and a lookup one dict.get.

    key(a) = sum_r a_r W^(6-r) is the number with the balanced base-W digits
    a_1..a_6, W = 2B + 1, where B exceeds every coordinate of the table by 2.
    It is additive, key(p + v) = key(p) + key(v), injective on the vectors
    whose entries lie in [-B, B], which holds every point within two unit
    steps of the table, and ordered like the points' coordinate tuples.  An
    index reads the table's entries once; sweeps build their own, so a table
    that grew since can never be read through a stale one.
    """

    def __init__(self, table: TauTable):
        bound = 2 + max((abs(a) for p in table.entries for a in p.alpha), default=0)
        self.width = 2 * bound + 1
        self.taus: dict[int, TauT] = {self.key(p.alpha): tau for p, tau in table.entries.items()}
        self.bases = sorted(self.taus)  # table.points() order

    def key(self, vector) -> int:
        k = 0
        for a in vector:
            k = k * self.width + a
        return k

    def shift(self, i: int, k: int) -> int:
        """key of the move vector delta_i - delta_k."""
        return self.width ** (6 - i) - self.width ** (6 - k)


def iter_move_squares(index: PointIndex, moves=None):
    """(m, (a, ik, ij, jk)) with the keys of the four corners, for every move
    square whose four taus the indexed table holds.  Moves come in the order
    given (all_moves() by default), bases in table.points() order."""
    taus = index.taus
    for m in all_moves() if moves is None else moves:
        v_ik, v_ij, v_jk = index.shift(m.i, m.k), index.shift(m.i, m.j), index.shift(m.j, m.k)
        for a in index.bases:
            if a + v_ik in taus and a + v_ij in taus and a + v_jk in taus:
                yield m, (a, a + v_ik, a + v_ij, a + v_jk)


def iter_move_configurations(table: TauTable, m: MoveIJK, index: PointIndex | None = None):
    """All (Ta, Tik, Tij, Tjk) quadruples of the move fully inside the table,
    bases in table.points() order.  A sweep over several moves passes the
    table's index, built once."""
    if index is None:
        index = PointIndex(table)
    taus = index.taus
    for _, keys in iter_move_squares(index, (m,)):
        yield tuple(taus[k] for k in keys)


# ---------------------------------------------------------------------------
# Toda lines
# ---------------------------------------------------------------------------

TODA_PAIRS = ((1, 2), (1, 3), (2, 3))


def toda_product(tau: TauT, pair: tuple[int, int]) -> LaurentPoly:
    """Left side of the Toda line for the given neighbor pair, evaluated at tau.

    Contract: equals T(p + d_a - d_b) * T(p + d_b - d_a) for pair (a, b).
    All three lines are (half the) second Hirota derivative D_1^(a) D_1^(b)
    applied to tau*tau and pushed through the t-substitution; the leading
    coefficient of T*T'' is b_a(t) b_b(t), which for the pair (2, 3) is -t^3
    (t * -t^2), not +t^3.
    """
    T = tau.T
    dT = T.derivative()
    ddT = dT.derivative()
    if pair == (1, 2):
        return (tau.weight * T * T - T_MINUS_1 * T_SQUARED * dT * dT
                + T_SQUARED * T * (dT + T_MINUS_1 * ddT))
    if pair == (1, 3):
        return T_SQUARED * (TT1 * dT * dT + T * (ONE_MINUS_2T * dT - TT1 * ddT))
    if pair == (2, 3):
        return T_SQUARED * (T_POLY * dT * dT - T * (dT + T_POLY * ddT))
    raise ValueError(f"pair must be one of {TODA_PAIRS}, got {pair}")


# ---------------------------------------------------------------------------
# bilinear relation for a move
# ---------------------------------------------------------------------------

def _check_configuration(a, ik, ij, jk, m: MoveIJK):
    """Raise ConfigurationMismatch unless the four (tau or sigma) corners sit
    at the move's square on a.point."""
    base = a.point
    for corner, (x, y) in ((ik, (m.i, m.k)), (ij, (m.i, m.j)), (jk, (m.j, m.k))):
        if corner.point != base + move_vector(x, y):
            raise ConfigurationMismatch(f"{corner.point} is not the corner {base} + d{x}"
                                        f" - d{y} of move {m}")


def bilinear_edge(T_a: LaurentPoly, T_ik: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """(Tik Ta' - Ta Tik', Ta Tik): the terms of the left side shared by the
    moves (i, j, k) of one edge (a, ik)."""
    return T_ik * T_a.derivative() - T_a * T_ik.derivative(), T_a * T_ik


def bilinear_combination(t_a: TauT, t_ik: TauT, m: MoveIJK) -> LaurentPoly:
    """Tik d_j(Ta) - Ta d_j(Tik) + n_j Ta Tik, the move's left side, which is
    b_j (Tik Ta' - Ta Tik') + n_j Ta Tik."""
    wronskian, product = bilinear_edge(t_a.T, t_ik.T)
    return B_POLYS[m.j] * wronskian + n_coeff(t_a.point, m) * product


def bilinear_residual(t_a: TauT, t_ik: TauT, t_ij: TauT, t_jk: TauT,
                      m: MoveIJK, eps: int) -> LaurentPoly:
    """Left side minus eps * Tij * Tjk; zero iff the relation holds with eps."""
    _check_configuration(t_a, t_ik, t_ij, t_jk, m)
    return bilinear_combination(t_a, t_ik, m) - eps * (t_ij.T * t_jk.T)


def solve_fourth(t_a: TauT, t_ik: TauT, t_ij: TauT, m: MoveIJK, eps: int) -> TauT:
    """Solve the bilinear relation for the fourth tau, by exact division."""
    if t_ij.T.is_zero():
        raise ZeroDivisionError("cannot divide by the zero tau")
    base = t_a.point
    if t_ik.point != base + move_vector(m.i, m.k) or t_ij.point != base + move_vector(m.i, m.j):
        raise ConfigurationMismatch(f"inputs do not match move {m} at {base}")
    target = base + move_vector(m.j, m.k)
    numerator = bilinear_combination(t_a, t_ik, m)
    quotient = numerator.exact_divide(eps * t_ij.T)
    return TauT(target, quotient, r_weight(target))


# ---------------------------------------------------------------------------
# six-point product identities
# ---------------------------------------------------------------------------

def eps_pair(a: int, b: int) -> int:
    """Ordering sign for two unit charges: +1 when a <= b, else -1."""
    return 1 if a <= b else -1


def eps_block_inversions(i: int, j: int, k: int) -> int:
    """Closed form of the move sign: parity of same-block inversions.

    Count the pairs of the word (i, j, k) that are out of order and live in
    the same index block ({1,2,3} or {4,5,6}); the sign is -1 for an odd
    count.  `calibrate_eps` recovers exactly this table from tau data; the
    closed form is kept so the calibration has something to be checked
    against.
    """
    word = (i, j, k)
    inversions = 0
    for a in range(3):
        for b in range(a + 1, 3):
            x, y = word[a], word[b]
            if (x <= 3) == (y <= 3) and y < x:
                inversions += 1
    return -1 if inversions % 2 else 1


class MiwaStencil(NamedTuple):
    """One six-point residual  s1 A1 B1 + s2 A2 B2 + s3 A3 B3,  where each
    factor is the tau at base + d_a + d_b for its pair (a, b) of `pairs`
    (A1, B1, A2, B2, A3, B3).  `indices` is (ell,) for the first identity and
    (k, ell, i, j) for the second."""

    identity: int
    indices: tuple[int, ...]
    signs: tuple[int, int, int]
    pairs: tuple[tuple[int, int], ...]


def _first_stencil(ell: int) -> MiwaStencil:
    return MiwaStencil(1, (ell,), (1, -1, 1),
                       ((2, 3), (1, ell), (1, 3), (2, ell), (1, 2), (3, ell)))


def _second_stencil(k: int, ell: int, i: int, j: int) -> MiwaStencil:
    return MiwaStencil(2, (k, ell, i, j),
                       (eps_pair(k, ell), eps_pair(ell, k), eps_pair(j - 3, i - 3)),
                       ((ell, i), (k, j), (k, i), (ell, j), (k, ell), (i, j)))


# every six-point residual at one base, in the order the miwa suite checks them
MIWA_STENCILS = tuple(
    [_first_stencil(ell) for ell in (4, 5, 6)]
    + [_second_stencil(k, ell, i, j)
       for k, ell in itertools.permutations((1, 2, 3), 2)
       for i, j in itertools.permutations((4, 5, 6), 2)]
)


def stencil_residual(stencil: MiwaStencil, polys) -> LaurentPoly:
    """The stencil's residual from its six tau polynomials (A1, B1, .., B3)."""
    s1, s2, s3 = stencil.signs
    A1, B1, A2, B2, A3, B3 = polys
    return s1 * (A1 * B1) + s2 * (A2 * B2) + s3 * (A3 * B3)


def _six_point_lookup(table: TauTable, base):
    """at(i, j): the tau at base + delta_i + delta_j.  base is a raw 6-vector
    whose entries sum to -2, checked here once, so every such point is a
    lattice point by construction."""
    b = tuple(int(x) for x in base)
    if len(b) != 6 or sum(b) != -2:
        raise ValueError(f"base {b} is not six entries summing to -2")

    def at(i: int, j: int) -> LaurentPoly:
        shifted = list(b)
        shifted[i - 1] += 1
        shifted[j - 1] += 1
        return table.get(LatticePoint._unchecked(tuple(shifted))).T

    return at


def miwa_first_residual(table: TauTable, base, ell: int) -> LaurentPoly:
    """Six-point residual with one index ell in 4..6; base is a raw 6-vector
    whose entries sum to -2."""
    if not 4 <= ell <= 6:
        raise ValueError(f"ell must lie in 4..6, got {ell}")
    at = _six_point_lookup(table, base)
    stencil = _first_stencil(ell)
    return stencil_residual(stencil, [at(*pair) for pair in stencil.pairs])


def miwa_second_residual(table: TauTable, base, k: int, ell: int, i: int, j: int) -> LaurentPoly:
    """Six-point residual with k != ell in 1..3 and i != j in 4..6."""
    if not (1 <= k <= 3 and 1 <= ell <= 3 and k != ell):
        raise ValueError(f"need distinct k, ell in 1..3, got ({k},{ell})")
    if not (4 <= i <= 6 and 4 <= j <= 6 and i != j):
        raise ValueError(f"need distinct i, j in 4..6, got ({i},{j})")
    at = _six_point_lookup(table, base)
    stencil = _second_stencil(k, ell, i, j)
    return stencil_residual(stencil, [at(*pair) for pair in stencil.pairs])


def iter_miwa_stencils(index: PointIndex, bases):
    """(base, stencil, polys) for every stencil of MIWA_STENCILS at every
    base whose six taus the indexed table holds, polys being those six tau
    polynomials in the stencil's order.  The 15 points base + d_a + d_b are
    looked up once per base; a stencil with an absent tau is skipped."""
    units = [index.key(delta(i)) for i in range(1, 7)]
    taus = index.taus
    for base in bases:
        kb = index.key(base)
        found = {}
        for a, b in itertools.combinations(range(1, 7), 2):
            tau = taus.get(kb + units[a - 1] + units[b - 1])
            if tau is not None:
                found[a, b] = found[b, a] = tau.T
        for stencil in MIWA_STENCILS:
            if all(pair in found for pair in stencil.pairs):
                yield base, stencil, [found[pair] for pair in stencil.pairs]


# ---------------------------------------------------------------------------
# sigma functions and the quadratic second-order residual
# ---------------------------------------------------------------------------

def sigma_of(tau: TauT) -> SigmaFn:
    """sigma = t(t-1) T'/T + c5 (t-1) - c6/2 as num/den, with T = t^m P:

    num = t(t-1) P' + ((t-1)(m + c5) - c6/2) P and den = P.
    """
    if tau.T.is_zero():
        raise ZeroTau(f"no sigma at {tau.point}: tau is zero")
    m, P = tau.T.split()
    c5, c6 = c5_c6(tau.point.alpha)                       # 4 c5, 4 c6
    linear = LaurentPoly(0, (-8 * m - 2 * c5 - c6, 8 * m + 2 * c5), 8)
    return SigmaFn(tau.point, TT1 * P.derivative() + linear * P, P)


def via_params(w) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Painleve VI coefficients (alpha, beta, gamma, delta) from the doubled
    parameters w = (2 v1, .., 2 v4): alpha = (v3 - v4)^2/2, beta =
    -(v1 + v2)^2/2, gamma = (v1 - v2)^2/2, delta = (1 - (v3 + v4 + 1)^2)/2."""
    w1, w2, w3, w4 = w
    return (Fraction((w3 - w4) ** 2, 8), Fraction(-(w1 + w2) ** 2, 8),
            Fraction((w1 - w2) ** 2, 8), Fraction(4 - (w3 + w4 + 2) ** 2, 8))


def jmo_residual_with_v(N: LaurentPoly, D: LaurentPoly, w) -> LaurentPoly:
    """Residual of the second-order quadratic sigma equation for sigma = N/D,
    given the doubled parameters w = (2 v1, .., 2 v4) (lattice.twice_v):

    sigma'(t(t-1) sigma'')^2 + (sigma'[2 sigma - (2t-1) sigma'] + v1v2v3v4)^2
    - prod_k (sigma' + v_k^2), times 256 D^8, which clears the halves of v.
    """
    dD = D.derivative()
    A = N.derivative() * D - N * dD                      # sigma' = A / D^2
    B = A.derivative() * D - 2 * A * dD                  # sigma'' = B / D^3
    D2 = D * D
    D4 = D2 * D2
    middle = 32 * A * N * D - 16 * TWO_T_MINUS_1 * (A * A) + (w[0] * w[1] * w[2] * w[3]) * D4
    lhs = 256 * TT1_SQUARED * A * (B * B) + middle * middle
    A4 = 4 * A
    f1, f2, f3, f4 = (A4 + (x * x) * D2 for x in w)
    return lhs - f1 * f2 * f3 * f4


def jmo_residual(s: SigmaFn) -> LaurentPoly:
    """Residual of the sigma equation at s.point's own parameters, times
    256 s.den^8."""
    return jmo_residual_with_v(s.num, s.den, twice_v(s.point.alpha))


# ---------------------------------------------------------------------------
# sigma-level relation for a move
# ---------------------------------------------------------------------------

def sigma_edge(s_a: SigmaFn, s_ik: SigmaFn) -> tuple[LaurentPoly, ...]:
    """The terms of the sigma-level relation shared by every move square on
    the edge (a, ik): Kd = Da Dik, F = Na Dik + Nik Da, E = Na Dik - Nik Da,
    the Wronskian E' Kd - E Kd' and Kd^2."""
    Kd = s_a.den * s_ik.den
    na_dik, nik_da = s_a.num * s_ik.den, s_ik.num * s_a.den
    E = na_dik - nik_da
    return Kd, na_dik + nik_da, E, E.derivative() * Kd - E * Kd.derivative(), Kd * Kd


def sigma_square(edge, G: LaurentPoly, H: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Kn and S of one move square from its edge's terms and the move's G, H:
    K = sa - sik + H = Kn/Kd with Kn = E + H Kd, and
    S = (F + G Kd) Kn + t(t-1)(Kn' Kd - Kn Kd'), so that the relation
    sij + sjk = sa + sik + G + t(t-1) K'/K reads (sij + sjk) Kd Kn = S.  H is
    linear, so Kn' Kd - Kn Kd' = (E' Kd - E Kd') + H' Kd^2.  Raises
    DegenerateK when K vanishes, since the relation divides by it.
    """
    Kd, F, E, wronskian, Kd2 = edge
    Kn = E + H * Kd
    if Kn.is_zero():
        raise DegenerateK("K vanishes on the move square")
    return Kn, (F + G * Kd) * Kn + TT1 * (wronskian + H.derivative() * Kd2)


def sigma_backlund_residual(s_a: SigmaFn, s_ik: SigmaFn, s_ij: SigmaFn,
                            s_jk: SigmaFn, m: MoveIJK) -> LaurentPoly:
    """Denominator-free residual of the sigma-level relation:

    (sij + sjk - sik - sa - G) * K - t(t-1) * K',  K = sa - sik + H = Kn/Kd,

    times Dij Djk Kd^2, where D is the denominator of each sigma: with Kn and
    S of sigma_square, R = (Nij Djk + Njk Dij) Kd Kn - S Dij Djk.  Zero iff
    the relation holds; the log derivative never appears as such.
    """
    _check_configuration(s_a, s_ik, s_ij, s_jk, m)
    edge = sigma_edge(s_a, s_ik)
    Kn, S = sigma_square(edge, *big_GH(s_a.point, m))
    return (s_ij.num * s_jk.den + s_jk.num * s_ij.den) * (edge[0] * Kn) - S * (s_ij.den * s_jk.den)


def sigma_residual_of_sides(m: MoveIJK, taus, L: LaurentPoly, P: LaurentPoly) -> LaurentPoly:
    """sigma_backlund_residual of the sigmas of four nonzero taus (Ta, Tik,
    Tij, Tjk), from their bilinear sides (L, P): R = -t^k t^2(t-1)^2/b_j
    Ta Tik (L' P - L P'), k = -(m_ij + m_jk) - 2 (m_a + m_ik), m_p the
    min_degree of T_p.  The parts kappa_p = c5 (t-1) - c6/2 of the sigmas
    give kappa_a - kappa_ik + H = n_j t(t-1)/b_j, so K = sa - sik + H =
    (t(t-1)/b_j) L/(Ta Tik) vanishes exactly when L does (DegenerateK); in
    t(t-1) K'/K the G and kappa terms cancel: the relation is L' P = L P'.
    """
    if L.is_zero():
        raise DegenerateK("K vanishes on the move square")
    W = L.derivative() * P - L * P.derivative()
    t_a, t_ik, t_ij, t_jk = (tau.T for tau in taus)
    k = -(t_ij.min_degree + t_jk.min_degree) - 2 * (t_a.min_degree + t_ik.min_degree)
    return LaurentPoly.monomial(-1, k) * WRONSKIAN_FACTORS[m.j] * (t_a * t_ik) * W


# ---------------------------------------------------------------------------
# one walk over the move squares of a table
# ---------------------------------------------------------------------------

class Square(NamedTuple):
    """One move square of a walk: its corners `taus` (Ta, Tik, Tij, Tjk), its
    bilinear `sides` (L, P), their `difference` L - eps P with the closed-form
    sign, and the sigma-square `residual` R when all four taus are nonzero,
    else None; None too where K vanishes, which is exactly where L = 0
    (sigma_residual_of_sides)."""

    taus: tuple
    sides: tuple
    difference: LaurentPoly
    residual: LaurentPoly | None

    def mirrored(self, taus) -> "Square":
        """The square of the mirror move (k, j, i) on the same four points,
        whose corners `taus` are this one's (ik, a, ij, jk): its sides are
        (-L, P), since swapping a and ik negates the Wronskian Tik Ta' - Ta
        Tik' and n; (k, j, i) reverses each of the odd number of same-block
        pairs of (i, j, k), so eps and the difference change sign; so does R."""
        (L, P), R = self.sides, self.residual
        return Square(taus, (-L, P), -self.difference, None if R is None else -R)


class SquareSweep:
    """One walk over the move squares of a table, which every move-square
    suite (bilinear, sigma-backlund, f4) and calibrate_eps read.  It computes
    each polynomial they share once: the bilinear_edge terms per edge
    (a, ik), dropped whenever the move's i changes, and per square its
    bilinear sides (L, P), L - eps P and its sigma-square residual R, with
    no sigma: R is zero where L = eps P, degenerate exactly where L = 0, and
    formed from the Wronskian L' P - L P' (sigma_residual_of_sides) else.

    The square of (i, j, k) at a and the square of (k, j, i) at a + d_i - d_k
    hold the same four points.  Only the first, i < k, is computed; it is
    kept until the walk reaches the move (k, j, i), whose square reads it
    negated (Square.mirrored), so each point set is computed once."""

    def __init__(self, table: TauTable):
        self.table, self.index = table, PointIndex(table)
        self._edges, self._i = {}, None

    def moves(self):
        """(m, squares) for every move in all_moves() order, squares being
        the Square of each of its configurations, bases in table.points()
        order.  A square of a move with i > k is its twin's, mirrored."""
        twins = {}     # mirror move -> {mirror's base point: twin Square}
        for m in all_moves():
            mirrored = twins.pop((m.i, m.j, m.k), {})
            keep = twins.setdefault((m.k, m.j, m.i), {}) if m.i < m.k else None
            closed = eps_block_inversions(m.i, m.j, m.k)
            squares = []
            for taus in iter_move_configurations(self.table, m, self.index):
                t_a, t_ik, t_ij, t_jk = taus
                twin = mirrored.pop(t_a.point, None)    # on the same four points
                if twin is not None:
                    squares.append(twin.mirrored(taus))
                    continue
                L, P = sides = self.bilinear_sides(m, taus)
                difference = L - P if closed == 1 else L + P
                R = None
                if not L.is_zero() and not any(tau.is_zero() for tau in taus):
                    # L = eps P makes the Wronskian, and so R, zero
                    R = (difference if difference.is_zero()
                         else sigma_residual_of_sides(m, taus, L, P))
                square = Square(taus, sides, difference, R)
                squares.append(square)
                if keep is not None:
                    keep[t_ik.point] = square
            yield m, squares

    def bilinear_sides(self, m: MoveIJK, taus) -> tuple[LaurentPoly, LaurentPoly]:
        """(L, P) of a square's taus (Ta, Tik, Tij, Tjk): L = bilinear_combination(Ta,
        Tik, m), with the integer n_j = (1, -1, 0)[j - 1] (R(ik) - R(a)), and P = Tij Tjk."""
        t_a, t_ik, t_ij, t_jk = taus
        if m.i != self._i:
            self._i, self._edges = m.i, {}
        key = (t_a.point, t_ik.point)
        edge = self._edges.get(key)
        if edge is None:
            edge = self._edges[key] = bilinear_edge(t_a.T, t_ik.T)
        wronskian, product = edge
        n = (1, -1, 0)[m.j - 1] * (t_ik.weight - t_a.weight)
        lhs = B_POLYS[m.j] * wronskian
        return (lhs + n * product if n else lhs), t_ij.T * t_jk.T


# ---------------------------------------------------------------------------
# sign calibration
# ---------------------------------------------------------------------------

def move_sign(m: MoveIJK, squares) -> int:
    """The one sign eps with L = eps P on every square of the move, from the
    squares' sides (L, P).

    A point-dependent sign or an unmatchable square raises NoConsistentSign,
    a move without a square of nonzero P InsufficientData.
    """
    sign = None
    for square in squares:
        lhs, rhs = square.sides
        if rhs.is_zero():
            if not lhs.is_zero():
                raise NoConsistentSign(
                    f"move {m} at {square.taus[0].point}: left side nonzero, product zero"
                )
            continue
        if lhs == rhs:
            found = 1
        elif lhs == -rhs:
            found = -1
        else:
            raise NoConsistentSign(f"move {m} at {square.taus[0].point}: no sign matches")
        if sign is None:
            sign = found
        elif sign != found:
            raise NoConsistentSign(f"move {m}: sign depends on the base point")
    if sign is None:
        raise InsufficientData(f"no informative configuration for move {m}")
    return sign


def calibrate_eps(table: TauTable) -> EpsTable:
    """Determine, per move, the unique sign making the bilinear relation hold.

    The sign must be the same for every base point; a point-dependent sign or
    an unmatchable configuration raises NoConsistentSign, an uninformative
    table (no configuration with a nonzero right side) InsufficientData.
    """
    return EpsTable({(m.i, m.j, m.k): move_sign(m, squares)
                     for m, squares in SquareSweep(table).moves()})
