"""The correspondence between the 6-index lattice and the F4(1) root lattice.

Lattice points map linearly onto 5-vectors (v0, v1..v4) whose last four
entries are all integers or all half-odd-integers; the images of the moves
d_i - d_j (j <= 3) are, up to translations by e0, the short roots.  The
executable content: the simple-root dictionary, the three short-root sets,
single sigma steps (each the sigma-level relation of one move) and Toda
steps driven from the A5-side engine, and the symmetry actions (parameter
permutations with even sign flips, and the frame/time relabelings inducing
Moebius maps of t).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .backlund import SigmaFn, sigma_edge, sigma_square, toda_product
from .exactalg import LaurentPoly
from .grassmann import TauT, TauTable, tau_det
from .lattice import LatticePoint, MoveIJK, big_GH, move_vector, r_weight, twice_v


class OddSignCount(ValueError):
    """A parameter symmetry was requested with an odd number of sign flips."""


class MissingPreimage(KeyError):
    """An F4 vector arrived without its 6-index preimage."""


def _halves(x: int) -> str:
    """x / 2 in lowest terms, as Fraction prints it."""
    return f"{x}/2" if x % 2 else str(x // 2)


@dataclass(frozen=True)
class F4Vector:
    """Point of the affine lattice: integer v0, v1..v4 all integral or all
    half-odd-integral, stored doubled as the integers twice = (2v1, .., 2v4),
    all even or all odd."""

    v0: int
    twice: tuple[int, int, int, int]

    def __post_init__(self):
        w = self.twice
        if type(self.v0) is not int or len(w) != 4 or any(type(x) is not int for x in w):
            raise ValueError(f"an F4Vector takes an integer v0 and four integer doubled"
                             f" entries, got ({self.v0!r}; {w!r})")
        if len({x % 2 for x in w}) != 1:
            raise ValueError(f"entries of {self} mix integers and half-odd-integers")

    def __add__(self, other: "F4Vector") -> "F4Vector":
        return F4Vector(self.v0 + other.v0, tuple(map(operator.add, self.twice, other.twice)))

    def __sub__(self, other: "F4Vector") -> "F4Vector":
        return F4Vector(self.v0 - other.v0, tuple(map(operator.sub, self.twice, other.twice)))

    def __neg__(self) -> "F4Vector":
        return F4Vector(-self.v0, tuple(-x for x in self.twice))

    def finite_norm(self) -> Fraction:
        """Squared length of (v1..v4); the v0 direction is null."""
        return Fraction(sum(x * x for x in self.twice), 4)

    def to_json(self) -> list:
        return [self.v0] + [_halves(x) for x in self.twice]

    def __str__(self):
        return f"({self.v0}; " + ", ".join(_halves(x) for x in self.twice) + ")"


def a5_to_f4(p: LatticePoint) -> F4Vector:
    """v0 = a1 and (v1..v4) the point's Painleve VI parameters, v_i =
    (a1+a3)/2 + a_{3+i}, v4 = (a1-a3)/2 (lattice.twice_v)."""
    return F4Vector(p.alpha[0], twice_v(p.alpha))


E0_F4 = F4Vector(1, (0, 0, 0, 0))


# ---------------------------------------------------------------------------
# simple roots and short-root sets
# ---------------------------------------------------------------------------

# roots in doubled coordinates
SIMPLE_ROOT_TABLE: tuple[tuple[F4Vector, LatticePoint], ...] = (
    (F4Vector(1, (-2, -2, 0, 0)), LatticePoint((1, 3, 1, -2, -2, -1))),      # e0 - e1 - e2
    (F4Vector(0, (0, 2, -2, 0)), LatticePoint((0, 0, 0, 0, 1, -1))),         # e2 - e3
    (F4Vector(0, (0, 0, 2, -2)), LatticePoint((0, 0, 2, -1, -1, 0))),        # e3 - e4
    (F4Vector(0, (0, 0, 0, 2)), LatticePoint((0, -1, -2, 1, 1, 1))),         # e4
    (F4Vector(0, (1, -1, -1, -1)), LatticePoint((0, 1, 1, 0, -1, -1))),      # (e1-e2-e3-e4)/2
)


def simple_roots_check() -> list[dict]:
    """Verify each tabulated simple root against the image of its preimage."""
    report = []
    for target, preimage in SIMPLE_ROOT_TABLE:
        image = a5_to_f4(preimage)
        report.append(
            {
                "root": target.to_json(),
                "preimage": preimage.to_json(),
                "image": image.to_json(),
                "match": image == target,
            }
        )
    return report


@dataclass(frozen=True)
class ShortRootSet:
    """One of the three five-element short-root sets, with its move preimages."""

    label: int
    elements: tuple[F4Vector, ...]
    preimages: tuple[LatticePoint, ...]


def short_sets() -> tuple[ShortRootSet, ShortRootSet, ShortRootSet]:
    """The sets S1, S2, S3: images of the moves with fixed middle index.

    S_j collects the five images of d_i - d_j (i != j); S1 is listed with the
    opposite overall sign (images of d_1 - d_i), matching how the union of
    +-S_j covers all short roots.
    """
    sets = []
    for label, orient in ((1, -1), (2, 1), (3, 1)):
        pres = tuple(move_vector(i, label) if orient == 1 else move_vector(label, i)
                     for i in range(1, 7) if i != label)
        sets.append(ShortRootSet(label, tuple(a5_to_f4(p) for p in pres), pres))
    return tuple(sets)


# ---------------------------------------------------------------------------
# propositions as executable steps
# ---------------------------------------------------------------------------

def sigma_step(s_a: SigmaFn, s_ik: SigmaFn, s_known: SigmaFn, m: MoveIJK) -> SigmaFn:
    """Sigma at one of the ij/jk corners of move m at s_a.point, from the other three.

    A short-root step along (gamma1, gamma2) in S_j is the sigma-level
    relation of the move (i, j, k) with d_i - d_k = pre(gamma1) - pre(gamma2):
    sigma_ij + sigma_jk = sigma_a + sigma_ik + G + t(t-1) K'/K.  s_known sits
    at the ij or the jk corner, and sigma at the other corner is returned,
    unreduced: with Kn, S of backlund.sigma_square, K = Kn/Kd and
    s_known = Nk/Dk, its numerator is S Dk - Nk Kd Kn and its denominator
    Kd Kn Dk.
    """
    base = s_a.point
    p_ij, p_jk = base + move_vector(m.i, m.j), base + move_vector(m.j, m.k)
    if s_ik.point != base + move_vector(m.i, m.k):
        raise MissingPreimage(f"{s_ik.point} is not the ik corner of {m} at {base}")
    if s_known.point not in (p_ij, p_jk):
        raise MissingPreimage(f"{s_known.point} is no ij/jk corner of {m} at {base}")
    target = p_jk if s_known.point == p_ij else p_ij
    edge = sigma_edge(s_a, s_ik)
    Kn, S = sigma_square(edge, *big_GH(base, m))
    den = edge[0] * Kn
    return SigmaFn(target, S * s_known.den - s_known.num * den, den * s_known.den)


# Toda steps: the three admissible gamma vectors and their neighbor pairs.
TODA_GAMMAS: tuple[tuple[F4Vector, tuple[int, int]], ...] = (
    (a5_to_f4(move_vector(1, 2)), (1, 2)),
    (a5_to_f4(move_vector(3, 2)), (2, 3)),
    (a5_to_f4(move_vector(1, 3)), (1, 3)),
)


def toda_gamma_table() -> list[dict]:
    """Images of the six charge moves, recording which Toda line each drives."""
    out = []
    for a, b in ((1, 2), (1, 3), (2, 3)):
        for sign in (1, -1):
            move = move_vector(a, b) if sign == 1 else move_vector(b, a)
            out.append({
                "move": move.to_json(),
                "image": a5_to_f4(move).to_json(),
                "pair": [a, b],
            })
    return out


def toda_step_f4(t_beta: TauT, t_known: TauT, gamma: F4Vector) -> TauT:
    """Given tau at beta and at beta +- gamma, produce tau at beta -+ gamma.

    gamma must be one of the three tabulated short vectors; the step divides
    the Toda product at beta by the known neighbor, exactly.
    """
    for vec, pair in TODA_GAMMAS:
        if gamma in (vec, -vec):
            break
    else:
        raise ValueError(f"{gamma} is not one of the Toda step vectors")
    if t_beta.is_zero():
        raise ZeroDivisionError("Toda step needs a nonzero center tau")
    a, b = pair
    v = move_vector(a, b)
    if t_known.point == t_beta.point + v:
        target = t_beta.point - v
    elif t_known.point == t_beta.point - v:
        target = t_beta.point + v
    else:
        raise MissingPreimage(f"{t_known.point} is not a {pair} neighbor of {t_beta.point}")
    product = toda_product(t_beta, pair)
    quotient = product.exact_divide(t_known.T)
    return TauT(target, quotient, r_weight(target))


# ---------------------------------------------------------------------------
# symmetry actions
# ---------------------------------------------------------------------------

def d4_action(w: tuple[int, int, int, int], perm: tuple[int, int, int, int],
              signs: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Permute the four parameters and flip an even number of signs; the
    parameters may be held doubled, as w = (2 v1, .., 2 v4)."""
    if sorted(perm) != [0, 1, 2, 3]:
        raise ValueError(f"{perm} is not a permutation of 0..3")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +-1")
    if signs.count(-1) % 2:
        raise OddSignCount(f"odd number of sign flips in {signs}")
    return tuple(signs[i] * w[perm[i]] for i in range(4))


# The Moebius map named for each relabeling sends t' back to t, where
# 1/t' = (x3 - x1)/(x2 - x1) at x[perm[a]] = (0, 1, 1/t)[a] (component_permute);
# for the two 3-cycles it is the inverse of t -> t'.
PERMUTATION_T_MAPS = {
    (0, 1, 2): "t",
    (1, 0, 2): "t/(t-1)",
    (2, 1, 0): "1-t",
    (0, 2, 1): "1/t",
    (1, 2, 0): "(t-1)/t",
    (2, 0, 1): "1/(1-t)",
}


def permute_point(p: LatticePoint, perm: tuple[int, int, int]) -> LatticePoint:
    """Permute charge and mu parts simultaneously: entry a of the new point
    is entry perm[a] of the old one, per block."""
    a = p.alpha
    return LatticePoint(
        tuple(a[perm[i]] for i in range(3)) + tuple(a[3 + perm[i]] for i in range(3))
    )


def _lift(tau: TauT, x) -> LaurentPoly | None:
    """P(x) = sum_n c_-n (x2 - x1)^(R-n) (x3 - x1)^n for tau.T = sum_n c_n t^n of
    weight R: the homogeneous, translation-invariant polynomial of degree R
    whose value at (0, 1, 1/t) is tau.T, at Laurent polynomials x.  None when
    tau.T has a power of t outside -R..0, which no such polynomial gives."""
    T, weight = tau.T, tau.weight
    if T.is_zero():
        return T
    if T.min_degree < -weight or T.degree > 0:
        return None
    d2, d3 = x[1] - x[0], x[2] - x[0]
    p2, p3 = [LaurentPoly.constant(1)], [LaurentPoly.constant(1)]
    for _ in range(weight):
        p2.append(p2[-1] * d2)
        p3.append(p3[-1] * d3)
    total = LaurentPoly.zero()
    for i, c in enumerate(T.coeffs):
        n = -(T.min_degree + i)
        if c:
            total += p2[weight - n] * p3[n] * c
    return total * Fraction(1, T.den)


def component_permute(perm: tuple[int, int, int], table: TauTable):
    """Tau table for the relabeled frame, with the per-point comparison signs.

    The frame rows and columns are relabeled together by perm, and every
    lattice point p has its charge and mu parts permuted to q.  The tau
    polynomials satisfy P'_q(y) = +-P_p(x) with x[perm[a]] = y[a], so at
    y = (0, 1, 1/t) the relabeled tau T'_q(t), from tau_det on the relabeled
    frame, is +-(x2 - x1)^R T_p(t') with 1/t' = (x3 - x1)/(x2 - x1): the
    stored T_p lifted to x (_lift), a Laurent polynomial in t.  The sign of p
    is 1 or -1 when T'_q is +- the lift, 0 for a mismatch, and None when both
    are zero.  The named Moebius map of PERMUTATION_T_MAPS sends t' to t.
    """
    if table.frame is None:
        raise ValueError("table carries no frame")
    new_frame = table.frame.permuted(perm)
    new_table = TauTable(new_frame, radius=table.radius)
    y = (LaurentPoly.zero(), LaurentPoly.constant(1), LaurentPoly.monomial(1, -1))
    x = [y[perm.index(b)] for b in range(3)]
    signs: dict[LatticePoint, int | None] = {}
    for p in table.points():
        q = permute_point(p, perm)
        new = new_table.entries[q] = tau_det(q, new_frame)
        old = _lift(table.get(p), x)
        if old is None:
            signs[p] = 0
        elif old.is_zero():
            signs[p] = None if new.is_zero() else 0
        elif new.T == old:
            signs[p] = 1
        elif new.T == -old:
            signs[p] = -1
        else:
            signs[p] = 0
    return new_table, signs, PERMUTATION_T_MAPS[tuple(perm)]
