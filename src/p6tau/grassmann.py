"""Tau functions from the 3-component polynomial Grassmannian.

A point family of the Grassmannian is selected by three generic row vectors
(``FrameMatrix``) and an integer mu triple.  Its semi-infinite wedge has a
finite "head" of frame-vector slots over a standard tail.  At first times
the tau of the point p = (c, mu), a polynomial P in x1, x2, x3, is one
finite determinant (Cauchy-Binet over the head): ``tau_det`` evaluates it at
x = (0, 1, 1/t), exactly and without fractions, to give the one-variable tau
``TauT``; ``TauTable`` holds one per lattice point.  Two exact guards run on
every point: the degree count of the matrix must be the weight R, so P is
homogeneous of degree R, and the matrix must satisfy D N = N T for
D = d1 + d2 + d3 and a nilpotent T, so P is translation invariant and the
substitution x1 = u, x2 = u + h, x3 = u + h/t leaves h^R T(t) with no u.

The wedge path computes the same P term by term and is the test oracle
for ``tau_det``; nothing outside its own section of this module calls it:
the head is expanded multilinearly into basis slots, every surviving term
is sorted into canonical order, and its occupied degrees per component are
decoded (Maya correspondence) into a charge triple plus three partitions.
Each decoded term bosonizes to a product of first-times Schur polynomials,
a single monomial by the hook-length formula s_lambda = x^|lambda| / H(lambda).
A charge sector is therefore a plain dict from exponent triple (d1, d2, d3)
to nonzero coefficient.  Its u-dependence cancels exactly when
(d1 + d2 + d3) kills the sector, and T(t) is then read off its terms free
of x1.

Sign bookkeeping, fixed once and pinned by the identity suites:

* slots (degree k, component a) are ordered lexicographically by (k, a),
  matching the standard tail  e1, e2, e3 at each level;
* a sorted term decomposes per component at the cost of a cross-component
  unshuffle parity, computed relative to the pure charge state of the same
  charges (the difference is a finite inversion count);
* the pure charge states themselves carry a cocycle sign ``_eta`` obtained
  by walking surface creations/annihilations component by component; it
  encodes the anticommuting charge-monomial ordering.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .exactalg import ZERO, LaurentPoly, as_scalar
from .lattice import (
    LatticePoint,
    ball,
    charges_with_weight_at_least_zero,
    r_weight,
)


class SingularFrame(ValueError):
    """The three frame rows are linearly dependent."""


class GaugeDependence(ArithmeticError):
    """u-terms failed to cancel in the t-specialization (convention bug)."""


class HomogeneityViolation(ArithmeticError):
    """A tau polynomial is not homogeneous of its advertised weight."""


class MissingTau(KeyError):
    """An identity sweep asked for a point the table does not hold."""


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

class FrameMatrix:
    """Three generic row vectors selecting the Grassmannian point family.

    The family only depends on the rows projectively, and the wedge words of
    different mu values share their standard-basis tails only when the rows
    are unimodular: with det != 1 the cross-family bilinear identities pick
    up determinant powers while the lattice translation identity does not,
    and no single rescaling of the tau family can absorb both.  The
    constructor therefore fixes the gauge det = 1 by dividing the first row
    by the determinant of the input; every stored row is in this gauge.
    """

    __slots__ = ("rows", "integer_rows")

    def __init__(self, rows):
        rs = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if len(rs) != 3 or any(len(r) != 3 for r in rs):
            raise ValueError("frame needs three rows of three entries")
        self.rows = rs
        d = self.det()
        if d == 0:
            raise SingularFrame(f"frame rows are dependent: {rs}")
        if d != 1:
            self.rows = (tuple(x / d for x in rs[0]),) + rs[1:]
        # (d, n): d[j] is the common denominator of row j, n[j] = d[j] * row j
        dens = tuple(math.lcm(*(f.denominator for f in row)) for row in self.rows)
        self.integer_rows = (dens, tuple(tuple(int(d * f) for f in row)
                                         for d, row in zip(dens, self.rows)))

    @classmethod
    def vandermonde(cls) -> "FrameMatrix":
        """Canonical test frame: every minor nonzero, smallest exact entries."""
        return cls(((1, 1, 1), (1, 2, 4), (1, 3, 9)))

    def det(self) -> Fraction:
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    def permuted(self, perm) -> "FrameMatrix":
        """Frame with rows and columns simultaneously relabeled by perm."""
        return FrameMatrix(
            tuple(tuple(self.rows[perm[j]][perm[a]] for a in range(3)) for j in range(3))
        )

    def __eq__(self, other):
        return isinstance(other, FrameMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def to_json(self):
        return [[str(x) for x in row] for row in self.rows]

    @classmethod
    def from_json(cls, data) -> "FrameMatrix":
        """Frame from its rows; a malformed or singular one raises
        ValueError naming the frame."""
        try:
            return cls(data)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"frame: {exc}") from exc


# ---------------------------------------------------------------------------
# sign machinery
# ---------------------------------------------------------------------------

def _sort_parity(slots) -> int:
    """Parity of sorting a duplicate-free slot list by (degree, component)."""
    inv = 0
    for p in range(len(slots)):
        for q in range(p + 1, len(slots)):
            if slots[p] > slots[q]:
                inv += 1
    return -1 if inv % 2 else 1


def _cross_inversions(xs, ys) -> int:
    """#{(x, y) : x in xs, y in ys, y < x} for sorted integer lists."""
    count = 0
    for x in xs:
        for y in ys:
            if y < x:
                count += 1
    return count


def _unshuffle_sign(below, charges, level: int) -> int:
    """Parity of unshuffling into component blocks, relative to the pure
    charge state with the same charges (all occupancy at >= level agrees,
    so only degrees below the cutoff contribute)."""
    delta = 0
    for b in range(3):
        for c in range(b + 1, 3):
            ref_b = range(-charges[b], level)
            ref_c = range(-charges[c], level)
            delta += _cross_inversions(below[b], below[c])
            delta -= _cross_inversions(ref_b, ref_c)
    return -1 if delta % 2 else 1


def family_sign(mu) -> int:
    """Sign normalizing the wedge word of one mu against the rest of the family.

    Individual wedge words are only canonical up to sign, and the cross-family
    bilinear identities fix the relative signs: this is the unique choice
    (modulo irrelevant separable twists) under which the pairing constant of
    every move depends on the move indices alone.  It is a parity of pairwise
    inversion-type counts of the word, depends only on the differences of the
    mu entries, and is therefore invariant under the lattice translation by
    (1,1,1,-1,-1,-1).
    """
    m1, m2, m3 = mu

    def pos(x):
        return x if x > 0 else 0

    def pairs(x):
        return x * (x - 1) // 2

    d12, d13, d21 = pos(m1 - m2), pos(m1 - m3), pos(m2 - m1)
    d23, d31, d32 = pos(m2 - m3), pos(m3 - m1), pos(m3 - m2)
    total = (
        pairs(d21) + pairs(d31) + pairs(d32)
        + d12 * d31 + d12 * d32 + d13 * d21
        + d13 * d23 + d21 * d23 + d31 * d32
    )
    return -1 if total % 2 else 1


_ETA_CACHE: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}


def _eta(charges: tuple[int, int, int]) -> int:
    """Sign attached to the pure charge state, from walking the canonical
    path of surface creations (charge up) / annihilations (charge down),
    component 1 first, each step carrying the charge-monomial reordering
    sign times the parity of the occupied slots jumped over."""
    charges = tuple(charges)
    cached = _ETA_CACHE.get(charges)
    if cached is not None:
        return cached
    eta = 1
    beta = [0, 0, 0]
    for a in range(3):
        target = charges[a]
        while beta[a] != target:
            reorder = -1 if sum(beta[:a]) % 2 else 1
            if beta[a] < target:
                jumped = sum(max(0, beta[b] - beta[a] - 1) for b in range(3))
                jumped += sum(1 for b in range(a) if beta[b] > beta[a])
                beta[a] += 1
            else:
                jumped = sum(max(0, beta[b] - beta[a]) for b in range(3))
                jumped += sum(1 for b in range(a) if beta[b] >= beta[a])
                beta[a] -= 1
            eta *= reorder * (-1 if jumped % 2 else 1)
    _ETA_CACHE[charges] = eta
    return eta


# ---------------------------------------------------------------------------
# wedge expansion and Maya decoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WedgeTerm:
    """One signed basis term of the expanded head: charges, partitions,
    reordering sign, and the product of frame coefficients."""

    charges: tuple[int, int, int]
    partitions: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    sign: int
    coefficient: Fraction


def _partition_from_below(occupied_below, level: int) -> tuple[int, ...]:
    parts = []
    n = len(occupied_below)
    for i, s in enumerate(occupied_below):
        lam = (level - n) + i - s
        parts.append(lam)
    while parts and parts[-1] == 0:
        parts.pop()
    if any(p < 0 for p in parts) or any(
        parts[i] < parts[i + 1] for i in range(len(parts) - 1)
    ):
        raise AssertionError(f"bad Maya decode: {occupied_below} -> {parts}")
    return tuple(parts)


def expand_wedge(mu, frame: FrameMatrix) -> list[WedgeTerm]:
    """Multilinear expansion of the finite head of the wedge for mu.

    Head slots are (component j, degree k) for k = mu_j .. max(mu)-1; the
    wedge word is taken with its slots sorted by (degree, row index), the
    same level-local order as the standard tail.  (Grouping the slots by row
    instead twists the family by a mu-dependent sign that leaks into the
    cross-family bilinear identities.)  Each slot is replaced by the three
    basis options weighted by the frame row; terms hitting one basis slot
    twice vanish; the rest are sorted and decoded.  mu = (0,0,0) gives the
    single vacuum term.
    """
    mu = tuple(int(m) for m in mu)
    level = max(mu)
    head = sorted(
        ((j, k) for j in range(3) for k in range(mu[j], level)),
        key=lambda jk: (jk[1], jk[0]),
    )
    word_sign = family_sign(mu)
    terms: list[WedgeTerm] = []
    for assignment in itertools.product(range(3), repeat=len(head)):
        coeff = Fraction(1)
        slots = []
        seen = set()
        dead = False
        for (j, k), a in zip(head, assignment):
            w = frame.rows[j][a]
            if w == 0:
                dead = True
                break
            key = (k, a)
            if key in seen:
                dead = True
                break
            seen.add(key)
            coeff *= w
            slots.append(key)
        if dead:
            continue
        below = ([], [], [])
        for k, a in slots:
            below[a].append(k)
        for lst in below:
            lst.sort()
        charges = tuple(len(below[a]) - level for a in range(3))
        partitions = tuple(
            _partition_from_below(below[a], level) for a in range(3)
        )
        weight = Fraction(sum(m * m for m in mu) - sum(c * c for c in charges), 2)
        if sum(sum(p) for p in partitions) != weight:
            raise AssertionError(f"degree bookkeeping broke at mu={mu}, term {slots}")
        sign = word_sign * _sort_parity(slots) * _unshuffle_sign(below, charges, level) * _eta(charges)
        terms.append(WedgeTerm(charges, partitions, sign, coeff))
    return terms


# ---------------------------------------------------------------------------
# bosonization: hook-length formula at first times
# ---------------------------------------------------------------------------

def schur_first_times(partition) -> Fraction:
    """Coefficient of s_lambda at first times, which is x^|lambda| / prod of
    the hook lengths of lambda (Macdonald, Symmetric Functions and Hall
    Polynomials, I.3 and Ex. I.5.2)."""
    lam = tuple(partition)
    cols = [sum(1 for row in lam if row > j) for j in range(lam[0] if lam else 0)]
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return Fraction(1, hooks)


def bosonize(term: WedgeTerm) -> tuple[tuple[int, int, int], Fraction]:
    """Image of one wedge term in the three first times, the monomial
    sign * coefficient * prod_a s_{lambda^(a)}(x_a), as (exponents, coefficient)."""
    coeff = term.sign * term.coefficient
    for p in term.partitions:
        coeff *= schur_first_times(p)
    return tuple(sum(p) for p in term.partitions), coeff


# ---------------------------------------------------------------------------
# charge sectors and their t-specialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauT:
    """Tau specialized to the single variable t, tagged with its point."""

    point: LatticePoint
    T: LaurentPoly
    weight: int

    def is_zero(self) -> bool:
        return self.T.is_zero()

    def to_json(self) -> dict:
        return {"point": self.point.to_json(), "weight": self.weight, "T": self.T.to_json()}

    @classmethod
    def from_json(cls, d: Mapping) -> "TauT":
        """Inverse of to_json; a missing field raises KeyError, and an entry
        to_json would not write raises ValueError."""
        if not isinstance(d, Mapping):
            raise ValueError(f"table entry {d!r} is not an object")
        try:
            T = LaurentPoly.from_json(d["T"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"T of point {d['point']}: {exc}") from exc
        if T.to_json() != d["T"]:
            raise ValueError(f"coefficients of point {d['point']} are not canonical: {d['T']}")
        if type(d["weight"]) is not int:
            raise ValueError(f"weight {d['weight']!r} of point {d['point']} is not an integer")
        return cls(LatticePoint.from_json(d["point"]), T, d["weight"])


def tau_in_x(mu, frame: FrameMatrix, terms=None) -> dict[tuple[int, int, int], dict]:
    """Every nonempty charge sector of the wedge of mu, keyed by charge.

    A sector maps exponent triples (d1, d2, d3) to nonzero coefficients.
    ``terms`` is the caller's expansion of the same wedge, when it has one.
    """
    if terms is None:
        terms = expand_wedge(mu, frame)
    sectors: dict[tuple[int, int, int], dict] = {}
    for term in terms:
        exps, c = bosonize(term)
        sector = sectors.setdefault(term.charges, {})
        total = sector.get(exps, ZERO) + c
        if total:
            sector[exps] = total
        else:
            sector.pop(exps, None)
    return {charge: sector for charge, sector in sectors.items() if sector}


def translation_gradient(sector) -> dict:
    """(d1 + d2 + d3) P of a sector P, without zero coefficients."""
    out: dict[tuple[int, int, int], Fraction] = {}
    for (d1, d2, d3), c in sector.items():
        for key, e in (((d1 - 1, d2, d3), d1), ((d1, d2 - 1, d3), d2), ((d1, d2, d3 - 1), d3)):
            if e:
                out[key] = out.get(key, ZERO) + e * c
    return {k: v for k, v in out.items() if v}


def specialize_to_t(point: LatticePoint, sector) -> TauT:
    """Substitute x1 = u, x2 = u + h, x3 = u + h/t in the sector of point and
    strip h^R.

    The u-dependence cancels exactly when the sector is killed by
    d1 + d2 + d3; otherwise GaugeDependence is raised.  Then u = 0 leaves the
    terms free of x1, and c x2^d2 x3^d3 contributes c h^(d2+d3) t^(-d3); a
    power of h other than R raises HomogeneityViolation.
    """
    weight = r_weight(point)
    if not sector:
        return TauT(point, LaurentPoly.zero(), weight)
    if translation_gradient(sector):
        raise GaugeDependence(f"u survives in the sector of {point}")
    t_coeffs: dict[int, Fraction] = {}
    for (d1, d2, d3), c in sector.items():
        if d1 == 0:
            if d2 + d3 != weight:
                raise HomogeneityViolation(
                    f"h^{d2 + d3} term in the sector of {point}, weight {weight}"
                )
            t_coeffs[-d3] = c
    lo, hi = min(t_coeffs), max(t_coeffs)
    return TauT(point, LaurentPoly(lo, [t_coeffs.get(n, ZERO) for n in range(lo, hi + 1)]), weight)


def seed_table(mu, frame: FrameMatrix) -> dict[tuple[int, int, int], TauT]:
    """Every TauT of the mu family with weight >= 0, zeros stored explicitly."""
    mu = tuple(int(m) for m in mu)
    sectors = tau_in_x(mu, frame)
    return {
        charge: specialize_to_t(LatticePoint(charge + mu), sectors.get(charge, {}))
        for charge in charges_with_weight_at_least_zero(mu)
    }


# ---------------------------------------------------------------------------
# the tau of one point as one determinant
# ---------------------------------------------------------------------------

def _bareiss(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss), every division exact; the rows are overwritten."""
    n = len(matrix)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not matrix[k][k]:
            swap = next((i for i in range(k + 1, n) if matrix[i][k]), None)
            if swap is None:
                return 0
            matrix[k], matrix[swap] = matrix[swap], matrix[k]
            sign = -sign
        pivot_row = matrix[k]
        pivot = pivot_row[k]
        for row in matrix[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return sign * matrix[-1][-1] if n else 1


def _integer_matrix(rows, entries, x) -> list[list[int]]:
    """The rescaled N_c at the integer point x: in row (k', a), the entry
    stored as (w, e) in ``entries`` is w * x_a^e."""
    return [[w * x[a] ** e if w else 0 for w, e in row] for (_, a), row in zip(rows, entries)]


def _interpolate_times_factorial(values: list[int]) -> list[int]:
    """Coefficients, in powers of s, of R! P(s) for the polynomial P of
    degree <= R with P(s) = values[s] at s = 0..R: the Newton form
    sum_n (Delta^n P)(0) s(s-1)...(s-n+1) / n!, all in integers."""
    r = len(values) - 1
    coeffs = [0] * (r + 1)
    falling = [1]  # s(s-1)...(s-n+1) in powers of s
    diffs = values
    for n in range(r + 1):
        w = diffs[0] * (math.factorial(r) // math.factorial(n))
        for i, b in enumerate(falling):
            coeffs[i] += w * b
        diffs = [q - p for p, q in zip(diffs, diffs[1:])]
        falling = [(falling[i - 1] if i else 0) - n * (falling[i] if i <= n else 0)
                   for i in range(n + 2)]
    return coeffs


def _check_shift(point, rows, cols, entries, m) -> None:
    """Raise GaugeDependence unless D N = N T on the rescaled entry table,
    with D = d1 + d2 + d3 and T sending column (j, k+1) to (j, k) with the
    factor k+1-m.  In row (k', a) the entry (w, e) is w x_a^e, so D gives
    (w e, e-1) and T gives ((k+1-m) w', e') from the entry (w', e') of
    column (j, k+1), or zero when there is no such column; a zero entry
    compares as (0, 0), whatever its e.  T is nilpotent (it lowers k), so
    Jacobi's formula gives D det N = det N tr T = 0."""
    at = {jk: i for i, jk in enumerate(cols)}
    for (kp, a), row in zip(rows, entries):
        for (j, k), (w, e) in zip(cols, row):
            i = at.get((j, k + 1))
            w2, e2 = row[i] if i is not None else (0, 0)
            if (w * e, e - 1 if w * e else 0) != ((k + 1 - m) * w2, e2 if w2 else 0):
                raise GaugeDependence(f"u survives in the entry table of {point}:"
                                      f" D N != N T at row {(kp, a)}, column {(j, k)}")


def tau_det(point: LatticePoint, frame: FrameMatrix) -> TauT:
    """T_p(t) = family_sign(mu) * eta(c) * det N_c(0, 1, 1/t) for p = (c, mu).

    N_c(x) is the Cauchy-Binet sum of the wedge expansion folded into one
    matrix (Sato/Segal-Wilson; Kac and van de Leur, J. Math. Phys. 44, 2003):
    with L = max(mu), its columns are the head slots (j, k), mu_j <= k < L,
    ordered by (k, j); its rows are the slots (k', a), -c_a <= k' < L,
    ordered by (k', a); and its entry is F[j][a] x_a^(k'-k) / (k'-k)!, zero
    for k' < k.  T_p = 0 when some L + c_a < 0.

    Scaling row (k', a) by (k'-m)! and column (j, k) by d_j / (k-m)!, with m
    the smallest index and d_j the common denominator of frame row j, gives
    the integer matrix d_j F[j][a] C(k'-m, k-m) x_a^(k'-k).  Its determinant
    is taken by Bareiss at s = 0..R and interpolated in integers (Newton
    form times R!); one common denominator undoes the scalings.
    Every term of det N_c has degree sum(k') - sum(k), which must be R
    (else HomogeneityViolation), so P(x) = det N_c(x) is homogeneous of
    degree R.  P is translation invariant for every frame: family j's
    columns are the contiguous run mu_j <= k < L and h_n(x + u) =
    sum_i h_(n-i)(x) h_i(u) for h_n(x) = x^n / n!, so N_c(x + u(1,1,1)) =
    N_c(x) U(u) with U unitriangular.  Equivalently D N = N T, with
    D = d1 + d2 + d3 and T the nilpotent column shift, and Jacobi's formula
    gives D det N = det N tr T = 0.  ``_check_shift`` proves D N = N T on the
    entry table of every point, and one translated evaluation, P(1, 2, 1) =
    P(0, 1, 0), guards the evaluation itself (else GaugeDependence).
    """
    weight = r_weight(point)
    c, mu = point.charge, point.mu
    level = max(mu)
    if weight < 0 or any(level + ca < 0 for ca in c):
        return TauT(point, LaurentPoly.zero(), weight)
    rows = sorted((kp, a) for a in range(3) for kp in range(-c[a], level))
    cols = sorted(((j, k) for j in range(3) for k in range(mu[j], level)),
                  key=lambda jk: (jk[1], jk[0]))
    if sum(kp for kp, _ in rows) - sum(k for _, k in cols) != weight:
        raise HomogeneityViolation(f"the determinant of {point} has degree"
                                   f" other than its weight {weight}")
    m = min([kp for kp, _ in rows] + [k for _, k in cols], default=0)
    denominators, ints = frame.integer_rows
    entries = [[(ints[j][a] * math.comb(kp - m, k - m), kp - k) if kp >= k else (0, 0)
                for j, k in cols] for kp, a in rows]
    _check_shift(point, rows, cols, entries, m)
    values = [_bareiss(_integer_matrix(rows, entries, (0, 1, s))) for s in range(weight + 1)]
    if weight and _bareiss(_integer_matrix(rows, entries, (1, 2, 1))) != values[0]:
        raise GaugeDependence(f"u survives in the determinant of {point}")
    coeffs = _interpolate_times_factorial(values)
    # undo R! and the row and column scalings
    num = family_sign(mu) * _eta(c)
    den = math.factorial(weight)
    for kp, _ in rows:
        den *= math.factorial(kp - m)
    for j, k in cols:
        num *= math.factorial(k - m)
        den *= denominators[j]
    # s = 1/t: the coefficient of s^n is that of t^-n
    return TauT(point, LaurentPoly(-weight, [num * a for a in reversed(coeffs)], den), weight)


# ---------------------------------------------------------------------------
# tables over the lattice
# ---------------------------------------------------------------------------

class TauTable:
    """Tau functions indexed by lattice points, computed from one frame.

    Entries are stored for every requested point, zero taus included, so
    identity sweeps can assert vanishing products.  Points outside the
    initial ball are computed on demand and cached.
    """

    def __init__(self, frame: FrameMatrix | None, entries: dict[LatticePoint, TauT] | None = None,
                 radius: int | None = None):
        self.frame = frame
        self.entries: dict[LatticePoint, TauT] = dict(entries or {})
        self.radius = radius

    @classmethod
    def build(cls, frame: FrameMatrix, radius: int) -> "TauTable":
        table = cls(frame, radius=radius)
        for point in ball(radius):
            table.entries[point] = tau_det(point, frame)
        return table

    def __contains__(self, point: LatticePoint) -> bool:
        return point in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def points(self) -> list[LatticePoint]:
        return sorted(self.entries, key=lambda p: p.alpha)

    def get(self, point: LatticePoint) -> TauT:
        got = self.entries.get(point)
        if got is None:
            raise MissingTau(str(point))
        return got

    def tau(self, point: LatticePoint) -> TauT:
        """Entry for point, computing and caching it when absent."""
        got = self.entries.get(point)
        if got is None:
            if self.frame is None:
                raise MissingTau(str(point))
            got = tau_det(point, self.frame)
            self.entries[point] = got
        return got

    def nonzero_points(self) -> list[LatticePoint]:
        return [p for p in self.points() if not self.entries[p].is_zero()]

    def to_json(self) -> list[dict]:
        return [self.entries[p].to_json() for p in self.points()]

    @classmethod
    def from_json(cls, entries: Iterable[Mapping], frame: FrameMatrix | None = None,
                  radius: int | None = None) -> "TauTable":
        """Table from serialized entries; a repeated point or a stored weight
        other than r_weight(point) raises ValueError."""
        if not isinstance(entries, list):
            raise ValueError(f"table entries are a {type(entries).__name__}, not a list")
        table = cls(frame, radius=radius)
        for item in entries:
            tau = TauT.from_json(item)
            if tau.point in table.entries:
                raise ValueError(f"point {tau.point} occurs twice in the table")
            if tau.weight != r_weight(tau.point):
                raise ValueError(f"point {tau.point} stores weight {tau.weight},"
                                 f" expected {r_weight(tau.point)}")
            table.entries[tau.point] = tau
        return table
