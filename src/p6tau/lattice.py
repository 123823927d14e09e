"""Combinatorics of the rank-5 root lattice indexing the tau family.

A lattice point is an integer 6-vector (a1,...,a6) with zero sum.  The first
three entries form the charge part, the last three the mu part; both views of
one object.  This module owns the scalars attached to a point, all in
integers: the weight R, the constants c5/c6 (held as 4 c5, 4 c6) and n
entering the bilinear relations, and the Painleve VI parameters v1..v4 (held
doubled); and the first-order correction polynomials g_j/h_j and G/H, the
charge-ordering sign, and the distinguished translation by (1,1,1,-1,-1,-1).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .exactalg import LaurentPoly


@dataclass(frozen=True)
class LatticePoint:
    """Element of the zero-sum lattice, stored as a raw 6-vector."""

    alpha: tuple[int, int, int, int, int, int]

    def __post_init__(self):
        a = tuple(int(x) for x in self.alpha)
        if len(a) != 6:
            raise ValueError(f"lattice point needs 6 entries, got {len(a)}")
        if sum(a) != 0:
            raise ValueError(f"entries of {a} do not sum to zero")
        object.__setattr__(self, "alpha", a)

    @property
    def charge(self) -> tuple[int, int, int]:
        return self.alpha[:3]

    @property
    def mu(self) -> tuple[int, int, int]:
        return self.alpha[3:]

    def __getitem__(self, i: int) -> int:
        return self.alpha[i]

    @classmethod
    def _unchecked(cls, alpha: tuple[int, ...]) -> "LatticePoint":
        """Point from a tuple of six ints known to sum to zero, such as the
        sum or difference of two points; the constructor's checks are skipped."""
        p = object.__new__(cls)
        object.__setattr__(p, "alpha", alpha)
        return p

    def __add__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint._unchecked(tuple(map(operator.add, self.alpha, other.alpha)))

    def __sub__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint._unchecked(tuple(map(operator.sub, self.alpha, other.alpha)))

    def __neg__(self) -> "LatticePoint":
        return LatticePoint._unchecked(tuple(-a for a in self.alpha))

    def to_json(self) -> list[int]:
        return list(self.alpha)

    @classmethod
    def from_json(cls, data) -> "LatticePoint":
        """Point from a list of six integers; any other entry, a float or a
        bool included, raises ValueError."""
        if not isinstance(data, list) or not all(type(x) is int for x in data):
            raise ValueError(f"point {data!r} is not a list of integers")
        return cls(tuple(data))

    def __str__(self):
        return "(" + ",".join(str(a) for a in self.alpha) + ")"


ORIGIN = LatticePoint((0, 0, 0, 0, 0, 0))

# translation vector whose mu part undoes its charge part
E0_VECTOR = LatticePoint((1, 1, 1, -1, -1, -1))


def delta(i: int) -> tuple[int, ...]:
    """Unit 6-vector with a 1 in (1-based) slot i."""
    if not 1 <= i <= 6:
        raise ValueError(f"index {i} out of range 1..6")
    return tuple(1 if k == i - 1 else 0 for k in range(6))


@functools.cache
def move_vector(i: int, k: int) -> LatticePoint:
    """The root delta_i - delta_k as a lattice point."""
    return LatticePoint(tuple(a - b for a, b in zip(delta(i), delta(k))))


@dataclass(frozen=True)
class MoveIJK:
    """Index triple of a bilinear move: i,k in 1..6, middle index j in 1..3."""

    i: int
    j: int
    k: int

    def __post_init__(self):
        if not (1 <= self.i <= 6 and 1 <= self.k <= 6):
            raise ValueError(f"i,k must lie in 1..6, got ({self.i},{self.k})")
        if not 1 <= self.j <= 3:
            raise ValueError(f"j must lie in 1..3, got {self.j}")
        if len({self.i, self.j, self.k}) != 3:
            raise ValueError(f"indices must be distinct: ({self.i},{self.j},{self.k})")


def all_moves() -> list[MoveIJK]:
    """All 60 valid (i, j, k) triples, lexicographically ordered."""
    out = []
    for i in range(1, 7):
        for j in range(1, 4):
            for k in range(1, 7):
                if len({i, j, k}) == 3:
                    out.append(MoveIJK(i, j, k))
    return out


# ---------------------------------------------------------------------------
# weight and scalar data attached to a point
# ---------------------------------------------------------------------------

def _twice_r(a) -> int:
    return a[3] ** 2 + a[4] ** 2 + a[5] ** 2 - a[0] ** 2 - a[1] ** 2 - a[2] ** 2


def c5_c6(a) -> tuple[int, int]:
    """(4 c5, 4 c6), c5 and c6 being the constants that shift the
    log-derivative into the sigma function: two quadratic forms in a point or
    in any integer 6-vector a."""
    return -(a[0] - a[2]) ** 2, 2 * _twice_r(a) + 2 * (a[0] - a[1]) * (a[0] - a[2])


def twice_v(a) -> tuple[int, int, int, int]:
    """(2 v1, .., 2 v4), the Painleve VI parameters of a point doubled, with
    v_i = (a1+a3)/2 + a_{3+i} and v4 = (a1-a3)/2: the finite part of the
    point's F4 image.  The four share their parity."""
    s = a[0] + a[2]
    return s + 2 * a[3], s + 2 * a[4], s + 2 * a[5], a[0] - a[2]


def r_weight(p: LatticePoint) -> int:
    """Weight (a4^2+a5^2+a6^2-a1^2-a2^2-a3^2)/2; integral on the zero-sum lattice."""
    twice = _twice_r(p.alpha)
    if twice % 2:
        raise ArithmeticError(f"weight of {p} is not an integer")
    return twice // 2


def n_coeff(p: LatticePoint, m: MoveIJK) -> int:
    """Constant term of the bilinear relation: n1 = R(p+di-dk)-R(p), n2 = -n1, n3 = 0."""
    if m.j == 3:
        return 0
    n1 = r_weight(p + move_vector(m.i, m.k)) - r_weight(p)
    return n1 if m.j == 1 else -n1


def gh_polys(j: int, n) -> tuple[LaurentPoly, LaurentPoly]:
    """First-order corrections (g_j, h_j) entering the log-derivative relation.

    g_j = t(t-1) dlog(b_j/(t(t-1)))/dt and h_j = n * t(t-1)/b_j, evaluated for
    b1 = t(t-1), b2 = t, b3 = -t^2.  Note g3 = -1: the quotient for j=3 is
    -t/(t-1), whose scaled log-derivative is -1.
    """
    if j == 1:
        return LaurentPoly.zero(), LaurentPoly(0, (n,))
    if j == 2:
        return LaurentPoly(1, (-1,)), LaurentPoly(0, (-n, n))
    if j == 3:
        return LaurentPoly(0, (-1,)), LaurentPoly.zero()
    raise ValueError(f"j must lie in 1..3, got {j}")


def _linear_poly(c0: int, c1: int, den: int) -> LaurentPoly:
    """(c0 + c1 t) / den with the common content taken out."""
    g = math.gcd(c0, c1, den)
    return LaurentPoly(0, (c0 // g, c1 // g), den // g)


def _h_times_8(a, m: MoveIJK) -> tuple[int, int]:
    """Constant and t coefficient of 8 H = 8 h_j + 2 d[4 c5] (1-t) + d[4 c6]
    for move m at the integer 6-vector a."""
    ik = tuple(map(operator.add, a, move_vector(m.i, m.k).alpha))
    (c5a, c6a), (c5ik, c6ik) = c5_c6(a), c5_c6(ik)
    n8 = 4 * (_twice_r(ik) - _twice_r(a))                       # 8 n1
    h0, h1 = {1: (n8, 0), 2: (n8, -n8), 3: (0, 0)}[m.j]         # 8 h_j
    return h0 + 2 * (c5a - c5ik) + c6a - c6ik, h1 - 2 * (c5a - c5ik)


@functools.cache
def _move_G(m: MoveIJK) -> LaurentPoly:
    """G of move m.  c5 and c6 are quadratic in the point and the move's
    square closes (di-dj + dj-dk = di-dk), so their second difference D over
    the square is a constant of the move, read off at the zero vector."""
    c = [c5_c6(v) for v in ((0,) * 6, move_vector(m.i, m.j).alpha,
                            move_vector(m.j, m.k).alpha, move_vector(m.i, m.k).alpha)]
    d5 = c[1][0] + c[2][0] - c[3][0] - c[0][0]                  # 4 D[c5]
    d6 = c[1][1] + c[2][1] - c[3][1] - c[0][1]                  # 4 D[c6]
    g, _ = gh_polys(m.j, 0)
    return g - _linear_poly(2 * d5 + d6, -2 * d5, 8)            # g_j - D[c5](1-t) - D[c6]/2


def big_GH(p: LatticePoint, m: MoveIJK) -> tuple[LaurentPoly, LaurentPoly]:
    """First-order polynomials G, H of the sigma-level relation for move m at p.

    With D[f] = f(p+di-dj) + f(p+dj-dk) - f(p+di-dk) - f(p) over the move's
    four points:  G = g_j - D[c5](1-t) - D[c6]/2, and with d[f] = f(p) -
    f(p+di-dk):  H = h_j + d[c5](1-t) + d[c6]/2.  G depends on the move
    alone and is computed once per move; H is computed in integers.
    """
    return _move_G(m), _linear_poly(*_h_times_8(p.alpha, m), 8)


def e0_translate(p: LatticePoint) -> tuple[LatticePoint, int]:
    """Translate by (1,1,1,-1,-1,-1); the returned sign relates the tau values."""
    sign = -1 if p.alpha[1] % 2 else 1
    return p + E0_VECTOR, sign


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def ball(radius: int) -> list[LatticePoint]:
    """All lattice points within `radius` unit moves of the origin.

    A zero-sum vector is reachable in r moves iff its l1 norm is at most 2r.
    Returned in lexicographic order, so sweeps are deterministic.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    budget = 2 * radius
    points = []

    def rec(prefix, remaining_abs, total):
        idx = len(prefix)
        if idx == 5:
            last = -total
            if abs(last) <= remaining_abs:
                points.append(LatticePoint(tuple(prefix) + (last,)))
            return
        for v in range(-remaining_abs, remaining_abs + 1):
            rec(prefix + [v], remaining_abs - abs(v), total + v)

    rec([], budget, 0)
    points.sort(key=lambda p: p.alpha)
    return points


def charges_with_weight_at_least_zero(mu: tuple[int, int, int]):
    """All charge triples c with sum(c) = -sum(mu) and R(mu, c) >= 0."""
    target = -sum(mu)
    cap = mu[0] ** 2 + mu[1] ** 2 + mu[2] ** 2
    bound = math.isqrt(cap) + 1
    out = []
    for c1, c2 in itertools.product(range(-bound, bound + 1), repeat=2):
        c3 = target - c1 - c2
        if c1 * c1 + c2 * c2 + c3 * c3 <= cap:
            out.append((c1, c2, c3))
    out.sort()
    return out
