"""Exact arithmetic substrate: rational scalars and polynomials in t.

Everything downstream certifies identities by reducing a residual to the
literal zero polynomial, so no floating point is allowed here.  Scalars are
arbitrary-precision rationals (``fractions.Fraction``), which are always kept
in lowest terms with a positive denominator; ``str()`` of a scalar is already
the canonical "num/den" (or "num") serialization.

Polynomial flavours:

* ``UniPoly``          dense univariate polynomials in t, low degree first;
* ``LaurentPoly``      finite Laurent polynomials in t (negative powers are
                       first-class: the t-specialization of a tau function can
                       produce them before any normalization).

A quotient of polynomials (a sigma function, say) is kept as an unreduced
(numerator, denominator) pair by its user, and identities between quotients
are checked with denominators cleared; ``poly_gcd`` reduces one for display.

Polynomials in the three first times occur only as charge sectors, which
``grassmann`` keeps as plain dicts from exponent triple to coefficient.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class NotDivisible(ArithmeticError):
    """Exact division left a nonzero remainder."""


def as_scalar(x) -> Fraction:
    """Coerce ints, strings like "3/4", and Fractions to a Scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

class UniPoly:
    """Polynomial in t over the rationals, coefficients indexed by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((as_scalar(c),))

    @classmethod
    def t(cls) -> "UniPoly":
        return cls((0, 1))

    def to_degree_map(self) -> dict[str, str]:
        return {str(i): str(c) for i, c in enumerate(self.coeffs) if c != 0}

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return ZERO

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPoly(self.coeff(i) + o.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return UniPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __call__(self, x) -> Fraction:
        """Exact evaluation at a rational point (Horner)."""
        x = as_scalar(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __divmod__(self, other: "UniPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        q = [ZERO] * max(0, len(r) - d)
        for i in range(len(r) - 1, d - 1, -1):
            c = r[i]
            if c == 0:
                continue
            f = c / lead
            q[i - d] = f
            for j, b in enumerate(other.coeffs):
                r[i - d + j] -= f * b
        return UniPoly(q), UniPoly(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        return UniPoly(c / lead for c in self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(("UniPoly", self.coeffs))

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                mag = "t" if i == 1 else f"t^{i}"
                term = mag if c == 1 else (f"-{mag}" if c == -1 else f"{c}*{mag}")
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm (gcd(0, 0) = 0)."""
    while not b.is_zero():
        a, b = b, (a % b)
    return a.monic()


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Finite Laurent polynomial in t: coefficients starting at min_degree."""

    __slots__ = ("min_degree", "coeffs")

    def __init__(self, min_degree: int = 0, coeffs: Iterable = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        while cs and cs[0] == 0:
            cs.pop(0)
            min_degree += 1
        if not cs:
            min_degree = 0
        self.min_degree = min_degree
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls(0, (as_scalar(c),))

    @classmethod
    def monomial(cls, c, n: int) -> "LaurentPoly":
        return cls(n, (as_scalar(c),))

    @classmethod
    def from_unipoly(cls, p: UniPoly) -> "LaurentPoly":
        return cls(0, p.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Top degree; meaningless (min_degree - 1) only for the zero polynomial."""
        return self.min_degree + len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        i = n - self.min_degree
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return ZERO

    def split(self) -> tuple[int, UniPoly]:
        """Write self = t^m * P with P an ordinary polynomial, P(0) != 0."""
        if self.is_zero():
            return 0, UniPoly.zero()
        return self.min_degree, UniPoly(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, UniPoly):
            return LaurentPoly.from_unipoly(other)
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        lo = min(self.min_degree, o.min_degree)
        hi = max(self.degree, o.degree)
        return LaurentPoly(lo, (self.coeff(n) + o.coeff(n) for n in range(lo, hi + 1)))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.min_degree, (-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return LaurentPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        out[i + j] += a * b
        return LaurentPoly(self.min_degree + o.min_degree, out)

    __rmul__ = __mul__

    def derivative(self) -> "LaurentPoly":
        if self.is_zero():
            return self
        return LaurentPoly(
            self.min_degree - 1,
            ((self.min_degree + i) * c for i, c in enumerate(self.coeffs)),
        )

    def exact_divide(self, other: "LaurentPoly") -> "LaurentPoly":
        """Return q with self = q * other, or raise NotDivisible."""
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        if self.is_zero():
            return LaurentPoly.zero()
        ma, num = self.split()
        mb, den = o.split()
        q, r = divmod(num, den)
        if not r.is_zero():
            raise NotDivisible(f"({self}) is not a multiple of ({o})")
        return LaurentPoly(ma - mb, q.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.min_degree == o.min_degree and self.coeffs == o.coeffs

    def __hash__(self):
        return hash(("LaurentPoly", self.min_degree, self.coeffs))

    def __repr__(self):
        return f"LaurentPoly({self.min_degree}, {list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for n in range(self.degree, self.min_degree - 1, -1):
            c = self.coeff(n)
            if c == 0:
                continue
            if n == 0:
                term = str(c)
            else:
                mag = "t" if n == 1 else f"t^{n}"
                term = mag if c == 1 else (f"-{mag}" if c == -1 else f"{c}*{mag}")
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def to_json(self) -> dict:
        return {"min_degree": self.min_degree, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, d: Mapping) -> "LaurentPoly":
        return cls(int(d["min_degree"]), [as_scalar(c) for c in d["coeffs"]])
