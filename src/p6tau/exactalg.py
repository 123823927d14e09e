"""Exact arithmetic substrate: Laurent polynomials in t over the rationals.

Everything downstream certifies identities by reducing a residual to the
literal zero polynomial, so no floating point is allowed here.  There is one
polynomial type, ``LaurentPoly``: a finite Laurent polynomial in t (negative
powers are first-class, since the t-specialization of a tau function has
them).  Like FLINT's ``fmpq_poly`` it stores integer coefficients over one
positive common denominator, so its arithmetic is integer arithmetic: a sum
brings the two denominators to their lcm, a product multiplies them, and
nothing is reduced on the way.  A polynomial is zero iff its integer
coefficient list is empty.  Each coefficient is reduced to lowest terms only
on output: ``coeff`` returns a ``fractions.Fraction``, and ``to_json``,
``to_degree_map`` and ``str`` write the canonical "num/den" (or "num") that
``str()`` of that Fraction writes.

A quotient of polynomials (a sigma function, say) is kept as an unreduced
(numerator, denominator) pair by its user, and identities between quotients
are checked with denominators cleared; ``poly_gcd`` reduces one for display.

Polynomials in the three first times occur only as charge sectors, which
``grassmann`` keeps as plain dicts from exponent triple to coefficient.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

Scalar = Fraction

ZERO = Fraction(0)


class NotDivisible(ArithmeticError):
    """Exact division left a nonzero remainder."""


def as_scalar(x) -> Fraction:
    """Coerce ints, strings like "3/4", and Fractions to a Scalar; a bool is
    no scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


def _make(min_degree: int, coeffs: list[int], den: int) -> "LaurentPoly":
    """sum_i coeffs[i] t^(min_degree + i) / den for integers coeffs and den > 0,
    with zero coefficients trimmed from both ends; nothing is checked."""
    hi = len(coeffs)
    while hi and not coeffs[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not coeffs[lo]:
        lo += 1
    p = object.__new__(LaurentPoly)
    if lo == hi:
        p.min_degree, p.coeffs, p.den = 0, (), 1
    else:
        p.min_degree, p.coeffs, p.den = min_degree + lo, tuple(coeffs[lo:hi]), den
    return p


def _new(min_degree: int, coeffs: tuple[int, ...], den: int) -> "LaurentPoly":
    """LaurentPoly from a tuple already free of zero ends (nonempty) over den > 0."""
    p = object.__new__(LaurentPoly)
    p.min_degree, p.coeffs, p.den = min_degree, coeffs, den
    return p


def _ratio_str(n: int, d: int) -> str:
    """n/d (d > 0) in lowest terms, written as str() of the Fraction writes it."""
    g = math.gcd(n, d)
    return str(n // d) if g == d else f"{n // g}/{d // g}"


def _primitive(coeffs: list[int]) -> list[int]:
    """Integer coefficient list divided by its content, zeros trimmed from the top."""
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    g = math.gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else list(coeffs)


class LaurentPoly:
    """Finite Laurent polynomial in t: integer coefficients starting at
    min_degree, over one positive denominator den."""

    __slots__ = ("min_degree", "coeffs", "den")

    def __init__(self, min_degree: int = 0, coeffs: Iterable = (), den: int = 1):
        """sum_i coeffs[i] t^(min_degree + i) / den; a coefficient may be an
        int, a Fraction or a "num/den" string, and den a positive int."""
        cs = list(coeffs)
        if not all(type(c) is int for c in cs):
            fracs = [as_scalar(c) for c in cs]
            common = math.lcm(*(f.denominator for f in fracs))
            cs = [f.numerator * (common // f.denominator) for f in fracs]
            den *= common
        if type(den) is not int or den <= 0:
            raise ValueError(f"denominator {den!r} is not a positive integer")
        q = _make(min_degree, cs, den)
        self.min_degree, self.coeffs, self.den = q.min_degree, q.coeffs, q.den

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _make(0, [], 1)

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls.monomial(c, 0)

    @classmethod
    def monomial(cls, c, n: int) -> "LaurentPoly":
        c = as_scalar(c)
        return _make(n, [c.numerator], c.denominator)

    @classmethod
    def t(cls) -> "LaurentPoly":
        return _make(1, [1], 1)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Top degree; -1 for the zero polynomial."""
        return self.min_degree + len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        i = n - self.min_degree
        if 0 <= i < len(self.coeffs):
            return Fraction(self.coeffs[i], self.den)
        return ZERO

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.coeffs[-1], self.den)

    def split(self) -> tuple[int, "LaurentPoly"]:
        """Write self = t^m * P with P an ordinary polynomial, P(0) != 0."""
        if self.is_zero():
            return 0, self
        return self.min_degree, _new(0, self.coeffs, self.den)

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return _make(0, [other], 1)
        if isinstance(other, Fraction):
            return _make(0, [other.numerator], other.denominator)
        return None

    def _combine(self, o: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * o over the lcm of the two denominators."""
        da, db = self.den, o.den
        if da == db:
            sa = sb = 1
        else:
            g = math.gcd(da, db)
            sa, sb = db // g, da // g
        lo = min(self.min_degree, o.min_degree)
        out = [0] * (max(self.degree, o.degree) - lo + 1)
        off = self.min_degree - lo
        for i, c in enumerate(self.coeffs):
            out[off + i] = c * sa
        off = o.min_degree - lo
        sb *= sign
        for i, c in enumerate(o.coeffs):
            out[off + i] += c * sb
        return _make(lo, out, da * sa)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.coeffs:
            return self
        if not self.coeffs:
            return o
        return self._combine(o, 1)

    __radd__ = __add__

    def __neg__(self):
        if not self.coeffs:
            return self
        return _new(self.min_degree, tuple([-c for c in self.coeffs]), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.coeffs:
            return self
        if not self.coeffs:
            return -o
        return self._combine(o, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not LaurentPoly:
            if isinstance(other, (int, Fraction)):
                return self._scale(other)
            if not isinstance(other, LaurentPoly):
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _make(0, [], 1)
        nb = len(b)
        out = [0] * (len(a) + nb - 1)
        for i, x in enumerate(a):
            if x:
                for j in range(nb):
                    out[i + j] += x * b[j]
        # the end coefficients are products of nonzero ones
        return _new(self.min_degree + other.min_degree, tuple(out), self.den * other.den)

    __rmul__ = __mul__

    def _scale(self, c) -> "LaurentPoly":
        """self * c for an int or a Fraction c."""
        if not c or not self.coeffs:
            return _make(0, [], 1)
        p = c.numerator
        return _new(self.min_degree, tuple([x * p for x in self.coeffs]),
                    self.den * c.denominator)

    def __call__(self, x) -> Fraction:
        """Exact evaluation at a rational point (Horner)."""
        x = as_scalar(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x ** self.min_degree / self.den

    def derivative(self) -> "LaurentPoly":
        m = self.min_degree
        return _make(m - 1, [(m + i) * c for i, c in enumerate(self.coeffs)], self.den)

    def exact_divide(self, other) -> "LaurentPoly":
        """Return q with self = q * other, or raise NotDivisible.

        The divisor's integer coefficients are made primitive; by Gauss's
        lemma the quotient of self's integer coefficients by a primitive
        polynomial, when it exists in Q[t], has integer coefficients, so the
        long division runs in integers and stops at the first inexact step.
        """
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        if self.is_zero():
            return self
        content = math.gcd(*o.coeffs)
        b = [c // content for c in o.coeffs]
        r = list(self.coeffs)
        nb = len(b) - 1
        lead = b[-1]
        q = [0] * max(0, len(r) - nb)
        for i in range(len(r) - 1, nb - 1, -1):
            c = r[i]
            if not c:
                continue
            f, rem = divmod(c, lead)
            if rem:
                break
            q[i - nb] = f
            for j, y in enumerate(b):
                r[i - nb + j] -= f * y
        if any(r):
            raise NotDivisible(f"({self}) is not a multiple of ({o})")
        # self = r / da and other = content * b / db, so self / other = q db / (da content)
        return _make(self.min_degree - o.min_degree, [c * o.den for c in q], self.den * content)

    def monic(self) -> "LaurentPoly":
        """self divided by its leading coefficient."""
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead < 0:
            return _new(self.min_degree, tuple([-c for c in self.coeffs]), -lead)
        return _new(self.min_degree, self.coeffs, lead)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.min_degree != o.min_degree or len(self.coeffs) != len(o.coeffs):
            return False
        da, db = self.den, o.den
        if da == db:
            return self.coeffs == o.coeffs
        return all(x * db == y * da for x, y in zip(self.coeffs, o.coeffs))

    def __hash__(self):
        g = math.gcd(self.den, *self.coeffs)
        return hash(("LaurentPoly", self.min_degree,
                     tuple(c // g for c in self.coeffs), self.den // g))

    def __repr__(self):
        return f"LaurentPoly({self.min_degree}, {list(self.coeffs)!r}, den={self.den})"

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

    def to_degree_map(self) -> dict[str, str]:
        """{degree: "num/den"} of the nonzero coefficients, each in lowest terms."""
        m, den = self.min_degree, self.den
        return {str(m + i): _ratio_str(c, den) for i, c in enumerate(self.coeffs) if c}

    def to_json(self) -> dict:
        """min_degree and every coefficient up to the top one as "num/den" in
        lowest terms."""
        den = self.den
        return {"min_degree": self.min_degree, "coeffs": [_ratio_str(c, den) for c in self.coeffs]}

    @classmethod
    def from_json(cls, d: Mapping) -> "LaurentPoly":
        return cls(int(d["min_degree"]), d["coeffs"])


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) a mod b, in integers (b nonzero, deg a >= deg b)."""
    r = list(a)
    nb = len(b) - 1
    lead = b[-1]
    for i in range(len(r) - 1, nb - 1, -1):
        c = r[i]
        r = [x * lead for x in r]
        for j, y in enumerate(b):
            r[i - nb + j] -= c * y
        r.pop()
    return r


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of two polynomials in t (gcd(0, 0) = 0), by a primitive
    remainder sequence on their integer coefficients (Knuth, TAOCP vol. 2,
    4.6.1); a common power of t is t^min of the two lowest degrees."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    u, v = _primitive(list(a.coeffs)), _primitive(list(b.coeffs))
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _primitive(_pseudo_remainder(u, v))
    return _make(min(a.min_degree, b.min_degree), u, 1).monic()
