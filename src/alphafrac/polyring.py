"""Exact univariate polynomial and 2x2 polynomial-matrix arithmetic over Q.

Coefficients are fractions.Fraction throughout, so every operation here is
exact.  Values are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from fractions import Fraction


def as_fraction(x) -> Fraction:
    """Coerce an int, string ("p/q") or Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError("cannot coerce %r to an exact rational" % (x,))


def rational_sqrt(x: Fraction):
    """Exact square root of a rational, or None if x is not a square in Q.

    The result is always >= 0.
    """
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


class Polynomial:
    """Dense univariate polynomial; coeffs[i] is the degree-i coefficient.

    Trailing zero coefficients are stripped on construction, so the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def linear(cls, alpha) -> "Polynomial":
        """The monic linear factor (x - alpha)."""
        return cls([-as_fraction(alpha), Fraction(1)])

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        p = cls([1])
        for r in roots:
            p = p * cls.linear(r)
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k (0 beyond the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = as_fraction(scalar)
        return Polynomial([c / scalar for c in self.coeffs])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial([1])
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other):
        """Exact long division by a nonzero polynomial."""
        other = self._coerce(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def synthetic_div(self, alpha):
        """Divide by (x - alpha); returns (quotient, remainder scalar)."""
        alpha = as_fraction(alpha)
        if not self.coeffs:
            return Polynomial(), Fraction(0)
        acc = Fraction(0)
        out = []
        for c in reversed(self.coeffs):
            acc = acc * alpha + c
            out.append(acc)
        out.reverse()
        return Polynomial(out[1:]), out[0]

    def __call__(self, x) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial([other])
        raise TypeError("cannot combine polynomial with %r" % (other,))

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Polynomial(%s)" % (list(map(str, self.coeffs)),)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else "%s*" % abs(c)
                term = "%sx" % mag if k == 1 else "%sx^%d" % (mag, k)
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


ZERO = Polynomial()
ONE = Polynomial([1])


def poly_sqrt(p: Polynomial):
    """Exact square root of a polynomial over Q, or None.

    When a root exists it is canonicalized to a positive leading
    coefficient; sqrt(0) = 0.
    """
    if p.is_zero():
        return ZERO
    deg = p.degree
    if deg % 2 != 0:
        return None
    lead = rational_sqrt(p.lead)
    if lead is None:
        return None
    g = deg // 2
    s = [Fraction(0)] * (g + 1)
    s[g] = lead
    # Match coefficients of x^(g+i) downward; low-order ones are checked
    # by the final exact verification.
    for i in range(g - 1, -1, -1):
        acc = p.coeff(g + i)
        for j in range(i + 1, g):
            k = g + i - j
            if k <= g:
                acc -= s[j] * s[k]
        s[i] = acc / (2 * lead)
    cand = Polynomial(s)
    if cand * cand != p:
        return None
    return cand


class PolyMatrix2:
    """A 2x2 matrix of polynomials [[a, b], [c, d]]."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = self._entry(a)
        self.b = self._entry(b)
        self.c = self._entry(c)
        self.d = self._entry(d)

    @staticmethod
    def _entry(x) -> Polynomial:
        return x if isinstance(x, Polynomial) else Polynomial([x])

    @classmethod
    def identity(cls) -> "PolyMatrix2":
        return cls(ONE, ZERO, ZERO, ONE)

    @property
    def entries(self):
        return ((self.a, self.b), (self.c, self.d))

    def __mul__(self, other):
        if not isinstance(other, PolyMatrix2):
            return NotImplemented
        return PolyMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> Polynomial:
        return self.a * self.d - self.b * self.c

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix2):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "PolyMatrix2([[%s, %s], [%s, %s]])" % (
            self.a, self.b, self.c, self.d)
