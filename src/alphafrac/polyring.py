"""Exact univariate polynomial arithmetic over Q.

Coefficients are fractions.Fraction throughout, so every operation here is
exact.  Values are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
_BAD_RATIONAL = ("rational must be an integer or a string \"p\" or "
                 "\"p/q\" in lowest terms, got %.40r")


def as_fraction(x) -> Fraction:
    """Coerce x to an exact rational by the grammar of the JSON wire format.

    x is a Fraction, an int, or a string "p" or "p/q" in lowest terms with
    q > 0.  Any other string, e.g. "1.5", "1e400", " 3" or "2/4", raises
    ValueError, so no exponent is ever expanded; bools, floats and other
    types raise TypeError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if not isinstance(x, str):
        raise TypeError(_BAD_RATIONAL % (x,))
    if _RATIONAL.fullmatch(x):
        value = Fraction(x)
        if str(value) == x:
            return value
    raise ValueError(_BAD_RATIONAL % (x,))


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


def poly_sqrt(p: Polynomial):
    """Exact square root of a polynomial over Q, or None.

    When a root exists it is canonicalized to a positive leading
    coefficient; sqrt(0) = 0.
    """
    if p.is_zero():
        return p
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
            acc -= s[j] * s[g + i - j]
        s[i] = acc / (2 * lead)
    cand = Polynomial(s)
    if cand * cand != p:
        return None
    return cand
