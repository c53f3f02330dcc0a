"""Exact univariate polynomial arithmetic over Q.

A polynomial is integer numerators over one common denominator, and its
coefficients are read as fractions.Fraction, so every operation here is
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


def as_sequence(xs):
    """xs, which stands for a sequence: of rationals, a point or a group word.

    Text, a dict or a set raises TypeError: iterated, "12" would be the
    rationals "1" and "2", b"12" the integers 49 and 50, the word "epspi"
    the letters "e", "p", ..., a dict its keys and a set its hash order.
    """
    if isinstance(xs, (str, bytes, bytearray, dict, set, frozenset)):
        text = isinstance(xs, (str, bytes, bytearray))
        kind = "text" if text else type(xs).__name__
        raise TypeError("expected a sequence, got the %s %.40r" % (kind, xs))
    return xs


def rational_sqrt(x: Fraction):
    """Exact square root of a rational, or None if x is not a square in Q.

    The result is always >= 0: the constant term of poly_sqrt(x).
    """
    s = poly_sqrt(Polynomial([x]))
    return None if s is None else s.coeff(0)


def _stripped(num, den):
    """(num, den) as a lowest-terms pair, given gcd(den, *num) = 1.

    Trailing zeros go; the zero polynomial gets den = 1.
    """
    while num and not num[-1]:
        num.pop()
    return tuple(num), (den if num else 1)


def _make(num, den):
    """The polynomial num / den, for a list num and den > 0 with
    gcd(den, *num) = 1."""
    p = object.__new__(Polynomial)
    p._num, p._den = _stripped(num, den)
    return p


def _reduced(num, den, g):
    """_make(num, den) once a common factor of the list num and g | den is
    divided out, in place.

    g must hold every prime that can divide both den and the content of
    num; the gcd stops as soon as it reaches 1.
    """
    g = math.gcd(g, *num)
    if g > 1:
        for i, c in enumerate(num):
            num[i] = c // g
        den //= g
    return _make(num, den)


def _add(u, du, v, dv, sign):
    """u/du + sign * v/dv for lowest-terms numerators u, v and sign +-1.

    With g = gcd(du, dv), the sum is (u dv/g +- v du/g) / (du dv/g), and
    only primes of g can divide both its denominator and its content.
    """
    g = math.gcd(du, dv)
    s, t = du // g, dv // g
    den = s * dv
    num = [a * t for a in u] if t > 1 else list(u)
    num += [0] * (len(v) - len(u))
    s *= sign
    for i, b in enumerate(v):
        num[i] += b * s
    return _reduced(num, den, g)


def _pseudo_divmod(u, v):
    """(Q, R, lc^(k+1)) with lc^(k+1) u = Q v + R, for integer lists with
    lc = v[-1] and k = len(u) - len(v) >= 0; R keeps len(v) - 1 entries."""
    n, dq = len(v) - 1, len(u) - len(v)
    lc = v[-1]
    rem = list(u)
    quot = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = quot[k] = rem.pop()
        if lc != 1:
            rem = [lc * r for r in rem]
        for j in range(n):
            rem[k + j] -= c * v[j]
    # Each later step scaled the quotient so far by lc once more.
    scale = 1
    for k in range(1, dq + 1):
        scale *= lc
        quot[k] *= scale
    return quot, rem, scale * lc


def _scalar(x):
    """(numerator, denominator) of a scalar, by as_fraction's type rule
    (an int that is not a bool, or a Fraction)."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int) and not isinstance(x, bool):
        return x, 1
    raise TypeError("cannot combine polynomial with %.40r" % (x,))


class Polynomial:
    """Dense univariate polynomial; coeffs[i] is the degree-i coefficient.

    It is stored as integer numerators _num over one denominator _den > 0,
    in lowest terms: gcd(_den, *_num) = 1 and the last numerator is not 0.
    The zero polynomial has no numerators and degree -1.  Equal polynomials
    thus have equal representations.  coeffs, coeff(k) and lead build their
    Fractions when read.

    Each operation cancels the way Henrici's rational arithmetic does
    (J. ACM 3 (1956)): gcds of the operands' denominators and contents are
    taken before the multiplications, so the result needs at most one gcd
    against a known factor to be in lowest terms.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        cs = [as_fraction(c) for c in as_sequence(coeffs)]
        # The lcm of reduced denominators is coprime to the numerators.
        den = math.lcm(*[c.denominator for c in cs])
        self._num, self._den = _stripped(
            [c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def linear(cls, alpha) -> "Polynomial":
        """The monic linear factor (x - alpha)."""
        alpha = as_fraction(alpha)
        return _make([-alpha.numerator, alpha.denominator], alpha.denominator)

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        p = cls([1])
        for r in as_sequence(roots):
            p = p * cls.linear(r)
        return p

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest degree first."""
        d = self._den
        # From a list: tuple() of a generator allocates ten slots and then
        # resizes, which moves the block to another size's free list.
        return tuple([Fraction(c, d) for c in self._num])

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    @property
    def lead(self) -> Fraction:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeff(len(self._num) - 1)

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k (0 beyond the degree)."""
        if 0 <= k < len(self._num):
            return Fraction(self._num[k], self._den)
        return Fraction(0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return _add(self._num, self._den, other._num, other._den, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make([-c for c in self._num], self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        return _add(self._num, self._den, other._num, other._den, -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self._scaled(*_scalar(other))
        u, du, v, dv = self._num, self._den, other._num, other._den
        if not u or not v:
            return Polynomial()
        # Cancel each denominator against the other factor's content; by
        # Gauss's lemma the product is then in lowest terms.
        g = math.gcd(du, *v)
        if g > 1:
            v, du = [c // g for c in v], du // g
        g = math.gcd(dv, *u)
        if g > 1:
            u, dv = [c // g for c in u], dv // g
        out = [0] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    out[i + j] += a * b
        return _make(out, du * dv)

    __rmul__ = __mul__

    def _scaled(self, p, q):
        """self * p / q, for p / q in lowest terms with q > 0."""
        u, du = self._num, self._den
        if not p or not u:
            return Polynomial()
        g = math.gcd(p, du)
        if g > 1:
            p, du = p // g, du // g
        g = math.gcd(q, *u)
        if g > 1:
            return _make([c // g * p for c in u], du * (q // g))
        return _make([c * p for c in u], du * q)

    def __truediv__(self, scalar):
        p, q = _scalar(scalar)
        if not p:
            raise ZeroDivisionError("polynomial division by zero")
        return self._scaled(q, p) if p >= 0 else self._scaled(-q, -p)

    def __divmod__(self, other):
        """Exact long division by a nonzero polynomial: integer
        pseudo-division, then one reduction of each part."""
        other = self._coerce(other)
        v, dv = other._num, other._den
        if not v:
            raise ZeroDivisionError("polynomial division by zero")
        u, du = self._num, self._den
        if len(u) < len(v):
            return Polynomial(), self
        quot, rem, den = _pseudo_divmod(u, v)
        den *= du
        if den < 0:
            den, dv = -den, -dv
            rem = [-r for r in rem]
        return (_reduced([c * dv for c in quot], den, den),
                _reduced(rem, den, den))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def synthetic_div(self, alpha):
        """Divide by (x - alpha); returns (quotient, remainder scalar)."""
        alpha = as_fraction(alpha)
        if not self._num:
            return Polynomial(), Fraction(0)
        # Homogeneous Horner at alpha = r/s: out[j] is s^j du times the
        # quotient's coefficient of x^(n-1-j), and out[n] is s^n du times
        # the remainder.
        r, s = alpha.numerator, alpha.denominator
        acc, sk, out = 0, 1, []
        for c in reversed(self._num):
            acc = acc * r + c * sk
            out.append(acc)
            sk *= s
        sk //= s
        rem = Fraction(out.pop(), self._den * sk)
        out.reverse()
        if s > 1:
            sk = 1
            for k in range(1, len(out)):
                sk *= s
                out[k] *= sk
        den = self._den * sk
        return _reduced(out, den, den), rem

    def __call__(self, x) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = as_fraction(x)
        if not self._num:
            return Fraction(0)
        # Homogeneous Horner at x = r/s: acc = s^n du p(x).
        r, s = x.numerator, x.denominator
        acc, sk = 0, 1
        for c in reversed(self._num):
            acc = acc * r + c * sk
            sk *= s
        return Fraction(acc, self._den * sk // s)

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        p, q = _scalar(other)
        return _make([p], q)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        # A constant hashes like the rational it equals (see __eq__).
        if len(self._num) <= 1:
            return hash(self.coeff(0))
        return hash((self._num, self._den))

    def __repr__(self):
        return "Polynomial(%s)" % (list(map(str, self.coeffs)),)

    def __str__(self):
        d, parts = self._den, []
        for k in range(len(self._num) - 1, -1, -1):
            c = self._num[k]
            if c:
                x = "" if k == 0 else "x" if k == 1 else "x^%d" % k
                m = "" if x and abs(c) == d else str(Fraction(abs(c), d))
                sign = ("+ " if c > 0 else "- ") if parts else "-" * (c < 0)
                parts.append(sign + (m + "*" + x if m and x else m + x))
        return " ".join(parts) or "0"


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
    # sqrt(u / du) = sqrt(u du) / du, and a square root over Q of the
    # integer polynomial w = u du has integer coefficients (Gauss's lemma),
    # so an inexact division below means there is none.
    du = p._den
    w = [c * du for c in p._num]
    lead = math.isqrt(w[-1]) if w[-1] > 0 else 0
    if not lead or lead * lead != w[-1]:
        return None
    g = deg // 2
    s = [0] * (g + 1)
    s[g] = lead
    # Match coefficients of x^(g+i) downward, then check those below x^g.
    for i in range(g - 1, -1, -1):
        acc = w[g + i]
        for j in range(i + 1, g):
            acc -= s[j] * s[g + i - j]
        s[i], r = divmod(acc, 2 * lead)
        if r:
            return None
    for k in range(g):
        acc = -w[k]
        for j in range(k + 1):
            acc += s[j] * s[k - j]
        if acc:
            return None
    return _reduced(s, du, du)


def _derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _horner(cs, x):
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _simple_roots_mod(f, q):
    """The roots of f mod q, or None if one of them is multiple."""
    fq = [c % q for c in f]
    roots = [x for x in range(q) if _horner(fq, x) % q == 0]
    dfq = _derivative(fq)
    return None if any(_horner(dfq, x) % q == 0 for x in roots) else roots


def _squarefree(f):
    """f / gcd(f, f') for a monic integer f, by the primitive PRS (Collins,
    J. ACM 14 (1967)): each remainder is divided by its content.  The gcd
    divides a monic f, so its lead is +-1."""
    a, b = f, _derivative(f)
    while b:
        g = math.gcd(*b)
        b = [c // g for c in b]
        a, b = b, _stripped(_pseudo_divmod(a, b)[1], 1)[0]
    return _pseudo_divmod(f, a if a[-1] > 0 else [-c for c in a])[0]


def rational_roots(p: Polynomial):
    """The distinct rational roots of a monic polynomial, in no set order.

    After Loos (SIAM J. Comput. 12 (1983)).  In lowest terms p = sum(num_i
    x^i) / den, and its rational roots are y / den for the integer roots y
    of the monic f with f_i = num_i den^(n-1-i).  At an odd prime q where
    every root of f mod q is simple, each lifts by Newton steps mod q^(2^k)
    to the one integer candidate within Cauchy's bound 1 + max|f_i|, a root
    if f vanishes there.  f need not be squarefree: a root that is simple
    mod q lifts to itself whatever else divides f.  The walk starts at the
    least odd prime q >= n^2, as below n no q keeps n roots apart and below
    n^2 two usually meet.  At the first q with a multiple root, f becomes
    its squarefree part, once; then any q prime to its discriminant ends
    the walk, so the work is polynomial in the degree and bit-size of p.
    """
    num, den = p._num, p._den
    if not num or num[-1] != den:
        raise ValueError("rational_roots needs a monic polynomial")
    n = len(num) - 1
    f = [c * den ** (n - 1 - i) for i, c in enumerate(num[:-1])] + [1]
    q, squarefree, mod_q = max(3, n * n) | 1, False, None
    while mod_q is None:
        if any(q % d == 0 for d in range(3, math.isqrt(q) + 1, 2)):
            q += 2
        elif (mod_q := _simple_roots_mod(f, q)) is None:
            if squarefree:
                q += 2
            else:
                f, squarefree = _squarefree(f), True
    df = _derivative(f)
    bound = 1 + max(map(abs, f[:-1]), default=0)
    roots = []
    for y in mod_q:
        # inv is 1/f'(y) mod m, which is all a step to m^2 needs as
        # f(y) = 0 mod m; it is lifted along with y by inv(2 - f'(y) inv).
        m, inv = q, pow(_horner(df, y), -1, q)
        while m <= 2 * bound:
            m *= m
            y = (y - _horner(f, y) * inv) % m
            inv = inv * (2 - _horner(df, y) * inv) % m
        if y > m // 2:
            y -= m
        if _horner(f, y) == 0:
            roots.append(Fraction(y, den))
    return roots
