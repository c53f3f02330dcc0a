"""Exact univariate polynomial arithmetic over Q.

A polynomial is integer numerators over one common denominator, and its
coefficients are read as fractions.Fraction, so every operation here is
exact.  Values are immutable after construction and safe to share.  The
representation is this module's alone: tests/test_source.py fails if any
other module of the package reads _num or _den.

Arithmetic cancels the way Henrici's rational arithmetic does (J. ACM 3
(1956)): the gcds of the operands' denominators and contents are taken
before the multiplications, so a result needs at most one reduction,
_reduced, against a known factor of its denominator.  The content rule is
one helper, _cancel; a sum is formed by one helper, _combine, shared by
addition, subtraction and the two fused steps; a scalar product cancels by
_times.  A product by one linear factor x - r/s is one helper, _root_step,
shared by from_roots, _convergent_step and, through _with_root, the Newton
pass of jacobi.jacobi_from_divisor; its cancellation of s never fires for
from_roots and that pass, whose products of linear factors are primitive.
The fused steps, _convergent_step and _peel_step, each do a whole step of
one of the paper's two loops with one reduction.  Values at r/s
come from one integer Horner loop homogeneous in s, _homogeneous, which
__call__, the peel's _ratio and the root search share; its dividing form,
_horner_div, serves _peel_step alone.  divmod is integer pseudo-division
followed by one reduction; synthetic_div is divmod by x - alpha.
"""

import math
import re
from fractions import Fraction
from itertools import zip_longest

# Each integer has at most 4300 digits, CPython's default limit on int <->
# str conversion, so parsing input stays linear in its length.
_RATIONAL = re.compile(r"-?[0-9]{1,4300}(/[1-9][0-9]{0,4299})?")
_BAD_RATIONAL = ("rational must be an integer or a string \"p\" or "
                 "\"p/q\" in lowest terms, got %.40r")


def as_fraction(x) -> Fraction:
    """Coerce x to an exact rational by the grammar of the JSON wire format.

    x is a Fraction, an int, or a string "p" or "p/q" in lowest terms with
    q > 0 and at most 4300 digits in p and in q.  Any other string, e.g.
    "1.5", "1e400", " 3" or "2/4", raises ValueError, so no exponent is
    ever expanded; bools, floats and other types raise TypeError.
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

    Text, a dict, a set or anything that cannot be iterated raises
    TypeError: iterated, "12" would be the rationals "1" and "2", b"12" the
    integers 49 and 50, the word "epspi" the letters "e", "p", ..., a dict
    its keys and a set its hash order.
    """
    if not isinstance(xs, (str, bytes, bytearray, dict, set, frozenset)):
        try:
            iter(xs)
            return xs
        except TypeError:
            pass
    text = isinstance(xs, (str, bytes, bytearray))
    kind = "text" if text else type(xs).__name__
    raise TypeError("expected a sequence, got the %s %.40r" % (kind, xs))


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
    """_make(num, den) once h = gcd(g, *num) is divided out, for a list num
    and g | den.

    g must hold every prime that can divide both den and the content of
    num.  One gcd with num[0] bounds h, and one divmod pass divides by it:
    a nonzero remainder r lowers h to gcd(h, r) and rescales the quotients
    found so far, so one long division per coefficient both tests and
    divides, where a gcd chain and a division pass take two.  Once h is 1,
    num is taken as it is.
    """
    if not num:
        return _make(num, den)
    h = math.gcd(g, num[0])
    if h == 1:
        return _make(num, den)
    out = []
    for c in num:
        q, r = divmod(c, h)
        if r:
            g = math.gcd(h, r)
            if g == 1:
                return _make(num, den)
            m, h = h // g, g
            out = [a * m for a in out]
            q = q * m + r // h
        out.append(q)
    return _make(out, den // h)


def _combine(a, u, du, c, v, dv):
    """(num, den, g) with a u/du + c v/dv = num/den, unreduced, for integer
    lists u, v and integers a, c with a u/du and c v/dv in lowest terms.

    With g = gcd(du, dv), num = a u dv/g + c v du/g over den = du dv/g,
    and only primes of g can divide both den and the content of num.
    """
    g = math.gcd(du, dv)
    s, t = du // g, dv // g
    a, c = a * t, c * s
    num = [x * a + y * c for x, y in zip_longest(u, v, fillvalue=0)]
    return num, s * dv, g


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


def _horner_div(num, r, s):
    """(quot, sk) with num = (x - r/s) quot / (sk/s) + a constant, for a
    nonempty integer list num, r/s in lowest terms and sk = s^(len(num)-1).

    Homogeneous Horner: the j-th partial sum from the top is s^j times the
    quotient's coefficient of x^(n-2-j), so one scaling puts them all over
    s^(n-2) (over 1 when s = 1).  For len(num) = 1, quot is empty and
    sk // s may be 0, a denominator that _make drops with the zero
    polynomial.  The peel keeps this kernel rather than the general
    _pseudo_divmod: through it, peel steps ran 1.15-1.25x slower at
    N = 5..61 and an in-process expand_roundtrip about 3-4 % slower.
    """
    acc, sk, quot = 0, 1, []
    for c in reversed(num):
        acc = acc * r + c * sk
        quot.append(acc)
        sk *= s
    sk //= s
    quot.pop()
    quot.reverse()
    if s > 1:
        sj = 1
        for k in range(1, len(quot)):
            sj *= s
            quot[k] *= sj
    return quot, sk


def _homogeneous(num, r, s):
    """s^n f(r/s) for the integer polynomial f with the n + 1 numerators
    num, by homogeneous Horner."""
    acc, sk = 0, 1
    for c in reversed(num):
        acc = acc * r + c * sk
        sk *= s
    return acc


def _cancel(d, v):
    """(d/g, v/g) with g = gcd(d, *v), for an integer d and a list v of
    integers: d cancelled against the content of v (d = 0 takes the
    primitive part of a nonzero v).

    * applies it to both operands, _times to a scalar's denominator against
    the polynomial, _root_step to the root's denominator against the
    polynomial and _squarefree, with d = 0, to each remainder.
    """
    g = math.gcd(d, *v)
    if g > 1:
        return d // g, [c // g for c in v]
    return d, v


def _root_step(v, d, r, s):
    """(num, den) with (x - r/s) v/d = num/den in lowest terms, for v/d and
    r/s in lowest terms: one linear factor more, in one pass.

    (x - r/s) v/d = (s x - r) v / (s d), and s x - r is primitive, so by
    Gauss's lemma the only factor to cancel is gcd(s, *v), taken first.  It
    has three users: from_roots, _convergent_step's (x - alpha) P_0 and,
    through _with_root, the Newton pass that grows U in
    jacobi.jacobi_from_divisor.  For from_roots and U the cancellation never
    fires: each is a product of primitive factors, so v is primitive.
    """
    t = s
    if s > 1:
        t, v = _cancel(s, v)
    return [s * c - r * e for c, e in zip([0, *v], [*v, 0])], t * d


def _with_root(p, a):
    """The Polynomial (x - a) p, for a Fraction a, by _root_step."""
    return _make(*_root_step(p._num, p._den, a.numerator, a.denominator))


def _ratio(p, q, alpha):
    """(x, z), integers with x/z = p(alpha)/q(alpha), x = 0 exactly when
    p(alpha) = 0 and z = 0 exactly when q(alpha) = 0: at alpha = r/s the
    value of f/d of degree n is s^n f(r/s) / (d s^n), left unreduced.

    Both values are brought over a common power of s, so the caller's one
    Fraction(x, z), the peel's b_k, is the only reduction.
    """
    r, s = alpha.numerator, alpha.denominator
    x = _homogeneous(p._num, r, s) * q._den
    z = _homogeneous(q._num, r, s) * p._den
    e = len(q._num) - len(p._num)
    if e > 0:
        x *= s ** e
    elif e < 0:
        z *= s ** -e
    return x, z


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
    Fractions each time they are read, so a loop should read coeffs once.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        cs = [as_fraction(c) for c in as_sequence(coeffs)]
        # The lcm of reduced denominators is coprime to the numerators.
        den = math.lcm(*[c.denominator for c in cs])
        self._num, self._den = _stripped(
            [c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        """The monic prod(x - r) over the roots, as prod(s x - a) / prod(s)
        for r = a/s, one _root_step per root."""
        num, den = [1], 1
        for r in as_sequence(roots):
            r = as_fraction(r)
            num, den = _root_step(num, den, r.numerator, r.denominator)
        return _make(num, den)

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
        return _reduced(*_combine(1, self._num, self._den,
                                  1, other._num, other._den))

    __radd__ = __add__

    def __neg__(self):
        return _make([-c for c in self._num], self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        return _reduced(*_combine(1, self._num, self._den,
                                  -1, other._num, other._den))

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
        du, v = _cancel(du, v)
        dv, u = _cancel(dv, u)
        out = [0] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    out[i + j] += a * b
        return _make(out, du * dv)

    __rmul__ = __mul__

    def _scaled(self, p, q):
        """self * p / q, for p / q in lowest terms with q > 0."""
        if not p or not self._num:
            return Polynomial()
        p, v, d = _times(p, q, self._num, self._den)
        return _make([c * p for c in v], d)

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
        quot, rem = divmod(self, Polynomial.from_roots([alpha]))
        return quot, rem.coeff(0)

    def __call__(self, x) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = as_fraction(x)
        num = self._num
        if not num:
            return Fraction(0)
        s = x.denominator
        return Fraction(_homogeneous(num, x.numerator, s),
                        self._den * s ** (len(num) - 1))

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
        """Printed from the integer form with no Fraction: each nonzero
        term's magnitude |c|/d is put in lowest terms by one gcd(c, d)."""
        d, parts = self._den, []
        for k in range(len(self._num) - 1, -1, -1):
            c = self._num[k]
            if c:
                x = "" if k == 0 else "x" if k == 1 else "x^%d" % k
                g = math.gcd(c, d)
                a, b = abs(c) // g, d // g
                m = ("" if x and a == b else str(a) if b == 1
                     else "%d/%d" % (a, b))
                sign = ("+ " if c > 0 else "- ") if parts else "-" * (c < 0)
                parts.append(sign + (m + "*" + x if m and x else m + x))
        return " ".join(parts) or "0"


def _times(p, q, u, du):
    """(n, v, d) with (p/q) u/du = n v/d in lowest terms, for p/q and u/du
    in lowest terms with q > 0: p is cancelled against du and q against the
    content of u, as in __mul__."""
    g = math.gcd(p, du)
    if g > 1:
        p, du = p // g, du // g
    q, u = _cancel(q, u)
    return p, u, q * du


def _convergent_step(b, p1, alpha, p0):
    """b p1 + (x - alpha) p0, for rationals b and alpha, in one pass.

    A step of the convergent recurrence, with two big multiplications per
    coefficient after the scalar gcds.  Each product is put in lowest terms
    before it is formed, b p1 by _times and (x - alpha) p0 by _root_step, so
    the sum needs one reduction, by _combine's rule.
    """
    bn, u, d1 = _times(b.numerator, b.denominator, p1._num, p1._den)
    y, d2 = _root_step(p0._num, p0._den, alpha.numerator, alpha.denominator)
    return _reduced(*_combine(bn, u, d1, 1, y, d2))


def _peel_step(p, b, q, alpha):
    """The quotient of p - b q by x - alpha, for rationals b and alpha, in
    one pass; the remainder is dropped.

    A step of the transfer matrix's peel.  b q is put in lowest terms by
    _times; the difference is divided by homogeneous Horner before any
    reduction, and the quotient is reduced once.
    """
    bn, v, d2 = _times(b.numerator, b.denominator, q._num, q._den)
    num, den, _ = _combine(1, p._num, p._den, -bn, v, d2)
    if not num:
        return Polynomial()
    s = alpha.denominator
    quot, sk = _horner_div(num, alpha.numerator, s)
    den *= sk // s
    return _reduced(quot, den, den)


def poly_sqrt(p: Polynomial):
    """Exact square root of a polynomial over Q, or None.

    When a root exists it is canonicalized to a positive leading
    coefficient; sqrt(0) = 0.
    """
    if not p:
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


def _simple_roots_mod(f, q):
    """The roots of f mod q, or None if one of them is multiple."""
    fq = [c % q for c in f]
    roots = [x for x in range(q) if _homogeneous(fq, x, 1) % q == 0]
    dfq = _derivative(fq)
    multiple = any(_homogeneous(dfq, x, 1) % q == 0 for x in roots)
    return None if multiple else roots


def _squarefree(f):
    """f / gcd(f, f') for a monic integer f, by the primitive PRS (Collins,
    J. ACM 14 (1967)): each remainder is divided by its content.  The gcd
    divides a monic f, so its lead is +-1."""
    a, b = f, _derivative(f)
    while b:
        _, b = _cancel(0, b)
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
    Every value, mod q and in the lifting, is _homogeneous at denominator 1.
    A p of degree 6 with roots a/b, |a|, b <= 1000, or of degree 3 with
    integer roots near 10^12, takes milliseconds.
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
        m, inv = q, pow(_homogeneous(df, y, 1), -1, q)
        while m <= 2 * bound:
            m *= m
            y = (y - _homogeneous(f, y, 1) * inv) % m
            inv = inv * (2 - _homogeneous(df, y, 1) * inv) % m
        if y > m // 2:
            y -= m
        if _homogeneous(f, y, 1) == 0:
            roots.append(Fraction(y, den))
    return roots
