"""Jacobi triples, divisor interpolation and the correspondence with alpha-triples.

A Jacobi triple (U, V, W) with U monic of degree g, W monic of degree g+1
and deg V <= g-1 satisfies V^2 + U W = R and is the Mumford-style
coordinate of a non-special degree-g divisor on the curve mu^2 = R(lambda).
Shifting by beta gives the bijection with alpha-triples:
A = U, B = V + beta*U, C = -W + 2*beta*V + beta^2*U.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import (
    IrrationalBeta,
    IrrationalSupport,
    PointOffCurve,
    RepeatedAbscissa,
    RootOfR,
    SpecialDivisor,
)
from .expansion import AlphaTriple
from .polyring import Polynomial, as_fraction, not_text, rational_sqrt


CurvePoint = namedtuple("CurvePoint", "lam mu")
CurvePoint.__doc__ = "An affine point (lambda, mu) with mu^2 = R(lambda)."


class JacobiTriple:
    """Mumford-style data (U, V, W) on the curve mu^2 = R(lambda)."""

    __slots__ = ("U", "V", "W", "R")

    def __init__(self, U: Polynomial, V: Polynomial, W: Polynomial,
                 R: Polynomial):
        if U.is_zero() or U.lead != 1:
            raise ValueError("U must be monic")
        g = U.degree
        if W.degree != g + 1 or W.lead != 1:
            raise ValueError("W must be monic of degree g + 1")
        if V.degree > g - 1:
            raise ValueError("deg V must be at most g - 1")
        if V * V + U * W != R:
            raise ValueError("V^2 + U W must equal R")
        self.U, self.V, self.W, self.R = U, V, W, R

    @property
    def genus(self) -> int:
        return self.U.degree

    def __eq__(self, other):
        if not isinstance(other, JacobiTriple):
            return NotImplemented
        return (self.U, self.V, self.W, self.R) == \
               (other.U, other.V, other.W, other.R)

    def __hash__(self):
        return hash((self.U, self.V, self.W, self.R))

    def __repr__(self):
        return "JacobiTriple(U=%s, V=%s, W=%s, R=%s)" % (
            self.U, self.V, self.W, self.R)


def jacobi_from_divisor(points, R: Polynomial) -> JacobiTriple:
    """Jacobi triple of a divisor given as g affine curve points.

    U = prod(x - lam_i), V interpolates V(lam_i) = mu_i, W = (R - V^2)/U;
    U and V are built together in one Newton pass of O(g^2) coefficient
    operations.  A point is a pair of rationals, never a string, and
    has exactly two entries.
    Conjugate point pairs and repeated abscissae are rejected; every point
    must satisfy mu^2 = R(lambda).
    """
    pts = []
    for i, p in enumerate(map(not_text, points)):
        if len(p) != 2:
            raise ValueError("point %d must be a pair (lambda, mu), got %d "
                             "entries" % (i, len(p)))
        pts.append(CurvePoint(as_fraction(p[0]), as_fraction(p[1])))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i].lam == pts[j].lam:
                if pts[i].mu == -pts[j].mu:
                    raise SpecialDivisor(
                        "points %d and %d are conjugate under the "
                        "hyperelliptic involution" % (i, j))
                raise RepeatedAbscissa(
                    "points %d and %d share lambda = %s"
                    % (i, j, pts[i].lam))
    for i, p in enumerate(pts):
        if p.mu * p.mu != R(p.lam):
            raise PointOffCurve(
                "point %d: mu^2 = %s but R(%s) = %s"
                % (i, p.mu * p.mu, p.lam, R(p.lam)))
    # U vanishes at the points met so far: adding a multiple of it to V
    # keeps V's values there.
    U, V = Polynomial([1]), Polynomial()
    for lam, mu in pts:
        V = V + U * ((mu - V(lam)) / U(lam))
        U = U * Polynomial.linear(lam)
    # U divides R - V^2 as V(lam_i)^2 = R(lam_i); the constructor re-checks.
    return JacobiTriple(U, V, divmod(R - V * V, U)[0], R)


# The odd primes below this limit are tried on U itself before
# gcd(U, U') over Q is taken.  For a U with distinct roots, p fails only if
# it divides the discriminant of U's integer form, and a split U of degree
# g fails at every p < g, where two of its g roots share a residue.
# With 64 (17 primes, product about 6 * 10^22), random integer roots of
# height 10^6 fail all of them for none of 400 U of degree 8, 2 % at
# degree 10 and 63 % at degree 16 (below 32: 22 %, 53 %, 99 %).  On
# jacobi_roundtrip (degree <= 5) the search never went past 29.  A U with
# a repeated root tries all 17 first: about 0.3 ms at degree 4 to 6,
# against 0.1 to 0.2 ms for the gcd that follows.
_PRIME_LIMIT = 64


def _lifted_roots(u: Polynomial, limit):
    """The distinct rational roots of a monic u, or None if no odd prime
    p < limit leaves every root of u's integer form mod p simple.

    After Loos's rational-zero algorithm (SIAM J. Comput. 12 (1983)).
    Every rational root of u is y / D, D the lcm of u's denominators, for
    an integer root y of the monic integer polynomial f(y) = D^n u(y / D).
    At a prime p where every root of f mod p is simple, each such root
    lifts by Newton steps mod p^(2^k) to the only integer candidate of
    absolute value within Cauchy's bound 1 + max|f_i|; it is a root if f
    vanishes there.  The work is polynomial in the degree and the
    bit-size of u.
    """
    cs = u.coeffs
    n = len(cs) - 1
    D = math.lcm(*(c.denominator for c in cs))
    f = [c.numerator * (D ** (n - i) // c.denominator)
         for i, c in enumerate(cs)]
    df = [i * c for i, c in enumerate(f)][1:]

    def horner(cs, x):
        acc = 0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def simple_roots_mod(p):
        # The roots of f mod p, or None at the first multiple one; f and
        # f' are reduced once, so the search evaluates small integers.
        fp, dfp = [c % p for c in f], [c % p for c in df]
        found = []
        for x in range(p):
            if horner(fp, x) % p == 0:
                if horner(dfp, x) % p == 0:
                    return None
                found.append(x)
        return found

    p = 3
    while (mod_p := simple_roots_mod(p)) is None:
        p += 2
        while any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            p += 2
        if p >= limit:
            return None
    bound = 1 + max(map(abs, f[:-1]), default=0)
    roots = []
    for y in mod_p:
        # inv is 1/f'(y) mod m, which is all a step to m^2 needs as
        # f(y) = 0 mod m; it is lifted along with y by inv(2 - f'(y) inv).
        m, inv = p, pow(horner(df, y), -1, p)
        while m <= 2 * bound:
            m *= m
            y = (y - horner(f, y) * inv) % m
            inv = inv * (2 - horner(df, y) * inv) % m
        if y > m // 2:
            y -= m
        if horner(f, y) == 0:
            roots.append(Fraction(y, D))
    return roots


def _rational_roots(u: Polynomial):
    """The distinct rational roots of a monic u.

    The search runs on u itself first.  It needs a prime p at which every
    root of u's integer form mod p is simple, not a squarefree u: a
    rational root that is simple mod p lifts to itself whatever else
    divides u, so u and its squarefree part h = u / gcd(u, u') give the
    same roots.  A squarefree u has such a p, any p not dividing its
    discriminant, and at low degree nearly always one below _PRIME_LIMIT.
    Only when no p below the limit serves are the gcd and h computed, and
    h is searched with no limit; that search ends, as h is squarefree.  A
    repeated rational root is a multiple root mod every p, so a u with one
    always takes this fallback.
    """
    roots = _lifted_roots(u, _PRIME_LIMIT)
    if roots is None:
        a, b = u, Polynomial([k * c for k, c in enumerate(u.coeffs)][1:])
        while b:
            a, b = b, a % b
        roots = _lifted_roots(u // (a / a.lead), math.inf)
    return roots


def divisor_from_jacobi(j: JacobiTriple):
    """The divisor points (lam_i, V(lam_i)) at the rational roots of U.

    Requires U to split into distinct rational linear factors; otherwise
    the Jacobi triple itself is the faithful representation.  Roots are
    found in time polynomial in the degree and bit-size of U.
    """
    u = j.U
    roots = sorted(_rational_roots(u))
    # deg U distinct roots: U splits into simple linear factors.  Else a
    # root is repeated or a factor is irreducible; meet the roots by height
    # (|num|, den, + before -), so that the repeated root an error names
    # is the one of least height.
    if len(roots) < u.degree:
        for r in sorted(roots, key=lambda r: (abs(r.numerator),
                                              r.denominator, r < 0)):
            u = u.synthetic_div(r)[0]
            if u(r) == 0:
                raise RepeatedAbscissa("U has the repeated root %s" % r)
        raise IrrationalSupport(
            "U does not split over Q (remaining factor %s)" % u)
    # Points are on the curve: U(r) = 0 and V^2 + U W = R give V(r)^2 = R(r).
    return tuple(CurvePoint(r, j.V(r)) for r in roots)


def alpha_triple_from_jacobi(j: JacobiTriple, beta) -> AlphaTriple:
    """A = U, B = V + beta U, C = -W + 2 beta V + beta^2 U."""
    beta = as_fraction(beta)
    A = j.U
    B = j.V + beta * j.U
    C = -j.W + 2 * beta * j.V + beta * beta * j.U
    return AlphaTriple(A, B, C)


def jacobi_from_alpha_triple(t: AlphaTriple):
    """Inverse map: beta is the degree-g coefficient of B; returns (triple, beta)."""
    g = t.genus
    beta = t.B.coeff(g)
    U = t.A
    V = t.B - beta * t.A
    W = -t.C + 2 * beta * t.B - beta * beta * t.A
    return JacobiTriple(U, V, W, t.discriminant), beta


def pure_beta_candidates(j: JacobiTriple, alpha_n):
    """Rational shifts beta making C vanish at alpha_N (the pure condition).

    Solves U(a) beta^2 + 2 V(a) beta - W(a) = 0 at a = alpha_N.  Requires
    R(alpha_N) != 0; when U(alpha_N) = 0 the quadratic degenerates to the
    single root W(a) / (2 V(a)).  Roots are returned plus-branch first.
    """
    a = as_fraction(alpha_n)
    r = j.R(a)
    if r == 0:
        raise RootOfR("alpha_N = %s is a root of R" % a)
    u, v, w = j.U(a), j.V(a), j.W(a)
    if u == 0:
        # v = 0 too would force r = v^2 + u*w = 0, excluded above.
        return [w / (2 * v)]
    s = rational_sqrt(r)
    if s is None:
        raise IrrationalBeta(
            "R(alpha_N) = %s is not a rational square" % r)
    return [-(v + s) / u, -(v - s) / u]
