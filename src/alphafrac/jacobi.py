"""Jacobi triples, divisor interpolation and the correspondence with alpha-triples.

A Jacobi triple (U, V, W) with U monic of degree g, W monic of degree g+1
and deg V <= g-1 satisfies V^2 + U W = R and is the Mumford-style
coordinate of a non-special degree-g divisor on the curve mu^2 = R(lambda).
Shifting by beta gives the bijection with alpha-triples:
A = U, B = V + beta*U, C = -W + 2*beta*V + beta^2*U, i.e. A y^2 + 2 B y + C
is U y^2 + 2 V y - W at y + beta, and the inverse is the shift by -beta.
Both directions are written in one mirrored form that computes the middle
polynomial once and reuses it: B = V + beta U and C = beta (V + B) - W one
way, V = B - beta A and W = beta (B + V) - C the other.  In canonical form
they print the same text as the paper's formulas.
"""

from collections import namedtuple

from .errors import (
    IrrationalBeta,
    IrrationalSupport,
    PointOffCurve,
    RepeatedAbscissa,
    RootOfR,
    SpecialDivisor,
)
from .expansion import AlphaTriple, _PolyFields
from .polyring import (Polynomial, _with_root, as_fraction, as_sequence,
                       rational_roots, rational_sqrt)


CurvePoint = namedtuple("CurvePoint", "lam mu")
CurvePoint.__doc__ = "An affine point (lambda, mu) with mu^2 = R(lambda)."


class JacobiTriple(_PolyFields):
    """Mumford-style data (U, V, W) on the curve mu^2 = R(lambda)."""

    __slots__ = ("U", "V", "W", "R")

    def __init__(self, U: Polynomial, V: Polynomial, W: Polynomial,
                 R: Polynomial):
        super().__init__(U, V, W, R)
        if U.lead != 1:
            raise ValueError("U must be monic")
        g = U.degree
        if W.degree != g + 1 or W.lead != 1:
            raise ValueError("W must be monic of degree g + 1")
        if V.degree > g - 1:
            raise ValueError("deg V must be at most g - 1")
        if V * V + U * W != R:
            raise ValueError("V^2 + U W must equal R")

    @property
    def genus(self) -> int:
        return self.U.degree


def jacobi_from_divisor(points, R: Polynomial) -> JacobiTriple:
    """Jacobi triple of a divisor given as g affine curve points.

    U = prod(x - lam_i), V interpolates V(lam_i) = mu_i, W = (R - V^2)/U.
    The points form a sequence of pairs of rationals, not text, dicts or
    sets; a malformed point raises TypeError or ValueError naming its index.

    U and V are built together in one pass of Newton's interpolation
    (Knuth, TAOCP 2, 4.6.4): for each point in turn, V gains the multiple of
    the U so far that makes it take mu at lam, then U gains the factor
    x - lam by polyring's one linear-factor step: a single pass over U's
    integer numerators with nothing to cancel, as U is primitive.  That is
    O(g^2) coefficient operations, where Lagrange's formula rebuilds every
    basis product in O(g^3).  The same pass checks the abscissae: U(lam)
    is prod(lam - lam_j) over the points met so far, so it is 0 exactly
    when lam repeats one.  The remainder of (R - V^2) / U has degree below
    g and the value R(lam_i) - mu_i^2 at each of the g distinct lam_i, so
    it is 0 exactly when every point is on the curve; only when it is not
    are the points scanned, to name the first one off it.  A successful
    call evaluates neither R nor mu^2, and the JacobiTriple constructor
    re-checks V^2 + U W = R.
    """
    pts = []
    for i, p in enumerate(as_sequence(points)):
        try:
            lam, mu = as_sequence(p)
        except (TypeError, ValueError) as exc:
            cls = TypeError if isinstance(exc, TypeError) else ValueError
            raise cls("point %d must be a pair (lambda, mu), got %.40r"
                      % (i, p)) from None
        pts.append(CurvePoint(as_fraction(lam), as_fraction(mu)))
    # U vanishes at the points met so far: adding a multiple of it to V
    # keeps V's values there.
    U, V = Polynomial([1]), Polynomial()
    for i, (lam, mu) in enumerate(pts):
        u = U(lam)
        if u == 0:
            j = [p.lam for p in pts].index(lam)
            if pts[j].mu == -mu:
                raise SpecialDivisor(
                    "points %d and %d are conjugate under the "
                    "hyperelliptic involution" % (j, i))
            raise RepeatedAbscissa(
                "points %d and %d share lambda = %s" % (j, i, lam))
        V = V + U * ((mu - V(lam)) / u)
        U = _with_root(U, lam)
    W, rest = divmod(R - V * V, U)
    if rest:
        for i, (lam, mu) in enumerate(pts):
            if mu * mu != R(lam):
                raise PointOffCurve("point %d: mu^2 = %s but R(%s) = %s"
                                    % (i, mu * mu, lam, R(lam)))
    return JacobiTriple(U, V, W, R)


def divisor_from_jacobi(j: JacobiTriple):
    """The divisor points (lam_i, V(lam_i)) at the rational roots of U.

    Requires U to split into distinct rational linear factors; otherwise
    the Jacobi triple itself is the faithful representation.  Roots are
    found in time polynomial in the degree and bit-size of U.
    """
    u = j.U
    roots = sorted(rational_roots(u))
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
    """The alpha-triple of j shifted by beta (see the module docstring)."""
    beta = as_fraction(beta)
    B = j.V + beta * j.U
    return AlphaTriple(j.U, B, beta * (j.V + B) - j.W)


def jacobi_from_alpha_triple(t: AlphaTriple):
    """Inverse map, the shift by -beta for beta the degree-g coefficient of
    B; returns (triple, beta)."""
    beta = t.B.coeff(t.genus)
    V = t.B - beta * t.A
    return JacobiTriple(t.A, V, beta * (t.B + V) - t.C, t.discriminant), beta


def pure_beta_candidates(j: JacobiTriple, alpha_n):
    """Rational shifts beta making C vanish at alpha_N (the pure condition).

    Solves U(a) beta^2 + 2 V(a) beta - W(a) = 0 at a = alpha_N.  Requires
    R(alpha_N) != 0; when U(alpha_N) = 0 the quadratic degenerates to the
    single root W(a) / (2 V(a)).  Roots are returned plus-branch first.
    """
    a = as_fraction(alpha_n)
    u, v, w = j.U(a), j.V(a), j.W(a)
    r = v * v + u * w  # R(a), as V^2 + U W = R
    if r == 0:
        raise RootOfR("alpha_N = %s is a root of R" % a)
    if u == 0:
        # v = 0 too would force r = v^2 + u*w = 0, excluded above.
        return [w / (2 * v)]
    s = rational_sqrt(r)
    if s is None:
        raise IrrationalBeta(
            "R(alpha_N) = %s is not a rational square" % r)
    return [-(v + s) / u, -(v - s) / u]
