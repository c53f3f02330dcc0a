"""Independent exact computations the benchmark checks alphafrac against.

Polynomials here are tuples of Fractions in ascending degree with no
trailing zeros, built only from the standard library, so a fault in
``alphafrac.polyring`` cannot hide a fault it causes elsewhere.
"""

from fractions import Fraction
from math import isqrt


def norm(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(Fraction(c) for c in p)


def padd(p, q):
    n = max(len(p), len(q))
    return norm((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                for i in range(n))


def pscale(p, c):
    return norm(c * x for x in p)


def psub(p, q):
    return padd(p, pscale(q, -1))


def pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return norm(out)


def peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def from_roots(roots):
    p = (Fraction(1),)
    for r in roots:
        p = pmul(p, (-r, Fraction(1)))
    return p


def coeffs(poly):
    """Coefficients of an alphafrac Polynomial, read through its public API."""
    if not poly:
        return ()
    return tuple(poly.coeff(k) for k in range(poly.degree + 1))


def triple_of(b0, block, alpha):
    """(A, B, C, T) of [b0; block]_alpha by the convergent recurrence.

    P_k = b_k P_{k-1} + (x - alpha_k) P_{k-2}, likewise Q_k, with the last
    coefficient b_N - b_0; then A = Q_{N-1}, B = (Q_N - P_{N-1})/2,
    C = -P_N and the half-trace T = (P_{N-1} + Q_N)/2.
    """
    n = len(alpha)
    p_prev, p = (Fraction(1),), norm([b0])
    q_prev, q = (), (Fraction(1),)
    for k in range(1, n + 1):
        b = block[k - 1] if k < n else block[-1] - b0
        a = (-alpha[k - 1], Fraction(1))
        p_prev, p = p, padd(pscale(p, b), pmul(a, p_prev))
        q_prev, q = q, padd(pscale(q, b), pmul(a, q_prev))
    half = Fraction(1, 2)
    return (q_prev, pscale(psub(q, p_prev), half), pscale(p, -1),
            pscale(padd(p_prev, q), half))


def conjugate_exists(A, B, C, T, alpha):
    """Whether the expansion with half-trace -T exists over the same shifts.

    Runs the elementary-factor peel of [[-T-B, -C], [A, -T+B]]: the
    conjugate exists unless a step meets a null vector with vanishing
    first component, the codimension-1 locus that the library reports as
    FactorizationDegenerate.  Inputs on that locus are redrawn.
    """
    X, Y, Z, W = psub(pscale(T, -1), B), pscale(C, -1), A, psub(B, T)
    for al in alpha:
        x, y, z, w = (peval(f, al) for f in (X, Y, Z, W))
        if z:
            b = x / z
        elif w and not x:
            b = y / w
        else:
            return False
        X, Y, Z, W = (Z, W, _divide_linear(psub(X, pscale(Z, b)), al),
                      _divide_linear(psub(Y, pscale(W, b)), al))
    return True


def _divide_linear(p, al):
    """Exact quotient of p by (x - al); p(al) = 0 on this path."""
    out, acc = [], Fraction(0)
    for c in reversed(p):
        acc = acc * al + c
        out.append(acc)
    return norm(reversed(out[:-1]))


def rational_sqrt(x):
    if x < 0:
        return None
    n, d = isqrt(x.numerator), isqrt(x.denominator)
    if n * n != x.numerator or d * d != x.denominator:
        return None
    return Fraction(n, d)


def jacobi_of_divisor(lams, V, W):
    """U, R and the divisor points for U = prod(x - lam), R = V^2 + U W."""
    U = from_roots(lams)
    R = padd(pmul(V, V), pmul(U, W))
    points = tuple((lam, peval(V, lam)) for lam in sorted(lams))
    return U, R, points


def alpha_triple(U, V, W, beta):
    """A = U, B = V + beta U, C = -W + 2 beta V + beta^2 U."""
    return (U, padd(V, pscale(U, beta)),
            padd(padd(pscale(W, -1), pscale(V, 2 * beta)),
                 pscale(U, beta * beta)))


def pure_betas(U, V, W, a):
    """Rational roots beta of U(a) beta^2 + 2 V(a) beta - W(a) = 0."""
    u, v, w = peval(U, a), peval(V, a), peval(W, a)
    if u == 0:
        return {w / (2 * v)}
    s = rational_sqrt(v * v + u * w)
    return {-(v + s) / u, -(v - s) / u}
