import io
import math
import sys
from fractions import Fraction

import pytest

from alphafrac import (
    AlphaSequence,
    AlphaTriple,
    CurvePoint,
    Expansion,
    IrrationalSupport,
    JacobiTriple,
    PointOffCurve,
    RepeatedAbscissa,
    SpecialDivisor,
    ZeroPivot,
    apply_word,
    expansion_to_triple,
)
from alphafrac.cli import main
from alphafrac.polyring import Polynomial, as_fraction


def P(*coeffs):
    return Polynomial(coeffs)


def F(*args):
    return Fraction(*args)


def make_expansion(b0, block, alpha):
    """The Expansion [b0; block]_(alpha), by the public constructors; the
    names are the wire's, so make_expansion(**record) reads a record."""
    return Expansion(b0, block, AlphaSequence(alpha))


# The paper's worked genus-1 example (section 4), as the CLI reads it:
# A = x - 6, B = -(3x - 7)/2, C = -x^2 + 4x - 2 over the shifts (1, 3, 4),
# its expansion [1; -3, 1, 3]_(1,3,4), and its Jacobi triple, with beta =
# -3/2 and R = B^2 - AC; SECT4_INPUT is the expand request.  The
# pure-periodic example is pure-n3 of alphafrac.datasets.  Tests copy a
# payload before they change it.
SECT4_ALPHA_JSON = ["1", "3", "4"]
SECT4_TRIPLE_JSON = {"A": ["-6", "1"], "B": ["7/2", "-3/2"],
                     "C": ["-2", "4", "-1"]}
SECT4_INPUT = dict(SECT4_TRIPLE_JSON, alpha=SECT4_ALPHA_JSON)
SECT4_EXPANSION_JSON = {"b0": "1", "block": ["-3", "1", "3"],
                        "alpha": SECT4_ALPHA_JSON}
SECT4_R_JSON = ["1/4", "31/2", "-31/4", "1"]
SECT4_JACOBI_JSON = {"U": ["-6", "1"], "V": ["-11/2"],
                     "W": ["5", "-7/4", "1"], "R": SECT4_R_JSON}
PURE_N3_TRIPLE_JSON = {"A": ["0", "1"], "B": ["-1", "-1/2"],
                       "C": ["2", "1", "-1"]}
PURE_N3_EXPANSION_JSON = {"b0": "1", "block": ["1", "1", "1"],
                          "alpha": ["0", "1", "2"]}

# The same examples as library values, built from the payloads above.
SECT4_ALPHA = AlphaSequence(SECT4_ALPHA_JSON)
SECT4_TRIPLE = AlphaTriple(*(Polynomial(SECT4_TRIPLE_JSON[k]) for k in "ABC"))
SECT4 = make_expansion(**SECT4_EXPANSION_JSON)
SECT4_R = Polynomial(SECT4_R_JSON)
PURE_N3_TRIPLE = AlphaTriple(*(Polynomial(PURE_N3_TRIPLE_JSON[k])
                               for k in "ABC"))
PURE_N3 = make_expansion(**PURE_N3_EXPANSION_JSON)

# The example's Z_2 x S_3 orbit: at each of the six orders of its shifts,
# expand's plus branch, then its minus branch.  SECT4 is the first.
SECT4_ORBIT = tuple(make_expansion(*row) for row in [
    (1, [-3, 1, 3], [1, 3, 4]),
    (F(-1, 5), [F(-5, 2), F(6, 5), F(3, 10)], [1, 3, 4]),
    (1, [-2, 1, 2], [1, 4, 3]),
    (F(-1, 5), [F(-5, 3), F(6, 5), F(-8, 15)], [1, 4, 3]),
    (F(1, 3), [-3, F(5, 3), F(7, 3)], [3, 1, 4]),
    (-1, [F(-5, 2), 2, F(-1, 2)], [3, 1, 4]),
    (F(1, 3), [F(-6, 5), F(5, 3), F(8, 15)], [3, 4, 1]),
    (-1, [-1, 2, -2], [3, 4, 1]),
    (F(-1, 2), [F(-6, 5), F(5, 2), F(-3, 10)], [4, 3, 1]),
    (-2, [-1, 3, -3], [4, 3, 1]),
    (F(-1, 2), [-2, F(5, 2), F(1, 2)], [4, 1, 3]),
    (-2, [F(-5, 3), 3, F(-7, 3)], [4, 1, 3]),
])


def null_vector(step, lam):
    """The CLI's record of a peel that meets a null vector at step, lam."""
    return {"error": "FactorizationDegenerate",
            "detail": "null vector has vanishing first component at step %d "
                      "(lambda = %d)" % (step, lam)}


# Three expand requests whose peel meets a null vector on one branch or on
# both, each with the CLI's exit code and output: the two branches in
# order, a degenerate one as its error record, or, when both are, the plus
# branch's error record alone, which the library raises.
DEGENERATE_EXPAND = {
    "minus": ({"A": ["-3", "1"], "B": ["-3", "-1"], "C": ["3", "-2", "-1"],
               "alpha": ["-3", "1", "3"]}, 0,
              [{"b0": "0", "block": ["-1", "2", "1"],
                "alpha": ["-3", "1", "3"]}, null_vector(1, 1)]),
    "plus": ({"A": ["5", "1"], "B": ["1/2", "-1"], "C": ["30", "1", "-1"],
              "alpha": ["6", "-6", "-5"]}, 0,
             [null_vector(1, -6), {"b0": "0", "block": ["-1", "1", "0"],
                                   "alpha": ["6", "-6", "-5"]}]),
    # S = x
    "both": ({"A": ["0", "1"], "B": [], "C": ["-2", "2", "-1"],
              "alpha": ["0", "1", "2"]}, 1, null_vector(0, 0)),
}


def sect4_jacobi():
    """The example's Jacobi triple.  Built on call: its constructor checks
    V^2 + UW = R with polyring's arithmetic, so a fault there fails the
    tests that use it, not the loading of every test module."""
    return JacobiTriple(*(Polynomial(SECT4_JACOBI_JSON[k]) for k in "UVWR"))


@pytest.fixture
def sect4_triple():
    return SECT4_TRIPLE


@pytest.fixture
def sect4_alpha():
    return SECT4_ALPHA


def run_cli(argv, stdin_text=None):
    """alphafrac.cli.main(argv) in-process, with stdin_text (or nothing) as
    stdin; returns (exit code, stdout text, stderr text)."""
    streams = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = (
        io.StringIO(stdin_text or ""), out, err)
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = streams
    return code, out.getvalue(), err.getvalue()


def to_sympy(p):
    """p as a sympy polynomial in x over QQ.  sympy is test-only and
    imported here, so that this module loads without it."""
    import sympy
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], sympy.Symbol("x"),
                      domain="QQ")


def random_rational(rng, lo=-10, hi=10, max_den=4, nonzero=False):
    while True:
        x = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if not nonzero or x != 0:
            return x


def random_expansion(rng, n):
    """Random expansion: nonzero block entries in [-10,10] cap Q,
    distinct small-integer shifts."""
    alphas = rng.sample(range(-8, 9), n)
    b0 = random_rational(rng)
    block = [random_rational(rng, nonzero=True) for _ in range(n)]
    return Expansion(b0, block, AlphaSequence(alphas))


def coxeter_relations(e):
    """Check at e the commutations sigma_k sigma_j = sigma_j sigma_k,
    k + 2 <= j, and the braids sigma_k sigma_(k+1) sigma_k =
    sigma_(k+1) sigma_k sigma_(k+1) whose pivots are all nonzero;
    returns how many of each were checked."""
    comm = braid = 0
    for k in range(1, e.n):
        for j in range(k + 2, e.n):
            try:
                lhs = apply_word(e, ["sigma:%d" % k, "sigma:%d" % j])
                rhs = apply_word(e, ["sigma:%d" % j, "sigma:%d" % k])
            except ZeroPivot:
                continue
            assert lhs == rhs
            comm += 1
    for k in range(1, e.n - 1):
        w1 = ["sigma:%d" % k, "sigma:%d" % (k + 1), "sigma:%d" % k]
        w2 = ["sigma:%d" % (k + 1), "sigma:%d" % k, "sigma:%d" % (k + 1)]
        try:
            lhs = apply_word(e, w1)
            rhs = apply_word(e, w2)
        except ZeroPivot:
            continue
        assert lhs == rhs
        braid += 1
    return comm, braid


def random_polynomial(rng, degree, monic=False):
    if degree < 0:
        return Polynomial()
    coeffs = [random_rational(rng, -5, 5, 3) for _ in range(degree + 1)]
    if monic:
        coeffs[-1] = Fraction(1)
    elif coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    return Polynomial(coeffs)


def random_jacobi(rng, g):
    """Random Jacobi triple: R is defined as V^2 + U W."""
    u = random_polynomial(rng, g, monic=True)
    v = random_polynomial(rng, g - 1) if g >= 1 else Polynomial()
    w = random_polynomial(rng, g + 1, monic=True)
    return JacobiTriple(u, v, w, v * v + u * w)


def linear_factor(a):
    """x - a, built by the constructor: a reference for the linear factors
    that from_roots builds."""
    return Polynomial([-as_fraction(a), 1])


def lagrange(points):
    """Reference interpolant through the (lam_i, mu_i), degree <= len - 1.

    Lagrange's formula, each basis product built from scratch: an oracle
    that shares no code path with jacobi_from_divisor's Newton pass.
    """
    total = Polynomial()
    for i, (xi, yi) in enumerate(points):
        term = Polynomial([yi])
        for j, (xj, _) in enumerate(points):
            if j != i:
                term = term * linear_factor(xj) / (xi - xj)
        total = total + term
    return total


def reference_str(p):
    """Reference str(Polynomial): the text built from the Fraction coeffs.

    Highest degree first, m*x^k with m = |c| left out when it is 1, a
    leading "-", "+ " or "- " between terms, "0" for the zero polynomial.
    """
    coeffs = p.coeffs
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
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


def reference_verify(e, t):
    """Reference verify_expansion: the report with every polynomial printed
    from its own value, a passing pair's two sides included."""
    got, T = expansion_to_triple(e)
    checks = [
        {
            "name": name,
            "pass": have == want,
            "detail": "expected %s, recomputed %s" % (want, have),
        }
        for name, want, have in (("A", t.A, got.A), ("B", t.B, got.B),
                                 ("C", t.C, got.C))
    ]
    det = (got.B - T) * (got.B + T) - got.A * got.C
    frak = e.alpha.vanishing_poly()
    checks.append({
        "name": "determinant_identity",
        "pass": det == frak,
        "detail": "P_N Q_{N-1} - P_{N-1} Q_N = %s, prod(x - alpha_i) = %s"
                  % (det, frak),
    })
    return {"pass": all(c["pass"] for c in checks), "checks": checks}


def three_pass_jacobi(points, R):
    """Reference jacobi_from_divisor for points given as (lam, mu) pairs.

    The validation as it stood before the Newton pass took it over: every
    pair i < j scanned for a shared lambda, so the pair named is the
    lexicographically least, then every point checked on the curve; then
    U and V built from scratch by from_roots and lagrange.  The error
    texts are the library's.
    """
    pts = [CurvePoint(as_fraction(lam), as_fraction(mu))
           for lam, mu in points]
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
    U = Polynomial.from_roots([p.lam for p in pts])
    V = lagrange(pts)
    return JacobiTriple(U, V, (R - V * V) // U, R)


def euclid_first_roots(u):
    """Reference distinct rational roots of a monic u, squarefree part first.

    gcd(u, u') over Q and h = u / gcd, then Loos's p-adic lift on h's monic
    integer form at the first odd prime where every root of it mod p is
    simple: the search as it stood before it ran on u itself.
    """
    a, b = u, Polynomial([k * c for k, c in enumerate(u.coeffs)][1:])
    while b:
        a, b = b, a % b
    h = u // (a / a.lead)
    n = h.degree
    D = math.lcm(*(c.denominator for c in h.coeffs))
    f = [int(c * D ** (n - i)) for i, c in enumerate(h.coeffs)]
    df = [i * c for i, c in enumerate(f)][1:]

    def horner(cs, x):
        acc = 0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    p = 3
    while True:
        mod_p = [x for x in range(p) if horner(f, x) % p == 0]
        if all(horner(df, x) % p for x in mod_p):
            break
        p += 2
        while any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            p += 2
    bound = 1 + max(map(abs, f[:-1]), default=0)
    roots = []
    for y in mod_p:
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


def divisor_reference(j):
    """Reference divisor_from_jacobi: every root divided out, then judged.

    Roots come from euclid_first_roots and are met by height (|num|, den,
    + before -); the error texts are the library's.
    """
    u = j.U
    roots = sorted(euclid_first_roots(u))
    for r in sorted(roots, key=lambda r: (abs(r.numerator), r.denominator,
                                          r < 0)):
        u = u.synthetic_div(r)[0]
        if u(r) == 0:
            raise RepeatedAbscissa("U has the repeated root %s" % r)
    if u.degree >= 1:
        raise IrrationalSupport(
            "U does not split over Q (remaining factor %s)" % u)
    return tuple(CurvePoint(r, j.V(r)) for r in roots)
