"""polyring against sympy's polynomials over QQ.

sympy and hypothesis are test-only; without them this module is skipped.
Every result is also checked to be in the canonical form (lowest terms,
no trailing zero) that makes equality and hashing exact.  The benchmark
draws integer shifts only, so these tests are what reaches evaluation,
synthetic division and the fused convergent and peel steps at a
non-integer r/s.
"""
import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from alphafrac.polyring import (  # noqa: E402
    Polynomial,
    _convergent_step,
    _peel_step,
    _squarefree,
    poly_sqrt,
    rational_roots,
)

X = sympy.Symbol("x")

# Denominators built from a few small primes share factors often, so the
# gcds that cancel them are exercised; the wide draws give large integers.
smooth = st.builds(lambda a, b, c: 2 ** a * 3 ** b * 5 ** c,
                   st.integers(0, 7), st.integers(0, 4), st.integers(0, 2))
smooth_rationals = st.builds(Fraction, st.integers(-12, 12), smooth)
rationals = st.one_of(
    smooth_rationals,
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
              st.integers(1, 10 ** 6)),
)
nonzero = rationals.filter(bool)
# r/s with s > 1: the homogeneous branch of evaluation and synthetic_div.
non_integers = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                         st.integers(2, 10 ** 4)).filter(
                             lambda a: a.denominator > 1)
polys = st.lists(rationals, max_size=7).map(Polynomial)
nonzero_polys = polys.filter(bool)

examples = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def to_sympy(p):
    return sympy.Poly.from_list(
        [sympy.Rational(c.numerator, c.denominator)
         for c in reversed(p.coeffs)], X, domain="QQ")


def as_fraction(r):
    return Fraction(int(r.p), int(r.q))


def coeffs_of(sp):
    cs = [as_fraction(c) for c in reversed(sp.all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def canonical(p):
    """p is in lowest terms, and one equal polynomial built from its
    coefficients has the same representation and hash."""
    num, den = p._num, p._den
    assert type(den) is int and den > 0
    assert all(type(c) is int for c in num)
    assert math.gcd(den, *num) == 1
    assert not num or num[-1] != 0
    q = Polynomial(p.coeffs)
    assert (q._num, q._den) == (num, den)
    assert q == p and hash(q) == hash(p)
    return p


def agrees(p, sp):
    assert canonical(p).coeffs == coeffs_of(sp)


@examples
@given(polys, polys)
def test_ring_ops(p, q):
    sp, sq = to_sympy(p), to_sympy(q)
    agrees(p + q, sp + sq)
    agrees(p - q, sp - sq)
    agrees(-p, -sp)
    agrees(p * q, sp * sq)
    # The same polynomial reached two ways is equal and hashes equal.
    for a, b in ((p + q - q, p), (p * q, q * p), (q - p, -(p - q))):
        assert a == b and hash(a) == hash(b)


@examples
@given(polys, nonzero, st.integers(-10 ** 6, 10 ** 6))
def test_scalar_ops(p, c, k):
    sp, sc = to_sympy(p), sympy.Rational(c.numerator, c.denominator)
    agrees(p * c, sp * sc)
    agrees(c * p, sp * sc)
    agrees(p * k, sp * k)
    agrees(p + c, sp + sc)
    agrees(c - p, sc - sp)
    agrees(p / c, sp * (1 / sc))
    if k:
        agrees(p / k, sp * sympy.Rational(1, k))


@examples
@given(polys, nonzero_polys)
def test_divmod(p, d):
    q, r = divmod(p, d)
    sq, sr = to_sympy(p).div(to_sympy(d))
    agrees(q, sq)
    agrees(r, sr)
    assert p // d == q and p % d == r


@examples
@given(polys, st.one_of(non_integers, rationals))
def test_synthetic_div_and_eval(p, alpha):
    sp, sa = to_sympy(p), sympy.Rational(alpha.numerator, alpha.denominator)
    q, rem = p.synthetic_div(alpha)
    sq, sr = sp.div(sympy.Poly.from_list([1, -sa], X, domain="QQ"))
    agrees(q, sq)
    assert type(rem) is Fraction and rem == as_fraction(sr.eval(0))
    value = p(alpha)
    assert type(value) is Fraction and value == as_fraction(sp.eval(sa))


# b = 0, zero polynomials and all-smooth coefficients, whose gcds with
# the other operand's denominator cancel, drawn on purpose.
scalars = st.one_of(st.just(Fraction(0)), rationals)
operands = st.one_of(st.just(Polynomial()), polys,
                     st.lists(smooth_rationals, max_size=7).map(Polynomial))
shifts = st.one_of(non_integers, rationals)


@examples
@given(scalars, operands, shifts, operands)
def test_convergent_step(b, p1, alpha, p0):
    got = canonical(_convergent_step(b, p1, alpha, p0))
    assert got == b * p1 + Polynomial.linear(alpha) * p0
    sa = sympy.Rational(alpha.numerator, alpha.denominator)
    sb = sympy.Rational(b.numerator, b.denominator)
    agrees(got, sb * to_sympy(p1)
           + sympy.Poly.from_list([1, -sa], X, domain="QQ") * to_sympy(p0))


@examples
@given(operands, scalars, operands, shifts)
def test_peel_step(p, b, q, alpha):
    got = canonical(_peel_step(p, b, q, alpha))
    assert got == (p - b * q).synthetic_div(alpha)[0]


@examples
@given(operands, operands, shifts)
def test_exact_peel_step(p, q, alpha):
    # As in the peel: b = p/q at alpha, so x - alpha divides p - b q.
    z = q(alpha)
    assume(z)
    b = p(alpha) / z
    got = canonical(_peel_step(p, b, q, alpha))
    r = p - b * q
    sa = sympy.Rational(alpha.numerator, alpha.denominator)
    sq, sr = to_sympy(r).div(sympy.Poly.from_list([1, -sa], X, domain="QQ"))
    assert sr.is_zero
    agrees(got, sq)


def sympy_sqrt(sp):
    """The square root with positive leading coefficient, or None, from
    sympy's square-free factorization."""
    if sp.is_zero:
        return sp
    lead, factors = sp.sqf_list()
    root = sympy.sqrt(lead)
    if lead < 0 or not root.is_Rational or any(k % 2 for _, k in factors):
        return None
    out = sympy.Poly.from_list([root], X, domain="QQ")
    for f, k in factors:
        out = out * f ** (k // 2)
    return out if out.LC() > 0 else -out


@st.composite
def squares_and_non_squares(draw):
    p = draw(polys)
    kind = draw(st.sampled_from(("square", "times", "plus", "scaled",
                                 "random")))
    if kind == "square":
        return p * p
    if kind == "times":
        return p * p * draw(polys)
    if kind == "plus":
        return p * p + draw(nonzero)
    if kind == "scaled":
        return p * p * draw(nonzero)
    return p


@examples
@given(squares_and_non_squares())
def test_poly_sqrt(w):
    got, want = poly_sqrt(w), sympy_sqrt(to_sympy(w))
    if want is None:
        assert got is None
    else:
        agrees(got, want)


# Monic factors over Z: random ones, and irreducible ones sympy cannot
# split over Q.
irreducible = st.sampled_from([[1, 0, 1], [-2, 0, 0, 1], [1, 1, 1],
                               [3, 0, 1], [-5, 1, 0, 0, 1]])
monic_int = st.lists(st.integers(-30, 30), max_size=3).map(
    lambda cs: cs + [1])


def int_coeffs(p):
    return [int(c) for c in p.coeffs]


@examples
@given(monic_int, st.one_of(monic_int, irreducible), st.integers(1, 3))
def test_squarefree_part(g, h, k):
    # f = g h^(k+1): the squarefree part drops every repeated factor,
    # including one g shares with h.
    f = Polynomial(g)
    for _ in range(k + 1):
        f = f * Polynomial(h)
    want = sympy.Poly(list(reversed(int_coeffs(f))), X, domain="ZZ")
    want = [int(c) for c in reversed(want.sqf_part().all_coeffs())]
    got = _squarefree(int_coeffs(f))
    assert got == want or got == [-c for c in want]


small_roots = st.builds(Fraction, st.integers(-10 ** 4, 10 ** 4),
                        st.integers(1, 30))


@examples
@given(st.lists(small_roots, max_size=6),
       st.lists(st.integers(0, 5), max_size=3),
       st.lists(irreducible, max_size=2), st.booleans())
def test_rational_roots(roots, repeats, factors, squared):
    # Repeated rational roots and repeated irreducible factors, against
    # the roots sympy finds by factoring over Q.
    u = Polynomial.from_roots(roots + [roots[i] for i in repeats
                                       if i < len(roots)])
    for h in factors:
        u = u * Polynomial(h) * (Polynomial(h) if squared else 1)
    want = {as_fraction(r) for r in to_sympy(u).ground_roots()}
    got = rational_roots(u)
    assert len(got) == len(set(got)) and set(got) == want
