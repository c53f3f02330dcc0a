"""divisor_from_jacobi against sympy's factorization over Q.

sympy and hypothesis are test-only; without them this module is skipped.
"""
import random
from fractions import Fraction

import pytest

pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from alphafrac import (  # noqa: E402
    IrrationalSupport,
    JacobiTriple,
    RepeatedAbscissa,
    divisor_from_jacobi,
)
from alphafrac.polyring import Polynomial  # noqa: E402

from conftest import to_sympy  # noqa: E402

small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
# Heights up to 10^6 / 10^4: a search over the divisors of U(0) would stall.
roots = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                  st.integers(1, 10 ** 4))


def monic(degree):
    return st.lists(small, min_size=degree, max_size=degree).map(
        lambda cs: Polynomial(cs + [1]))


@st.composite
def jacobi_triples(draw):
    """U is a product of rational linear factors, repeats allowed, and at
    times a quadratic or cubic factor with small coefficients."""
    lams = draw(st.lists(roots, max_size=5))
    if lams:
        lams += draw(st.lists(st.sampled_from(lams), max_size=2))
    u = Polynomial.from_roots(lams)
    k = draw(st.sampled_from((0, 0, 2, 3)))
    if k:
        u = u * draw(monic(k))
    g = u.degree
    v = Polynomial(draw(st.lists(small, min_size=g, max_size=g)))
    w = draw(monic(g + 1))
    return JacobiTriple(u, v, w, v * v + u * w)


def from_sympy(p):
    return Polynomial([Fraction(int(c.p), int(c.q))
                       for c in reversed(p.all_coeffs())])


def check_against_sympy(j):
    u = to_sympy(j.U)
    found = {Fraction(int(r.p), int(r.q)): m
             for r, m in u.ground_roots().items()}
    repeated = [r for r, m in found.items() if m > 1]
    if repeated:
        least = min(repeated, key=lambda r: (abs(r.numerator),
                                             r.denominator, r < 0))
        with pytest.raises(RepeatedAbscissa) as info:
            divisor_from_jacobi(j)
        assert str(info.value) == "U has the repeated root %s" % least
    elif len(found) < j.U.degree:
        rest = u.exquo(to_sympy(Polynomial.from_roots(list(found))))
        with pytest.raises(IrrationalSupport) as info:
            divisor_from_jacobi(j)
        assert str(info.value) == \
            "U does not split over Q (remaining factor %s)" % from_sympy(rest)
    else:
        points = divisor_from_jacobi(j)
        assert [p.lam for p in points] == sorted(found)
        assert [p.mu for p in points] == [j.V(r) for r in sorted(found)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(jacobi_triples())
def test_matches_sympy_roots(j):
    check_against_sympy(j)


@pytest.mark.parametrize("repeats, quadratic", [(0, False), (2, True)])
def test_degree_16_matches_sympy(repeats, quadratic):
    # Degree 16 with roots of height 10^9 / 10^6: a large gcd(U, U').
    rng = random.Random(16)
    distinct = 16 - repeats - 2 * quadratic
    lams = [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
            for _ in range(distinct)]
    u = Polynomial.from_roots(lams + lams[:repeats])
    if quadratic:
        u = u * Polynomial([Fraction(3, 2), Fraction(-1, 3), 1])
    v = Polynomial([Fraction(rng.randint(-9, 9), 4) for _ in range(16)])
    w = Polynomial([Fraction(rng.randint(-9, 9), 3) for _ in range(17)] + [1])
    check_against_sympy(JacobiTriple(u, v, w, v * v + u * w))
