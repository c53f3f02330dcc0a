import random
from fractions import Fraction

import pytest

from alphafrac import AlphaSequence, AlphaTriple, Expansion, JacobiTriple
from alphafrac.polyring import Polynomial


@pytest.fixture
def sect4_triple():
    # A = x - 6, B = -(3x - 7)/2, C = -x^2 + 4x - 2
    return AlphaTriple(
        Polynomial(["-6", "1"]),
        Polynomial(["7/2", "-3/2"]),
        Polynomial(["-2", "4", "-1"]))


@pytest.fixture
def sect4_alpha():
    return AlphaSequence([1, 3, 4])


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
                term = term * Polynomial.linear(xj) / (xi - xj)
        total = total + term
    return total
