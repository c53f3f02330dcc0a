"""The paper's checks that draw on the section-4 example as a whole or on
the seed-2024 corpus, each under its time bound where it has one.

Every test here is marked acceptance; `pytest -m acceptance -v` lists them
with the layer tests that carry the same marker.
"""

import random
import time

import pytest

from alphafrac import (
    NotAdmissible,
    ZeroPivot,
    admissible_decompose,
    apply_eps_pi,
    apply_sigma,
    build_transfer_matrix,
    convergents,
    expand,
    expansion_to_triple,
    factorize_transfer_matrix,
    numeric_residual,
    orbit,
)

from conftest import (
    P,
    SECT4_ALPHA,
    SECT4_ORBIT,
    SECT4_R,
    SECT4_TRIPLE,
    coxeter_relations,
    random_expansion,
)

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def corpus():
    """200 random expansions at each N in (1, 3, 5, 7), seed 2024."""
    rng = random.Random(2024)
    return [random_expansion(rng, n) for n in (1, 3, 5, 7) for _ in range(200)]


def test_golden_reproduction():
    # Both expansions at each of the six orders of the shifts.
    start = time.perf_counter()
    for plus, minus in zip(SECT4_ORBIT[::2], SECT4_ORBIT[1::2]):
        assert expand(SECT4_TRIPLE, plus.alpha) == (plus, minus)
    assert time.perf_counter() - start < 1.0


def test_orbit_closure():
    start = time.perf_counter()
    result = orbit(SECT4_ORBIT[0])
    assert result.complete
    assert len(result.expansions) == 12
    assert set(result.expansions) == set(SECT4_ORBIT)
    assert time.perf_counter() - start < 1.0


def test_admissibility():
    # R = S^2 + prod(x - alpha_i) with S = (x - 7)/2
    assert SECT4_TRIPLE.discriminant == SECT4_R
    assert admissible_decompose(SECT4_R, SECT4_ALPHA) == P("-7/2", "1/2")
    with pytest.raises(NotAdmissible):
        admissible_decompose(SECT4_ALPHA.vanishing_poly() + P("0", "1"),
                             SECT4_ALPHA)


def test_round_trip_suite(corpus):
    start = time.perf_counter()
    for e in corpus:
        triple, half_trace = expansion_to_triple(e)
        m = build_transfer_matrix(triple, half_trace)
        X, Y, Z, W = m
        assert X * W - Y * Z == -e.alpha.vanishing_poly()
        assert factorize_transfer_matrix(m, e.alpha) == e
        # P_N Q_(N-1) - P_(N-1) Q_N = prod(x - alpha_i)
        (p0, q0), (p1, q1) = convergents(e)[-2:]
        assert p1 * q0 - p0 * q1 == e.alpha.vanishing_poly()
    assert time.perf_counter() - start < 30.0


def test_group_action_invariance(corpus):
    for e in corpus:
        triple, half_trace = expansion_to_triple(e)
        for k in range(1, e.n):
            try:
                img = apply_sigma(e, k)
            except ZeroPivot:
                continue
            assert expansion_to_triple(img) == (triple, half_trace)
            assert apply_sigma(img, k) == e
        flipped = apply_eps_pi(e)
        assert expansion_to_triple(flipped) == (triple, -half_trace)
        assert apply_eps_pi(flipped) == e
    # The corpus's N >= 5 expansions, until over 200 of each relation ran.
    comm = braid = 0
    for e in (x for x in corpus if x.n >= 5):
        if comm > 200 and braid > 200:
            break
        c, b = coxeter_relations(e)
        comm, braid = comm + c, braid + b
    assert comm > 200 and braid > 200


def test_floating_sanity():
    for lam in (0, 2, 10):
        assert numeric_residual(SECT4_TRIPLE, lam) <= 1e-9
