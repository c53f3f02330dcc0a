"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from alphafrac import (
    AlphaSequence,
    AlphaTriple,
    Expansion,
    NotAdmissible,
    ZeroPivot,
    admissible_decompose,
    alpha_triple_from_jacobi,
    apply_eps_pi,
    apply_sigma,
    apply_word,
    build_transfer_matrix,
    convergents,
    divisor_from_jacobi,
    expand,
    expansion_to_triple,
    factorize_transfer_matrix,
    jacobi_from_alpha_triple,
    jacobi_from_divisor,
    numeric_residual,
    orbit,
    pure_beta_candidates,
    pure_expand,
)
from alphafrac.polyring import Polynomial, rational_sqrt

from conftest import (
    lagrange,
    random_expansion,
    random_jacobi,
    random_rational,
)


def F(*args):
    return Fraction(*args)


def P(*coeffs):
    return Polynomial(coeffs)


def reported(name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kw):
            try:
                fn(*args, **kw)
            except BaseException:
                print("[acceptance] %s: FAIL" % name)
                raise
            print("[acceptance] %s: PASS" % name)
        return inner
    return wrap


SECT4_TRIPLE = AlphaTriple(P("-6", "1"), P("7/2", "-3/2"), P("-2", "4", "-1"))

# the twelve expansions of the worked genus-1 example, two per shift order
SECT4_TABLE = {
    (1, 3, 4): [(F(1), (-3, 1, 3)),
                (F(-1, 5), (F(-5, 2), F(6, 5), F(3, 10)))],
    (1, 4, 3): [(F(1), (-2, 1, 2)),
                (F(-1, 5), (F(-5, 3), F(6, 5), F(-8, 15)))],
    (3, 1, 4): [(F(1, 3), (-3, F(5, 3), F(7, 3))),
                (F(-1), (F(-5, 2), 2, F(-1, 2)))],
    (3, 4, 1): [(F(1, 3), (F(-6, 5), F(5, 3), F(8, 15))),
                (F(-1), (-1, 2, -2))],
    (4, 3, 1): [(F(-1, 2), (F(-6, 5), F(5, 2), F(-3, 10))),
                (F(-2), (-1, 3, -3))],
    (4, 1, 3): [(F(-1, 2), (-2, F(5, 2), F(1, 2))),
                (F(-2), (F(-5, 3), 3, F(-7, 3)))],
}


def _table_expansion(order, which):
    b0, block = SECT4_TABLE[order][which]
    return Expansion(b0, [F(b) for b in block], AlphaSequence(order))


def _random_corpus():
    rng = random.Random(2024)
    corpus = []
    for n in (1, 3, 5, 7):
        for _ in range(200):
            corpus.append(random_expansion(rng, n))
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return _random_corpus()


@reported("golden reproduction (12 expansions, 6 shift orders)")
def test_golden_reproduction():
    start = time.perf_counter()
    for order, rows in SECT4_TABLE.items():
        alpha = AlphaSequence(order)
        plus, minus = expand(SECT4_TRIPLE, alpha)
        assert plus == _table_expansion(order, 0)
        assert minus == _table_expansion(order, 1)
    assert time.perf_counter() - start < 1.0


@reported("orbit closure (cardinality 12, matches golden list)")
def test_orbit_closure():
    start = time.perf_counter()
    result = orbit(_table_expansion((1, 3, 4), 0))
    assert result.complete
    assert len(result.expansions) == 12
    expected = {_table_expansion(order, which)
                for order in SECT4_TABLE for which in (0, 1)}
    assert set(result.expansions) == expected
    assert time.perf_counter() - start < 1.0


@reported("admissibility decomposition")
def test_admissibility():
    alpha = AlphaSequence([1, 3, 4])
    s = admissible_decompose(SECT4_TRIPLE.discriminant, alpha)
    assert s == P("-7/2", "1/2")  # (x - 7)/2
    with pytest.raises(NotAdmissible):
        admissible_decompose(alpha.vanishing_poly() + P("0", "1"), alpha)


@reported("N=1 closed-form heads")
def test_n1_formulas():
    rng = random.Random(101)
    for _ in range(20):
        beta = random_rational(rng, -6, 6, 3)
        alpha1 = random_rational(rng, -6, 6, 3)
        s = random_rational(rng, 0, 6, 3, nonzero=True)
        gamma = s * s - beta * beta - alpha1  # makes the root rational
        triple = AlphaTriple(P("1"), P(beta), P(-gamma, "-1"))
        plus, minus = expand(triple, AlphaSequence([alpha1]))
        root = rational_sqrt(beta * beta + alpha1 + gamma)
        assert root == s
        assert plus.b0 == -beta + root
        assert plus.bn_star == beta + root
        assert minus.b0 == -beta - root
        assert minus.bn_star == beta - root
    for _ in range(20):
        beta = random_rational(rng, -6, 6, 3, nonzero=True)
        alpha1 = random_rational(rng, -6, 6, 3)
        triple = AlphaTriple(P("1"), P(beta), P(alpha1, "-1"))
        e = pure_expand(triple, AlphaSequence([alpha1]))
        assert e.b0 == -2 * beta
        assert e.block == (-2 * beta,)


@reported("round-trip property suite (200 expansions per N in {1,3,5,7})")
def test_round_trip_suite(corpus):
    start = time.perf_counter()
    for e in corpus:
        triple, half_trace = expansion_to_triple(e)
        m = build_transfer_matrix(triple, half_trace)
        X, Y, Z, W = m
        assert X * W - Y * Z == -e.alpha.vanishing_poly()
        assert factorize_transfer_matrix(m, e.alpha) == e
        pairs = convergents(e)
        det = pairs[-1].P * pairs[-2].Q - pairs[-2].P * pairs[-1].Q
        assert det == e.alpha.vanishing_poly()
    assert time.perf_counter() - start < 30.0


@reported("group-action invariance on the random corpus")
def test_group_action_invariance(corpus):
    for e in corpus:
        triple, half_trace = expansion_to_triple(e)
        for k in range(1, e.n):
            try:
                img = apply_sigma(e, k)
            except ZeroPivot:
                continue
            t2, ht2 = expansion_to_triple(img)
            assert (t2, ht2) == (triple, half_trace)
            assert apply_sigma(img, k) == e
        flipped = apply_eps_pi(e)
        t3, ht3 = expansion_to_triple(flipped)
        assert t3 == triple
        assert ht3 == -half_trace
        assert apply_eps_pi(flipped) == e
    # Coxeter relations, where every pivot along the way is nonzero
    rng = random.Random(303)
    comm = braid = 0
    for e in (x for x in corpus if x.n >= 5):
        if comm > 200 and braid > 200:
            break
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
            w2 = ["sigma:%d" % (k + 1), "sigma:%d" % k,
                  "sigma:%d" % (k + 1)]
            try:
                lhs = apply_word(e, w1)
                rhs = apply_word(e, w2)
            except ZeroPivot:
                continue
            assert lhs == rhs
            braid += 1
    assert comm > 200 and braid > 200


@reported("Jacobi correspondence (maps, divisors, pure shifts)")
def test_jacobi_correspondence():
    rng = random.Random(404)
    for _ in range(200):
        j = random_jacobi(rng, rng.randint(0, 3))
        beta = random_rational(rng)
        t = alpha_triple_from_jacobi(j, beta)
        assert t.discriminant == j.R
        j2, beta2 = jacobi_from_alpha_triple(t)
        assert (j2, beta2) == (j, beta)
    for _ in range(40):
        g = rng.randint(1, 3)
        lams = rng.sample(range(-6, 7), g)
        mus = [random_rational(rng, -6, 6, 3) for _ in range(g)]
        u = Polynomial.from_roots(lams)
        v = lagrange(list(zip(map(F, lams), mus)))
        w = Polynomial.from_roots(
            rng.sample(range(-9, 10), g + 1))
        r = v * v + u * w
        points = tuple(zip(map(F, lams), mus))
        j = jacobi_from_divisor(points, r)
        back = divisor_from_jacobi(j)
        assert jacobi_from_divisor(back, r) == j
        assert {(p.lam, p.mu) for p in back} == set(points)
    # the derived genus-1 example at alpha_N = 4
    j, beta = jacobi_from_alpha_triple(SECT4_TRIPLE)
    betas = pure_beta_candidates(j, 4)
    assert betas == [F(-2), F(-7, 2)]
    for b in betas:
        assert alpha_triple_from_jacobi(j, b).C(4) == 0


@reported("floating sanity (residual <= 1e-9)")
def test_floating_sanity():
    for lam in (0, 2, 10):
        assert numeric_residual(SECT4_TRIPLE, lam) <= 1e-9
