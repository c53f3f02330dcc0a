import itertools
import math
import random
from fractions import Fraction

import pytest

from alphafrac import (
    AlphaFractionError,
    AlphaSequence,
    AlphaTriple,
    Expansion,
    FactorizationDegenerate,
    NotPure,
    OrbitResult,
    ZeroPivot,
    alpha_triple_from_jacobi,
    apply_eps_pi,
    apply_sigma,
    apply_word,
    build_transfer_matrix,
    expand,
    expansion_to_triple,
    factorize_transfer_matrix,
    jacobi_from_divisor,
    orbit,
)
from alphafrac import symmetry
from alphafrac.polyring import Polynomial, rational_sqrt
from alphafrac.serialize import canonical_dumps, orbit_to_json
from alphafrac.symmetry import SkippedEdge, parse_word

from conftest import (
    F,
    PURE_N3,
    SECT4,
    SECT4_ORBIT,
    coxeter_relations,
    make_expansion,
    random_expansion,
    random_rational,
)


class TestSigma:
    def test_sigma1(self):
        got = apply_sigma(SECT4, 1)
        assert got == make_expansion(F(1, 3), [-3, F(5, 3), F(7, 3)],
                                     [3, 1, 4])

    def test_sigma2(self):
        got = apply_sigma(SECT4, 2)
        assert got == make_expansion(1, [-2, 1, 2], [1, 4, 3])

    def test_involution(self):
        rng = random.Random(23)
        for _ in range(20):
            e = random_expansion(rng, 5)
            for k in range(1, 5):
                img = apply_sigma(e, k)
                if img.block[k - 1] != 0:
                    assert apply_sigma(img, k) == e

    def test_zero_pivot(self):
        e = make_expansion(1, [0, 1, 2], [1, 3, 4])
        with pytest.raises(ZeroPivot, match=r"^sigma_1 undefined: b_1 = 0$"):
            apply_sigma(e, 1)

    def test_index_range(self):
        with pytest.raises(ValueError):
            apply_sigma(SECT4, 3)
        with pytest.raises(ValueError):
            apply_sigma(SECT4, 0)

    def test_index_type(self):
        # as_fraction's type rule: an int that is not a bool.  True would
        # otherwise be taken as sigma_1 and 1.5 fail as a tuple index.
        for k in (True, False, 1.5, 1.0, F(1), "1", None):
            with pytest.raises(TypeError, match="sigma index must be an int"):
                apply_sigma(SECT4, k)


class TestEpsPi:
    def test_sect4(self):
        got = apply_eps_pi(SECT4)
        assert got == make_expansion(-2, [-1, 3, -3], [4, 3, 1])

    def test_involution(self):
        rng = random.Random(29)
        for _ in range(20):
            e = random_expansion(rng, rng.choice([1, 3, 5]))
            assert apply_eps_pi(apply_eps_pi(e)) == e

    def test_conjugate_row(self):
        e = make_expansion(F(-1, 5), [F(-5, 2), F(6, 5), F(3, 10)], [1, 3, 4])
        got = apply_eps_pi(e)
        assert got == make_expansion(
            F(-1, 2), [F(-6, 5), F(5, 2), F(-3, 10)], [4, 3, 1])


class TestWord:
    def test_empty_word(self):
        assert apply_word(SECT4, []) == SECT4

    def test_sigma_squared(self):
        assert apply_word(SECT4, ["sigma:1", "sigma:1"]) == SECT4

    def test_composition_reaches_conjugate_row(self):
        # epspi negates the half-trace, so the composition lands on the
        # conjugate (4,1,3)-ordered element of the orbit.
        got = apply_word(SECT4, ["epspi", "sigma:2"])
        assert got == make_expansion(-2, [F(-5, 3), 3, F(-7, 3)], [4, 1, 3])
        triple, half_trace = expansion_to_triple(got)
        orig, orig_trace = expansion_to_triple(SECT4)
        assert triple == orig
        assert half_trace == -orig_trace

    def test_bad_letters(self):
        # out of range, unknown, and indices int() would read but the
        # grammar "sigma:" [1-9][0-9]* rejects (sigma:\u0662 is Arabic-Indic 2)
        for letter in ("sigma:3", "rho", "sigma:0_1", "sigma:\u0662",
                       "sigma:+1", "sigma: 1", "sigma:01"):
            with pytest.raises(ValueError):
                parse_word([letter], 3)

    @pytest.mark.parametrize("word", ["epspi", "sigma:1", b"epspi",
                                      bytearray(b"epspi")])
    def test_text_word_is_type_error(self, word):
        # Iterated, "epspi" would be the letters "e", "p", ...
        with pytest.raises(TypeError, match="^expected a sequence, got "):
            parse_word(word, 3)
        with pytest.raises(TypeError, match="^expected a sequence, got "):
            apply_word(SECT4, word)

    def test_zero_pivot_reports_step(self):
        e = make_expansion(1, [0, 1, 2], [1, 3, 4])
        with pytest.raises(ZeroPivot, match="step 0"):
            apply_word(e, ["sigma:1"])

    def test_later_zero_pivot_reports_its_step(self):
        # sigma_2 keeps b_2 and is an involution, so the third letter
        # meets b_1 = 0 again.
        e = make_expansion(1, [0, 1, 2], [1, 3, 4])
        with pytest.raises(ZeroPivot,
                           match=r"^step 2: sigma_1 undefined: b_1 = 0$"):
            apply_word(e, ["sigma:2", "sigma:2", "sigma:1"])

    def test_word_is_the_fold_of_the_generators(self):
        # apply_word walks the whole word on pairs; it must give what one
        # apply_sigma or apply_eps_pi per letter gives, and stop at the
        # same zero pivot with the step prepended to the same text.
        rng = random.Random(101)
        grid = sorted({F(p, q) for q in (1, 2, 3) for p in range(-8, 9)})
        cases, later_stops = set(), 0
        for _ in range(400):
            n = rng.choice([1, 3, 5, 7])
            rational = rng.random() < 0.5
            e = seeded_expansion(rng, n, rng.choice([0, 0.1, 0.3]),
                                 shifts=grid if rational else range(-8, 9))
            word = [rng.choice(["epspi"] + ["sigma:%d" % k
                                            for k in range(1, n)])
                    for _ in range(rng.randint(0, 12))]
            want, text = e, None
            for i, k in enumerate(parse_word(word, n)):
                try:
                    want = (apply_eps_pi(want) if k is None
                            else apply_sigma(want, k))
                except ZeroPivot as exc:
                    text = "step %d: %s" % (i, exc)
                    later_stops += i > 0
                    break
            if text is None:
                assert apply_word(e, word) == want
            else:
                with pytest.raises(ZeroPivot) as info:
                    apply_word(e, word)
                assert str(info.value) == text
            cases.add((n, rational, len(word), text is None))
        assert {n for n, *_ in cases} == {1, 3, 5, 7}
        assert {r for _, r, *_ in cases} == {True, False}
        assert {length for _, _, length, _ in cases} == set(range(13))
        assert {(n, ok) for n, _, _, ok in cases} >= {
            (n, ok) for n in (3, 5, 7) for ok in (True, False)}
        assert later_stops >= 20


class TestTripleInvariance:
    def test_sigma_preserves_triple_and_trace(self):
        # Each sigma_k is an involution that keeps the triple and T.
        rng = random.Random(31)
        for _ in range(20):
            e = random_expansion(rng, rng.choice([3, 5]))
            triple_and_trace = expansion_to_triple(e)
            for k in range(1, e.n):
                img = apply_sigma(e, k)
                assert expansion_to_triple(img) == triple_and_trace
                assert apply_sigma(img, k) == e

    def test_eps_pi_negates_trace(self):
        # epspi is an involution that keeps the triple and negates T.
        rng = random.Random(37)
        for _ in range(20):
            e = random_expansion(rng, rng.choice([1, 3, 5]))
            triple, half_trace = expansion_to_triple(e)
            flipped = apply_eps_pi(e)
            assert expansion_to_triple(flipped) == (triple, -half_trace)
            assert apply_eps_pi(flipped) == e

    def test_coxeter_relations(self):
        rng = random.Random(41)
        counts = [coxeter_relations(random_expansion(rng, 5))
                  for _ in range(30)]
        comm, braid = map(sum, zip(*counts))
        assert comm > 50 and braid > 30


class TestOrbit:
    def test_sect4_orbit_is_golden_table(self):
        result = orbit(SECT4)
        assert result.complete
        assert len(result.expansions) == 12
        assert set(result.expansions) == set(SECT4_ORBIT)

    def test_canonical_order(self):
        result = orbit(SECT4)
        keys = [e.key() for e in result.expansions]
        assert keys == sorted(keys)

    def test_generic_orbit_size(self):
        rng = random.Random(43)
        e = random_expansion(rng, 3)
        result = orbit(e)
        assert result.complete
        assert len(result.expansions) == 12  # 2 * 3!

    def test_each_alpha_order_twice(self):
        result = orbit(SECT4)
        counts = {}
        for e in result.expansions:
            counts[e.alpha.alphas] = counts.get(e.alpha.alphas, 0) + 1
        assert len(counts) == 6
        assert all(c == 2 for c in counts.values())

    def test_pure_orbit(self):
        e = PURE_N3
        result = orbit(e, pure=True)
        assert result.complete
        assert len(result.expansions) == 2
        assert all(x.is_pure for x in result.expansions)
        for x in result.expansions:
            triple, _ = expansion_to_triple(x)
            assert triple.C(x.alpha.alphas[-1]) == 0
        assert apply_sigma(e, 1) in set(result.expansions)

    def test_pure_mode_rejects_non_pure(self):
        with pytest.raises(NotPure):
            orbit(SECT4, pure=True)

    @pytest.mark.parametrize("pure", ["no", None, [], 0, 1, 1.0])
    def test_pure_must_be_a_bool(self, pure):
        # Read as a truth value, a non-bool would pick the mode silently.
        with pytest.raises(TypeError, match="^pure must be a bool"):
            orbit(PURE_N3, pure=pure)

    def test_zero_pivot_edges_reported(self):
        e = make_expansion(1, [0, 1, 2], [1, 3, 4])
        result = orbit(e)
        assert not result.complete
        assert result.skipped_edges
        for edge in result.skipped_edges:
            assert edge.generator.startswith("sigma:")


def reference_sigma(e, k):
    """sigma_k as the update of (b_0, ..., b_{N-1}, u = b_N - b_0), built
    through the public, validating constructors.  A zero pivot raises
    ZeroPivot, with orbit's text, before anything is divided."""
    n = e.n
    if e.block[k - 1] == 0:
        raise ZeroPivot("sigma_%d undefined: b_%d = 0" % (k, k))
    alphas = list(e.alpha.alphas)
    delta = (alphas[k] - alphas[k - 1]) / e.block[k - 1]
    c = [e.b0] + list(e.block[:-1])
    u = e.block[-1] - e.b0
    c[k - 1] += delta
    if k <= n - 2:
        c[k + 1] -= delta
    else:
        u -= delta
    alphas[k - 1], alphas[k] = alphas[k], alphas[k - 1]
    return Expansion(c[0], c[1:] + [u + c[0]], AlphaSequence(alphas))


def reference_eps_pi(e):
    """epspi by its defining formulas, through the public constructors."""
    n = e.n
    b_last = e.block[-1]
    block = [-e.block[n - 1 - j] for j in range(1, n)] + [-b_last]
    return Expansion(e.b0 - b_last, block,
                     AlphaSequence(list(reversed(e.alpha.alphas))))


def value_keyed_orbit(e, pure=False):
    """Reference BFS: build every generator image by the defining formulas,
    dedup on Expansion.key().

    Returns the OrbitResult and the epspi parity of the BFS path to each
    element, by key.
    """
    max_k = e.n - 2 if pure else e.n - 1
    generators = list(range(1, max_k + 1)) + ([] if pure else [None])
    parity = {e.key(): 0}
    seen, frontier, skipped = {e.key(): e}, [e], []
    while frontier:
        nxt = []
        for cur in frontier:
            for k in generators:
                try:
                    img = (reference_eps_pi(cur) if k is None
                           else reference_sigma(cur, k))
                except ZeroPivot as exc:
                    skipped.append(SkippedEdge(cur, "sigma:%d" % k, str(exc)))
                    continue
                if img.key() not in seen:
                    seen[img.key()] = img
                    parity[img.key()] = parity[cur.key()] ^ (k is None)
                    nxt.append(img)
        frontier = nxt
    ordered = tuple(img for _, img in sorted(seen.items()))
    return OrbitResult(ordered, not skipped, tuple(skipped)), parity


def seeded_expansion(rng, n, zero_share, pure=False, shifts=range(-8, 9)):
    """Shifts drawn from shifts; each b_i is 0 with probability zero_share."""
    def b():
        if rng.random() < zero_share:
            return F(0)
        return F(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 3))
    b0, block = b(), [b() for _ in range(n)]
    if pure:
        block[-1] = b0
    return Expansion(b0, block, AlphaSequence(rng.sample(shifts, n)))


def expand_or_raise(t, alpha):
    """expand(t, alpha), raising a degenerate branch's error as expand
    itself did when one branch's failure aborted both: callers that draw
    again or skip on it keep their draws."""
    branches = expand(t, alpha)
    for b in branches:
        if isinstance(b, FactorizationDegenerate):
            raise b
    return branches


def zero_trace_expansions(rng, n):
    """Two expansions over the same shifts with B^2 - AC = prod(x - alpha_i),
    i.e. half-trace 0.

    The first has B = 0, A = prod(x - alpha_2k) and C = -prod of the other
    factors; its b_i are all 0.  The second is the alpha-triple of a divisor
    of g points on mu^2 = prod(lambda - alpha_i), found by search.  Shifts
    at which its peel is degenerate are drawn again.
    """
    g = (n - 1) // 2
    while True:
        alpha = AlphaSequence(rng.sample(range(-8, 9), n))
        r = alpha.vanishing_poly()
        found = [(lam, rational_sqrt(r(lam))) for lam in
                 sorted({F(p, q) for q in (1, 2, 3) for p in range(-40, 41)})
                 if r(lam) != 0]
        points = [(lam, rng.choice([-1, 1]) * mu)
                  for lam, mu in found if mu is not None]
        if len(points) < g:
            continue
        j = jacobi_from_divisor(rng.sample(points, g), r)
        t = alpha_triple_from_jacobi(j, F(rng.randint(-5, 5), rng.randint(1, 3)))
        b_zero = AlphaTriple(Polynomial.from_roots(alpha.alphas[1::2]),
                             Polynomial(),
                             -Polynomial.from_roots(alpha.alphas[::2]))
        try:
            return (expand_or_raise(b_zero, alpha)[0],
                    expand_or_raise(t, alpha)[0])
        except AlphaFractionError:
            continue


def orbit_corpus(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice([1, 3, 3, 5])
        pure = n >= 3 and rng.random() < 0.3
        yield seeded_expansion(rng, n, rng.choice([0, 0.2, 0.4, 0.6]), pure), \
            pure


class TestOrbitAgainstValueKeyedBFS:
    """orbit builds each (shift order, branch) once; the reference builds
    every image.  Their JSON records must agree byte for byte."""

    @staticmethod
    def same_record(e, pure=False):
        got = orbit(e, pure=pure)
        want, parity = value_keyed_orbit(e, pure=pure)
        assert canonical_dumps(orbit_to_json(got)) == \
            canonical_dumps(orbit_to_json(want))
        return got, parity

    def test_seeded_corpus(self):
        # The two branches of one shift order sort by (b_0, block), so
        # either may come first; a sort on (order, branch) alone would
        # get the pairs whose branch-1 element is smaller wrong.
        incomplete = pure_count = 0
        first = {0: 0, 1: 0}
        for e, pure in orbit_corpus(47, 60):
            got, parity = self.same_record(e, pure)
            incomplete += not got.complete
            pure_count += pure
            for x, y in zip(got.expansions, got.expansions[1:]):
                if x.alpha == y.alpha:
                    first[parity[x.key()]] += 1
        assert incomplete >= 10 and pure_count >= 10
        assert min(first.values()) >= 400

    def test_n7_with_zero_pivots(self):
        e = seeded_expansion(random.Random(80), 7, 0.15)
        got, _ = self.same_record(e)
        assert (len(got.expansions), len(got.skipped_edges)) == (9792, 288)

    def test_pure_n7(self):
        e = seeded_expansion(random.Random(80), 7, 0.15, pure=True)
        got, _ = self.same_record(e, pure=True)
        assert (len(got.expansions), len(got.skipped_edges)) == (684, 36)

    def test_rational_shifts(self):
        # Shifts p/q with q <= 3, so the shift differences of sigma have
        # denominators other than 1.
        rng = random.Random(89)
        grid = sorted({F(p, q) for q in (1, 2, 3) for p in range(-8, 9)})
        incomplete = pure_count = 0
        dens = set()
        for _ in range(40):
            n = rng.choice([1, 3, 3, 5])
            pure = n >= 3 and rng.random() < 0.3
            e = seeded_expansion(rng, n, rng.choice([0, 0.2, 0.4]), pure,
                                 shifts=grid)
            got, _ = self.same_record(e, pure)
            incomplete += not got.complete
            pure_count += pure
            dens.update(a.denominator for a in e.alpha.alphas)
        assert incomplete >= 5 and pure_count >= 5
        assert dens == {1, 2, 3}

    def test_zero_half_trace(self):
        # Both branches are one expansion, so a complete orbit has N!
        # elements; past N = 1 the all-zero B = 0 expansions meet zero
        # pivots.
        rng = random.Random(53)
        complete = 0
        for n in (1, 3, 3, 3, 5, 5, 5, 5):
            for e in zero_trace_expansions(rng, n):
                assert not expansion_to_triple(e)[1]
                got, _ = self.same_record(e)
                if got.complete:
                    assert len(got.expansions) == math.factorial(n)
                    complete += 1
        assert complete >= 6


class TestOrbitBranch:
    def test_half_trace_sign_is_eps_pi_parity(self):
        # Every element is the peel of the start's triple over its own
        # shift order, at half-trace (-1)^(epspi steps on its path) T_0.
        rng = random.Random(59)
        checked = 0
        for n in (3, 3, 5, 5):
            e = seeded_expansion(rng, n, 0.2)
            triple, t0 = expansion_to_triple(e)
            _, parity = value_keyed_orbit(e)
            for x in orbit(e).expansions:
                t = -t0 if parity[x.key()] else t0
                assert expansion_to_triple(x) == (triple, t)
                m = build_transfer_matrix(triple, t)
                assert factorize_transfer_matrix(m, x.alpha) == x
                checked += 1
        assert checked > 300


def corpus_orbits():
    """Orbits of the seeded corpus and of half-trace-0 expansions: zero
    pivots, pure mode and coinciding branches all occur."""
    for e, pure in orbit_corpus(47, 60):
        yield orbit(e, pure=pure)
    rng = random.Random(53)
    for n in (1, 3, 3, 5):
        for e in zero_trace_expansions(rng, n):
            yield orbit(e)


class TestGeneratorsAgainstReference:
    def test_images_match_reference(self):
        cases = set()
        for e, _ in orbit_corpus(47, 60):
            for x in orbit(e).expansions:
                assert apply_eps_pi(x) == reference_eps_pi(x)
                for k in range(1, x.n):
                    if x.block[k - 1] == 0:
                        with pytest.raises(ZeroPivot):
                            apply_sigma(x, k)
                        cases.add((x.n, "zero"))
                        continue
                    assert apply_sigma(x, k) == reference_sigma(x, k)
                    cases.add((x.n, k))
        # k = 1 and k = N - 1, the two b_N special cases, at N = 3 and 5
        assert {(3, 1), (3, 2), (5, 1), (5, 4), (3, "zero"),
                (5, "zero")} <= cases

    def test_sigma_on_rational_shifts(self):
        # Shifts p/q, so delta's integer parts have denominators other
        # than 1; pivots of both signs; every k, including the two b_N
        # special cases k = 1 and k = N - 1.
        rng = random.Random(83)
        grid = sorted({F(p, q) for q in (1, 2, 3, 5, 7) for p in range(-9, 10)})
        signs, dens = set(), set()
        images = 0
        for _ in range(90):
            for n in (3, 5, 7):
                alphas = rng.sample(grid, n)
                e = make_expansion(
                    random_rational(rng),
                    [random_rational(rng, nonzero=True) for _ in range(n)],
                    alphas)
                dens.update(a.denominator for a in alphas)
                for k in range(1, n):
                    assert apply_sigma(e, k) == reference_sigma(e, k)
                    signs.add(e.block[k - 1] > 0)
                    images += 1
        assert images == 1080
        assert signs == {True, False} and dens == {1, 2, 3, 5, 7}

    def test_images_equal_validated_rebuild(self):
        # The generators skip re-validation; every image must still be
        # what the public constructors would build, all Fractions.
        elements = 0
        for result in corpus_orbits():
            for x in result.expansions:
                rebuilt = Expansion(x.b0, x.block,
                                    AlphaSequence(x.alpha.alphas))
                assert x == rebuilt
                assert type(x.block) is tuple
                assert type(x.alpha.alphas) is tuple
                values = (x.b0,) + x.block + x.alpha.alphas
                assert all(type(v) is Fraction for v in values)
                elements += 1
        assert elements >= 2500


class TestOrbitCallsTheGenerators:
    def test_one_generator_call_per_new_element(self, monkeypatch):
        # Every image comes from the module-level pair step of sigma or
        # epspi, the formulas apply_sigma and apply_eps_pi also run, and
        # only for a node not seen before: the start is the one element
        # not made by a step.
        calls = []
        for name in ("_sigma_pairs", "_eps_pi_pairs"):
            real = getattr(symmetry, name)
            monkeypatch.setattr(
                symmetry, name,
                lambda *args, _real=real: calls.append(1) or _real(*args))
        orbits = 0
        for result in corpus_orbits():
            assert len(calls) == len(result.expansions) - 1
            calls.clear()
            orbits += 1
        assert orbits >= 60


class TestOrbitWalk:
    @pytest.mark.parametrize("m", range(8))
    def test_moves_number_the_orders_lexicographically(self, m):
        orders, sigmas, rev = symmetry._moves(m)
        assert orders == sorted(itertools.permutations(range(m)))
        assert len(set(orders)) == math.factorial(m)
        assert len(sigmas) == max(m - 1, 0)
        for k, move in enumerate(sigmas, 1):
            for order, image in zip(orders, move):
                swapped = list(order)
                swapped[k - 1], swapped[k] = swapped[k], swapped[k - 1]
                assert orders[image] == tuple(swapped)
        assert [orders[image] for image in rev] == [o[::-1] for o in orders]
        for move in (*sigmas, rev):
            assert [move[image] for image in move] == list(range(len(orders)))

    def test_a_second_orbit_of_the_same_m_builds_no_table(self):
        # The tables of m are built once per process.
        rng = random.Random(71)
        orbit(seeded_expansion(rng, 5, 0))
        tables, built = symmetry._moves(5), symmetry._moves.cache_info().misses
        orbit(seeded_expansion(rng, 5, 0.2))
        assert symmetry._moves.cache_info().misses == built
        assert symmetry._moves(5) is tables

    def test_zero_in_the_pool_runs_no_search(self):
        # b_0 = 0 is no pivot: the orbit skips no edge and has all 12
        # elements, though 0 is pooled.
        e = make_expansion(0, [2, F(5, 2), 2], [F(-5, 3), -4, -3])
        got = orbit(e)
        assert got.complete and len(got.expansions) == 12
        want, _ = value_keyed_orbit(e)
        assert canonical_dumps(orbit_to_json(got)) == \
            canonical_dumps(orbit_to_json(want))

    def test_search_runs_exactly_on_incomplete_orbits(self):
        # An orbit is incomplete exactly when one of its elements has a
        # zero pivot, which is exactly when it has a skipped edge, 0 pooled
        # or not; a complete orbit has every shift order on each of its
        # 1 + flip branches.
        def draws():
            rng = random.Random(61)
            for _ in range(1000):
                n = 7 if rng.random() < 0.03 else rng.choice([1, 3, 3, 5, 5])
                pure = n >= 3 and rng.random() < 0.3
                share = rng.choice([0.03, 0.1, 0.2, 0.4])
                yield seeded_expansion(rng, n, share, pure), pure
            rng = random.Random(67)
            for n in (1, 3, 3, 5, 5, 5):
                for e in zero_trace_expansions(rng, n):
                    yield e, False

        tally = {True: 0, False: 0}
        sizes, flipped, zero_pooled = set(), 0, 0
        for e, pure in draws():
            result = orbit(e, pure=pure)
            m = e.n - 1 if pure else e.n
            zero_pivot = any(not x.block[k - 1] for x in result.expansions
                             for k in range(1, m))
            assert result.complete != zero_pivot
            assert result.complete != bool(result.skipped_edges)
            if result.complete:
                flip = not pure and bool(expansion_to_triple(e)[1])
                assert len(result.expansions) == \
                    (1 + flip) * math.factorial(m)
                flipped += flip
                zero_pooled += any(not b for x in result.expansions
                                   for b in (x.b0, *x.block))
            tally[result.complete] += 1
            sizes.add((e.n, pure))
        assert min(tally.values()) >= 300
        assert flipped >= 300 and zero_pooled >= 100
        assert {(n, pure) for n in (3, 5, 7) for pure in (False, True)} \
            <= sizes

    def test_a_skipped_edge_leaves_its_image_out(self):
        # Where b_k = 0, sigma_k's image has no alpha-fraction: the peel of
        # the same triple and half-trace over the swapped shifts fails.  So
        # an orbit with a skipped edge misses an element.
        edges = 0
        for result in corpus_orbits():
            for edge in result.skipped_edges:
                x, k = edge.source, int(edge.generator.split(":")[1])
                alphas = list(x.alpha.alphas)
                alphas[k - 1], alphas[k] = alphas[k], alphas[k - 1]
                triple, half_trace = expansion_to_triple(x)
                with pytest.raises(FactorizationDegenerate):
                    factorize_transfer_matrix(
                        build_transfer_matrix(triple, half_trace),
                        AlphaSequence(alphas))
                edges += 1
        assert edges >= 250


class TestOrbitPool:
    @pytest.mark.parametrize("case", ["sect4", "seeded_n5"])
    def test_each_value_is_one_fraction(self, case):
        # orbit makes one Fraction per distinct value and one AlphaSequence
        # per shift order, shared by the order's two branches.
        if case == "sect4":
            e = SECT4
        else:
            e = seeded_expansion(random.Random(99), 5, 0)
        result = orbit(e)
        assert result.complete
        assert len(result.expansions) == 2 * math.factorial(e.n)
        values = [v for x in result.expansions for v in (x.b0, *x.block)]
        assert len({id(v) for v in values}) == len(set(values))
        assert all(type(v) is Fraction for v in values)
        assert all(type(a) is Fraction
                   for x in result.expansions for a in x.alpha.alphas)
        alphas = {}
        for x in result.expansions:
            alphas.setdefault(x.alpha.alphas, set()).add(id(x.alpha))
        assert len(alphas) == math.factorial(e.n)
        assert all(len(ids) == 1 for ids in alphas.values())


class TestGroupAgainstPeel:
    def test_eps_pi_then_sorting_word_gives_conjugate(self):
        # epspi reverses the shifts and flips the branch; sigma steps that
        # sort them back keep the branch.  The result is the other peel of
        # the same triple over the original shifts.
        rng = random.Random(67)
        checked = 0
        for _ in range(60):
            n = rng.choice([1, 3, 5, 7])
            e = seeded_expansion(rng, n, 0)
            try:
                plus, minus = expand_or_raise(expansion_to_triple(e)[0],
                                              e.alpha)
            except FactorizationDegenerate:
                continue
            assert e in (plus, minus)
            rank = {a: i for i, a in enumerate(e.alpha.alphas)}
            x = apply_eps_pi(e)
            order = [rank[a] for a in x.alpha.alphas]
            try:
                while order != sorted(order):
                    k = next(i for i in range(1, n) if order[i - 1] > order[i])
                    x = apply_sigma(x, k)
                    order[k - 1], order[k] = order[k], order[k - 1]
            except ZeroPivot:
                continue
            assert x == (minus if e == plus else plus)
            checked += 1
        assert checked >= 50

    def test_orbit_is_both_peels_over_every_shift_order(self):
        # The Z_2 x S_N action reorders the shifts and flips the branch, so
        # a complete orbit is the set of both peels of its triple over all
        # N! orders of the shifts; this runs the peel on every permutation.
        rng = random.Random(73)
        checked = {3: 0, 5: 0}
        for n in (3,) * 16 + (5,) * 22:
            e = seeded_expansion(rng, n, 0)
            result = orbit(e)
            if not result.complete:
                continue
            t = expansion_to_triple(e)[0]
            assert set(result.expansions) == {
                x for order in itertools.permutations(e.alpha.alphas)
                for x in expand_or_raise(t, AlphaSequence(order))}
            checked[n] += 1
        assert min(checked.values()) >= 15
