import random
from fractions import Fraction

import pytest

from alphafrac import (
    AlphaSequence,
    Expansion,
    NotPure,
    ZeroPivot,
    apply_eps_pi,
    apply_sigma,
    apply_word,
    expansion_to_triple,
    orbit,
)
from alphafrac.symmetry import parse_word

from conftest import random_expansion


def F(*args):
    return Fraction(*args)


def make(b0, block, alphas):
    return Expansion(F(b0), [F(b) for b in block], AlphaSequence(alphas))


SECT4 = make(1, [-3, 1, 3], [1, 3, 4])


class TestSigma:
    def test_sigma1(self):
        got = apply_sigma(SECT4, 1)
        assert got == make(F(1, 3), [-3, F(5, 3), F(7, 3)], [3, 1, 4])

    def test_sigma2(self):
        got = apply_sigma(SECT4, 2)
        assert got == make(1, [-2, 1, 2], [1, 4, 3])

    def test_involution(self):
        rng = random.Random(23)
        for _ in range(20):
            e = random_expansion(rng, 5)
            for k in range(1, 5):
                img = apply_sigma(e, k)
                if img.block[k - 1] != 0:
                    assert apply_sigma(img, k) == e

    def test_zero_pivot(self):
        e = make(1, [0, 1, 2], [1, 3, 4])
        with pytest.raises(ZeroPivot):
            apply_sigma(e, 1)

    def test_index_range(self):
        with pytest.raises(ValueError):
            apply_sigma(SECT4, 3)
        with pytest.raises(ValueError):
            apply_sigma(SECT4, 0)


class TestEpsPi:
    def test_sect4(self):
        got = apply_eps_pi(SECT4)
        assert got == make(-2, [-1, 3, -3], [4, 3, 1])

    def test_involution(self):
        rng = random.Random(29)
        for _ in range(20):
            e = random_expansion(rng, rng.choice([1, 3, 5]))
            assert apply_eps_pi(apply_eps_pi(e)) == e

    def test_conjugate_row(self):
        e = make(F(-1, 5), [F(-5, 2), F(6, 5), F(3, 10)], [1, 3, 4])
        got = apply_eps_pi(e)
        assert got == make(F(-1, 2), [F(-6, 5), F(5, 2), F(-3, 10)],
                           [4, 3, 1])


class TestWord:
    def test_empty_word(self):
        assert apply_word(SECT4, []) == SECT4

    def test_sigma_squared(self):
        assert apply_word(SECT4, ["sigma:1", "sigma:1"]) == SECT4

    def test_composition_reaches_conjugate_row(self):
        # epspi negates the half-trace, so the composition lands on the
        # conjugate (4,1,3)-ordered element of the orbit.
        got = apply_word(SECT4, ["epspi", "sigma:2"])
        assert got == make(-2, [F(-5, 3), 3, F(-7, 3)], [4, 1, 3])
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

    def test_zero_pivot_reports_step(self):
        e = make(1, [0, 1, 2], [1, 3, 4])
        with pytest.raises(ZeroPivot, match="step 0"):
            apply_word(e, ["sigma:1"])


class TestTripleInvariance:
    def test_sigma_preserves_triple_and_trace(self):
        rng = random.Random(31)
        for _ in range(20):
            e = random_expansion(rng, rng.choice([3, 5]))
            triple, half_trace = expansion_to_triple(e)
            for k in range(1, e.n):
                img = apply_sigma(e, k)
                t2, ht2 = expansion_to_triple(img)
                assert t2 == triple
                assert ht2 == half_trace

    def test_eps_pi_negates_trace(self):
        rng = random.Random(37)
        for _ in range(20):
            e = random_expansion(rng, rng.choice([1, 3, 5]))
            triple, half_trace = expansion_to_triple(e)
            t2, ht2 = expansion_to_triple(apply_eps_pi(e))
            assert t2 == triple
            assert ht2 == -half_trace

    def test_coxeter_relations(self):
        rng = random.Random(41)
        checked_comm = checked_braid = 0
        for _ in range(30):
            e = random_expansion(rng, 5)
            for k in range(1, 5):
                for j in range(1, 5):
                    if abs(k - j) >= 2:
                        try:
                            lhs = apply_word(e, ["sigma:%d" % k,
                                                 "sigma:%d" % j])
                            rhs = apply_word(e, ["sigma:%d" % j,
                                                 "sigma:%d" % k])
                        except ZeroPivot:
                            continue
                        assert lhs == rhs
                        checked_comm += 1
            for k in range(1, 4):
                word1 = ["sigma:%d" % k, "sigma:%d" % (k + 1),
                         "sigma:%d" % k]
                word2 = ["sigma:%d" % (k + 1), "sigma:%d" % k,
                         "sigma:%d" % (k + 1)]
                try:
                    lhs = apply_word(e, word1)
                    rhs = apply_word(e, word2)
                except ZeroPivot:
                    continue
                assert lhs == rhs
                checked_braid += 1
        assert checked_comm > 50 and checked_braid > 30


class TestOrbit:
    def test_sect4_orbit_is_golden_table(self):
        result = orbit(SECT4)
        assert result.complete
        assert len(result.expansions) == 12
        expected = {
            make(1, [-3, 1, 3], [1, 3, 4]),
            make(F(-1, 5), [F(-5, 2), F(6, 5), F(3, 10)], [1, 3, 4]),
            make(1, [-2, 1, 2], [1, 4, 3]),
            make(F(-1, 5), [F(-5, 3), F(6, 5), F(-8, 15)], [1, 4, 3]),
            make(F(1, 3), [-3, F(5, 3), F(7, 3)], [3, 1, 4]),
            make(-1, [F(-5, 2), 2, F(-1, 2)], [3, 1, 4]),
            make(F(1, 3), [F(-6, 5), F(5, 3), F(8, 15)], [3, 4, 1]),
            make(-1, [-1, 2, -2], [3, 4, 1]),
            make(F(-1, 2), [F(-6, 5), F(5, 2), F(-3, 10)], [4, 3, 1]),
            make(-2, [-1, 3, -3], [4, 3, 1]),
            make(F(-1, 2), [-2, F(5, 2), F(1, 2)], [4, 1, 3]),
            make(-2, [F(-5, 3), 3, F(-7, 3)], [4, 1, 3]),
        }
        assert set(result.expansions) == expected

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
        e = make(1, [1, 1, 1], [0, 1, 2])
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

    def test_zero_pivot_edges_reported(self):
        e = make(1, [0, 1, 2], [1, 3, 4])
        result = orbit(e)
        assert not result.complete
        assert result.skipped_edges
        for edge in result.skipped_edges:
            assert edge.generator.startswith("sigma:")
