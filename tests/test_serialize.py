import json
import random
from fractions import Fraction

import pytest

from alphafrac import AlphaSequence
from alphafrac.polyring import Polynomial
from alphafrac.serialize import (
    alpha_from_json,
    canonical_dumps,
    divisor_from_json,
    divisor_to_json,
    expansion_from_json,
    expansion_to_json,
    frac_from_json,
    jacobi_from_json,
    jacobi_to_json,
    orbit_to_json,
    poly_from_json,
    poly_to_json,
    triple_from_json,
    triple_to_json,
)
from alphafrac.symmetry import orbit

from conftest import SECT4, random_expansion, random_jacobi


class TestRationalGrammar:
    @pytest.mark.parametrize("data, value", [
        ("5/2", Fraction(5, 2)), ("-3", Fraction(-3)), ("0", Fraction(0)),
        (7, Fraction(7)), (-4, Fraction(-4)),
    ])
    def test_accepted(self, data, value):
        assert frac_from_json(data) == value

    @pytest.mark.parametrize("data", [
        "1.5", "1e400", "1e10000000", "1/0", "2/4", "3/1", "-0", "007",
        "1/-2", "-1/-2", " 1", "+1", "", "\u0663", True, False, None, 1.5,
        [1],
    ])
    def test_rejected(self, data):
        with pytest.raises(ValueError):
            frac_from_json(data)

    def test_alpha_must_be_a_list(self):
        assert alpha_from_json(["1", 3, "4"]) == AlphaSequence([1, 3, 4])
        with pytest.raises(ValueError):
            alpha_from_json("134")

    def test_expansion_block_must_be_a_list(self):
        with pytest.raises(ValueError):
            expansion_from_json({"b0": "1", "block": "134",
                                 "alpha": ["1", "3", "4"]})


class TestPolynomialEncoding:
    def test_ascending_degree_strings(self):
        p = Polynomial(["1/4", "31/2", "-31/4", "1"])
        assert poly_to_json(p) == ["1/4", "31/2", "-31/4", "1"]

    def test_lowest_terms(self):
        p = Polynomial([Fraction(2, 4), Fraction(-6, 3)])
        assert poly_to_json(p) == ["1/2", "-2"]

    def test_round_trip(self):
        rng = random.Random(67)
        for _ in range(30):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(rng.randint(0, 6))]
            p = Polynomial(coeffs)
            assert poly_from_json(poly_to_json(p)) == p

    def test_integer_coefficients_accepted(self):
        assert poly_from_json([1, "1/2"]) == Polynomial(["1", "1/2"])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            poly_from_json("x+1")
        with pytest.raises(ValueError):
            poly_from_json([[1]])


class TestRecordRoundTrips:
    def test_expansion(self):
        rng = random.Random(71)
        for n in (1, 3, 5):
            e = random_expansion(rng, n)
            assert expansion_from_json(expansion_to_json(e)) == e

    def test_triple(self, sect4_triple):
        assert triple_from_json(triple_to_json(sect4_triple)) == sect4_triple

    def test_jacobi(self):
        rng = random.Random(73)
        j = random_jacobi(rng, 2)
        assert jacobi_from_json(jacobi_to_json(j)) == j

    def test_divisor(self):
        from alphafrac import jacobi_from_divisor
        r = Polynomial.from_roots([0, 1, 2])
        j = jacobi_from_divisor([(1, 0)], r)
        from alphafrac import divisor_from_jacobi
        points = divisor_from_jacobi(j)
        data = divisor_to_json(points, r)
        assert divisor_from_json(data) == (points, r)

    def test_orbit_record(self):
        data = orbit_to_json(orbit(SECT4))
        assert data["complete"] is True
        assert len(data["expansions"]) == 12
        assert data["skipped_edges"] == []
        for rec in data["expansions"]:
            assert set(rec) == {"b0", "block", "alpha"}


class TestCanonicalDumps:
    def test_sorted_keys_and_newline(self):
        text = canonical_dumps({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_byte_stable(self):
        one = canonical_dumps(expansion_to_json(SECT4))
        two = canonical_dumps(json.loads(one))
        assert one == two
