import math
import operator
import random
from fractions import Fraction

import pytest

from alphafrac import AlphaSequence, Expansion, jacobi_from_divisor
from alphafrac.polyring import (
    Polynomial,
    _ratio,
    _reduced,
    as_fraction,
    poly_sqrt,
    rational_roots,
    rational_sqrt,
)
from alphafrac.symmetry import parse_word

from conftest import (
    P,
    SECT4_R,
    linear_factor,
    random_polynomial,
    random_rational,
    reference_str,
)


class TestRingOps:
    def test_discriminant_identity(self):
        # (x-6) * (-(x^2-4x+2)) + (-(3x-7)/2)^2 == x^3 - 31/4 x^2 + 31/2 x + 1/4
        a = P("-6", "1")
        c_neg = P("-2", "4", "-1")
        b = P("7/2", "-3/2")
        got = b * b - a * c_neg
        assert got == P("1/4", "31/2", "-31/4", "1")

    def test_additive_identity(self):
        p = P("1", "-2", "3")
        assert p + Polynomial() == p

    def test_expand_linear_factors(self):
        # hand expansion: (x-1)(x-3)(x-4) = x^3 - 8x^2 + 19x - 12
        got = Polynomial.from_roots([1, 3, 4])
        assert got == P("-12", "19", "-8", "1")

    def test_degree_bookkeeping(self):
        assert Polynomial().degree == -1
        assert P("5").degree == 0
        assert P("0", "0", "1").degree == 2

    def test_trailing_zeros_stripped(self):
        assert P("1", "2", "0", "0") == P("1", "2")

    def test_long_division(self):
        num = P("-12", "19", "-8", "1")
        q, r = divmod(num, P("-4", "1"))
        assert not r
        assert q == P("3", "-4", "1")
        q2, r2 = divmod(num + 7, P("-4", "1"))
        assert r2 == 7
        assert q2 == q

    @pytest.mark.parametrize("op", [divmod, operator.floordiv, operator.mod])
    def test_division_by_zero(self, op):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            op(P("1", "1"), Polynomial())

    def test_synthetic_division(self):
        q, rem = P("-12", "19", "-8", "1").synthetic_div(3)
        assert rem == 0
        assert q * P("-3", "1") == P("-12", "19", "-8", "1")
        _, rem2 = P("1", "1").synthetic_div(2)
        assert rem2 == 3
        # At 1/2 the quotient is over s^k: (x^2 + 1) = (x - 1/2)(x + 1/2)
        # + 5/4.
        q3, rem3 = P("1", "0", "1").synthetic_div(Fraction(1, 2))
        assert q3 == P("1/2", "1")
        assert rem3 == Fraction(5, 4)


def reduced_pair(num, den, g):
    p = _reduced(list(num), den, g)
    return p._num, p._den


def divided_pair(num, den, g):
    """num / den with gcd(g, *num) divided out, by the definition."""
    h = math.gcd(g, *num)
    num = [c // h for c in num]
    while num and not num[-1]:
        num.pop()
    return tuple(num), (den // h if num else 1)


# A prime of 89 bits, so that each case also runs with a content wider than
# a machine word.
K = 2 ** 89 - 1


class TestReduced:
    """_reduced divides by gcd(g, *num), which it bounds by gcd(g, num[0])
    and finds by the remainders of one divmod pass."""

    @pytest.mark.parametrize("num, den, g, want", [
        # gcd(6, 6) = 6 overstates the content: 4 = 0*6 + 4 gives 2.
        ([6, 4], 6, 6, ((3, 2), 3)),
        ([6 * K, 4 * K], 6 * K, 6 * K, ((3, 2), 3)),
        # 6, then 2 at 10, then 1 at 15: num is taken as it is.
        ([6, 10, 15], 30, 30, ((6, 10, 15), 30)),
        ([K, K + 1], K, K, ((K, K + 1), K)),
        # A zero first numerator leaves h = g for the rest to lower.
        ([0, 4, 6], 8, 8, ((0, 2, 3), 4)),
        ([0, 4 * K, 6 * K], 8 * K, 8 * K, ((0, 2, 3), 4)),
        # A zero last numerator is stripped after the division.
        ([4, 6, 0], 8, 8, ((2, 3), 4)),
        ([4 * K, 6 * K, 0], 8 * K, 8 * K, ((2, 3), 4)),
        # g = 1 stops at once; an empty list is the zero polynomial.
        ([4, 6], 8, 1, ((4, 6), 8)),
        ([], 8, 8, ((), 1)),
        ([0, 0], 8, 8, ((), 1)),
        ([0, 0], 8 * K, 8 * K, ((), 1)),
    ], ids=["overstated", "overstated-K", "drops-to-1", "drops-to-1-K",
            "zero-first", "zero-first-K", "zero-last", "zero-last-K",
            "g-is-1", "empty", "zeros", "zeros-K"])
    def test_cases(self, num, den, g, want):
        assert reduced_pair(num, den, g) == want
        assert divided_pair(num, den, g) == want

    def test_matches_gcd_of_all(self):
        # Contents made of small primes and K, so that gcd(g, num[0]) often
        # overstates them, on either side of a machine word and at a few
        # thousand bits of numerator.
        rng = random.Random(18)
        for _ in range(400):
            g = math.prod(rng.choice((2, 3, 5, 7, K)) for _ in range(8))
            big = rng.getrandbits(rng.choice((8, 64, 3000)))
            num = [rng.choice((0, 1, 2, 3, 5, 7, K)) * rng.randint(-big, big)
                   * math.prod(rng.choice((1, 2, 3, 5, 7, K))
                               for _ in range(6))
                   for _ in range(rng.randint(1, 8))]
            den = g * rng.randint(1, big + 1)
            assert reduced_pair(num, den, g) == divided_pair(num, den, g)


class TestText:
    @pytest.mark.parametrize("coeffs, text", [
        ([], "0"),
        ([0], "0"),
        (["-3/2"], "-3/2"),
        ([1, 0, -1], "-x^2 + 1"),
        ([0, -1], "-x"),
        (["7/2", "-3/2"], "-3/2*x + 7/2"),
        ([-2, 4, -1], "-x^2 + 4*x - 2"),
        ([0, 0, 0, 1, "1/3"], "1/3*x^4 + x^3"),
    ])
    def test_examples(self, coeffs, text):
        assert str(Polynomial(coeffs)) == text

    @pytest.mark.parametrize("coeffs, text", [
        ([], "Polynomial([])"),
        (["1/2", 0, -3], "Polynomial(['1/2', '0', '-3'])"),
    ])
    def test_repr(self, coeffs, text):
        assert repr(Polynomial(coeffs)) == text

    def test_matches_fraction_reference(self):
        # 20,000 seeded polynomials: zero, constants, +-1 coefficients,
        # sparse ones, and numerators and denominators up to 10^40.
        rng = random.Random(15)
        heights = [(3, 3), (1, 1), (10 ** 12, 10 ** 6), (10 ** 40, 10 ** 33)]
        for _ in range(20000):
            num_h, den_h = rng.choice(heights)
            coeffs = [0] * rng.randint(0, 7)
            for k in range(len(coeffs)):
                r = rng.random()
                if r < 0.25:
                    coeffs[k] = rng.choice([1, -1])
                elif r < 0.7:
                    coeffs[k] = Fraction(rng.randint(-num_h, num_h),
                                         rng.randint(1, den_h))
            p = Polynomial(coeffs)
            assert str(p) == reference_str(p)
            assert str(-p) == reference_str(-p)


class TestHash:
    @pytest.mark.parametrize("c", [0, 1, Fraction(-3, 2)])
    def test_constant_hashes_like_its_rational(self, c):
        p = Polynomial([c])
        scalars = [c, Fraction(c)] if isinstance(c, int) else [c]
        for x in scalars:
            assert p == x and hash(p) == hash(x)
            assert len({p, x}) == 1
            assert {x: "value"}[p] == "value"
            assert {p: "value"}[x] == "value"


class TestEval:
    def test_point_value(self):
        # C(4) = -2 distinguishes the non-pure case
        assert P("-2", "4", "-1")(4) == -2

    def test_constant_term(self):
        p = P("7/3", "5", "-1")
        assert p(0) == Fraction(7, 3)

    def test_direct_substitution(self):
        # (864 - 1116 + 372 + 1)/4 = 121/4
        assert SECT4_R(6) == Fraction(121, 4)

    def test_rational_point(self):
        # At x = r/s Horner is homogeneous in s:
        # 1/4 + 31/4 - 31/16 + 1/8 = 99/16.
        p = SECT4_R
        assert p(Fraction(1, 2)) == Fraction(99, 16)
        assert p("-2/3") == Fraction(-1493, 108)


class TestRatio:
    """_ratio(p, q, alpha) is a pair of integers (x, z) with x/z =
    p(alpha)/q(alpha) and x, z = 0 exactly where p, q vanish."""

    def check(self, p, q, alpha):
        x, z = _ratio(p, q, alpha)
        assert type(x) is int and type(z) is int
        assert (x == 0) == (p(alpha) == 0) and (z == 0) == (q(alpha) == 0)
        if z:
            assert Fraction(x, z) == p(alpha) / q(alpha)

    def test_matches_quotient_of_values(self):
        # Shifts r/s with s up to 5, degrees 0..6 on either side, so that
        # deg p - deg q takes both signs, and a zero on one side or both
        # by a factor x - alpha.
        rng = random.Random(19)
        signs = set()
        for _ in range(600):
            alpha = random_rational(rng, -9, 9, 5)
            p, q = (random_polynomial(rng, rng.randint(0, 6))
                    for _ in range(2))
            zero = rng.randrange(4)
            if zero & 1:
                p = p * linear_factor(alpha)
            if zero & 2:
                q = q * linear_factor(alpha)
            signs.add((p.degree > q.degree) - (p.degree < q.degree))
            self.check(p, q, alpha)
        assert signs == {-1, 0, 1}

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(3),
                                       Fraction(-7, 4)])
    def test_zero_polynomial(self, alpha):
        q = P("1/3", "-2", "5/7")
        self.check(Polynomial(), q, alpha)
        self.check(q, Polynomial(), alpha)
        assert _ratio(Polynomial(), Polynomial(), alpha) == (0, 0)


class TestFromRoots:
    """from_roots is the product of the linear factors, canonical as it is
    built: lowest terms (gcd(den, *num) = 1) and monic (lead = den)."""

    def check(self, roots):
        p = Polynomial.from_roots(roots)
        want = Polynomial([1])
        for r in roots:
            want = want * linear_factor(r)
        assert p == want and p.degree == len(roots)
        assert math.gcd(p._den, *p._num) == 1 and p._num[-1] == p._den

    @pytest.mark.parametrize("roots", [
        [], [0], [0, 0], ["1/2", "-3/2", "5/2"], ["2/3", "2/3", "-1/6"],
        [1, 3, 4], ["-7/12", 0, "5/8", "5/8", 3, "-1/4"],
    ])
    def test_cases(self, roots):
        self.check(roots)

    def test_seeded(self):
        # Up to 12 roots over denominators 1..6, some of them repeated.
        rng = random.Random(21)
        for _ in range(200):
            roots = [random_rational(rng, -9, 9, 6)
                     for _ in range(rng.randint(0, 12))]
            roots += rng.sample(roots, min(len(roots), rng.randint(0, 2)))
            self.check(roots)


class TestRationalRoots:
    @pytest.mark.parametrize("p", [
        P(), P("2"), P("1", "2"), P("1", "0", "-1"), P("0", "0", "1/2")])
    def test_not_monic(self, p):
        with pytest.raises(ValueError,
                           match="^rational_roots needs a monic polynomial$"):
            rational_roots(p)


class TestSqrt:
    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(-1)) is None
        assert rational_sqrt(Fraction(0)) == 0

    def test_rational_sqrt_matches_isqrt_reference(self):
        # The former formula: an exact isqrt of numerator and denominator.
        def reference(x):
            if x < 0:
                return None
            rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
            if rn * rn != x.numerator or rd * rd != x.denominator:
                return None
            return Fraction(rn, rd)

        rng = random.Random(101)
        for _ in range(20000):
            x = Fraction(rng.randint(-10 ** 12, 10 ** 12),
                         rng.randint(1, 10 ** 12))
            if rng.random() < 0.5:
                x = x * x * rng.choice((1, 1, 1, -1, 2, 0))
            assert rational_sqrt(x) == reference(x)

    def test_admissibility_square(self):
        # x^2/4 - 7x/2 + 49/4 = ((x-7)/2)^2
        assert poly_sqrt(P("49/4", "-7/2", "1/4")) == P("-7/2", "1/2")

    def test_zero(self):
        assert poly_sqrt(Polynomial()) == Polynomial()

    def test_odd_degree(self):
        assert poly_sqrt(P("0", "1")) is None

    def test_non_square(self):
        assert poly_sqrt(P("1", "1", "1")) is None
        assert poly_sqrt(P("2", "0", "1")) is None

    def test_random_squares_canonicalized(self):
        rng = random.Random(7)
        for _ in range(100):
            s = random_polynomial(rng, rng.randint(0, 4))
            got = poly_sqrt(s * s)
            if not s:
                assert got == Polynomial()
            else:
                assert got == (s if s.lead > 0 else -s)
                assert got.lead > 0


class TestProperties:
    def test_degree_of_product(self):
        rng = random.Random(3)
        for _ in range(60):
            p = random_polynomial(rng, rng.randint(0, 5))
            q = random_polynomial(rng, rng.randint(0, 5))
            if p and q:
                assert (p * q).degree == p.degree + q.degree

    def test_eval_is_ring_hom(self):
        rng = random.Random(5)
        for _ in range(60):
            p = random_polynomial(rng, rng.randint(0, 4))
            q = random_polynomial(rng, rng.randint(0, 4))
            x = random_rational(rng)
            assert (p + q)(x) == p(x) + q(x)
            assert (p * q)(x) == p(x) * q(x)

    def test_division_invariant(self):
        rng = random.Random(9)
        for _ in range(40):
            p = random_polynomial(rng, rng.randint(0, 5))
            d = random_polynomial(rng, rng.randint(0, 3), monic=True)
            q, r = divmod(p, d)
            assert q * d + r == p
            assert r.degree < d.degree

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Polynomial([0.5])


class TestRationalGrammar:
    """Library constructors take the rationals of the wire grammar only."""

    @pytest.mark.parametrize("x, value", [
        ("5/2", Fraction(5, 2)), ("-3", Fraction(-3)), ("0", Fraction(0)),
        (7, Fraction(7)), (Fraction(-4, 6), Fraction(-2, 3)),
    ])
    def test_accepted(self, x, value):
        assert as_fraction(x) == value
        assert Polynomial([x, 1]).coeffs == (value, 1)

    @pytest.mark.parametrize("x", [
        "1.5", "1e400", "1e1000000", "1/0", "2/4", "3/1", "-0", "007",
        "1/-2", " 3", "3 ", "+1", "1_0", "", "\u0663",
    ])
    def test_bad_string_is_value_error(self, x):
        with pytest.raises(ValueError, match="lowest terms, got "):
            Polynomial([x])
        with pytest.raises(ValueError):
            AlphaSequence([x])
        with pytest.raises(ValueError):
            Expansion(x, [1], AlphaSequence([0]))

    def test_integers_of_4300_digits(self):
        p = "9" * 4300
        assert as_fraction(p) == int(p)
        assert as_fraction("-1/" + p) == Fraction(-1, int(p))

    @pytest.mark.parametrize("sign, over", [("", "/7"), ("-", "/7"),
                                            ("1/", "")],
                             ids=["numerator", "negative", "denominator"])
    def test_longer_integer_is_value_error(self, sign, over):
        # The grammar's own text, not the interpreter's digit limit.
        with pytest.raises(ValueError, match="lowest terms, got "):
            as_fraction(sign + "1" * 4301 + over)

    @pytest.mark.parametrize("x", [True, False, None, 0.5, [1], 1.5])
    def test_bool_and_float_are_type_errors(self, x):
        with pytest.raises(TypeError):
            Polynomial([x])
        with pytest.raises(TypeError):
            AlphaSequence([x])
        # A scalar operand follows the same rule as a coefficient.
        p = Polynomial(["1", "2"])
        with pytest.raises(TypeError):
            p * x
        with pytest.raises(TypeError):
            x * p
        with pytest.raises(TypeError):
            p + x
        with pytest.raises(TypeError):
            p / x

    @pytest.mark.parametrize("op", [
        operator.add, operator.sub, operator.mul, operator.truediv])
    def test_string_operand_is_type_error(self, op):
        # A string is a rational as a coefficient, never as an operand.
        p = Polynomial(["1", "2"])
        with pytest.raises(TypeError) as info:
            op(p, "9" * 100)
        assert str(info.value) == (
            "cannot combine polynomial with '" + "9" * 39)

    def test_division_by_zero(self):
        # As Fraction(0) / 0 does, the zero polynomial raises too.
        for p in Polynomial(["1", "2"]), Polynomial():
            with pytest.raises(ZeroDivisionError,
                               match="^polynomial division by zero$"):
                p / 0

    @pytest.mark.parametrize("kind", [str, bytes, bytearray])
    def test_text_is_not_a_sequence(self, kind):
        # Iterated, "134" would be the rationals "1", "3", "4" and b"134"
        # the integers 49, 51, 52.
        def text(s):
            return s if kind is str else kind(s, "ascii")

        with pytest.raises(TypeError):
            Polynomial(text("12"))
        with pytest.raises(TypeError):
            Polynomial.from_roots(text("12"))
        with pytest.raises(TypeError):
            AlphaSequence(text("134"))
        with pytest.raises(TypeError):
            Expansion("1", text("131"), AlphaSequence([1, 3, 4]))
        # R(1) = 4, so "12" read as a point would be (1, 2) on the curve.
        with pytest.raises(TypeError):
            jacobi_from_divisor([text("12")], P("3", "0", "0", "1"))

    @pytest.mark.parametrize("name, kind", [
        ("dict", dict.fromkeys), ("set", set), ("frozenset", frozenset),
        ("int", len),
        pytest.param("NoneType", lambda xs: None, id="NoneType-none")])
    def test_unordered_is_not_a_sequence(self, name, kind):
        # A dict is read by its keys, and a set's order changes with
        # PYTHONHASHSEED: Polynomial({"1/2", "3", "-7"}) was a different
        # polynomial under each seed.  What cannot be iterated at all gets
        # the same text, not the interpreter's "not iterable".
        def refused(fn, xs):
            with pytest.raises(TypeError) as info:
                fn(kind(xs))
            assert str(info.value).startswith(
                "expected a sequence, got the %s " % name)

        refused(Polynomial, ["1/2", "3", "-7"])
        refused(Polynomial.from_roots, ["1/2", "3", "-7"])
        refused(AlphaSequence, [1, 3, 4])
        refused(lambda b: Expansion(1, b, AlphaSequence([1, 3, 4])),
                [-3, 1, 3])
        refused(lambda w: parse_word(w, 3), ["sigma:1", "epspi"])
        refused(lambda pts: jacobi_from_divisor(pts, P("3", "0", "0", "1")),
                [(1, 2)])
        # A point's text names its index instead.
        with pytest.raises(TypeError, match="^point 0 must be a pair"):
            jacobi_from_divisor([kind([1, 2])], P("3", "0", "0", "1"))

    def test_value_quoted_to_40_characters(self):
        with pytest.raises(ValueError) as info:
            as_fraction("9" * 100 + ".5")
        assert str(info.value).endswith("got '" + "9" * 39)
