import random
import sys
from fractions import Fraction

import pytest

from alphafrac import (
    AlphaSequence,
    AlphaTriple,
    Expansion,
    FactorizationDegenerate,
    JacobiTriple,
    NonGenericPure,
    NotAdmissible,
    NotMonic,
    NotPure,
    PoleAtLambda,
    admissible_decompose,
    build_transfer_matrix,
    convergents,
    expand,
    expansion_to_triple,
    factorize_transfer_matrix,
    numeric_residual,
    pure_expand,
    verify_expansion,
)
from alphafrac.polyring import Polynomial, rational_sqrt
from alphafrac.serialize import expansion_to_json

from conftest import (
    DEGENERATE_EXPAND,
    F,
    P,
    PURE_N3,
    PURE_N3_TRIPLE,
    SECT4,
    SECT4_ORBIT,
    SECT4_R,
    SECT4_TRIPLE,
    linear_factor,
    make_expansion,
    random_expansion,
    random_jacobi,
    random_rational,
    reference_verify,
)


def det(m):
    X, Y, Z, W = m
    return X * W - Y * Z


def matmul(m, n):
    (a, b, c, d), (e, f, g, h) = m, n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def perturbed(rng, p):
    """p with one coefficient (to degree + 1) moved by a nonzero rational."""
    coeffs = list(p.coeffs) + [Fraction(0)]
    coeffs[rng.randrange(len(coeffs))] += random_rational(rng, nonzero=True)
    return Polynomial(coeffs)


class TestAlphaSequence:
    def test_even_period_rejected(self):
        with pytest.raises(ValueError):
            AlphaSequence([1, 2])

    def test_repeated_shift_rejected(self):
        with pytest.raises(ValueError):
            AlphaSequence([1, 1, 2])

    def test_genus(self, sect4_alpha):
        assert sect4_alpha.genus == 1
        assert AlphaSequence([0]).genus == 0

    def test_vanishing_poly(self, sect4_alpha):
        assert sect4_alpha.vanishing_poly() == \
            P("-12", "19", "-8", "1")


class TestRepr:
    def test_alpha_sequence(self):
        assert repr(AlphaSequence([1, "-3/2", 4])) == \
            "AlphaSequence(['1', '-3/2', '4'])"

    def test_expansion(self):
        e = make_expansion("-1/5", [F(-5, 2), F(6, 5), F(3, 10)], [1, 3, 4])
        assert repr(e) == "[-1/5; -5/2, 6/5, 3/10]_(1, 3, 4)"

    def test_alpha_triple(self):
        assert repr(SECT4_TRIPLE) == \
            "AlphaTriple(A=x - 6, B=-3/2*x + 7/2, C=-x^2 + 4*x - 2)"


VALUE_TYPES = ["AlphaSequence", "Expansion", "AlphaTriple", "JacobiTriple",
               "Polynomial"]


def twins(name):
    """One pair of equal values, built apart, of the named value type.
    Built on call: the JacobiTriple's check runs polyring's arithmetic, so
    a fault there fails these tests, not their collection."""
    rng = random.Random(20)
    j = random_jacobi(rng, 2)
    t = SECT4_TRIPLE
    pairs = [
        (AlphaSequence([1, 3, 4]), AlphaSequence(["1", F(3), 4])),
        (SECT4, make_expansion("1", [-3, 1, 3], [1, 3, 4])),
        (t, AlphaTriple(*[Polynomial(p.coeffs) for p in (t.A, t.B, t.C)])),
        (j, JacobiTriple(*[Polynomial(p.coeffs)
                           for p in (j.U, j.V, j.W, j.R)])),
        (P("1/2", 3), P(F(1, 2), "3")),
    ]
    return {type(a).__name__: (a, b) for a, b in pairs}[name]


class TestValueSemantics:
    @pytest.mark.parametrize("name", VALUE_TYPES, ids="{0}-{0}".format)
    def test_equal_values_hash_equal(self, name):
        a, b = twins(name)
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_foreign_operand_is_unequal(self, name):
        a, _ = twins(name)
        other = object()
        assert a.__eq__(other) is NotImplemented
        assert (a == other) is False and (a != other) is True

    @pytest.mark.parametrize("field", range(3))
    def test_each_field_counts(self, field):
        # Triples that differ in one field alone are unequal, and the two
        # triple types never compare equal.
        t = SECT4_TRIPLE
        fields = [t.A, t.B, t.C]
        fields[field] = fields[field] + Polynomial([1])
        other = AlphaTriple(*fields)
        assert other != t and t != other
        assert t.__eq__(twins("JacobiTriple")[0]) is NotImplemented

    @pytest.mark.parametrize("g", [0, 1, 2, 4])
    def test_jacobi_genus(self, g):
        assert random_jacobi(random.Random(g), g).genus == g


class TestConstructorChecks:
    A, B, C = P("-6", "1"), P("7/2", "-3/2"), P("-2", "4", "-1")

    @pytest.mark.parametrize("args, message", [
        ((A, B, P("-2", "4", "1")), "C must be anti-monic"),
        ((A, B, Polynomial()), "C must be anti-monic"),
        ((P("1"), Polynomial(), P("-1")), r"C must have degree g \+ 1 >= 1"),
        ((P("-6", "2"), B, C), "A must be monic of degree g"),
        ((P("1"), B, C), "A must be monic of degree g"),
        ((A, P("0", "0", "1"), C), "deg B must be at most g"),
    ])
    def test_alpha_triple_rejects(self, args, message):
        with pytest.raises(ValueError, match=message):
            AlphaTriple(*args)

    @pytest.mark.parametrize("field", range(3))
    def test_alpha_triple_fields_are_polynomials(self, field):
        args = [self.A, self.B, self.C]
        args[field] = list(args[field].coeffs)
        with pytest.raises(TypeError,
                           match="^%s must be a Polynomial" % "ABC"[field]):
            AlphaTriple(*args)

    def test_expansion_alpha_is_a_sequence(self):
        with pytest.raises(TypeError,
                           match="^alpha must be an AlphaSequence, got"):
            Expansion(1, [1, 2, 3], [1, 3, 4])

    def test_expansion_block_length(self):
        with pytest.raises(ValueError,
                           match="block length must equal the period N"):
            Expansion(1, [-3, 1], AlphaSequence([1, 3, 4]))


class TestConvergents:
    def test_sect4_recurrence(self):
        # run by hand: P2 = 2x-7, Q2 = x-6, P3 = x^2-4x+2, Q3 = -x
        pairs = convergents(SECT4)
        assert pairs[3].P == P("-7", "2")
        assert pairs[3].Q == P("-6", "1")
        assert pairs[4].P == P("2", "-4", "1")
        assert pairs[4].Q == P("0", "-1")

    def test_n1_closed_form(self):
        e = make_expansion(F(1, 2), [3], [5])
        pairs = convergents(e)
        b1s = F(3) - F(1, 2)
        assert pairs[2].P == P(b1s * F(1, 2) - 5, 1)
        assert pairs[2].Q == P(b1s)

    def test_pure_last_step(self):
        # b_N* = 0: P_N = (x - alpha_N) P_{N-2}, Q_N likewise
        pairs = convergents(PURE_N3)
        factor = P("-2", "1")
        assert pairs[4].P == factor * pairs[2].P
        assert pairs[4].Q == factor * pairs[2].Q
        assert pairs[4].P == P("-2", "1") * P("1", "1")
        assert pairs[4].Q == P("-2", "1")

    def test_degree_pattern(self):
        rng = random.Random(21)
        for n in (1, 3, 5, 7):
            e = random_expansion(rng, n)
            g = e.alpha.genus
            pairs = convergents(e)
            for k in range(g + 1):
                p_odd = pairs[2 * k + 1 + 1].P  # index 2k+1, offset for k=-1
                assert p_odd.degree == k + 1 and p_odd.lead == 1
                q_even = pairs[2 * k + 1].Q  # index 2k
                assert q_even.degree == k and q_even.lead == 1


class TestExpansionToTriple:
    def test_sect4(self, sect4_triple):
        triple, half_trace = expansion_to_triple(SECT4)
        assert triple == sect4_triple
        assert half_trace == P("-7/2", "1/2")

    def test_pure_n3(self):
        triple, half_trace = expansion_to_triple(PURE_N3)
        assert triple.A == P("0", "1")
        assert triple.B == P("-1", "-1/2")
        assert triple.C == -(P("-2", "1") * P("1", "1"))
        assert half_trace == P("-1", "3/2")
        assert triple.C(2) == 0

    def test_conjugate_gives_same_triple(self, sect4_triple):
        e = make_expansion(F(-1, 5), [F(-5, 2), F(6, 5), F(3, 10)], [1, 3, 4])
        triple, half_trace = expansion_to_triple(e)
        assert triple == sect4_triple
        assert half_trace == P("7/2", "-1/2")


class TestAdmissibleDecompose:
    def test_sect4(self, sect4_alpha):
        assert admissible_decompose(SECT4_R, sect4_alpha) == P("-7/2", "1/2")

    def test_r_equals_vanishing(self, sect4_alpha):
        s = admissible_decompose(sect4_alpha.vanishing_poly(), sect4_alpha)
        assert s == Polynomial()

    def test_odd_difference(self, sect4_alpha):
        r = sect4_alpha.vanishing_poly() + P("0", "1")
        with pytest.raises(NotAdmissible):
            admissible_decompose(r, sect4_alpha)

    def test_not_monic(self, sect4_alpha):
        with pytest.raises(NotMonic):
            admissible_decompose(P("1", "0", "0", "2"), sect4_alpha)
        with pytest.raises(NotMonic):
            admissible_decompose(P("1", "1"), sect4_alpha)


class TestTransferMatrix:
    def test_sect4_matrix(self, sect4_triple, sect4_alpha):
        m = build_transfer_matrix(sect4_triple, P("-7/2", "1/2"))
        assert m == (P("-7", "2"), P("2", "-4", "1"),
                     P("-6", "1"), P("0", "-1"))
        assert det(m) == -sect4_alpha.vanishing_poly()

    def test_negated_trace_entry(self, sect4_triple):
        m = build_transfer_matrix(sect4_triple, P("7/2", "-1/2"))
        # top-left = -S - B = x
        assert m[0] == P("0", "1")

    def test_mismatched_trace(self, sect4_triple, sect4_alpha):
        # T^2 + prod(x - alpha_i) != B^2 - AC for T = 1; the peel rejects it.
        with pytest.raises(FactorizationDegenerate) as info:
            factorize_transfer_matrix(
                build_transfer_matrix(sect4_triple, P("1")), sect4_alpha)
        assert str(info.value) == "det M != -prod(x - alpha_i)"


class TestFactorize:
    def test_sect4_plus_branch(self, sect4_triple, sect4_alpha):
        m = build_transfer_matrix(sect4_triple, P("-7/2", "1/2"))
        assert factorize_transfer_matrix(m, sect4_alpha) == SECT4

    def test_sect4_minus_branch(self, sect4_triple, sect4_alpha):
        m = build_transfer_matrix(sect4_triple, P("7/2", "-1/2"))
        got = factorize_transfer_matrix(m, sect4_alpha)
        assert got == make_expansion(
            F(-1, 5), [F(-5, 2), F(6, 5), F(3, 10)], [1, 3, 4])

    def test_b0_quotient(self, sect4_triple):
        # (T - B)(1) / A(1) = (-3 - 2) / (-5) = 1
        half_trace = P("-7/2", "1/2")
        num = (half_trace - sect4_triple.B)(1)
        assert num == -5 and sect4_triple.A(1) == -5
        assert num / sect4_triple.A(1) == 1

    def test_det_precondition(self, sect4_triple):
        m = build_transfer_matrix(sect4_triple, P("-7/2", "1/2"))
        with pytest.raises(FactorizationDegenerate):
            factorize_transfer_matrix(m, AlphaSequence([1, 3, 5]))

    def test_wrong_determinant_rejected_by_peel(self):
        # The peel checks det M = -prod(x - alpha_i) once it is done, so a
        # perturbed matrix with any other determinant must be rejected,
        # whether one entry or the half-trace T was perturbed; for T the
        # determinant is B^2 - AC - T^2.
        rng = random.Random(29)
        wrong = {"entry": 0, "trace": 0}
        for n in (1, 3, 5, 7):
            for _ in range(60):
                e = random_expansion(rng, n)
                triple, half_trace = expansion_to_triple(e)
                m = build_transfer_matrix(triple, half_trace)
                entries = list(m)
                i = rng.randrange(4)
                entries[i] = perturbed(rng, entries[i])
                wrong_t = build_transfer_matrix(
                    triple, perturbed(rng, half_trace))
                for kind, m in (("entry", tuple(entries)),
                                ("trace", wrong_t)):
                    if det(m) == -e.alpha.vanishing_poly():
                        continue
                    wrong[kind] += 1
                    with pytest.raises(FactorizationDegenerate):
                        factorize_transfer_matrix(m, e.alpha)
        assert min(wrong.values()) >= 200

    def test_entry_degree_too_high(self):
        # A unipotent factor [[1, p], [0, 1]] or [[1, 0], [p, 1]] with p of
        # positive degree keeps det M but lifts an entry above its degree
        # bound, on either side of M.
        rng = random.Random(31)
        one, zero = P(1), P()
        for n in (1, 3, 5, 7):
            g = (n - 1) // 2
            for _ in range(20):
                e = random_expansion(rng, n)
                m = build_transfer_matrix(*expansion_to_triple(e))
                p = Polynomial([random_rational(rng, nonzero=True)
                                for _ in range(rng.randint(2, 3))])
                for u in ((one, p, zero, one), (one, zero, p, one)):
                    for bad in (matmul(m, u), matmul(u, m)):
                        assert det(bad) == -e.alpha.vanishing_poly()
                        with pytest.raises(FactorizationDegenerate) as info:
                            factorize_transfer_matrix(bad, e.alpha)
                        assert str(info.value) == (
                            "deg X, Z or W > %d or deg Y > %d" % (g, g + 1))

    def test_z_not_monic(self):
        # M [[c, v], [0, 1/c]] keeps det M and every entry degree, and its
        # first column peels to the same b_i as M's, but to (c, 0) at the
        # end: it is the transfer matrix of no expansion.
        rng = random.Random(37)
        for n in (1, 3, 5):
            for _ in range(10):
                e = random_expansion(rng, n)
                m = build_transfer_matrix(*expansion_to_triple(e))
                c = random_rational(rng, nonzero=True)
                if c == 1:
                    continue
                v = random_rational(rng)
                bad = matmul(m, (P(c), P(v), P(), P(1 / c)))
                with pytest.raises(FactorizationDegenerate) as info:
                    factorize_transfer_matrix(bad, e.alpha)
                assert str(info.value) == "Z is not monic"


class TestPeelZeroPivot:
    """A step whose Z vanishes at its shift: b = Y/W there if X vanishes
    too, otherwise the peel stops with a null-vector error."""

    # For N = 3, Z = A = Q_2 = x - alpha_2 + b_1 b_2, so b_1 b_2 = 2 puts
    # the root of Z at alpha_1 = 1 on both branches.
    E = make_expansion(5, [1, 2, 7], [1, 3, 4])
    PLUS = (P("-7", "7"), P("-30", "14", "1"), P("-1", "1"), P("-6", "3"))
    MINUS = (P("6", "-3"), P("-30", "14", "1"), P("-1", "1"), P("7", "-7"))

    def test_both_branches(self):
        triple, half_trace = expansion_to_triple(self.E)
        assert build_transfer_matrix(triple, half_trace) == self.PLUS
        assert build_transfer_matrix(triple, -half_trace) == self.MINUS

    def test_y_over_w(self):
        # X(1) = Z(1) = 0, so b_0 = Y(1)/W(1) = -15/-3
        assert factorize_transfer_matrix(self.PLUS, self.E.alpha) == self.E

    def test_y_over_w_after_step_0(self):
        # Peeled twice, X and Z both vanish at alpha_3 = 2, so b_2 is Y/W
        # there, with (Y, W) at 2 from the scalar recurrence of steps 0, 1.
        e = make_expansion(-1, [-1] * 5, [0, 1, 2, 3, 5])
        triple, half_trace = expansion_to_triple(e)
        m = build_transfer_matrix(triple, half_trace)
        assert m == (P(2, 5, -3), P(10, -7, -4, 1),
                     P(-2, -1, 1), P(-10, 12, -2))
        X, _, Z, _ = m
        for b, al in ((-1, 0), (-1, 1)):
            X, Z = Z, (X - b * Z).synthetic_div(al)[0]
        assert X(2) == Z(2) == 0
        assert factorize_transfer_matrix(m, e.alpha) == e

    @pytest.mark.parametrize("m, alphas, lam", [
        # the conjugate branch: X(1) = 3
        (MINUS, [1, 3, 4], "1"),
        # X(1/2) = 1
        ((P("1"), P(), P("-1/2", "1"), P("1")), [F(1, 2), 3, 4], "1/2"),
        # X(1/2) = W(1/2) = 0
        ((P("-1/2", "1"), P("1"), P("-1/2", "1"), P("-1/2", "1")),
         [F(1, 2), 3, 4], "1/2"),
    ])
    def test_null_vector(self, m, alphas, lam):
        with pytest.raises(FactorizationDegenerate) as info:
            factorize_transfer_matrix(m, AlphaSequence(alphas))
        assert str(info.value) == (
            "null vector has vanishing first component at step 0 "
            "(lambda = %s)" % lam)


class TestExpand:
    def test_sect4_both(self, sect4_triple, sect4_alpha):
        assert expand(sect4_triple, sect4_alpha) == SECT4_ORBIT[:2]

    def test_sect4_reordered(self, sect4_triple):
        alpha = AlphaSequence([4, 1, 3])
        assert expand(sect4_triple, alpha) == SECT4_ORBIT[-2:]

    def test_n1(self):
        # A = 1, B = 0, C = -(x + 3), alpha_1 = 1: heads -beta +- 2
        triple = AlphaTriple(P("1"), Polynomial(), P("-3", "-1"))
        plus, minus = expand(triple, AlphaSequence([1]))
        assert (plus.b0, plus.block) == (F(2), (F(4),))
        assert (minus.b0, minus.block) == (F(-2), (F(-4),))

    @pytest.mark.acceptance
    def test_n1_closed_forms(self):
        # A = 1, B = beta, C = -(x + gamma): b_0 = -beta +- s and
        # b_1 = beta +- s with s^2 = beta^2 + alpha_1 + gamma; then the
        # pure case C = -(x - alpha_1), where b_0 = b_1 = -2 beta.
        rng = random.Random(101)
        for _ in range(20):
            beta = random_rational(rng, -6, 6, 3)
            alpha1 = random_rational(rng, -6, 6, 3)
            s = random_rational(rng, 0, 6, 3, nonzero=True)
            gamma = s * s - beta * beta - alpha1  # makes the root rational
            triple = AlphaTriple(P("1"), P(beta), P(-gamma, "-1"))
            plus, minus = expand(triple, AlphaSequence([alpha1]))
            assert rational_sqrt(beta * beta + alpha1 + gamma) == s
            assert (plus.b0, plus.bn_star) == (-beta + s, beta + s)
            assert (minus.b0, minus.bn_star) == (-beta - s, beta - s)
        for _ in range(20):
            beta = random_rational(rng, -6, 6, 3, nonzero=True)
            alpha1 = random_rational(rng, -6, 6, 3)
            triple = AlphaTriple(P("1"), P(beta), P(alpha1, "-1"))
            e = pure_expand(triple, AlphaSequence([alpha1]))
            assert (e.b0, e.block) == (-2 * beta, (-2 * beta,))

    @pytest.mark.parametrize("name", DEGENERATE_EXPAND)
    def test_degenerate_branch(self, name):
        # A degenerate branch is its error, in place; when both are, the
        # plus branch's error is raised.
        payload, code, want = DEGENERATE_EXPAND[name]
        triple = AlphaTriple(*(Polynomial(payload[k]) for k in "ABC"))
        alpha = AlphaSequence(payload["alpha"])
        if code:
            with pytest.raises(FactorizationDegenerate) as info:
                expand(triple, alpha)
            assert str(info.value) == want["detail"]
            return
        got = [{"error": type(b).__name__, "detail": str(b)}
               if isinstance(b, FactorizationDegenerate)
               else expansion_to_json(b) for b in expand(triple, alpha)]
        assert got == want

    def test_trace_signs(self, sect4_triple, sect4_alpha):
        plus, minus = expand(sect4_triple, sect4_alpha)
        _, t_plus = expansion_to_triple(plus)
        _, t_minus = expansion_to_triple(minus)
        assert t_plus == P("-7/2", "1/2")
        assert t_minus == -t_plus


class TestHighHeight:
    """The conjugate branch of a generic N = 21 expansion, whose b_i have
    about 600 bits: the golden examples stop at N = 5, so this is where the
    fused convergent and peel steps of polyring meet large heights."""

    def test_conjugate_branch(self):
        rng = random.Random(2101)
        alpha = AlphaSequence(rng.sample(range(-42, 43), 21))
        e = Expansion(random_rational(rng),
                      [random_rational(rng, nonzero=True) for _ in range(21)],
                      alpha)
        t, T = expansion_to_triple(e)
        plus, minus = expand(t, alpha)
        conj = minus if plus == e else plus
        assert e in (plus, minus) and conj != e
        assert max(b.denominator for b in conj.block).bit_length() > 500
        assert expansion_to_triple(conj) == (t, -T)
        # The recurrence by the public operators, one product at a time.
        want = [(P(1), Polynomial()), (P(conj.b0), P(1))]
        bs = conj.block[:-1] + (conj.bn_star,)
        for b, al in zip(bs, alpha.alphas):
            (p0, q0), (p1, q1) = want[-2:]
            a = linear_factor(al)
            want.append((b * p1 + a * p0, b * q1 + a * q0))
        assert [tuple(pair) for pair in convergents(conj)] == want


class TestPureExpand:
    def test_pure_n3(self):
        e = pure_expand(PURE_N3_TRIPLE, PURE_N3.alpha)
        assert e == PURE_N3
        assert e.is_pure

    def test_n1_pure(self):
        # A = 1, B = beta, C = -(x - alpha_1): b_0 = b_1 = -2 beta
        for beta, alpha1 in [(F(1), F(0)), (F(-3, 2), F(5)), (F(2, 3), F(-1))]:
            triple = AlphaTriple(P("1"), P(beta), P(alpha1, "-1"))
            e = pure_expand(triple, AlphaSequence([alpha1]))
            assert e.b0 == -2 * beta
            assert e.block == (-2 * beta,)

    def test_not_pure(self, sect4_triple, sect4_alpha):
        assert sect4_triple.C(4) == -2
        with pytest.raises(NotPure):
            pure_expand(sect4_triple, sect4_alpha)

    def test_non_generic(self):
        # beta = 0 at alpha_N: trace sign not determined
        triple = AlphaTriple(P("1"), Polynomial(), P("0", "-1"))
        with pytest.raises(NonGenericPure):
            pure_expand(triple, AlphaSequence([0]))


class TestVerify:
    def test_sect4_passes(self, sect4_triple):
        report = verify_expansion(SECT4, sect4_triple)
        assert report["pass"]
        assert all(c["pass"] for c in report["checks"])

    def test_perturbed_fails_on_b(self, sect4_triple):
        perturbed = AlphaTriple(sect4_triple.A, sect4_triple.B + 1,
                                sect4_triple.C)
        report = verify_expansion(SECT4, perturbed)
        assert not report["pass"]
        by_name = {c["name"]: c["pass"] for c in report["checks"]}
        assert by_name == {"A": True, "B": False, "C": True,
                           "determinant_identity": True}

    def test_wrong_expansion_fails(self, sect4_triple):
        wrong = make_expansion(2, [-3, 1, 3], [1, 3, 4])
        report = verify_expansion(wrong, sect4_triple)
        assert report["pass"] is False
        by_name = {c["name"]: c["pass"] for c in report["checks"]}
        assert list(by_name) == ["A", "B", "C", "determinant_identity"]
        assert by_name == {"A": True, "B": False, "C": False,
                           "determinant_identity": True}

    def test_determinant_identity_random(self):
        rng = random.Random(13)
        for _ in range(30):
            e = random_expansion(rng, rng.choice([1, 3, 5]))
            triple, _ = expansion_to_triple(e)
            report = verify_expansion(e, triple)
            assert report["pass"]

    def test_report_text_matches_reference(self, sect4_triple):
        # A passing pair is printed once; the reference prints each side
        # from its own value, so the reports must agree byte for byte.
        t = sect4_triple
        cases = [
            (SECT4, t, True),
            (SECT4, AlphaTriple(t.A, t.B + 1, t.C), False),
            (make_expansion(2, [-3, 1, 3], [1, 3, 4]), t, False),
        ]
        rng = random.Random(19)
        for n in range(1, 18, 2):
            for _ in range(3):
                e = random_expansion(rng, n)
                triple, _ = expansion_to_triple(e)
                # One coefficient below A's and C's leads, or of B, moved.
                g, polys = triple.genus, [triple.A, triple.B, triple.C]
                i = rng.randrange(0 if g else 1, 3)
                k = rng.randrange(g if i == 0 else g + 1)
                polys[i] = polys[i] + Polynomial(
                    [0] * k + [random_rational(rng, nonzero=True)])
                cases += [(e, triple, True), (e, AlphaTriple(*polys), False)]
        for e, triple, passes in cases:
            report = verify_expansion(e, triple)
            assert report == reference_verify(e, triple)
            assert report["pass"] is passes


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on int <-> str conversion")
class TestIntStrLimit:
    """The library never changes the interpreter's limit on int <-> str
    conversion, so text of an integer past it raises the interpreter's
    ValueError; a caller who needs such text lifts the limit."""

    def test_text_past_the_limit(self, sect4_triple):
        big = Polynomial([10 ** 4400, 1])
        # C(alpha_N) in NotPure's text has about 8,000 digits.
        alpha = AlphaSequence([1, 3, 10 ** 4000])
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
            for text in (str, repr):
                with pytest.raises(ValueError, match="Exceeds the limit"):
                    text(big)
            with pytest.raises(ValueError, match="Exceeds the limit"):
                pure_expand(sect4_triple, alpha)
            assert sys.get_int_max_str_digits() == \
                sys.int_info.default_max_str_digits
            sys.set_int_max_str_digits(0)
            assert str(big) == "x + 1" + "0" * 4400
            with pytest.raises(NotPure):
                pure_expand(sect4_triple, alpha)
            assert sys.get_int_max_str_digits() == 0
        finally:
            sys.set_int_max_str_digits(limit)


class TestNumericResidual:
    def test_sect4_points(self, sect4_triple):
        assert numeric_residual(sect4_triple, 0) <= 1e-9
        assert numeric_residual(sect4_triple, 10) <= 1e-9

    def test_negative_discriminant(self):
        # forces complex arithmetic: R(0) = -AC < 0 for B = 0
        triple = AlphaTriple(P("1"), Polynomial(), P("-3", "-1"))
        r = triple.discriminant
        assert r(-5) < 0
        assert numeric_residual(triple, -5) <= 1e-9

    def test_pole(self, sect4_triple):
        with pytest.raises(PoleAtLambda):
            numeric_residual(sect4_triple, 6)

    def test_outside_float_range(self, sect4_triple):
        # A(lambda) overflows a float, or underflows to 0.0 next to its root
        for lam in (10 ** 400, 6 + F(1, 10 ** 400)):
            with pytest.raises(ValueError, match="outside float range"):
                numeric_residual(sect4_triple, lam)


class TestRoundTrip:
    def test_random_round_trip(self):
        rng = random.Random(17)
        cases = [random_expansion(rng, n)
                 for n in (1, 3, 5, 7) for _ in range(25)]
        # Shifts p/q with q <= 4, from a second generator so the draws above
        # stay as they were: only these reach the peel's rescale by powers
        # of the shift's denominator.
        rng = random.Random(23)
        shifts = sorted({Fraction(p, q)
                         for p in range(-8, 9) for q in range(1, 5)})
        for n in (1, 3, 5, 7):
            for _ in range(5):
                alpha = AlphaSequence(rng.sample(shifts, n))
                block = [random_rational(rng, nonzero=True) for _ in range(n)]
                cases.append(Expansion(random_rational(rng), block, alpha))
        for e in cases:
            triple, half_trace = expansion_to_triple(e)
            m = build_transfer_matrix(triple, half_trace)
            assert det(m) == -e.alpha.vanishing_poly()
            assert factorize_transfer_matrix(m, e.alpha) == e

    def test_pure_preservation(self):
        rng = random.Random(19)
        for _ in range(20):
            e = random_expansion(rng, 3)
            e = Expansion(e.block[-1], e.block, e.alpha)  # force b_N = b_0
            triple, _ = expansion_to_triple(e)
            if triple.B(e.alpha.alphas[-1]) == 0:
                continue
            got = pure_expand(triple, e.alpha)
            assert got == e
            assert got.is_pure
            recomputed, _ = expansion_to_triple(got)
            assert recomputed.C(e.alpha.alphas[-1]) == 0
