import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from alphafrac import (
    AlphaTriple,
    CurvePoint,
    IrrationalBeta,
    IrrationalSupport,
    JacobiTriple,
    PointOffCurve,
    RepeatedAbscissa,
    RootOfR,
    SpecialDivisor,
    alpha_triple_from_jacobi,
    divisor_from_jacobi,
    jacobi_from_alpha_triple,
    jacobi_from_divisor,
    pure_beta_candidates,
)
from alphafrac.polyring import Polynomial, rational_roots

from conftest import (
    divisor_reference,
    euclid_first_roots,
    lagrange,
    random_jacobi,
    random_polynomial,
    random_rational,
    three_pass_jacobi,
)


def P(*coeffs):
    return Polynomial(coeffs)


def F(*args):
    return Fraction(*args)


R_SECT4 = P("1/4", "31/2", "-31/4", "1")


class TestJacobiTriple:
    def test_relation_enforced(self):
        with pytest.raises(ValueError):
            JacobiTriple(P("-6", "1"), P("-11/2"), P("5", "-7/4", "1"),
                         R_SECT4 + 1)

    def test_degree_enforced(self):
        x = P("0", "1")
        with pytest.raises(ValueError):
            JacobiTriple(P("-6", "1"), x, P("5", "-7/4", "1"),
                         x * x + P("-6", "1") * P("5", "-7/4", "1"))

    @pytest.mark.parametrize("u, w, message", [
        (P("-6", "2"), P("5", "-7/4", "1"), "U must be monic"),
        (Polynomial(), P("5", "-7/4", "1"), "U must be monic"),
        (P("-6", "1"), P("5", "-7/4", "2"), "W must be monic of degree g"),
        (P("-6", "1"), P("5", "1"), "W must be monic of degree g"),
    ])
    def test_monic_enforced(self, u, w, message):
        with pytest.raises(ValueError, match=message):
            JacobiTriple(u, P("-11/2"), w, R_SECT4)

    def test_repr(self):
        j = JacobiTriple(P("-6", "1"), P("-11/2"), P("5", "-7/4", "1"),
                         R_SECT4)
        assert repr(j) == ("JacobiTriple(U=x - 6, V=-11/2, W=x^2 - 7/4*x + 5,"
                           " R=x^3 - 31/4*x^2 + 31/2*x + 1/4)")

    @pytest.mark.parametrize("field", range(4))
    def test_fields_are_polynomials(self, field):
        args = [P("-6", "1"), P("-11/2"), P("5", "-7/4", "1"), R_SECT4]
        args[field] = list(args[field].coeffs)
        with pytest.raises(TypeError,
                           match="^%s must be a Polynomial" % "UVWR"[field]):
            JacobiTriple(*args)


def _divisor_outcome(fn, points, r):
    try:
        j = fn(points, r)
    except (SpecialDivisor, RepeatedAbscissa, PointOffCurve,
            ValueError) as exc:
        return type(exc), str(exc)
    return j.U, j.V, j.W


def _mutated_divisor(rng):
    """(points, R): g points of a curve built through them, then up to
    three edits: a repeat, a conjugate, a shared lambda with a new mu, an
    off-curve mu, a flip to the conjugate point (still valid), a drop."""
    g = rng.randint(0, 6)
    lams = []
    while len(lams) < g:
        lam = random_rational(rng, -20, 20, 5)
        if lam not in lams:
            lams.append(lam)
    points = [(lam, random_rational(rng, -9, 9, 4)) for lam in lams]
    w = random_polynomial(rng, g + 1, monic=True)
    v = lagrange(points)
    r = v * v + Polynomial.from_roots(lams) * w
    for _ in range(rng.choice((0, 1, 1, 2, 3)) if g else 0):
        t, s = rng.randrange(g), rng.randrange(g)
        lam, mu = points[s]
        kind = rng.choice(("repeat", "conjugate", "shared", "off", "flip",
                           "drop"))
        if kind == "repeat" and s != t:
            points[t] = (lam, mu)
        elif kind == "conjugate" and s != t:
            points[t] = (lam, -mu)
        elif kind == "shared" and s != t:
            points[t] = (lam, mu + random_rational(rng, nonzero=True))
        elif kind == "off":
            points[t] = (points[t][0],
                         points[t][1] + random_rational(rng, nonzero=True))
        elif kind == "flip":
            points[t] = (points[t][0], -points[t][1])
        elif kind == "drop" and len(points) > 1:
            del points[t]
            g -= 1
    return points, r


class TestFromDivisor:
    def test_genus1_point(self):
        # R(6) = 121/4, mu = -11/2
        j = jacobi_from_divisor([(6, F(-11, 2))], R_SECT4)
        assert j.U == P("-6", "1")
        assert j.V == P("-11/2")
        assert j.W == P("5", "-7/4", "1")
        assert j.V * j.V + j.U * j.W == R_SECT4

    def test_weierstrass_point(self):
        # root of R: mu = 0, V = 0, W = R / (x - root)
        r = Polynomial.from_roots([F(1, 2), 2, 3])
        j = jacobi_from_divisor([(F(1, 2), 0)], r)
        assert j.V == Polynomial()
        assert j.W == Polynomial.from_roots([2, 3])

    def test_conjugate_pair_rejected(self):
        r = Polynomial.from_roots([0, 1, 2, 3, 4])  # genus 2
        with pytest.raises(SpecialDivisor):
            jacobi_from_divisor([(5, 10), (5, -10)], r)

    def test_repeated_abscissa_rejected(self):
        with pytest.raises(RepeatedAbscissa):
            jacobi_from_divisor([(5, 10), (5, 10)], R_SECT4)

    def test_off_curve_rejected(self):
        with pytest.raises(PointOffCurve):
            jacobi_from_divisor([(6, 1)], R_SECT4)

    @pytest.mark.parametrize("points, index", [
        # (6, -11/2) is on the curve: only the extra entries are wrong.
        ([(6, F(-11, 2), "junk", 7)], 0),
        ([(6, F(-11, 2)), (1, 2, 3)], 1),
        ([(6,)], 0),
        ([()], 0),
    ])
    def test_point_must_be_a_pair(self, points, index):
        with pytest.raises(ValueError, match="^point %d " % index):
            jacobi_from_divisor(points, R_SECT4)

    def test_point_is_not_a_dict(self):
        # Indexed, a two-entry dict raised KeyError.
        with pytest.raises(TypeError, match="^point 0 must be a pair"):
            jacobi_from_divisor([{"lambda": 6, "mu": "-11/2"}], R_SECT4)

    @pytest.mark.parametrize("point", [
        {6, "-11/2"}, frozenset([6, 1]), "6", b"61", 6, None, F(6)])
    def test_malformed_point_names_its_index(self, point):
        # Whichever check refuses the point, the text names its index.
        with pytest.raises(TypeError, match=r"^point 1 must be a pair "
                                            r"\(lambda, mu\), got "):
            jacobi_from_divisor([(6, F(-11, 2)), point], R_SECT4)

    def test_newton_pass_matches_lagrange(self):
        # U is the product of the x - lam_i and V the Lagrange interpolant,
        # at genus 0 to 10 and abscissae of mixed height.
        rng = random.Random(83)
        for g in range(11):
            for _ in range(12):
                lams = []
                while len(lams) < g:
                    lam = F(rng.randint(-1000, 1000),
                            rng.choice((1, 2, 3, 7, 997)))
                    if lam not in lams:
                        lams.append(lam)
                points = [(lam, random_rational(rng, -9, 9, 4))
                          for lam in lams]
                u = Polynomial.from_roots(lams)
                v = lagrange(points)
                w = random_polynomial(rng, g + 1, monic=True)
                j = jacobi_from_divisor(points, v * v + u * w)
                assert (j.U, j.V, j.W) == (u, v, w)


    def test_one_pass_matches_three_pass_reference(self):
        # Triples and error records equal the scan-first reference's.  Where
        # two or more lambda values repeat, the reference names the least
        # pair (i, j); the pass names the first point whose lambda repeats,
        # with the first earlier point of that lambda.
        rng = random.Random(97)
        kinds = Counter()
        for _ in range(2400):
            points, r = _mutated_divisor(rng)
            got = _divisor_outcome(jacobi_from_divisor, points, r)
            want = _divisor_outcome(three_pass_jacobi, points, r)
            kinds[got[0] if isinstance(got[0], type) else "ok"] += 1
            lams = [lam for lam, _ in points]
            if sum(lams.count(lam) > 1 for lam in set(lams)) <= 1:
                assert got == want
                continue
            i = next(i for i, lam in enumerate(lams) if lam in lams[:i])
            j = lams.index(lams[i])
            if points[j][1] == -points[i][1]:
                text = ("points %d and %d are conjugate under the "
                        "hyperelliptic involution" % (j, i))
                assert got == (SpecialDivisor, text)
            else:
                text = "points %d and %d share lambda = %s" % (j, i, lams[i])
                assert got == (RepeatedAbscissa, text)
            assert want[0] in (SpecialDivisor, RepeatedAbscissa)
        assert min(kinds.values()) >= 100, kinds
        assert set(kinds) == {"ok", SpecialDivisor, RepeatedAbscissa,
                              PointOffCurve, ValueError}

    def test_error_names_first_repeat(self):
        # [a, b, b, a]: the scan over pairs would name points 0 and 3.
        r = Polynomial.from_roots([0, 1, 2, 3, 4])  # genus 2
        points = [(5, 10), (6, 1), (6, 1), (5, 10)]
        with pytest.raises(RepeatedAbscissa,
                           match="^points 1 and 2 share lambda = 6$"):
            jacobi_from_divisor(points, r)
        with pytest.raises(SpecialDivisor, match="^points 0 and 2 are "):
            jacobi_from_divisor([(5, 10), (6, 1), (5, -10), (6, 1)], r)

    def test_off_curve_names_first_point(self):
        # Checked once the W division leaves a remainder, after repeats.
        r = R_SECT4 * Polynomial.from_roots([7, 8])  # genus 2
        with pytest.raises(PointOffCurve) as info:
            jacobi_from_divisor([(1, 2), (6, 1), (7, 3)], r)
        assert str(info.value).startswith("point 0: mu^2 = 4 but R(1) = ")
        with pytest.raises(RepeatedAbscissa):
            jacobi_from_divisor([(1, 2), (6, 1), (1, 3)], r)


class TestToDivisor:
    def test_genus1_inverse(self):
        j = JacobiTriple(P("-6", "1"), P("-11/2"), P("5", "-7/4", "1"),
                         R_SECT4)
        assert divisor_from_jacobi(j) == (CurvePoint(F(6), F(-11, 2)),)

    def test_irrational_support(self):
        u = P("1", "0", "1")  # x^2 + 1
        w = random_polynomial(random.Random(0), 3, monic=True)
        j = JacobiTriple(u, Polynomial(), w, u * w)
        with pytest.raises(IrrationalSupport):
            divisor_from_jacobi(j)

    @pytest.mark.parametrize("u, exc, message", [
        # -2 is met before 3: roots are walked by (|num|, den, + before -)
        (Polynomial.from_roots([3, 3, -2, -2]), RepeatedAbscissa,
         "U has the repeated root -2"),
        (Polynomial.from_roots([1, 1]) * P("1", "0", "1"), RepeatedAbscissa,
         "U has the repeated root 1"),
        (Polynomial.from_roots([F(1, 2), -5]) * P("1", "0", "1"),
         IrrationalSupport,
         "U does not split over Q (remaining factor x^2 + 1)"),
    ])
    def test_error_records(self, u, exc, message):
        w = Polynomial.from_roots(range(u.degree + 1))
        j = JacobiTriple(u, Polynomial(), w, u * w)
        with pytest.raises(exc) as info:
            divisor_from_jacobi(j)
        assert str(info.value) == message

    @pytest.mark.parametrize("lams", [
        # genus 6, heights up to 1000: far beyond a divisor-of-U(0) search
        [F(997, 991), F(-983, 977), F(971, 1000), F(-953, 947),
         F(1000, 937), F(-929, 919)],
        # genus 3, integer abscissae near 10^12
        [10 ** 12 + 39, -(10 ** 12 - 11), 10 ** 12 + 61],
    ])
    def test_round_trip_large_heights(self, lams):
        rng = random.Random(71)
        points = [CurvePoint(F(l), random_rational(rng, -9, 9, 4))
                  for l in lams]
        v = lagrange(points)
        w = random_polynomial(rng, len(lams) + 1, monic=True)
        r = v * v + Polynomial.from_roots(lams) * w
        got = divisor_from_jacobi(jacobi_from_divisor(points, r))
        assert got == tuple(sorted(points))

    def test_round_trip_random(self):
        rng = random.Random(47)
        for _ in range(40):
            g = rng.randint(1, 3)
            lams = rng.sample(range(-6, 7), g)
            mus = [random_rational(rng, -6, 6, 3) for _ in range(g)]
            points = [CurvePoint(F(l), m) for l, m in zip(lams, mus)]
            # build an R passing through the chosen points
            u = Polynomial.from_roots(lams)
            w = random_polynomial(rng, g + 1, monic=True)
            v = lagrange(points)
            r = v * v + u * w
            j = jacobi_from_divisor(points, r)
            assert (j.U, j.V, j.W) == (u, v, w)
            got = divisor_from_jacobi(j)
            assert set(got) == set(points)
            back = jacobi_from_divisor(got, r)
            assert back == j


def _outcome(fn, j):
    try:
        return fn(j)
    except (RepeatedAbscissa, IrrationalSupport) as exc:
        return type(exc), str(exc)


class TestRootSearch:
    def test_matches_euclid_first_reference(self):
        # The search on U itself against the squarefree-part-first
        # reference: sorted roots, and divisor records or error texts.
        rng = random.Random(89)
        x2p1, x3m2 = P("1", "0", "1"), P("-2", "0", "0", "1")
        corpus = []
        for _ in range(300):
            lams = set()
            for _ in range(rng.randint(0, 8)):
                lams.add(F(rng.randint(-10 ** 6, 10 ** 6),
                           rng.choice((1, 2, 3, 7, 997))))
            u = Polynomial.from_roots(sorted(lams))
            kind = rng.randrange(6)
            if kind <= 1 and lams:     # a repeated rational root
                u = u * Polynomial.linear(rng.choice(sorted(lams)))
            elif kind == 2:            # irreducible quadratic and cubic
                u = u * rng.choice((x2p1, x3m2))
            elif kind == 3:            # a repeated irreducible factor
                u = u * x2p1 * x2p1
            corpus.append(u)
        # Squarefree, yet every odd prime below 64 makes two roots of the
        # integer form meet, so the walk goes on past 64 after taking the
        # squarefree part.
        m = math.prod(p for p in range(3, 64, 2)
                      if all(p % q for q in range(3, p, 2)))
        c = rng.randint(-10 ** 6, 10 ** 6)
        forced = [Polynomial.from_roots([c, c + m]),
                  Polynomial.from_roots([F(c, 7), F(c, 7) + m, F(c, 7) - m]),
                  Polynomial.from_roots([0, m, 2 * m]) * x2p1]
        for u in corpus + forced:
            assert sorted(rational_roots(u)) == \
                sorted(euclid_first_roots(u))
            g = u.degree
            v = random_polynomial(rng, g - 1) if g else Polynomial()
            w = random_polynomial(rng, g + 1, monic=True)
            j = JacobiTriple(u, v, w, v * v + u * w)
            assert _outcome(divisor_from_jacobi, j) == \
                _outcome(divisor_reference, j)


class TestAlphaCorrespondence:
    def test_sect4_forward(self, sect4_triple):
        j = JacobiTriple(P("-6", "1"), P("-11/2"), P("5", "-7/4", "1"),
                         R_SECT4)
        assert alpha_triple_from_jacobi(j, F(-3, 2)) == sect4_triple

    def test_beta_zero(self):
        rng = random.Random(53)
        j = random_jacobi(rng, 2)
        t = alpha_triple_from_jacobi(j, 0)
        assert (t.A, t.B, t.C) == (j.U, j.V, -j.W)

    def test_sect4_inverse(self, sect4_triple):
        j, beta = jacobi_from_alpha_triple(sect4_triple)
        assert beta == F(-3, 2)
        assert j.U == P("-6", "1")
        assert j.V == P("-11/2")
        assert j.W == P("5", "-7/4", "1")
        assert j.R == R_SECT4

    def test_low_degree_b(self):
        # deg B < g: beta = 0 and V = B
        a = Polynomial.from_roots([1, 2])
        b = P("3", "1")
        w = random_polynomial(random.Random(1), 3, monic=True)
        c = -w  # beta = 0 case of the map
        t = AlphaTriple(a, b, c)
        j, beta = jacobi_from_alpha_triple(t)
        assert beta == 0
        assert j.V == b

    def test_discriminant_identity_random(self):
        rng = random.Random(59)
        for _ in range(50):
            j = random_jacobi(rng, rng.randint(0, 3))
            beta = random_rational(rng)
            t = alpha_triple_from_jacobi(j, beta)
            assert t.discriminant == j.R

    def test_mutual_inverse_random(self):
        rng = random.Random(61)
        for _ in range(50):
            j = random_jacobi(rng, rng.randint(0, 3))
            beta = random_rational(rng)
            t = alpha_triple_from_jacobi(j, beta)
            j2, beta2 = jacobi_from_alpha_triple(t)
            assert (j2, beta2) == (j, beta)


class TestPureBeta:
    def test_sect4_example(self):
        j = JacobiTriple(P("-6", "1"), P("-11/2"), P("5", "-7/4", "1"),
                         R_SECT4)
        betas = pure_beta_candidates(j, 4)
        assert betas == [F(-2), F(-7, 2)]
        for beta in betas:
            t = alpha_triple_from_jacobi(j, beta)
            assert t.C(4) == 0

    def test_degenerate_linear_case(self):
        # U(alpha_N) = 0, V(alpha_N) != 0: single root W / (2V)
        j = JacobiTriple(P("-6", "1"), P("-11/2"), P("5", "-7/4", "1"),
                         R_SECT4)
        betas = pure_beta_candidates(j, 6)
        assert betas == [j.W(6) / (2 * j.V(6))]
        t = alpha_triple_from_jacobi(j, betas[0])
        assert t.C(6) == 0

    def test_irrational_beta(self):
        # R(alpha_N) = 2 is not a rational square
        u = P("0", "1")
        w = P("2", "0", "1")  # R = x^3 + 2x, R(1)... pick alpha_n with R = 2
        j = JacobiTriple(u, Polynomial(), w, u * w)
        assert j.R(1) == 3
        j2 = JacobiTriple(P("0", "1"), Polynomial(), P("1", "0", "1"),
                          P("0", "1") * P("1", "0", "1"))
        assert j2.R(1) == 2
        with pytest.raises(IrrationalBeta):
            pure_beta_candidates(j2, 1)

    def test_root_of_r(self):
        u = P("0", "1")
        w = P("-1", "0", "1")
        j = JacobiTriple(u, Polynomial(), w, u * w)  # R = x(x^2 - 1)
        with pytest.raises(RootOfR):
            pure_beta_candidates(j, 1)
