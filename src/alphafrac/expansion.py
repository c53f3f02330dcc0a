"""Core engine for periodic alpha-fraction expansions.

An N-periodic alpha-fraction (N = 2g+1 odd) is determined by a head b_0,
a periodic block b_1..b_N and the shift sequence alpha_1..alpha_N.  Its
value phi satisfies A*phi^2 + 2*B*phi + C = 0 for a triple (A, B, C) with
A monic of degree g, C anti-monic of degree g+1 and deg B <= g.  The
expansion is recovered from the triple by factorizing the 2x2 transfer
matrix [[T-B, -C], [A, T+B]] into elementary factors, one per period step.
"""

import cmath
import math
from collections import deque, namedtuple
from fractions import Fraction

from .errors import (
    FactorizationDegenerate,
    NonGenericPure,
    NotAdmissible,
    NotMonic,
    NotPure,
    PoleAtLambda,
)
from .polyring import (
    Polynomial,
    _convergent_step,
    _peel_step,
    _ratio,
    as_fraction,
    as_sequence,
    poly_sqrt,
)


class AlphaSequence:
    """An odd-length sequence of pairwise distinct rational shifts."""

    __slots__ = ("alphas", "_frak")

    def __init__(self, alphas):
        a = tuple(as_fraction(x) for x in as_sequence(alphas))
        if len(a) % 2 == 0:
            raise ValueError("period must be odd: N = 2g + 1, N >= 1")
        if len(set(a)) != len(a):
            raise ValueError("shift parameters must be pairwise distinct")
        self.alphas = a
        self._frak = None

    @classmethod
    def _from_checked(cls, alphas: tuple) -> "AlphaSequence":
        """The sequence of alphas, taken without coercion or checks.

        Precondition: alphas is a tuple of pairwise-distinct Fractions of
        odd length, e.g. a permutation of a validated sequence's alphas.
        Only the group generators build sequences this way; the symmetry
        module says why that is sound.
        """
        self = object.__new__(cls)
        self.alphas = alphas
        self._frak = None
        return self

    @property
    def n(self) -> int:
        return len(self.alphas)

    @property
    def genus(self) -> int:
        return (len(self.alphas) - 1) // 2

    def vanishing_poly(self) -> Polynomial:
        """The monic degree-N polynomial prod_i (x - alpha_i).

        Built on first use and kept: orbit walks construct many sequences
        that never need it.
        """
        if self._frak is None:
            self._frak = Polynomial.from_roots(self.alphas)
        return self._frak

    def __eq__(self, other):
        if not isinstance(other, AlphaSequence):
            return NotImplemented
        return self.alphas == other.alphas

    def __hash__(self):
        return hash(self.alphas)

    def __repr__(self):
        return "AlphaSequence(%s)" % (list(map(str, self.alphas)),)


class Expansion:
    """Head b_0 plus periodic block b_1..b_N against a shift sequence."""

    __slots__ = ("b0", "block", "alpha")

    def __init__(self, b0, block, alpha: AlphaSequence):
        self.b0 = as_fraction(b0)
        self.block = tuple(as_fraction(b) for b in as_sequence(block))
        if not isinstance(alpha, AlphaSequence):
            raise TypeError("alpha must be an AlphaSequence, got %.40r"
                            % (alpha,))
        self.alpha = alpha
        if len(self.block) != alpha.n:
            raise ValueError("block length must equal the period N")

    @classmethod
    def _from_checked(cls, b0: Fraction, block: tuple,
                      alpha: AlphaSequence) -> "Expansion":
        """The expansion (b0, block, alpha), taken without coercion or checks.

        Precondition: b0 is a Fraction and block a tuple of Fractions of
        length alpha.n.  Only the group generators build expansions this
        way; the symmetry module says why that is sound.
        """
        self = object.__new__(cls)
        self.b0, self.block, self.alpha = b0, block, alpha
        return self

    @property
    def n(self) -> int:
        return self.alpha.n

    @property
    def bn_star(self) -> Fraction:
        return self.block[-1] - self.b0

    @property
    def is_pure(self) -> bool:
        return self.block[-1] == self.b0

    def key(self):
        """Exact dedup/sort key: alpha order first, then the b-data."""
        return (self.alpha.alphas, self.b0, self.block)

    def __eq__(self, other):
        if not isinstance(other, Expansion):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "[%s; %s]_(%s)" % (
            self.b0,
            ", ".join(map(str, self.block)),
            ", ".join(map(str, self.alpha.alphas)),
        )


class AlphaTriple:
    """Polynomials (A, B, C) with A monic deg g, C anti-monic deg g+1, deg B <= g."""

    __slots__ = ("A", "B", "C")

    def __init__(self, A: Polynomial, B: Polynomial, C: Polynomial):
        for name, p in zip("ABC", (A, B, C)):
            if not isinstance(p, Polynomial):
                raise TypeError("%s must be a Polynomial, got %.40r"
                                % (name, p))
        if C.lead != -1:
            raise ValueError("C must be anti-monic")
        g = C.degree - 1
        if g < 0:
            raise ValueError("C must have degree g + 1 >= 1")
        if A.degree != g or A.lead != 1:
            raise ValueError("A must be monic of degree g")
        if B.degree > g:
            raise ValueError("deg B must be at most g")
        self.A, self.B, self.C = A, B, C

    @property
    def genus(self) -> int:
        return self.A.degree

    @property
    def discriminant(self) -> Polynomial:
        return self.B * self.B - self.A * self.C

    def __eq__(self, other):
        if not isinstance(other, AlphaTriple):
            return NotImplemented
        return (self.A, self.B, self.C) == (other.A, other.B, other.C)

    def __hash__(self):
        return hash((self.A, self.B, self.C))

    def __repr__(self):
        return "AlphaTriple(A=%s, B=%s, C=%s)" % (self.A, self.B, self.C)


ConvergentPair = namedtuple("ConvergentPair", "P Q")


def _convergent_pairs(e: Expansion):
    """(P_k, Q_k) for k = -1 .. N, one at a time, by the recurrence.

    The step-N coefficient is b_N* = b_N - b_0; partial numerators are
    a_k = x - alpha_k.
    """
    alphas = e.alpha.alphas
    n = e.n
    prev = ConvergentPair(Polynomial([1]), Polynomial())
    last = ConvergentPair(Polynomial([e.b0]), Polynomial([1]))
    yield prev
    yield last
    for k in range(1, n + 1):
        b = e.block[k - 1] if k < n else e.bn_star
        al = alphas[k - 1]
        prev, last = last, ConvergentPair(
            _convergent_step(b, last.P, al, prev.P),
            _convergent_step(b, last.Q, al, prev.Q))
        yield last


def convergents(e: Expansion):
    """Convergents: pairs[k + 1] is (P_k, Q_k), for k = -1 .. N."""
    return list(_convergent_pairs(e))


def expansion_to_triple(e: Expansion):
    """Triple (A, B, C) and half-trace T of the expansion's quadratic.

    A = Q_{N-1}, B = (Q_N - P_{N-1})/2, C = -P_N, T = (P_{N-1} + Q_N)/2.
    This is a valid triple for every choice of b_i: by induction on the
    recurrence Q_{2j} and P_{2j+1} are monic of degrees j and j+1, while
    deg Q_{2j+1} <= j and deg P_{2j} <= j.  Only the last two convergent
    pairs are kept alive.
    """
    (p_prev, q_prev), (p_last, q_last) = deque(_convergent_pairs(e), maxlen=2)
    triple = AlphaTriple(q_prev, (q_last - p_prev) / 2, -p_last)
    return triple, (p_prev + q_last) / 2


def admissible_decompose(R: Polynomial, alpha: AlphaSequence) -> Polynomial:
    """The canonical S with R = S^2 + prod(x - alpha_i), deg S <= g.

    S has positive leading coefficient (or is 0).  Raises NotMonic if R
    is not monic of degree N, NotAdmissible if no such S exists.
    """
    n, g = alpha.n, alpha.genus
    if R.degree != n or R.lead != 1:
        raise NotMonic("R must be monic of degree N = %d" % n)
    s = poly_sqrt(R - alpha.vanishing_poly())
    # R and prod are monic of degree N, so any root of R - prod has deg <= g.
    if s is None:
        raise NotAdmissible(
            "R - prod(x - alpha_i) is not the square of a polynomial "
            "of degree <= %d" % g)
    return s


def build_transfer_matrix(t: AlphaTriple, T: Polynomial):
    """The transfer matrix [[T-B, -C], [A, T+B]] for the half-trace T.

    It is returned as the 4-tuple (X, Y, Z, W) = (T-B, -C, A, T+B), which
    is (P_{N-1}, P_N, Q_{N-1}, Q_N) of the expansion.  T is not checked
    here: factorize_transfer_matrix rejects any T with
    T^2 + prod(x - alpha_i) != B^2 - AC, as that is a wrong determinant.
    """
    return (T - t.B, -t.C, t.A, T + t.B)


def factorize_transfer_matrix(m, alpha: AlphaSequence) -> Expansion:
    """Peel the transfer matrix into elementary factors, recovering b_0..b_N.

    m is the 4-tuple (X, Y, Z, W) of build_transfer_matrix, the matrix
    [[X, Y], [Z, W]].  Only the first column is peeled, as Thiele's
    continued fraction of X/Z on the shifts: at step k the factor
    coefficient is X/Z at alpha_{k+1}, each b_k one Fraction of the two
    integers from _ratio.  When X and Z both vanish there it is Y/W, the
    second column read only at that point, peeled k times by the scalar
    recurrence.  The checks after the loop, deg X, Z, W <= g and
    deg Y <= g + 1, then det M = -prod(x - alpha_i), then Z monic, make
    the second column peel exactly too, to the residue
    [[1, b_N - b_0], [0, 1]]; so b_N - b_0 is Y/X at alpha_N (W/Z where X
    vanishes).  A failed check raises FactorizationDegenerate naming it.
    """
    X, Y, Z, W = m
    alphas = alpha.alphas
    bs = []
    p, q = X, Z
    for k, al in enumerate(alphas):
        x, z = _ratio(p, q, al)
        if x == 0 and z == 0:
            # (Y, W) peeled k times, at al, by the scalar recurrence.
            x, z = Y(al), W(al)
            for a, c in zip(alphas, bs):
                x, z = z, (x - c * z) / (al - a)
        if z == 0:
            raise FactorizationDegenerate(
                "null vector has vanishing first component at step %d "
                "(lambda = %s)" % (k, al))
        b = Fraction(x, z)
        bs.append(b)
        p, q = q, _peel_step(p, b, q, al)
    g = alpha.genus
    if max(X.degree, Z.degree, W.degree) > g or Y.degree > g + 1:
        raise FactorizationDegenerate(
            "deg X, Z or W > %d or deg Y > %d" % (g, g + 1))
    if X * W - Y * Z != -alpha.vanishing_poly():
        raise FactorizationDegenerate("det M != -prod(x - alpha_i)")
    if Z.lead != 1:
        raise FactorizationDegenerate("Z is not monic")
    al = alphas[-1]
    y, x = _ratio(Y, X, al)
    if x == 0:
        y, x = _ratio(W, Z, al)
    u = Fraction(y, x)
    return Expansion(bs[0], tuple(bs[1:]) + (u + bs[0],), alpha)


def expand(t: AlphaTriple, alpha: AlphaSequence):
    """Both N-periodic expansions of the triple, for T = +S then T = -S.

    Each branch is peeled on its own: a branch on the degenerate locus is
    its FactorizationDegenerate, in place of its expansion, and the plus
    branch's error is raised only when both branches are degenerate.
    """
    s = admissible_decompose(t.discriminant, alpha)
    branches = []
    for T in (s, -s):
        try:
            branches.append(
                factorize_transfer_matrix(build_transfer_matrix(t, T), alpha))
        except FactorizationDegenerate as exc:
            branches.append(exc)
    if all(isinstance(b, FactorizationDegenerate) for b in branches):
        raise branches[0]
    return tuple(branches)


def pure_expand(t: AlphaTriple, alpha: AlphaSequence) -> Expansion:
    """The pure-periodic expansion (b_N = b_0) of a triple with C(alpha_N) = 0.

    The half-trace is pinned by T(alpha_N) = -B(alpha_N); requires the
    generic condition B(alpha_N) != 0.
    """
    a_last = alpha.alphas[-1]
    c_val = t.C(a_last)
    if c_val != 0:
        raise NotPure("C(alpha_N) = %s != 0" % c_val)
    b_val = t.B(a_last)
    if b_val == 0:
        raise NonGenericPure("B(alpha_N) = 0: trace sign is not determined")
    s = admissible_decompose(t.discriminant, alpha)
    # S(alpha_N)^2 = R(alpha_N) = B(alpha_N)^2 since C(alpha_N) = 0, so one
    # sign gives T(alpha_N) = -B(alpha_N).  With P_{N-1} = T - B, P_N = -C
    # and P_N(alpha_N) = (b_N - b_0) P_{N-1}(alpha_N), that forces b_N = b_0.
    T = s if s(a_last) == -b_val else -s
    return factorize_transfer_matrix(build_transfer_matrix(t, T), alpha)


def verify_expansion(e: Expansion, t: AlphaTriple) -> dict:
    """Recompute the triple from e and compare exactly; returns a report.

    Also checks the determinant identity P_N Q_{N-1} - P_{N-1} Q_N =
    B^2 - AC - T^2 = prod(x - alpha_i) on the recomputed triple.  The
    recurrence makes it hold for every expansion, so it fails only on a
    fault in the convergent step: it stays as that step's fault detector,
    and the report's schema (and its golden text) includes it.  Equal
    polynomials print equal text, so a passing pair is printed once.
    """
    got, T = expansion_to_triple(e)
    det = (got.B - T) * (got.B + T) - got.A * got.C
    same = "expected %(w)s, recomputed %(h)s"
    checks = []
    for name, want, have, form in (
            ("A", t.A, got.A, same), ("B", t.B, got.B, same),
            ("C", t.C, got.C, same),
            ("determinant_identity", e.alpha.vanishing_poly(), det,
             "P_N Q_{N-1} - P_{N-1} Q_N = %(h)s, "
             "prod(x - alpha_i) = %(w)s")):
        ok = have == want
        text = str(want)
        detail = form % {"w": text, "h": text if ok else have}
        checks.append({"name": name, "pass": ok, "detail": detail})
    return {"pass": all(c["pass"] for c in checks), "checks": checks}


def numeric_residual(t: AlphaTriple, lambda0) -> float:
    """|A phi^2 + 2 B phi + C| at lambda0 for phi = (-B + sqrt(R))/A in floats.

    Complex arithmetic is used when R(lambda0) < 0.  Raises ValueError when
    a value on the way, or the residual itself, falls outside float range.

    This checks no expansion and no exact result.  With s^2 = R = B^2 - AC,
    A phi^2 + 2 B phi + C = (s^2 - B^2 + AC)/A = 0 for either root phi and
    every triple, so the value is only the float round-off of the quadratic
    formula at the triple's own phi(lambda0), small for every valid triple.
    """
    lam = as_fraction(lambda0)
    a = t.A(lam)
    if a == 0:
        raise PoleAtLambda("A(%s) = 0" % lam)
    b = t.B(lam)
    c = t.C(lam)
    r = b * b - a * c
    try:
        fa, fb = float(a), float(b)
        phi = (-fb + cmath.sqrt(complex(r))) / fa
        res = abs(fa * phi * phi + 2 * fb * phi + float(c))
    except (OverflowError, ZeroDivisionError):
        res = math.inf
    if not math.isfinite(res):
        raise ValueError("residual at lambda is outside float range")
    return res
