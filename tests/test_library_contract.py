"""The library's contract on malformed arguments: the twin of the CLI guard.

JSON-shaped junk goes into each argument of the public constructors and of
the entry points that take rationals, sequences, words, indices or flags,
the others being valid.  Valid rationals are drawn as well, so that an
argument that takes one reaches the domain code behind the parse.  Whatever
the junk, the call returns or raises an ``AlphaFractionError``,
``ValueError`` or ``TypeError``; nothing else, such as an
``AttributeError`` or ``IndexError``, escapes.  Entry points that take
only typed objects (``expand``, ``verify_expansion``) are duck-typed and out
of scope.  hypothesis is test-only; without it this module is skipped.
"""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from alphafrac import (  # noqa: E402
    AlphaFractionError,
    AlphaSequence,
    AlphaTriple,
    Expansion,
    JacobiTriple,
    alpha_triple_from_jacobi,
    apply_sigma,
    apply_word,
    jacobi_from_divisor,
    numeric_residual,
    orbit,
    pure_beta_candidates,
)
from alphafrac.polyring import Polynomial, as_fraction  # noqa: E402


def P(*coeffs):
    return Polynomial(coeffs)


A, B, C = P("-6", "1"), P("7/2", "-3/2"), P("-2", "4", "-1")
ALPHA = AlphaSequence([1, 3, 4])
E = Expansion(1, [-3, 1, 3], ALPHA)
R = P("1/4", "31/2", "-31/4", "1")
U, V, W = P("-6", "1"), P("-11/2"), P("5", "-7/4", "1")
J = JacobiTriple(U, V, W, R)

# Each entry puts the junk x in one argument.
CALLS = {
    "as_fraction": lambda x: as_fraction(x),
    "Polynomial": lambda x: Polynomial(x),
    "AlphaSequence": lambda x: AlphaSequence(x),
    "Expansion.b0": lambda x: Expansion(x, [-3, 1, 3], ALPHA),
    "Expansion.block": lambda x: Expansion(1, x, ALPHA),
    "Expansion.alpha": lambda x: Expansion(1, [-3, 1, 3], x),
    "AlphaTriple.A": lambda x: AlphaTriple(x, B, C),
    "AlphaTriple.B": lambda x: AlphaTriple(A, x, C),
    "AlphaTriple.C": lambda x: AlphaTriple(A, B, x),
    "JacobiTriple.U": lambda x: JacobiTriple(x, V, W, R),
    "JacobiTriple.V": lambda x: JacobiTriple(U, x, W, R),
    "JacobiTriple.W": lambda x: JacobiTriple(U, V, x, R),
    "JacobiTriple.R": lambda x: JacobiTriple(U, V, W, x),
    "jacobi_from_divisor.points": lambda x: jacobi_from_divisor(x, R),
    "jacobi_from_divisor.point": lambda x: jacobi_from_divisor([x], R),
    "jacobi_from_divisor.mu": lambda x: jacobi_from_divisor([(6, x)], R),
    # The repeat is met in the Newton pass, before R is read.
    "jacobi_from_divisor.R.repeat": lambda x: jacobi_from_divisor(
        [(6, "-11/2"), (6, 1)], x),
    "jacobi_from_divisor.R": lambda x: jacobi_from_divisor(
        [(6, "-11/2")], x),
    "apply_word": lambda x: apply_word(E, x),
    "apply_word.letter": lambda x: apply_word(E, ["sigma:1", x]),
    "apply_sigma": lambda x: apply_sigma(E, x),
    "numeric_residual.lambda": lambda x: numeric_residual(
        AlphaTriple(A, B, C), x),
    "pure_beta_candidates": lambda x: pure_beta_candidates(J, x),
    "alpha_triple_from_jacobi": lambda x: alpha_triple_from_jacobi(J, x),
    "orbit.pure": lambda x: orbit(E, pure=x),
}

# JSON values, with the rational strings the wire grammar must refuse.
scalars = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-10 ** 30, 10 ** 30),
    st.text(max_size=6),
    st.sampled_from(["5/2", "-0", "1/0", "2/4", "1.5", "1e400", " 3",
                     "sigma:1", "sigma:9", "epspi", "9" * 60]))
# Valid rationals, so that a rational argument also reaches the code behind
# the parse: 6 is the root of U and A, where pure_beta_candidates takes its
# linear case and A(lambda) = 0; -11/2 is V and 1, 3, 4 are the shifts.
rationals = st.one_of(
    st.sampled_from([6, "6", "-11/2", 1, 3, "4", 0]),
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=10 ** 6).map(str))
junk = st.one_of(rationals, st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=3)),
    max_leaves=8))


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(x=junk)
def test_junk_argument_keeps_contract(name, x):
    try:
        CALLS[name](x)
    except (AlphaFractionError, ValueError, TypeError):
        pass
