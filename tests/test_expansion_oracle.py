"""expand's peel against the paper's own step on the triple.

With s^2 = R = B^2 - AC, phi = (-B + s)/A is written phi = b + (x - alpha)
/ phi', where b = phi(alpha): at a shift s(alpha) = T(alpha) for the
branch's half-trace T, since R = S^2 + prod(x - alpha_i).  So
b = (T - B)(alpha) / A(alpha), or -C(alpha) / (T + B)(alpha) where
A(alpha) = 0, and phi' is the triple

    A' = -(C + 2bB + b^2 A) / (x - alpha),  B' = -(B + bA),
    C' = -A (x - alpha),

with the same R.  Stepped over alpha_1 .. alpha_N, then alpha_1 again, it
gives b_0 .. b_N: the expansion, from public Polynomial arithmetic only,
sharing no step with the transfer-matrix peel or the convergent
recurrence.  It fails exactly where A(alpha) = (T + B)(alpha) = 0, and the
peel must then raise FactorizationDegenerate.  hypothesis is test-only;
without it this module is skipped.
"""
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from alphafrac import (  # noqa: E402
    AlphaSequence,
    Expansion,
    FactorizationDegenerate,
    build_transfer_matrix,
    expansion_to_triple,
    factorize_transfer_matrix,
)
from alphafrac.polyring import Polynomial  # noqa: E402

from conftest import make_expansion  # noqa: E402


def stepped(t, T, alpha):
    """The expansion of the triple t on the branch T by the paper's step,
    or None where A(alpha) = (T + B)(alpha) = 0."""
    A, B, C = t.A, t.B, t.C
    bs = []
    for al in alpha.alphas + alpha.alphas[:1]:
        if A(al) != 0:
            b = (T - B)(al) / A(al)
        elif (T + B)(al) != 0:
            b = -C(al) / (T + B)(al)
        else:
            return None
        x_al = Polynomial.from_roots([al])
        quot, rem = divmod(C + 2 * b * B + b * b * A, x_al)
        assert not rem
        A, B, C = -quot, -(B + b * A), -A * x_al
        bs.append(b)
    return Expansion(bs[0], bs[1:], alpha)


# b_i that are often 0, so that zero pivots and degenerate branches occur;
# shifts that are sometimes p/q.
coefficients = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)])
shifts = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.builds(Fraction, st.integers(-12, 12), st.integers(2, 3)))


@st.composite
def expansions(draw):
    n = draw(st.sampled_from([1, 3, 5, 7, 9]))
    alphas = draw(st.lists(shifts, min_size=n, max_size=n, unique=True))
    block = draw(st.lists(coefficients, min_size=n, max_size=n))
    return Expansion(draw(coefficients), block, AlphaSequence(alphas))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(expansions())
# The minus branch has A(1) = (T + B)(1) = 0: the peel's null vector.
@example(make_expansion(5, [1, 2, 7], [1, 3, 4]))
# The peel reads b_2 from Y/W after two steps.
@example(make_expansion(-1, [-1] * 5, [0, 1, 2, 3, 5]))
def test_step_matches_peel(e):
    t, T = expansion_to_triple(e)
    assert stepped(t, T, e.alpha) == e
    for branch in (T, -T):
        m = build_transfer_matrix(t, branch)
        want = stepped(t, branch, e.alpha)
        if want is None:
            with pytest.raises(FactorizationDegenerate):
                factorize_transfer_matrix(m, e.alpha)
        else:
            assert factorize_transfer_matrix(m, e.alpha) == want
