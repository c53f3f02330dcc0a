"""Canned example datasets exposed through the ``example`` CLI command.

Each dataset bundles the inputs together with the expected outputs so it
can serve directly as a test fixture.  Outputs are computed by the core
operations here; the acceptance suite pins their values independently.
"""

from __future__ import annotations

from .errors import UnknownExample
from .expansion import AlphaSequence, AlphaTriple, expand, pure_expand
from .polyring import Polynomial
from .serialize import expansion_to_json, triple_to_json
from .symmetry import orbit

# name: ((A, B, C) ascending coefficients, shifts, what the record holds:
# "orbit" of the first expansion, "both" expansions, or the "pure" one)
_EXAMPLES = {
    # Genus-1 triple with the full 12-element symmetry orbit.
    "sect4": ((("-6", "1"), ("7/2", "-3/2"), ("-2", "4", "-1")),
              ("1", "3", "4"), "orbit"),
    # N = 1: A = 1, B = 0, C = -(x + 3), alpha_1 = 1; heads are +-2.
    "n1-periodic": ((("1",), (), ("-3", "-1")), ("1",), "both"),
    # N = 1 pure case with beta = 1, alpha_1 = 0: b_0 = b_1 = -2 beta.
    "n1-pure": ((("1",), ("1",), ("0", "-1")), ("0",), "pure"),
    # Genus-1 pure case; the expansion is (1; 1, 1, 1) over alpha = (0, 1, 2).
    "pure-n3": ((("0", "1"), ("-1", "-1/2"), ("2", "1", "-1")),
                ("0", "1", "2"), "pure"),
}
EXAMPLE_NAMES = tuple(_EXAMPLES)


def example(name: str) -> dict:
    """The canned dataset with the given name (see EXAMPLE_NAMES)."""
    try:
        coeffs, alpha, kind = _EXAMPLES[name]
    except KeyError:
        raise UnknownExample(
            "no example named %r; choose from %s"
            % (name, ", ".join(EXAMPLE_NAMES))) from None
    triple = AlphaTriple(*map(Polynomial, coeffs))
    shifts = AlphaSequence(alpha)
    record = {"name": name, "alpha": list(alpha),
              "triple": triple_to_json(triple)}
    if kind == "pure":
        record["expansion"] = expansion_to_json(pure_expand(triple, shifts))
    else:
        first, second = expand(triple, shifts)
        found = orbit(first).expansions if kind == "orbit" else (first, second)
        record["expansions"] = [expansion_to_json(e) for e in found]
    return record
