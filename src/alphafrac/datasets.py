"""Canned example datasets exposed through the ``example`` CLI command.

Each dataset bundles the inputs together with the expected outputs so it
can serve directly as a test fixture.  Outputs are computed by the core
operations here; the acceptance suite pins their values independently.
"""

from __future__ import annotations

from .errors import UnknownExample
from .expansion import (
    AlphaSequence,
    AlphaTriple,
    expand,
    pure_expand,
)
from .polyring import Polynomial
from .serialize import expansion_to_json, triple_to_json
from .symmetry import orbit

def _sect4():
    # Genus-1 triple with the full 12-element symmetry orbit.
    triple = AlphaTriple(
        Polynomial(["-6", "1"]),
        Polynomial(["7/2", "-3/2"]),
        Polynomial(["-2", "4", "-1"]))
    alpha = AlphaSequence(["1", "3", "4"])
    first, _second = expand(triple, alpha)
    full = orbit(first)
    return {
        "name": "sect4",
        "alpha": ["1", "3", "4"],
        "triple": triple_to_json(triple),
        "expansions": [expansion_to_json(e) for e in full.expansions],
    }


def _n1_periodic():
    # N = 1: A = 1, B = 0, C = -(x + 3), alpha_1 = 1; heads are +-2.
    triple = AlphaTriple(
        Polynomial(["1"]), Polynomial(), Polynomial(["-3", "-1"]))
    alpha = AlphaSequence(["1"])
    plus, minus = expand(triple, alpha)
    return {
        "name": "n1-periodic",
        "alpha": ["1"],
        "triple": triple_to_json(triple),
        "expansions": [expansion_to_json(plus), expansion_to_json(minus)],
    }


def _n1_pure():
    # N = 1 pure case with beta = 1, alpha_1 = 0: b_0 = b_1 = -2 beta.
    triple = AlphaTriple(
        Polynomial(["1"]), Polynomial(["1"]), Polynomial(["0", "-1"]))
    alpha = AlphaSequence(["0"])
    e = pure_expand(triple, alpha)
    return {
        "name": "n1-pure",
        "alpha": ["0"],
        "triple": triple_to_json(triple),
        "expansion": expansion_to_json(e),
    }


def _pure_n3():
    # Genus-1 pure case; the expansion is (1; 1, 1, 1) over alpha = (0, 1, 2).
    triple = AlphaTriple(
        Polynomial(["0", "1"]),
        Polynomial(["-1", "-1/2"]),
        Polynomial(["2", "1", "-1"]))
    alpha = AlphaSequence(["0", "1", "2"])
    e = pure_expand(triple, alpha)
    return {
        "name": "pure-n3",
        "alpha": ["0", "1", "2"],
        "triple": triple_to_json(triple),
        "expansion": expansion_to_json(e),
    }


_BUILDERS = {
    "sect4": _sect4,
    "n1-periodic": _n1_periodic,
    "n1-pure": _n1_pure,
    "pure-n3": _pure_n3,
}
EXAMPLE_NAMES = tuple(_BUILDERS)


def example(name: str) -> dict:
    """The canned dataset with the given name (see EXAMPLE_NAMES)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownExample(
            "no example named %r; choose from %s"
            % (name, ", ".join(EXAMPLE_NAMES))) from None
    return builder()
