"""Canonical JSON encoding of all wire types.

Rationals are strings in lowest terms with positive denominator ("5/2",
"-3"), or JSON integers on input; polynomials are arrays of coefficient
strings in ascending degree.
``canonical_dumps`` is byte-stable (sorted keys, fixed indentation) so
golden files can be compared verbatim.
"""

import json

from .expansion import AlphaSequence, AlphaTriple, Expansion
from .jacobi import CurvePoint, JacobiTriple
from .polyring import Polynomial, as_fraction


def frac_to_str(x) -> str:
    return str(x)


def frac_from_json(data):
    """A JSON integer, or a string "p" or "p/q" in lowest terms with q > 0.

    The grammar is polyring.as_fraction's; anything else, including
    true/false, "1.5", "1e400" and "2/4", raises ValueError.
    """
    try:
        return as_fraction(data)
    except TypeError as exc:
        raise ValueError(*exc.args) from None


def poly_to_json(p: Polynomial):
    return [frac_to_str(c) for c in p.coeffs]


def _fracs_from_json(data, what):
    if not isinstance(data, list):
        raise ValueError("%s must be an array of rationals" % what)
    return [frac_from_json(x) for x in data]


def poly_from_json(data) -> Polynomial:
    return Polynomial(_fracs_from_json(data, "polynomial"))


def alpha_from_json(data) -> AlphaSequence:
    return AlphaSequence(_fracs_from_json(data, "alpha"))


def expansion_to_json(e: Expansion) -> dict:
    return {
        "b0": frac_to_str(e.b0),
        "block": [frac_to_str(b) for b in e.block],
        "alpha": [frac_to_str(a) for a in e.alpha.alphas],
    }


def expansion_from_json(data) -> Expansion:
    alpha = alpha_from_json(data["alpha"])
    return Expansion(
        frac_from_json(data["b0"]),
        _fracs_from_json(data["block"], "block"),
        alpha)


def triple_to_json(t: AlphaTriple) -> dict:
    return {
        "A": poly_to_json(t.A),
        "B": poly_to_json(t.B),
        "C": poly_to_json(t.C),
    }


def triple_from_json(data) -> AlphaTriple:
    return AlphaTriple(
        poly_from_json(data["A"]),
        poly_from_json(data["B"]),
        poly_from_json(data["C"]))


def jacobi_to_json(j: JacobiTriple) -> dict:
    return {
        "U": poly_to_json(j.U),
        "V": poly_to_json(j.V),
        "W": poly_to_json(j.W),
        "R": poly_to_json(j.R),
    }


def jacobi_from_json(data) -> JacobiTriple:
    return JacobiTriple(
        poly_from_json(data["U"]),
        poly_from_json(data["V"]),
        poly_from_json(data["W"]),
        poly_from_json(data["R"]))


def divisor_to_json(points, R: Polynomial) -> dict:
    return {
        "points": [
            {"lambda": frac_to_str(p.lam), "mu": frac_to_str(p.mu)}
            for p in points
        ],
        "R": poly_to_json(R),
    }


def divisor_from_json(data):
    # Iterated, text would give its characters and an object its keys.
    if not isinstance(data["points"], list):
        raise ValueError("points must be an array")
    points = []
    for i, p in enumerate(data["points"]):
        if not isinstance(p, dict) or "lambda" not in p or "mu" not in p:
            raise ValueError('point %d must be an object with "lambda" and '
                             '"mu", got %.40r' % (i, p))
        points.append(CurvePoint(frac_from_json(p["lambda"]),
                                 frac_from_json(p["mu"])))
    return tuple(points), poly_from_json(data["R"])


def orbit_to_json(result) -> dict:
    return {
        "expansions": [expansion_to_json(e) for e in result.expansions],
        "complete": result.complete,
        "skipped_edges": [
            {
                "expansion": expansion_to_json(edge.source),
                "generator": edge.generator,
                "detail": edge.detail,
            }
            for edge in result.skipped_edges
        ],
    }


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
