"""Command-line front-end: every core operation over JSON on files or stdio.

Exit codes: 0 success, 1 domain error (machine-readable record on stderr),
2 malformed input or usage error.
"""

import argparse
import json
import sys

from . import datasets
from .errors import AlphaFractionError
from .expansion import (
    admissible_decompose,
    expand,
    expansion_to_triple,
    numeric_residual,
    pure_expand,
    verify_expansion,
)
from .jacobi import (
    alpha_triple_from_jacobi,
    divisor_from_jacobi,
    jacobi_from_alpha_triple,
    jacobi_from_divisor,
    pure_beta_candidates,
)
from .serialize import (
    alpha_from_json,
    canonical_dumps,
    divisor_from_json,
    divisor_to_json,
    expansion_from_json,
    expansion_to_json,
    frac_to_str,
    jacobi_from_json,
    jacobi_to_json,
    orbit_to_json,
    poly_from_json,
    poly_to_json,
    triple_from_json,
    triple_to_json,
)
from .symmetry import apply_word, orbit


def _error_record(name, exc) -> dict:
    """The record of an error: its name and exc's text."""
    return {"error": name, "detail": str(exc)}


def _cmd_expand(payload, args):
    triple = triple_from_json(payload)
    alpha = alpha_from_json(payload["alpha"])
    # A degenerate branch keeps its place in the list, as its error record.
    return [_error_record(type(e).__name__, e)
            if isinstance(e, AlphaFractionError) else expansion_to_json(e)
            for e in expand(triple, alpha)]


def _cmd_pure_expand(payload, args):
    triple = triple_from_json(payload)
    alpha = alpha_from_json(payload["alpha"])
    return expansion_to_json(pure_expand(triple, alpha))


def _cmd_triple(payload, args):
    e = expansion_from_json(payload)
    triple, half_trace = expansion_to_triple(e)
    out = triple_to_json(triple)
    out["T"] = poly_to_json(half_trace)
    out["alpha"] = [frac_to_str(a) for a in e.alpha.alphas]
    return out


def _cmd_admissible(payload, args):
    alpha = alpha_from_json(payload["alpha"])
    s = admissible_decompose(poly_from_json(payload["R"]), alpha)
    return {"S": poly_to_json(s)}


def _cmd_act(payload, args):
    e = expansion_from_json(payload)
    word = json.loads(args.word)
    return expansion_to_json(apply_word(e, word))


def _cmd_orbit(payload, args):
    e = expansion_from_json(payload)
    return orbit_to_json(orbit(e, pure=args.pure))


def _cmd_jacobi_to_triple(payload, args):
    j = jacobi_from_json(payload)
    return triple_to_json(alpha_triple_from_jacobi(j, payload["beta"]))


def _cmd_triple_to_jacobi(payload, args):
    j, beta = jacobi_from_alpha_triple(triple_from_json(payload))
    out = jacobi_to_json(j)
    out["beta"] = frac_to_str(beta)
    return out


def _cmd_divisor_to_jacobi(payload, args):
    points, r = divisor_from_json(payload)
    return jacobi_to_json(jacobi_from_divisor(points, r))


def _cmd_jacobi_to_divisor(payload, args):
    j = jacobi_from_json(payload)
    return divisor_to_json(divisor_from_jacobi(j), j.R)


def _cmd_pure_beta(payload, args):
    j = jacobi_from_json(payload)
    betas = pure_beta_candidates(j, payload["alpha_n"])
    return {"betas": [frac_to_str(b) for b in betas]}


def _cmd_verify(payload, args):
    e = expansion_from_json(payload["expansion"])
    triple = triple_from_json(payload["triple"])
    return verify_expansion(e, triple)


def _cmd_residual(payload, args):
    triple = triple_from_json(payload)
    return {"residual": numeric_residual(triple, args.lam)}


def _cmd_example(payload, args):
    return datasets.example(args.name)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError; subparsers share the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="alphafrac",
        description="Periodic alpha-fraction expansions on odd-degree "
                    "hyperelliptic curves, in exact rational arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, reads_input=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if reads_input:
            p.add_argument("--input", "-i", default="-",
                           help="JSON input path, or - for stdin")
        else:
            p.set_defaults(input=None)
        p.add_argument("--output", "-o", default="-",
                       help="JSON output path, or - for stdout")
        return p

    add("expand", _cmd_expand, "both periodic expansions of an alpha-triple")
    add("pure-expand", _cmd_pure_expand,
        "the pure-periodic expansion of an alpha-triple")
    add("triple", _cmd_triple, "the quadratic triple (A, B, C) and "
                               "half-trace of an expansion")
    add("admissible", _cmd_admissible, "decompose R = S^2 + prod(x - alpha_i)")
    p = add("act", _cmd_act, "apply a group word to an expansion")
    p.add_argument("--word", required=True,
                   help='JSON word, e.g. \'["sigma:1","epspi"]\'')
    p = add("orbit", _cmd_orbit, "symmetry-group orbit of an expansion")
    p.add_argument("--pure", action="store_true",
                   help="restrict to the pure-case subgroup S_{N-1}")
    add("jacobi-to-triple", _cmd_jacobi_to_triple,
        "alpha-triple of a Jacobi triple and shift beta")
    add("triple-to-jacobi", _cmd_triple_to_jacobi,
        "Jacobi triple and shift beta of an alpha-triple")
    add("divisor-to-jacobi", _cmd_divisor_to_jacobi,
        "Jacobi triple of an affine divisor")
    add("jacobi-to-divisor", _cmd_jacobi_to_divisor,
        "divisor points of a Jacobi triple")
    add("pure-beta", _cmd_pure_beta, "shifts beta giving C(alpha_N) = 0")
    add("verify", _cmd_verify, "recompute and compare an expansion's triple")
    # Only the float round-off of the quadratic formula at the triple's own
    # phi(lambda), small for every valid triple: see numeric_residual.
    p = add("residual", _cmd_residual,
            "floating-point residual of the quadratic relation")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="rational evaluation point, e.g. 5/2")
    p = add("example", _cmd_example, "emit a canned example dataset",
            reads_input=False)
    p.add_argument("--name", required=True,
                   help="one of: %s" % ", ".join(datasets.EXAMPLE_NAMES))
    return parser


def _read_payload(args):
    if args.input is None:
        return None
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    payload = json.loads(text)
    # Every subcommand that reads input takes an object.
    if not isinstance(payload, dict):
        raise ValueError("input must be a JSON object, got %.40r"
                         % (payload,))
    return payload


def _write_result(args, result):
    text = canonical_dumps(result)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    # CPython 3.10.7 and later refuse by default to convert an int of more
    # than 4300 digits to or from text.  Input is parsed under that limit,
    # and the grammar bounds every rational in it.  An answer may be
    # longer, so the limit is lifted while it is computed and printed.
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    try:
        args = build_parser().parse_args(argv)
        payload = _read_payload(args)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        result = args.handler(payload, args)
        _write_result(args, result)
    except AlphaFractionError as exc:
        sys.stderr.write(canonical_dumps(
            _error_record(type(exc).__name__, exc)))
        return 1
    except (KeyError, TypeError, ValueError, OSError, RecursionError) as exc:
        sys.stderr.write(canonical_dumps(_error_record("MalformedInput", exc)))
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
