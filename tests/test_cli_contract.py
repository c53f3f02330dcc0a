"""The CLI's contract on malformed input, for every subcommand.

Each subcommand gets its golden payload with one to three mutations: wrong
types, missing keys, junk rationals, wrong lengths; or its golden argv with
one to three: a dropped argument, an unknown subcommand or an unknown flag.
Whatever the input, ``main`` returns 0, 1 or 2 and writes exactly one JSON
record: the result on stdout, or on stderr an error record whose name is a
domain error from ``alphafrac.errors`` (exit 1) or ``MalformedInput``
(exit 2).  No exception escapes.  hypothesis is test-only; without it this
module is skipped.
"""
import copy
import io
import json
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from alphafrac import errors  # noqa: E402
from alphafrac.cli import main  # noqa: E402

TRIPLE = {"A": ["-6", "1"], "B": ["7/2", "-3/2"], "C": ["-2", "4", "-1"]}
ALPHA = ["1", "3", "4"]
EXPANSION = {"b0": "1", "block": ["-3", "1", "3"], "alpha": ALPHA}
PURE_TRIPLE = {"A": ["0", "1"], "B": ["-1", "-1/2"], "C": ["2", "1", "-1"]}
PURE_EXPANSION = {"b0": "1", "block": ["1", "1", "1"],
                  "alpha": ["0", "1", "2"]}
R = ["1/4", "31/2", "-31/4", "1"]
JACOBI = {"U": ["-6", "1"], "V": ["-11/2"], "W": ["5", "-7/4", "1"], "R": R}

# argv and golden payload (None: the subcommand reads no input)
GOLDEN = [
    (["expand"], dict(TRIPLE, alpha=ALPHA)),
    (["pure-expand"], dict(PURE_TRIPLE, alpha=["0", "1", "2"])),
    (["triple"], EXPANSION),
    (["admissible"], {"R": R, "alpha": ALPHA}),
    (["act", "--word", '["sigma:1", "epspi"]'], EXPANSION),
    (["orbit"], EXPANSION),
    (["orbit", "--pure"], PURE_EXPANSION),
    (["jacobi-to-triple"], dict(JACOBI, beta="-3/2")),
    (["triple-to-jacobi"], TRIPLE),
    (["divisor-to-jacobi"],
     {"points": [{"lambda": "6", "mu": "-11/2"}], "R": R}),
    (["jacobi-to-divisor"], JACOBI),
    (["pure-beta"], dict(JACOBI, alpha_n="4")),
    (["verify"], {"expansion": EXPANSION, "triple": TRIPLE}),
    (["residual", "--lambda", "5/2"], TRIPLE),
    (["example", "--name", "sect4"], None),
]
IDS = [" ".join(argv[:2]) for argv, _ in GOLDEN]

# Values put in place of a payload node or an option's value.
JUNK = [None, True, 1.5, 0, 7, -3, 10 ** 30, "", "x", "0", "-1", "5/2",
        "1/0", "2/4", "1.5", "1e400", " 3", "-0", "134", "9" * 60,
        [], {}, ["1"], ["0", "0"], {"b0": "1"}]
JUNK_TEXT = ["", "x", "0", "6", "1/0", "2/4", "1e400", "nope", "[]", "{}",
             "null", '["sigma:9"]', '["epspi", 1]', '"epspi"', "[[[]]]"]

# Inserted into argv.  No --output, which would write a file, and no
# prefix of --help, which exits 0 with usage text.
JUNK_ARGS = ["--bogus", "-x", "--", "--word", "--lambda", "--input", "-1/2",
             "nope"]

DOMAIN_ERRORS = {
    obj.__name__ for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, errors.AlphaFractionError)
    and obj is not errors.AlphaFractionError
}


def run_main(argv, payload):
    """main(argv) on the payload as stdin; returns (code, stdout, stderr)."""
    streams = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = (
        io.StringIO(json.dumps(payload)), out, err)
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = streams
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        json.loads(out)
        return
    assert out == ""
    record = json.loads(err)
    assert set(record) == {"error", "detail"}
    if code == 1:
        assert record["error"] in DOMAIN_ERRORS
    else:
        assert record["error"] == "MalformedInput"


def node_paths(node, prefix=()):
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from node_paths(child, prefix + (key,))


def mutate(payload, path, op, value):
    """payload with the node at path replaced, deleted, grown or shrunk."""
    if not path:
        return value
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if op == "grow" and isinstance(node, list):
        node.append(value)
    elif op == "shrink" and isinstance(node, list) and node:
        node.pop()
    elif op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return payload


@st.composite
def mutated_requests(draw, argv, payload):
    argv, payload = list(argv), copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 3))):
        if len(argv) > 2 and draw(st.booleans()):
            argv[2] = draw(st.sampled_from(JUNK_TEXT))
            continue
        path = draw(st.sampled_from(list(node_paths(payload))))
        op = draw(st.sampled_from(["replace", "delete", "grow", "shrink"]))
        value = copy.deepcopy(draw(st.sampled_from(JUNK)))
        payload = mutate(payload, path, op, value)
    return argv, payload


@st.composite
def mutated_argv(draw, argv):
    argv = list(argv)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "subcommand", "insert"]))
        if op == "drop" and argv:
            del argv[draw(st.integers(0, len(argv) - 1))]
        elif op == "subcommand" and argv:
            argv[0] = draw(st.sampled_from(JUNK_TEXT + JUNK_ARGS))
        else:
            argv.insert(draw(st.integers(0, len(argv))),
                        draw(st.sampled_from(JUNK_ARGS)))
    return argv


@pytest.mark.parametrize("argv, payload", GOLDEN, ids=IDS)
def test_golden_payload_succeeds(argv, payload):
    code, out, err = run_main(argv, payload)
    assert (code, err) == (0, "")
    json.loads(out)


@pytest.mark.parametrize("argv, payload", GOLDEN, ids=IDS)
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_mutated_payload_keeps_contract(argv, payload, data):
    assert_contract(*run_main(*data.draw(mutated_requests(argv, payload))))


@pytest.mark.parametrize("argv, payload", GOLDEN, ids=IDS)
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_mutated_argv_keeps_contract(argv, payload, data):
    assert_contract(*run_main(data.draw(mutated_argv(argv)), payload))
