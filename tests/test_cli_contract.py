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
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from alphafrac import errors  # noqa: E402

from conftest import (  # noqa: E402
    PURE_N3_EXPANSION_JSON,
    PURE_N3_TRIPLE_JSON,
    SECT4_ALPHA_JSON,
    SECT4_EXPANSION_JSON,
    SECT4_INPUT,
    SECT4_JACOBI_JSON,
    SECT4_R_JSON,
    SECT4_TRIPLE_JSON,
    run_cli,
)

# argv and golden payload (None: the subcommand reads no input)
GOLDEN = [
    (["expand"], SECT4_INPUT),
    (["pure-expand"],
     dict(PURE_N3_TRIPLE_JSON, alpha=PURE_N3_EXPANSION_JSON["alpha"])),
    (["triple"], SECT4_EXPANSION_JSON),
    (["admissible"], {"R": SECT4_R_JSON, "alpha": SECT4_ALPHA_JSON}),
    (["act", "--word", '["sigma:1", "epspi"]'], SECT4_EXPANSION_JSON),
    (["orbit"], SECT4_EXPANSION_JSON),
    (["orbit", "--pure"], PURE_N3_EXPANSION_JSON),
    (["jacobi-to-triple"], dict(SECT4_JACOBI_JSON, beta="-3/2")),
    (["triple-to-jacobi"], SECT4_TRIPLE_JSON),
    (["divisor-to-jacobi"],
     {"points": [{"lambda": "6", "mu": "-11/2"}], "R": SECT4_R_JSON}),
    (["jacobi-to-divisor"], SECT4_JACOBI_JSON),
    (["pure-beta"], dict(SECT4_JACOBI_JSON, alpha_n="4")),
    (["verify"],
     {"expansion": SECT4_EXPANSION_JSON, "triple": SECT4_TRIPLE_JSON}),
    (["residual", "--lambda", "5/2"], SECT4_TRIPLE_JSON),
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
    code, out, err = run_cli(argv, json.dumps(payload))
    assert (code, err) == (0, "")
    json.loads(out)


@pytest.mark.parametrize("argv, payload", GOLDEN, ids=IDS)
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_mutated_payload_keeps_contract(argv, payload, data):
    argv, payload = data.draw(mutated_requests(argv, payload))
    assert_contract(*run_cli(argv, json.dumps(payload)))


@pytest.mark.parametrize("argv, payload", GOLDEN, ids=IDS)
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_mutated_argv_keeps_contract(argv, payload, data):
    assert_contract(*run_cli(data.draw(mutated_argv(argv)),
                             json.dumps(payload)))
