"""Guards on the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "alphafrac"


def test_no_assert_statements():
    # Invariants are real checks: python -O strips assert statements.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
