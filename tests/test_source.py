"""Guards on the package source itself."""

import ast
import functools
import importlib.util
import pathlib
import sys
import warnings

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "alphafrac"


def _load(name, path):
    """The Python file at path, run as a module but not as a script."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _modules():
    """(file name, text, nodes) for each src/alphafrac/*.py, nodes being
    every node of its syntax tree: each file is read and parsed once for all
    the guards below.  A warning while parsing is left to
    test_src_compiles_without_warnings."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    out = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nodes = list(ast.walk(ast.parse(text, path.name)))
        out.append((path.name, text, nodes))
    return tuple(out)


def test_src_compiles_without_warnings():
    # An invalid escape such as \s in a docstring warns at compile time: a
    # DeprecationWarning, a SyntaxWarning from 3.12 on.  Compiled in memory,
    # since compileall would write src/**/__pycache__.
    found = []
    for name, text, _ in _modules():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(text, name, "exec")
            except SyntaxError as exc:
                found.append("%s: %s" % (name, exc))
    assert found == []


def test_no_assert_statements():
    # Invariants are real checks: python -O strips assert statements.
    found = ["%s:%d" % (name, node.lineno)
             for name, _, nodes in _modules() for node in nodes
             if isinstance(node, ast.Assert)]
    assert found == []


def _absolute_imports():
    """(file:line, module) for every absolute import under src/alphafrac."""
    for file_name, _, nodes in _modules():
        for node in nodes:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield "%s:%d" % (file_name, node.lineno), name


def test_src_imports_stdlib_only():
    # sympy, hypothesis and numpy are installed for tests only; alphafrac
    # itself runs on the standard library alone.
    found = ["%s %s" % (where, name) for where, name in _absolute_imports()
             if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_src_does_not_import_typing():
    # Result types are collections.namedtuples; the package keeps no
    # annotation-only imports.
    found = ["%s %s" % (where, name) for where, name in _absolute_imports()
             if name.partition(".")[0] == "typing"]
    assert found == []


def test_src_does_not_import_future():
    # Nothing in the package needs a __future__ feature on the Pythons it
    # supports: annotations that name a later class are strings already.
    found = ["%s %s" % (where, name) for where, name in _absolute_imports()
             if name == "__future__"]
    assert found == []


def test_unchecked_constructors_stay_in_symmetry():
    # AlphaSequence._from_checked and Expansion._from_checked skip
    # validation, which is sound only for the group generators' images;
    # every other module takes outside input through the checking __init__.
    allowed = {"expansion.py", "symmetry.py"}
    found = [
        "%s:%d" % (name, node.lineno)
        for name, _, nodes in _modules() if name not in allowed
        for node in nodes
        if (isinstance(node, ast.Attribute) and node.attr == "_from_checked")
        or (isinstance(node, ast.Name) and node.id == "_from_checked")
        or (isinstance(node, ast.Constant) and node.value == "_from_checked")
    ]
    assert found == []


def test_representation_stays_in_polyring():
    # A Polynomial's integer numerators and denominator are polyring's
    # private representation; every other module reads coeffs, coeff(k)
    # and lead, so the representation can change in one place.
    private = {"_num", "_den"}
    found = [
        "%s:%d" % (name, node.lineno)
        for name, _, nodes in _modules() if name != "polyring.py"
        for node in nodes
        if (isinstance(node, ast.Attribute) and node.attr in private)
        or (isinstance(node, ast.Constant) and node.value in private)
    ]
    assert found == []


def test_traced_names_resolve():
    # The benchmark's tracer wraps alphafrac names from outside and skips
    # any it cannot find, so a rename would silently drop a span.  It also
    # rebinds module-level functions by identity, so a traced function
    # that is an alias of another would trace every call of both.
    tracing = _load("bench_tracing", ROOT / "bench" / "tracing.py")
    entries = list(tracing.SPANS) + list(tracing.COUNTS)
    assert len(entries) >= 51
    missing, aliased = [], []
    for module, attr, _ in entries:
        mod = importlib.import_module("alphafrac." + module)
        owner, _, name = attr.rpartition(".")
        holder = getattr(mod, owner) if owner else mod
        obj = getattr(holder, name, None)
        if obj is None:
            missing.append("%s.%s" % (module, attr))
        elif not owner and (obj.__module__, obj.__name__) != (
                mod.__name__, name):
            aliased.append("%s.%s" % (module, attr))
    assert missing == [] and aliased == []


def test_helpers_are_defined_once():
    # A helper that several test modules need lives in conftest.py, once;
    # a copy in a test module would drift from it.
    where = {}
    for path in [TESTS / "conftest.py", *sorted(TESTS.glob("test_*.py"))]:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("test")):
                where.setdefault(node.name, []).append(path.name)
    assert {name: files for name, files in where.items()
            if len(files) > 1} == {}


def _names_a_test(node_id):
    """Whether a pytest node id, file::Class::function, names a test class
    or function that its file defines, read with ast."""
    path, *parts = node_id.split("::")
    path = ROOT / path
    if not path.name.startswith("test_") or not path.is_file():
        return False
    node = ast.parse(path.read_text(encoding="utf-8"))
    for part in parts:
        node = next((n for n in node.body
                     if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == part), None)
        if node is None or not part.startswith(("test", "Test")):
            return False
    return True


def test_mutant_table_matches_the_code():
    # tests/mutants.py takes minutes, so the edits that orphan one of its
    # entries are caught here: a snippet that no longer occurs exactly once
    # in its file, or a node id that names no test.
    mutants = _load("mutants", TESTS / "mutants.py")
    table = mutants.MUTANTS
    assert len(table) >= 87
    assert len({name for name, *_ in table}) == len(table)
    counts = [(name, (ROOT / path).read_text(encoding="utf-8").count(snippet))
              for name, path, snippet, _, _ in table]
    assert [(name, n) for name, n in counts if n != 1] == []
    assert all(node_ids for *_, node_ids in table)
    missing = [n for *_, node_ids in table for n in node_ids
               if not _names_a_test(n)]
    assert missing == []


def test_misspelt_marker_fails():
    # pyproject.toml registers the acceptance marker and makes markers
    # strict, so a misspelt marker fails the collection of its module
    # instead of leaving its test out of `pytest -m acceptance`.
    with pytest.raises(pytest.fail.Exception, match="not found in `markers`"):
        pytest.mark.acceptence
    assert pytest.mark.acceptance.name == "acceptance"
