"""Guards on the package source itself."""

import ast
import pathlib
import sys

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


def _absolute_imports():
    """(file:line, module) for every absolute import under src/alphafrac."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield "%s:%d" % (path.name, node.lineno), name


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
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in paths if path.name not in allowed
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "_from_checked")
        or (isinstance(node, ast.Name) and node.id == "_from_checked")
        or (isinstance(node, ast.Constant) and node.value == "_from_checked")
    ]
    assert found == []


def test_representation_stays_in_polyring():
    # A Polynomial's integer numerators and denominator are polyring's
    # private representation; every other module reads coeffs, coeff(k)
    # and lead, so the representation can change in one place.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    private = {"_num", "_den"}
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in paths if path.name != "polyring.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in private)
        or (isinstance(node, ast.Constant) and node.value in private)
    ]
    assert found == []


def test_traced_names_resolve():
    # The benchmark's tracer wraps alphafrac names from outside and skips
    # any it cannot find, so a rename would silently drop a span.  It also
    # rebinds module-level functions by identity, so a traced function
    # that is an alias of another would trace every call of both.
    import importlib
    import importlib.util

    path = SRC.parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
