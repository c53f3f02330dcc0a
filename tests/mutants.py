"""Mutation gate: each hand-written mutant of src/ must fail the tests named
with it.

    python tests/mutants.py

Each entry of MUTANTS gives a file, a snippet that must occur in it exactly
once, the snippet's replacement and the pytest node ids that must fail.  The
runner first runs every named test on an unchanged copy of src/ and tests/,
which must pass; then, for each entry, it applies the replacement to a fresh
temporary copy and runs that entry's tests with a timeout.  A mutant is
killed when a test fails or the run times out (a mutant may make a loop
endless).  The exit status is 1 if a mutant survives, a snippet does not
occur exactly once or a named test cannot be run.  pytest does not collect
this file: its name does not start with "test_".
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 60

POLYRING = "src/alphafrac/polyring.py"
JACOBI = "src/alphafrac/jacobi.py"

# (name, file, snippet, replacement, node ids that must fail)
MUTANTS = [
    ("_cancel returns its inputs unchanged", POLYRING,
     "    if g > 1:\n        return d // g, [c // g for c in v]\n"
     "    return d, v\n",
     "    return d, v\n",
     ["tests/test_polyring_oracle.py::test_ring_ops"]),
    ("_homogeneous without sk *= s", POLYRING,
     "        acc = acc * r + c * sk\n        sk *= s\n    return acc\n",
     "        acc = acc * r + c * sk\n    return acc\n",
     ["tests/test_polyring.py::TestEval::test_rational_point",
      "tests/test_polyring_oracle.py::test_synthetic_div_and_eval"]),
    ("_times without the cancellation", POLYRING,
     "    q, u = _cancel(q, u)\n    return p, u, q * du\n",
     "    return p, u, q * du\n",
     ["tests/test_polyring_oracle.py::test_scalar_ops"]),
    ("_convergent_step with d2 *= s and no cancellation", POLYRING,
     "        t, v = _cancel(s, v)\n        d2 *= t\n",
     "        d2 *= s\n",
     ["tests/test_polyring_oracle.py::test_convergent_step"]),
    ("the sign of W in the shift by beta", JACOBI,
     "AlphaTriple(j.U, B, beta * (j.V + B) - j.W)",
     "AlphaTriple(j.U, B, beta * (j.V + B) + j.W)",
     ["tests/test_jacobi.py::TestAlphaCorrespondence::test_sect4_forward"]),
    ("the sign of C in the shift by -beta", JACOBI,
     "JacobiTriple(t.A, V, beta * (t.B + V) - t.C, t.discriminant)",
     "JacobiTriple(t.A, V, beta * (t.B + V) + t.C, t.discriminant)",
     ["tests/test_jacobi.py::TestAlphaCorrespondence::test_sect4_inverse"]),
    # Without the squarefree part no prime leaves a repeated root simple,
    # so the prime walk never ends: killed by the timeout.
    ("_squarefree returns f", POLYRING,
     "    return _pseudo_divmod(f, a if a[-1] > 0 else [-c for c in a])[0]\n",
     "    return f\n",
     ["tests/test_jacobi.py::TestRootSearch"
      "::test_matches_euclid_first_reference"]),
]


def copy_tree(dest):
    """src/ and tests/ of the repository under dest, without caches."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part),
                        ignore=skip)


def run_tests(root, node_ids):
    """pytest's exit code for node_ids under root, or None on a timeout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", *node_ids]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode


def mutate(root, path, snippet, replacement):
    """Apply one mutant under root; returns the snippet's count in path."""
    full = os.path.join(root, path)
    with open(full, encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(snippet)
    if count == 1:
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(text.replace(snippet, replacement))
    return count


def main():
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(tmp)
        every = sorted({n for *_, node_ids in MUTANTS for n in node_ids})
        code = run_tests(tmp, every)
        if code != 0:
            print("ERROR: the named tests do not pass unmutated (exit %s)"
                  % code)
            return 1
    for name, path, snippet, replacement, node_ids in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(tmp)
            count = mutate(tmp, path, snippet, replacement)
            if count != 1:
                verdict = "ERROR: snippet occurs %d times in %s" % (count,
                                                                    path)
            else:
                code = run_tests(tmp, node_ids)
                verdict = ("killed (timeout)" if code is None
                           else "killed" if code == 1
                           else "SURVIVED" if code == 0
                           else "ERROR: pytest exit code %d" % code)
        bad += not verdict.startswith("killed")
        print("%-50s %s" % (name, verdict))
    print("%d of %d mutants killed" % (len(MUTANTS) - bad, len(MUTANTS)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
