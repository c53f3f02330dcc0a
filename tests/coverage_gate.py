"""Coverage gate: every line of src/alphafrac must run under tier-1.

    python tests/coverage_gate.py

Runs tier-1, without tests/test_bench_smoke.py (whose work is in child
processes), in this process under a sys.settrace collector that traces
only the frames of src/alphafrac.  Each module's lines are those its code
objects map to, by co_lines(); a line that no test runs is printed as
file:line.  The exit status is 1 if tier-1 fails, if a line outside
ALLOWED never runs, or if an entry of ALLOWED names no line or a line that
does run.  pytest does not collect this file: its name does not start with
"test_".  It takes about three times as long as tier-1 untraced.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "alphafrac")

# (file, stripped text) of the lines that tier-1 may leave unrun: the CLI's
# script entry point, which the tests reach by calling main() instead.
ALLOWED = {
    ("cli.py", "sys.exit(main())"),
}


def code_lines(code):
    """The line numbers of code and of every code object nested in it; a
    module's code starts at line 0 from 3.11 on, which is not a line."""
    lines = {line for *_, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def run_traced(args):
    """pytest's exit code for args, and the set of (path, line) that ran
    in the package's frames."""
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE + os.sep):
            return local
        return None

    sys.settrace(start)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return code, ran


def main():
    sys.path.insert(0, os.path.dirname(PACKAGE))
    os.chdir(ROOT)
    code, ran = run_traced(["-q", "-p", "no:cacheprovider",
                            "--ignore=tests/test_bench_smoke.py", "tests"])
    if code != 0:
        print("ERROR: tier-1 failed under the collector (exit %s)" % code)
        return 1
    unrun, allowed = [], set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        source = text.splitlines()
        for line in sorted(code_lines(compile(text, path, "exec"))):
            if (path, line) in ran:
                continue
            key = (name, source[line - 1].strip())
            if key in ALLOWED:
                allowed.add(key)
            else:
                unrun.append("%s:%d: %s" % (name, line, key[1]))
    stale = ["%s: %s" % key for key in sorted(ALLOWED - allowed)]
    for line in unrun:
        print("never runs: " + line)
    for entry in stale:
        print("ALLOWED names no unrun line: " + entry)
    print("%d unrun lines outside ALLOWED, %d stale ALLOWED entries"
          % (len(unrun), len(stale)))
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main())
