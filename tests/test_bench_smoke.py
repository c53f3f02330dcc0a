"""The benchmark harness runs end to end on tiny inputs.

Checks the form of its result and that every output passed the workload's
own correctness check, with no timing gate.  Seed 0 keeps the
run from overwriting recorded results in bench/out/.
"""
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload", ["expand_roundtrip", "jacobi_roundtrip", "orbit_closure"])
def test_run_tiny(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--tiny", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
