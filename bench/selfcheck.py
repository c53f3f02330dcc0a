"""Quick self-check of the benchmark at tiny sizes; takes about 20 seconds.

    python3 bench/selfcheck.py

1. Each workload's correctness check accepts alphafrac's real outputs and
   rejects deliberately corrupted copies of them.
2. run.py prints a result of the form BENCHMARK.json asks for, untraced
   and traced (on tiny inputs, so the figures themselves mean nothing).
3. run.py exits with an error, printing no result, where the checkout
   holds no alphafrac sources.
Exits 0 when all of this holds; prints what failed otherwise.
"""

import json
import os
import random
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")

import alphafrac  # noqa: E402
import workloads  # noqa: E402

workloads.bind(alphafrac)


def check_checks(errors):
    for wl in workloads.WORKLOADS.values():
        ops = list(wl.make_round(random.Random("selfcheck:" + wl.name), tiny=True))
        samples = {}
        for op in ops:
            out = wl.run(op)
            verdict = wl.check(op, out)
            # The known-fault CLI requests may fail; nothing may be wrong.
            if verdict is not None and (verdict[0] == "wrong" or not (
                    wl.ref == "interpreter" and op[3][0] == "typed")):
                errors.append("%s rejects a real output: %s" % (wl.name, verdict[1]))
            kind = op[3][0] if wl.ref == "interpreter" else "ok"
            if verdict is None and kind in ("ok", "error"):
                samples.setdefault(kind, (op, out))
        if not samples:
            errors.append("%s: no output passed its check" % wl.name)
        for op, out in samples.values():
            for label, bad in wl.corruptions(op, out):
                if wl.check(op, bad) is None:
                    errors.append("%s accepts a corrupted output: %s" % (wl.name, label))
        print("checks  %-17s %d operations, %d corruptions tried" % (
            wl.name, len(ops), sum(len(list(wl.corruptions(*s))) for s in samples.values())))


def check_form(errors):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", w["name"],
                 "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            where = "%s --trace %d" % (w["name"], trace)
            if proc.returncode != 0:
                errors.append("%s: exit %d\n%s" % (where, proc.returncode, proc.stderr))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            wanted = {m["name"]: m["unit"]
                      for m in spec["per_layer" if trace else "end_to_end"]}
            got = result.get("metrics", {})
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append("%s: keys %s" % (where, sorted(result)))
            elif result["correct"] is not True or not (
                    isinstance(result["attempted"], int) and result["attempted"] >= 1
                    and isinstance(result["failed"], int)):
                errors.append("%s: bad counts or incorrect: %s" % (where, result))
            elif {k: v.get("unit") for k, v in got.items()} != wanted or not all(
                    isinstance(v.get("value"), (int, float)) for v in got.values()):
                errors.append("%s: metrics differ from BENCHMARK.json" % where)
            print("form    %-27s attempted %d, failed %d" % (
                where, result.get("attempted", 0), result.get("failed", 0)))


def check_bare_checkout(errors):
    """run.py refuses to run in a directory with only BENCHMARK.json and bench/."""
    bare = os.path.join(BENCH, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ)
    env.pop("PYTHONPATH")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("run.py ran without alphafrac sources")
    print("bare    exit %d: %s" % (proc.returncode, proc.stderr.strip()))


def main():
    errors = []
    check_checks(errors)
    check_form(errors)
    check_bare_checkout(errors)
    for e in errors:
        print("FAIL", e)
    print("selfcheck", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
