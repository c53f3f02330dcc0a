"""Benchmark entry point: python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Runs from the root of a source checkout of alphafrac (nothing needs to be
built or installed) and prints, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  The full result also goes to
bench/out/<workload>.seed<S>.trace<0|1>.json.  See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import worker  # noqa: E402

SETUP_PROBES = 7
TIMEOUT_S = 150


def child_env():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def worker_cmd(args, *extra):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + (["--tiny"] if args.tiny else []) + list(extra)


def start_worker(cmd, env):
    """Run a worker; returns (spawn clock, its last JSON line)."""
    spawn = time.perf_counter_ns()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit("worker exited with code %d" % proc.returncode)
    return spawn, json.loads(proc.stdout.decode().strip().splitlines()[-1])


def setup_seconds(args, env):
    """Median set-up time of several fresh workers, scaled like latencies.

    Each worker's set-up (interpreter start, imports, drawing the first
    input) is divided by the mean of the bare interpreter starts just
    before and after it.  One unmeasured worker first fills the file cache
    and writes the bytecode caches of a fresh checkout, a cost paid once,
    not per run.
    """
    start_worker(worker_cmd(args, "--setup-only"), env)
    bare = [worker.sample(bare_start(env))]
    ratios = []
    for _ in range(SETUP_PROBES):
        spawn, out = start_worker(worker_cmd(args, "--setup-only"), env)
        bare.append(worker.sample(bare_start(env)))
        ratios.append(2 * (out["first_op_ns"] - spawn) / (bare[-2] + bare[-1]))
    scale = worker.NOMINAL_NS["interpreter"] / 1e9
    return statistics.median(ratios) * scale, [x * scale for x in ratios]


def bare_start(env):
    return lambda: subprocess.run(worker.BARE_START, env=env, check=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs and no minimum operation count "
                         "(self-check only)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "alphafrac", "__init__.py")):
        sys.stderr.write("no alphafrac sources under %s\n" % SRC)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write("unknown workload %r\n" % args.workload)
        return 2

    env = child_env()
    setup, samples = setup_seconds(args, env) if not args.trace else (None, [])
    _, result = start_worker(worker_cmd(args), env)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    figures = dict(result["per_layer"] if args.trace else result["end_to_end"],
                   setup_s=setup)
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in wanted}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "%s.seed%d.trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(dict(result, setup_s=setup, setup_samples=samples,
                       metrics=metrics), fh, indent=1)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
