"""Runs one workload in a fresh interpreter and prints its figures as JSON.

Started by run.py; see README.md.  The CPU this benchmark was built on
flips between two speeds about 1.8 times apart, sometimes every few hundred
milliseconds, sometimes after tens of seconds, so raw times of one input
differ by up to 40 % from run to run.  Each operation is therefore timed
alone and scaled by a reference whose speed follows the machine's, sampled
while the operation runs, and every time is reported at the reference's
nominal (fast-phase) speed:

- in-process work: a short reference loop runs on SIGALRM every 10 ms and
  once before and after each operation; the operation's time, less the
  loop's own, is scaled by the loop's mean time over those samples;
- CLI children: a bare interpreter start runs before and after each child;
  the child's time is scaled by the median of the two starts on each side.
"""

import argparse
import bisect
import contextlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# Nominal reference times: the fast-phase figures of the 2-CPU machine the
# README's reference figures come from.
NOMINAL_NS = {"fraction": 180_000, "mixed": 355_000, "interpreter": 50_000_000}
BARE_START = [sys.executable, "-c", "pass"]
TICK_S = 0.01
MIN_OPS = 100           # the 90th percentile then has ten samples above it
clock = time.perf_counter_ns


def fraction_reference():
    acc = Fraction(0)
    for i in range(1, 40):
        acc = acc * Fraction(i, i + 3) + Fraction(1, i)
    return acc


_rng = random.Random(0)
BIG = tuple(Fraction(_rng.getrandbits(300) | 1, _rng.getrandbits(300) | 1)
            for _ in range(4))


def mixed_reference():
    """The Fraction loop plus a product of 300-bit Fractions.

    The slow phase slows big-integer arithmetic less than interpreted code
    (about 1.2-1.4 times against 1.8), so work that is partly big-integer
    arithmetic is scaled by a reference that is too.
    """
    fraction_reference()
    out = [0] * 7
    for i, a in enumerate(BIG):
        for j, b in enumerate(BIG):
            out[i + j] += a * b


def interpreter_reference():
    # No timeout: with one, Popen.wait polls and oversleeps by up to 50 ms.
    subprocess.run(BARE_START, check=True)


def sample(fn):
    start = clock()
    fn()
    return clock() - start


def round_rng(name, seed, r):
    return random.Random("%s:%d:%d" % (name, seed, r))


class Ticker:
    """Runs an in-process reference on SIGALRM every TICK_S seconds."""

    def __init__(self, reference):
        self.reference = reference
        self.ticks = []         # (start_ns, end_ns), in time order

    def _tick(self, signum, frame):
        start = clock()
        self.reference()
        self.ticks.append((start, clock()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def quiet_sample(self):
        """One reference sample that no tick interrupts."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return sample(self.reference)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def inside(self, start, end):
        i = bisect.bisect_left(self.ticks, (start,))
        j = bisect.bisect_right(self.ticks, (end,))
        return [(s, e) for s, e in self.ticks[i:j] if e <= end]


def run(wl, seed, seconds, tiny, min_ops, ticker=None, collect=None):
    """Whole rounds until ``seconds`` have passed and ``min_ops`` are done.

    Returns the timed operations as (start_ns, end_ns, busy_ns, scale):
    busy_ns is reference time spent inside the operation, scale converts
    the rest to nominal speed.  ``collect``, if given, runs after each
    operation's closing reference sample, outside the timed interval.
    """
    if ticker is not None:
        reference = ticker.quiet_sample
    else:
        def reference():
            return sample(interpreter_reference)
    spans, labels, problems = [], [], []
    failed = wrong = r = 0
    deadline = clock() + int(seconds * 1e9)
    refs = [reference()]
    while r == 0 or len(spans) < min_ops or clock() < deadline:
        for op in wl.make_round(round_rng(wl.name, seed, r), tiny):
            start = clock()
            try:
                out = wl.run(op)
            except Exception as exc:  # any escape is a failed operation
                out = exc
            end = clock()
            refs.append(reference())
            spans.append((start, end))
            labels.append(wl.label(op))
            if collect is not None:
                collect()
            verdict = ("failed", "%s: %s" % (type(out).__name__, out)) \
                if isinstance(out, Exception) else wl.check(op, out)
            if verdict is not None:
                failed += verdict[0] == "failed"
                wrong += verdict[0] == "wrong"
                if len(problems) < 10:
                    problems.append(verdict[1])
        r += 1
    nominal = NOMINAL_NS[wl.ref]
    timed = []
    for i, (start, end) in enumerate(spans):
        if ticker is not None:
            inside = ticker.inside(start, end)
            samples = [refs[i], refs[i + 1]] + [e - s for s, e in inside]
            busy = sum(e - s for s, e in inside)
            timed.append((start, end, busy, nominal / statistics.mean(samples)))
        else:
            # A child is scaled by the two bare starts on each side.
            timed.append((start, end, 0,
                          nominal / statistics.median(refs[max(0, i - 1):i + 3])))
    return timed, labels, failed, wrong, problems, r


def op_ms(timed_op):
    start, end, busy, scale = timed_op
    return (end - start - busy) * scale / 1e6


def end_to_end(timed, ref):
    ms = sorted(op_ms(t) for t in timed)
    who = resource.RUSAGE_CHILDREN if ref == "interpreter" else resource.RUSAGE_SELF
    return {
        "ops_per_s": 1000 * len(ms) / sum(ms),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def by_class(timed, labels):
    """Median scaled time and count of each kind of operation."""
    groups = {}
    for t, label in zip(timed, labels):
        groups.setdefault(label, []).append(op_ms(t))
    return {k: {"n": len(v), "median_ms": statistics.median(v),
                "cv": statistics.pstdev(v) / statistics.mean(v)}
            for k, v in sorted(groups.items())}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import alphafrac
    if not os.path.abspath(alphafrac.__file__).startswith(SRC + os.sep):
        raise SystemExit("alphafrac was not imported from %s" % SRC)
    import workloads
    workloads.bind(alphafrac)
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        next(iter(wl.make_round(round_rng(wl.name, args.seed, 0), args.tiny)))
        print(json.dumps({"first_op_ns": clock()}))
        return 0

    tracer = collect = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        if wl.ref == "interpreter":
            spans = os.path.join(workloads.OUT_DIR, "cli_child.spans")
            os.environ["BENCH_TRACE_OUT"] = spans
            wl.command = [sys.executable, os.path.join(BENCH, "clitrace.py")]

            def collect():
                if os.path.exists(spans):
                    tracer.merge(spans)
                    os.remove(spans)
        else:
            tracer.install(alphafrac)

    in_process = {"fraction": fraction_reference, "mixed": mixed_reference}
    ticker = Ticker(in_process[wl.ref]) if wl.ref in in_process else None
    with ticker or contextlib.nullcontext():
        timed, labels, failed, wrong, problems, rounds = run(
            wl, args.seed, args.seconds, args.tiny,
            MIN_OPS if not args.tiny else 1, ticker, collect)
    result = {
        "correct": wrong == 0,
        "attempted": len(timed),
        "failed": failed,
        "rounds": rounds,
        "problems": problems,
        "end_to_end": end_to_end(timed, wl.ref),
        "classes": by_class(timed, labels),
    }
    if tracer is not None:
        result["per_layer"] = tracer.layer_metrics(
            timed, ticker.ticks if ticker else ())
        result["unwrapped"] = tracer.unwrapped
        tracer.save(os.path.join(workloads.OUT_DIR, "%s.spans" % wl.name))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
