"""Runs ``alphafrac.cli.main`` under the tracer, for the traced cli_mix run.

Usage: python3 bench/clitrace.py <alphafrac arguments>.  The parent sets
BENCH_SPAWN_NS (its clock just before the spawn) and BENCH_TRACE_OUT (where
the spans go); the exit code and output are the CLI's own.
"""

import time

T_EXEC = time.perf_counter_ns()

import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main():
    tracer = tracing.Tracer()
    tracer.record("cli.interpreter_start", int(os.environ["BENCH_SPAWN_NS"]), T_EXEC)
    start = time.perf_counter_ns()
    import alphafrac.cli
    tracer.record("cli.import", start, time.perf_counter_ns())
    tracer.install(sys.modules["alphafrac"])
    try:
        code = alphafrac.cli.main(sys.argv[1:])
    finally:
        tracer.save(os.environ["BENCH_TRACE_OUT"])
    return code


if __name__ == "__main__":
    sys.exit(main())
