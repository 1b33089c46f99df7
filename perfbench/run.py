"""Repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program under test is imported from
``src/``; nothing is installed.  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it measures the
per-layer metrics from a separately traced run (see ``DESIGN.md``).  Human
readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A run whose
output checks fail prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Run every thread of the benchmark on one CPU.

    The program is CPython: one thread at a time holds the interpreter
    lock.  On a multi-CPU host each lock hand-off between threads on
    different CPUs can stall for a full switch interval, and which regime a
    run falls into is chaotic: on a 2-CPU host, unpinned replicated-bulk
    runs read 199-311 items/s, pinned ones 612-694.  Pinning keeps the
    hand-offs on one CPU so runs are comparable.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_program():
    """Import the program from ``src/`` of this checkout, or fail."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        raise SystemExit("perfbench: no program under {!r}; run from a full "
                         "checkout of the repository".format(SOURCE))
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SOURCE):
        raise SystemExit("perfbench: imported repro from {!r}, not from this "
                         "checkout".format(repro.__file__))


def time_setups(workload, count: int) -> list:
    """Seconds each of ``count`` throw-away set-ups of ``workload`` took."""
    times = []
    for _ in range(count):
        gc.collect()
        started = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - started)
        workload.teardown(state)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    pin_to_one_cpu()
    from perfbench.harness import RESULTS_DIR
    from perfbench.measure import (MIN_COVERAGE, OVERHEAD_PAIRS, Pass, end_to_end,
                                   overhead_modes, per_layer, workload_specific)
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload {!r}; choose from {}".format(
            args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}
    workload = WORKLOADS[args.workload](args.seed)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    if args.trace:
        # Untraced and traced windows alternate on one deployment for
        # --seconds in all; then one traced window on a fresh deployment
        # gives the per-layer figures.
        overhead = Pass(workload, args.seconds / (2 * OVERHEAD_PAIRS),
                        modes=overhead_modes(), tracer=Tracer())
        traced = Pass(workload, args.seconds, modes=(True,), tracer=Tracer())
        probe = Pass(workload, args.seconds / 2, modes=(True,), tracer=Tracer(),
                     scale=0.5, finish=False) if workload.probe else None
        metrics = per_layer(traced, overhead, probe)
        passes = [overhead, traced] + ([probe] if probe else [])
        spans_path = os.path.join(RESULTS_DIR, "spans-{}-seed{}.jsonl".format(
            args.workload, args.seed))
        traced.tracer.dump(spans_path)
        print("spans written to {}".format(os.path.relpath(spans_path, ROOT)))
    else:
        # The timed pass's set-up is one of the repeats; the others are
        # thrown away, half before the timed pass and half after it, so
        # that they sample the host's speed at both ends of the run.
        extra = workload.setup_repeats - 1
        setup_times = time_setups(workload, extra // 2)
        timed = Pass(workload, args.seconds)
        setup_times += [timed.setup_s] + time_setups(workload, extra - extra // 2)
        passes = [timed]
        metrics = end_to_end(timed, setup_times)
        for name, value in workload_specific(timed).items():
            print("{:<42s} {:>14.4f} {}".format(name, value, units[name]))
    problems = [problem for run_pass in passes for problem in run_pass.problems]
    if args.trace and metrics["trace.coverage"] < MIN_COVERAGE:
        problems.append("traced spans cover {:.1%} of the client threads' wall "
                        "time (< {:.0%})".format(metrics["trace.coverage"], MIN_COVERAGE))
    attempted = sum(run_pass.ledger.attempted() for run_pass in passes)
    failed = sum(run_pass.ledger.failed() for run_pass in passes)
    for index, run_pass in enumerate(passes):
        for line in run_pass.ledger.table():
            print("pass {} {}".format(index, line))
        for error in run_pass.ledger.errors:
            print("error: {}".format(error))
    for problem in problems:
        print("check failed: {}".format(problem))
    correct = not problems and failed == 0
    declared = [entry["name"] for entry in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        raise SystemExit("perfbench: computed metrics {} do not match BENCHMARK.json "
                         "{}".format(sorted(metrics), sorted(declared)))
    if correct:
        for name in declared:
            print("{:<42s} {:>14.4f} {}".format(name, metrics[name], units[name]))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in declared} if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
