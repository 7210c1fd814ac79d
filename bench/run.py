"""Time to a verdict: the unitprop benchmark.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload upac_composed --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times operations for ``--seconds`` seconds and
reports the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it
runs the workload's fixed list of traced operations, each paired with an
untraced one, and reports the per-layer metrics.  Every operation's
output is checked against a pinned known answer.  The last line of
stdout is the result object; the line before it records the run's
environment and details.

Compare two result sets, each a file of such stdout, concatenated:

    python3 bench/run.py --compare parent.jsonl change.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Set-up is measured in this many fresh interpreters; the median is
# reported, so one slow start does not move setup_s.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# Traced operations per run.  Fixed, not time-bound, so that every count
# repeats exactly for a given seed.
TRACE_OPS = {
    "upac_composed": 3,
    "upac_bare": 3,
    "corpus_stages": 200,
    "big_composition": 3,
}

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

# Layers must account for the traced operation time to within the
# measured tracing overhead plus this share.
SELF_TIME_SLACK = 0.05

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "assignments_per_s": "1/s",
    "clauses_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SETUP_PROBE = """
import sys, time
started = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]), sys.argv[5] == "1")
print(time.perf_counter() - started)
"""


def import_program():
    """Import unitprop from this checkout's source tree, or exit 2."""
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    try:
        import unitprop
    except ImportError as exc:
        sys.exit(f"error: cannot import unitprop from {SRC}: {exc}")
    if Path(unitprop.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: unitprop was imported from {unitprop.__file__}, not {SRC}")


def environment() -> dict:
    def git(*args: str) -> str | None:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if revision else None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "git_dirty": bool(status) if status is not None else None,
        "loadavg": os.getloadavg(),
    }


def clear_caches() -> None:
    """Empty every functools cache the library holds, so that each
    operation is a cold verdict, as one CLI call sees it."""
    import unitprop

    for name in ("cli", "cnf", "constraints", "propagate", "reductions", "verify"):
        module = getattr(unitprop, name)
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def measure_setup(workload: str, seed: int, toy: bool) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), str(SRC),
             workload, str(seed), "1" if toy else "0"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond
    it, as (percentile, nearest-rank value).  With too few samples for
    that percentile to lie above the median, the maximum, as 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


class Run:
    """One workload process: its inputs, timings and correctness tally."""

    def __init__(self, name: str, seed: int, toy: bool = False):
        import workloads

        self.name, self.seed, self.toy = name, seed, toy
        self.workload = workloads.WORKLOADS[name]
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.samples: list[float] = []
        self.pairs = 0
        self.clauses = 0
        self.op_time = 0.0
        self._gate(workloads.fails_case)
        self.inputs = self.workload.build(seed, toy)
        self.ops = self.workload.operations(self.inputs, seed)

    def _record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.errors += [f"{label}: {e}" for e in errors]

    def _gate(self, check) -> None:
        try:
            errors = check()
        except Exception as exc:  # a raising operation is a wrong answer
            errors = [f"raised {exc!r}"]
        self._record("FAILS case", errors)

    def time_op(self, op, tracer=None, index: int = 0) -> float:
        """Run one operation cold, check it untimed, return its time."""
        clear_caches()
        span = tracer.operation(index) if tracer else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with span:
                result = op.run()
            elapsed = time.perf_counter() - started
            outcome = op.check(result)
        except Exception as exc:  # a raising operation is a wrong answer
            self._record(op.label, [f"raised {exc!r}"])
            return time.perf_counter() - started
        self._record(op.label, outcome.errors)
        if tracer is None:
            self.pairs += outcome.pairs
            self.clauses += outcome.clauses
            self.op_time += elapsed
        else:
            for key, value in outcome.counts.items():
                tracer.counts[key] += value
        return elapsed

    def measure(self, seconds: float) -> dict:
        deadline = time.perf_counter() + seconds
        i = 0
        while not self.samples or time.perf_counter() < deadline:
            self.samples.append(self.time_op(self.ops[i % len(self.ops)]))
            i += 1
        setup = measure_setup(self.name, self.seed, self.toy)
        pct, worst = tail(self.samples)
        self.details = {
            "samples": len(self.samples),
            "op_s_tail_percentile": round(pct, 2),
            "setup_s_repeats": setup,
        }
        op_time = self.op_time or sum(self.samples)
        return {
            "op_s.p50": statistics.median(self.samples),
            "op_s.tail": worst,
            "assignments_per_s": self.pairs / op_time,
            "clauses_per_s": self.clauses / op_time,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }

    def trace(self, spans_path: Path | None) -> dict:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.operation(0):
            self.workload.build(self.seed, self.toy)
        plain, traced = [], []
        for index in range(1, TRACE_OPS[self.name] + 1):
            op = self.ops[(index - 1) % len(self.ops)]
            # Alternate which of the pair runs first, so that drift in
            # machine speed does not bias the overhead.
            if index % 2:
                plain.append(self.time_op(op))
            traced.append(self.time_op(op, tracer, index))
            if not index % 2:
                plain.append(self.time_op(op))
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        # The layers' self time over the untraced time of the same
        # operations; it may differ from 1 by the tracing overhead of
        # that same total, plus the slack.
        accounted = tracer.layer_self_time() / sum(plain)
        total_overhead = sum(traced) / sum(plain) - 1
        self.details = {
            "traced_ops": len(traced),
            "self_time_check": {
                "accounted": accounted,
                "overhead": total_overhead,
                "ok": abs(accounted - 1) <= abs(total_overhead) + SELF_TIME_SLACK,
            },
        }
        if spans_path is not None:
            tracer.write(spans_path)
        return tracer.metrics(overhead)

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    env = environment()
    run = Run(args.workload, args.seed)
    gc.collect()
    if args.trace:
        from tracing import LAYER_METRICS

        spans = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result = run.result(run.trace(spans), LAYER_METRICS)
    else:
        result = run.result(run.measure(args.seconds), END_TO_END_UNITS)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, **run.details,
        "error_ratio": run.failed / run.attempted,
        "errors": run.errors[:20],
    }
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
