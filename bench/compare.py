"""Compare two result sets of the benchmark, one row per (workload,
end-to-end metric).

A result set is a file holding the stdout of any number of runs.  Runs
of one workload are paired in file order.  A row is flagged REGRESSION
when the change's median is worse than the parent's by more than the
metric's bound in BENCHMARK.json, and UNRESOLVED when the parent's own
spread (interquartile range over median) exceeds the bound, unless every
run of the change reads better than every run of the parent.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path: str) -> tuple[dict[str, list[dict]], list[dict]]:
    """Untraced results by workload, and the environment of every run."""
    by_workload: dict[str, list[dict]] = {}
    envs = []
    record = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "run" in obj:
            record = obj["run"]
        elif "metrics" in obj and record is not None:
            envs.append(record["env"])
            if record["trace"] == 0:
                by_workload.setdefault(record["workload"], []).append(obj)
            record = None
    return by_workload, envs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def row(name: str, spec: dict, parent: list[float], change: list[float]) -> str:
    lower = spec["better"] == "lower"

    def better(b: float, a: float) -> bool:
        return b < a if lower else b > a

    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(better(b, a) for a, b in zip(parent, change))
    worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
    spread = (pq3 - pq1) / pmed
    all_better = all(better(b, a) for b in change for a in parent)
    if worse > spec["bound"]:
        status = "REGRESSION"
    elif spread > spec["bound"] and not all_better:
        status = "UNRESOLVED"
    else:
        status = "ok"
    return (
        f"{name:<42} {pmed:>12.6g} [{pq1:.6g}, {pq3:.6g}]"
        f" {cmed:>12.6g} [{cq1:.6g}, {cq3:.6g}]"
        f" {wins:>3}/{min(len(parent), len(change)):<3}"
        f" {worse:>+8.1%} {spread:>7.1%} {spec['bound']:>6.0%}  {status}"
    )


def describe(envs: list[dict]) -> str:
    revisions = sorted({str(e["git_revision"])[:12] for e in envs})
    dirty = any(e["git_dirty"] for e in envs)
    loads = [e["loadavg"][0] for e in envs]
    return (
        f"{len(envs)} runs, python {sorted({e['python'] for e in envs})},"
        f" nproc {sorted({e['nproc'] for e in envs})}, revision {revisions}"
        f"{' (dirty)' if dirty else ''}, 1-min load {min(loads):.2f}..{max(loads):.2f}"
    )


def main(parent_path: str, change_path: str, benchmark_json: Path) -> int:
    specs = {m["name"]: m for m in json.loads(benchmark_json.read_text())["end_to_end"]}
    parent, parent_envs = load(parent_path)
    change, change_envs = load(change_path)
    print(f"parent: {describe(parent_envs)}")
    print(f"change: {describe(change_envs)}")
    print(
        f"{'workload / metric':<42} {'parent p50':>12} [q1, q3]"
        f" {'change p50':>12} [q1, q3] wins {'worse':>8} {'spread':>7} {'bound':>6}"
    )
    flagged = 0
    for workload in parent:
        if workload not in change:
            print(f"{workload}: no runs in {change_path}")
            continue
        for name, spec in specs.items():
            values = [
                [r["metrics"][name]["value"] for r in side[workload]]
                for side in (parent, change)
            ]
            line = row(f"{workload} {name}", spec, *values)
            flagged += not line.endswith("ok")
            print(line)
    return 1 if flagged else 0
