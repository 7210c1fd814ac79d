"""Spans around the library's public functions, recorded from outside.

Modules bind imported names at load (``verify`` holds its own
``restrict``), so wrapping ``cnf.restrict`` alone would miss the calls
that matter.  ``Tracer.installed()`` rebinds every traced function in
every ``unitprop`` module that holds it, and restores the originals on
exit.  Counts come from arguments and return values, so they repeat
exactly across runs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

import unitprop
from unitprop import cli, cnf, constraints, propagate, reductions, verify

MODULES = (unitprop, cli, cnf, constraints, propagate, reductions, verify)


def _count_fixpoint(counts: dict, args: tuple, result: Any) -> None:
    counts["propagate.fixpoint.literals"] += len(result.steps)
    counts["propagate.fixpoint.conflicts"] += int(result.conflicted)


def _count_staged(counts: dict, args: tuple, result: Any) -> None:
    counts["propagate.staged.rounds"] += len(result.stages)
    counts["propagate.staged.literals"] += sum(len(s.inferred) for s in result.stages)


def _count_parse(counts: dict, args: tuple, result: Any) -> None:
    counts["cnf.parse_dimacs.bytes"] += len(args[0].encode())


def _count_checked(counts: dict, args: tuple, result: Any) -> None:
    counts["verify.checked"] += result.checked


# (module, function, span name, counter fed from the call)
TRACED: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (cnf, "restrict", "cnf.restrict", None),
    (cnf, "parse_dimacs", "cnf.parse_dimacs", _count_parse),
    (cnf, "emit_dimacs", "cnf.emit_dimacs", None),
    (constraints, "falsifies", "constraints.falsifies", None),
    (propagate, "propagate_fixpoint", "propagate.fixpoint", _count_fixpoint),
    (propagate, "propagate_staged", "propagate.staged", _count_staged),
    (reductions, "compose_upac", "reductions.compose_upac", None),
    (reductions, "contra_to_prop", "reductions.contra_to_prop", None),
    (verify, "is_upac", "verify.is_upac", _count_checked),
    (verify, "check_stage_correspondence", "verify.check_stage_correspondence",
     _count_checked),
    (cli, "main", "cli.main", None),
)

# Per-layer metrics, as listed in BENCHMARK.json, with their units.
LAYER_METRICS = {
    "cnf.restrict.s": "s",
    "cnf.restrict.calls": "count",
    "cnf.parse_dimacs.s": "s",
    "cnf.emit_dimacs.s": "s",
    "cnf.parse_dimacs.bytes_per_s": "B/s",
    "constraints.falsifies.s": "s",
    "constraints.falsifies.calls": "count",
    "propagate.fixpoint.s": "s",
    "propagate.fixpoint.calls": "count",
    "propagate.fixpoint.literals": "count",
    "propagate.fixpoint.conflicts": "count",
    "propagate.staged.s": "s",
    "propagate.staged.calls": "count",
    "propagate.staged.rounds": "count",
    "propagate.staged.literals": "count",
    "reductions.compose_upac.s": "s",
    "reductions.contra_to_prop.s": "s",
    "verify.is_upac.s": "s",
    "verify.check_stage_correspondence.s": "s",
    "verify.self_s": "s",
    "verify.checked": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "count",
    "trace.overhead_ratio": "ratio",
}

OP_SPAN = "op"


class Tracer:
    """Records spans in memory: (operation, span id, parent id, name,
    start, end).  Operation 0 is the traced set-up."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = 0

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (self._op, sid, parent, name, start, end)
            counts[calls] += 1
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Rebind each traced function wherever a unitprop module holds it."""
        saved = []
        for home, attr, name, counter in TRACED:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, counter)
            for module in MODULES:
                if vars(module).get(attr) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    @contextlib.contextmanager
    def operation(self, op: int) -> Iterator[None]:
        """Trace one operation under a root span named ``op``."""
        with self.installed():
            self._op = op
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                yield
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (op, sid, None, OP_SPAN, start, end)

    def self_times(self) -> list[float]:
        """Per span id: its duration minus the durations of its children."""
        own = [0.0] * len(self.spans)
        for op, sid, parent, name, start, end in self.spans:
            own[sid] += end - start
            if parent is not None:
                own[parent] -= end - start
        return own

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric, summed over all traced spans."""
        own = self.self_times()
        total: dict[str, float] = defaultdict(float)
        self_total: dict[str, float] = defaultdict(float)
        for op, sid, parent, name, start, end in self.spans:
            total[name] += end - start
            self_total[name] += own[sid]
        parse_s = total["cnf.parse_dimacs"]
        special = {
            "cnf.parse_dimacs.bytes_per_s":
                self.counts["cnf.parse_dimacs.bytes"] / parse_s if parse_s else 0.0,
            "verify.self_s": self_total["verify.is_upac"]
                + self_total["verify.check_stage_correspondence"],
            "cli.self_s": self_total["cli.main"],
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for metric in LAYER_METRICS:
            if metric in special:
                out[metric] = special[metric]
            elif metric.endswith(".s"):
                out[metric] = total[metric[:-2]]
            else:
                out[metric] = self.counts[metric]
        return out

    def layer_self_time(self) -> float:
        """Self time of every library span inside a traced operation: the
        part of the operations' time the layers account for."""
        own = self.self_times()
        return sum(
            own[sid]
            for op, sid, parent, name, start, end in self.spans
            if op > 0 and name != OP_SPAN
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with path.open("w") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([op, sid, parent, name, start, end]) + "\n")
