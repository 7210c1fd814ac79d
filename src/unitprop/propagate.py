"""Unit propagation engines.

Two views of the same inference rule.  ``propagate_fixpoint`` is the usual
queue-driven engine: run unit propagation to closure, stop at the first
contradiction.  ``propagate_staged`` computes the inference in synchronous
rounds and keeps going past a contradiction, which is what the reduction
machinery needs: stage ``m`` fires every literal whose clause has all of
its *other* literals falsified by stage ``m - 1``.

Under that rule a fully falsified clause yields every one of its literals.
That sounds odd for a solver but it is the right saturating semantics here:
round ``m`` of the staged engine is exactly "what can be concluded in one
more step from everything known at round ``m - 1``", contradictions
included.

Both engines accept a seed assignment.  Seeding literals directly and
appending them as unit clauses via ``restrict`` agree on whether a conflict
is reached and, absent conflict, on the final closure; they differ in
staged timing (restriction units fire at stage 1, seeds are stage 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping

from .cnf import (
    CnfFormula,
    _check_universe,
    _nonnegative,
    assignment as _mk_assignment,
    restrict,
)


@dataclass(frozen=True)
class PropagationOutcome:
    """Result of running propagation to closure or first conflict.

    ``final`` holds the seed plus every derived literal; on a conflict it
    includes the pair of contradictory literals when one was actually
    pushed.  ``steps`` records derived literals in order as
    ``(literal, clause_index)``.  ``conflict_clause`` is the index of the
    clause that closed the run, or None on a fixpoint.
    """

    final: frozenset[int]
    conflict_clause: int | None
    steps: tuple[tuple[int, int], ...]

    @property
    def conflicted(self) -> bool:
        return self.conflict_clause is not None


@dataclass(frozen=True)
class StageRecord:
    """One synchronous round: ``inferred`` pairs each new literal with the
    clause that produced it.  Round m is ``stages[m - 1]``; what is known
    after it is ``stage_assignment(trace, m)``."""

    inferred: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class StagedTrace:
    initial: frozenset[int]
    stages: tuple[StageRecord, ...]
    conflict_stage: int | None
    saturated: bool

    @property
    def conflicted(self) -> bool:
        return self.conflict_stage is not None


@lru_cache(maxsize=8)
def _index(formula: CnfFormula) -> tuple[Mapping[int, tuple[int, ...]], tuple[int, ...]]:
    """Occurrence lists, and the ascending indices of clauses of length <= 1."""
    occ: dict[int, list[int]] = {}
    short: list[int] = []
    for idx, clause in enumerate(formula.clauses):
        if len(clause) <= 1:
            short.append(idx)
        for lit in clause:
            occ.setdefault(lit, []).append(idx)
    return {lit: tuple(idxs) for lit, idxs in occ.items()}, tuple(short)


def _extender(
    formula: CnfFormula,
) -> Callable[[AbstractSet[int], int], AbstractSet[int] | None]:
    """``extend(closed, lit)``: the closure of ``closed`` plus ``lit``,
    or None on a conflict, over the clauses of ``formula``.

    ``closed`` must be a conflict-free closure of the formula.  Then only
    a clause that holds the negation of a newly assigned literal can have
    become unit or falsified, so propagation is queued from ``lit`` alone.
    Whether propagation conflicts, and the closure when it does not, do
    not depend on the order of inferences, so this agrees with
    ``propagate_fixpoint`` on any seed whose closure is ``closed``, plus
    ``lit``.  ``closed`` is never modified: a new literal gets a new
    set, a known one gets ``closed`` back.
    """
    clauses = formula.clauses
    occ, _ = _index(formula)

    def extend(closed: AbstractSet[int], lit: int) -> AbstractSet[int] | None:
        if lit in closed:
            return closed
        if -lit in closed:
            return None
        known = set(closed)
        known.add(lit)
        queue = [lit]
        for assigned in queue:
            for idx in occ.get(-assigned, ()):
                unit = None
                for other in clauses[idx]:
                    if other in known:
                        break  # satisfied
                    if -other not in known:
                        if unit is not None:
                            break  # two open literals
                        unit = other
                else:
                    if unit is None:
                        return None
                    known.add(unit)
                    queue.append(unit)
        return known

    return extend


def propagate_fixpoint(
    formula: CnfFormula, assignment: Iterable[int] = ()
) -> PropagationOutcome:
    """Run unit propagation to closure, stopping at the first conflict.

    The queue is the list of assigned literals in the order they were
    assigned, seed first: the loop walks it while ``push`` appends to it,
    as the walk's ``extend`` does.  Falsified-literal counters per clause
    drive the unit test; the counters can lag the assigned set by queued
    work, so a clause that looks unit may in fact be fully falsified,
    which is reported as the conflict.
    """
    seed = _mk_assignment(assignment)
    _check_universe(seed, formula)
    clauses = formula.clauses
    occ, short = _index(formula)
    falsified = [0] * len(clauses)
    assigned: set[int] = set(seed)
    steps: list[tuple[int, int]] = []
    queue = sorted(seed, key=abs)

    def outcome(conflict_clause: int | None = None) -> PropagationOutcome:
        return PropagationOutcome(frozenset(assigned), conflict_clause, tuple(steps))

    def push(lit: int, idx: int) -> int | None:
        if lit in assigned:
            return None
        steps.append((lit, idx))
        assigned.add(lit)
        if -lit in assigned:
            return idx
        queue.append(lit)
        return None

    for idx in short:
        if not clauses[idx]:
            return outcome(idx)
        bad = push(clauses[idx][0], idx)
        if bad is not None:
            return outcome(bad)

    for lit in queue:
        for idx in occ.get(-lit, ()):
            falsified[idx] += 1
            clause = clauses[idx]
            if len(clause) - falsified[idx] > 1:
                continue
            active = next((l for l in clause if -l not in assigned), None)
            if active is None:
                return outcome(idx)
            # -active is unassigned, so this push cannot conflict
            push(active, idx)

    return outcome()


def propagate_staged(
    formula: CnfFormula,
    assignment: Iterable[int] = (),
    max_stages: int | None = None,
) -> StagedTrace:
    """Propagate in synchronous rounds, saturating past contradictions.

    A literal fires at stage ``m`` when some clause has every *other*
    literal falsified by stage ``m - 1``; a fully falsified clause therefore
    fires all of its literals.  Round 1 scans the clauses of length at most
    one and every clause that contains the negation of a seed literal; each
    later round scans only the clauses that contain the negation of a
    literal fired in the round before, since no other clause can have
    changed.  Each round is recorded once, as a ``StageRecord`` of the
    literals it fired, each paired with the first clause, in clause
    order, that fired it.  The run stops when a round adds nothing
    (``saturated``) or after ``max_stages`` recorded rounds.
    ``conflict_stage`` is the first round whose accumulated set binds a
    variable both ways (0 if the formula contains the empty clause), or
    None; ``conflicted`` tests it.
    """
    if max_stages is not None:
        max_stages = _nonnegative(max_stages, "max_stages")
    seed = _mk_assignment(assignment)
    _check_universe(seed, formula)
    clauses = formula.clauses
    occ, short = _index(formula)
    known: set[int] = set(seed)
    touched = set(short)
    for lit in seed:
        touched.update(occ.get(-lit, ()))

    conflict_stage = 0 if any(not clauses[idx] for idx in short) else None
    stages: list[StageRecord] = []
    saturated = False

    while max_stages is None or len(stages) < max_stages:
        # each literal fired this round -> the first clause that fired it
        new: dict[int, int] = {}
        for idx in sorted(touched):
            clause = clauses[idx]
            live = [l for l in clause if -l not in known]
            if len(live) > 1:
                continue
            # one live literal fires alone; a fully falsified clause fires all
            for lit in live or clause:
                if lit not in known:
                    new.setdefault(lit, idx)
        if not new:
            saturated = True
            break

        known.update(new)
        stages.append(StageRecord(tuple(new.items())))
        if conflict_stage is None and any(-lit in known for lit in new):
            conflict_stage = len(stages)
        touched = {idx for lit in new for idx in occ.get(-lit, ())}

    return StagedTrace(
        initial=seed,
        stages=tuple(stages),
        conflict_stage=conflict_stage,
        saturated=saturated,
    )


def stage_assignment(trace: StagedTrace, stage: int) -> frozenset[int]:
    """Everything known after ``stage`` rounds: seed plus inferences.

    Stages past the end of the trace return the last recorded state, which
    is the fixpoint whenever the trace saturated.
    """
    stage = _nonnegative(stage, "stage")
    known = set(trace.initial)
    for rec in trace.stages[:stage]:
        known.update(lit for lit, _ in rec.inferred)
    return frozenset(known)


def infers(formula: CnfFormula, assignment: Iterable[int], literal: int) -> str:
    """Classify what propagation concludes about ``literal`` under the
    given bindings: ``"yes"``, ``"no"``, or ``"conflict"``."""
    _check_universe((literal,), formula)
    out = propagate_fixpoint(restrict(formula, assignment))
    if out.conflicted:
        return "conflict"
    return "yes" if literal in out.final else "no"


def format_literal(lit: int, names: Mapping[int, str] | None = None) -> str:
    if names and abs(lit) in names:
        name = names[abs(lit)]
        return name if lit > 0 else "~" + name
    return str(lit)


def format_literals(
    literals: Iterable[int], names: Mapping[int, str] | None = None
) -> str:
    ordered = sorted(literals, key=lambda l: (abs(l), l < 0))
    return " ".join(format_literal(l, names) for l in ordered)


def render_outcome(
    outcome: PropagationOutcome, names: Mapping[int, str] | None = None
) -> str:
    if outcome.conflicted:
        lines = [f"CONFLICT: clause={outcome.conflict_clause}"]
    else:
        lines = [("FIXPOINT: " + format_literals(outcome.final, names)).rstrip()]
    for lit, idx in outcome.steps:
        lines.append(f"INFER {format_literal(lit, names)} clause={idx}")
    return "\n".join(lines)


def render_trace(
    trace: StagedTrace, names: Mapping[int, str] | None = None
) -> str:
    lines = [("INITIAL " + format_literals(trace.initial, names)).rstrip()]
    for m, rec in enumerate(trace.stages, start=1):
        fired = format_literals((lit for lit, _ in rec.inferred), names)
        lines.append(f"STAGE {m}: {fired}")
    if trace.conflicted:
        lines.append(f"CONFLICT: stage={trace.conflict_stage}")
    status = "SATURATED" if trace.saturated else "TRUNCATED"
    lines.append(f"{status} stages={len(trace.stages)}")
    return "\n".join(lines)


def trace_records(trace: StagedTrace) -> Iterator[str]:
    """Flat ``"stage clause literal"`` lines, one per inference."""
    for m, rec in enumerate(trace.stages, start=1):
        for lit, idx in rec.inferred:
            yield f"{m} {idx} {lit}"
