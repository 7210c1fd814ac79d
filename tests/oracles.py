"""Independent reference implementations used to validate the package.

Deliberately naive: set-based loops and full truth-table scans, sharing
no code with the library.  If these disagree with the engines, the
engines are wrong.

The exceptions are the sweeps at the end.  Restricting the formula by
each assignment and then propagating is the definition the seeded
verifiers must match, so the restricting sweeps call the library's
``restrict`` and fixpoint engine.  They return ``(holds, checked,
failure)`` with ``failure`` as ``(assignment, expected, observed,
literal)`` or None.  ``seeded_against_table`` is the sweep of
``is_upi``/``is_upac`` before the walk, one seeded propagation from
scratch per assignment, reading ``reference_consistency_table``; it
returns the library's ``Verdict``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from unitprop.cnf import restrict
from unitprop.constraints import enumerate_partials
from unitprop.propagate import propagate_fixpoint
from unitprop.verify import Counterexample, Verdict


def naive_unit_closure(
    clauses: Sequence[Sequence[int]], seed: Iterable[int] = ()
) -> tuple[bool, set[int]]:
    """Textbook unit propagation: scan clauses until nothing changes.

    Returns (conflict, closure).  The closure may be left mid-way when a
    conflict is found, which is all the comparisons need.
    """
    known: set[int] = set(seed)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            live = [lit for lit in clause if -lit not in known]
            if any(lit in known for lit in live):
                continue
            if not live:
                return True, known
            if len(live) == 1:
                known.add(live[0])
                changed = True
    return False, known


def naive_stages(
    clauses: Sequence[Sequence[int]],
    seed: Iterable[int] = (),
    max_stages: int | None = None,
):
    """Synchronous staged propagation straight from its definition.

    Every round scans every clause in index order.  A literal fires at
    stage ``m`` when every *other* literal of its clause is falsified by
    stage ``m - 1``; a new literal is recorded once, with the lowest
    clause index that fired it.  An empty clause is a conflict at stage 0.

    Returns ``(stages, conflict, conflict_stage, saturated)`` with
    ``stages`` a list of ``(inferred, cumulative)`` pairs.
    """
    known: set[int] = set(seed)
    cumulative: set[int] = set()
    conflict = any(len(clause) == 0 for clause in clauses)
    conflict_stage = 0 if conflict else None
    stages: list[tuple[tuple[tuple[int, int], ...], frozenset[int]]] = []
    while max_stages is None or len(stages) < max_stages:
        inferred: list[tuple[int, int]] = []
        fired: set[int] = set()
        for idx, clause in enumerate(clauses):
            for pos, lit in enumerate(clause):
                if lit in known or lit in fired:
                    continue
                others = clause[:pos] + clause[pos + 1:]
                if all(-other in known for other in others):
                    fired.add(lit)
                    inferred.append((lit, idx))
        if not inferred:
            return stages, conflict, conflict_stage, True
        known |= fired
        cumulative |= fired
        stages.append((tuple(inferred), frozenset(cumulative)))
        if conflict_stage is None and any(-lit in known for lit in known):
            conflict = True
            conflict_stage = len(stages)
    return stages, conflict, conflict_stage, False


def scan_falsifies(
    sat, variables: Sequence[int], bindings: Iterable[int]
) -> bool:
    """No complete extension satisfies, by direct enumeration."""
    bound = frozenset(bindings)
    free = [v for v in variables if v not in bound and -v not in bound]
    for signs in itertools.product((1, -1), repeat=len(free)):
        full = bound | frozenset(s * v for s, v in zip(signs, free))
        if sat(full):
            return False
    return True


def scan_forced(
    sat, variables: Sequence[int], bindings: Iterable[int], literal: int
) -> bool:
    """Every satisfying complete extension contains the literal.

    The dual formulation of "adding the opposite literal falsifies":
    used to cross-check the arc oracle without reusing its definition.
    """
    bound = frozenset(bindings)
    free = [v for v in variables if v not in bound and -v not in bound]
    for signs in itertools.product((1, -1), repeat=len(free)):
        full = bound | frozenset(s * v for s, v in zip(signs, free))
        if sat(full) and literal not in full:
            return False
    return True


def ternary_partials(variables: Sequence[int]) -> Iterator[frozenset[int]]:
    """Every partial assignment, first variable as the fastest digit,
    digits in the order unbound, positive, negative."""
    for signs in itertools.product((0, 1, -1), repeat=len(variables)):
        yield frozenset(s * v for s, v in zip(signs, reversed(variables)) if s)


def digit_weights(variables: Sequence[int]) -> dict[int, int]:
    """The code weight of each literal: with ``variables[j]`` as digit j,
    3^j when positive and 2*3^j when negative."""
    weight: dict[int, int] = {}
    for j, v in enumerate(variables):
        weight[v] = 3 ** j
        weight[-v] = 2 * 3 ** j
    return weight


def table_disagreements(q, table) -> list[tuple[frozenset[int], int | None]]:
    """Where a consistency table disagrees with the scans, as
    ``(assignment, literal)`` pairs: literal None when the assignment's
    own byte is wrong, else the unbound literal whose forcing it misreads.
    Codes are sums of ``digit_weights`` and positions in
    ``ternary_partials``."""
    weight = digit_weights(q.variables)
    wrong = []
    for code, part in enumerate(ternary_partials(q.variables)):
        assert sum(weight[lit] for lit in part) == code
        if table[code] == scan_falsifies(q.sat, q.variables, part):
            wrong.append((part, None))
        for v in q.variables:
            if v in part or -v in part:
                continue
            for lit in (v, -v):
                forced = not table[code + weight[-lit]]
                if forced != scan_forced(q.sat, q.variables, part, lit):
                    wrong.append((part, lit))
    return wrong


def reference_consistency_table(q) -> bytearray:
    """The consistency table filled one code at a time, the definition
    the library's digit-by-digit fill is held to.  Codes are those of
    ``table_disagreements``.  ``q.sat`` runs once per complete
    assignment; every other code is filled in descending order from the
    two ways of binding its lowest unbound digit, which have larger
    codes."""
    weight = digit_weights(q.variables)
    size = 3 ** len(q.variables)
    table = bytearray(size)
    for complete in itertools.product(*((v, -v) for v in q.variables)):
        code = sum(weight[lit] for lit in complete)
        table[code] = bool(q.sat(frozenset(complete)))
    for code in range(size - 1, -1, -1):
        step, rest = 1, code
        while rest % 3:
            step *= 3
            rest //= 3
        if step < size:
            table[code] = table[code + step] | table[code + 2 * step]
    return table


def reference_ladder(n: int, first_aux: int) -> tuple[dict[tuple[int, int], int], int]:
    """The simulation's fresh-variable numbering, allocated one by one:
    ``(lit, level) -> var`` for each variable, then sign, then level from
    ``first_aux`` on, and the output variable that comes next."""
    ladder: dict[tuple[int, int], int] = {}
    nxt = first_aux
    for v in range(1, n + 1):
        for lit in (v, -v):
            for level in range(1, n + 2):
                ladder[(lit, level)] = nxt
                nxt += 1
    return ladder, nxt


def _word(flag: bool, yes: str, no: str) -> str:
    return yes if flag else no


def restricting_upi(formula, q):
    """is_upi by restriction: conflict exactly on falsifying assignments."""
    checked = 0
    for part in ternary_partials(q.variables):
        checked += 1
        expected = scan_falsifies(q.sat, q.variables, part)
        observed = propagate_fixpoint(restrict(formula, part)).conflicted
        if expected != observed:
            return False, checked, (
                part,
                _word(expected, "conflict", "no-conflict"),
                _word(observed, "conflict", "no-conflict"),
                None,
            )
    return True, checked, None


def restricting_by_contradiction(formula, fn):
    """computes_by_contradiction by restriction: over the function's
    domain, conflict exactly on yes."""
    checked = 0
    for part in ternary_partials(fn.variables):
        if not fn.in_domain(part):
            continue
        checked += 1
        expected = bool(fn.evaluate(part))
        observed = propagate_fixpoint(restrict(formula, part)).conflicted
        if expected != observed:
            return False, checked, (
                part,
                _word(expected, "conflict", "no-conflict"),
                _word(observed, "conflict", "no-conflict"),
                None,
            )
    return True, checked, None


def restricting_by_propagation(formula, fn, output_lit: int):
    """computes_by_propagation by restriction: over the function's
    domain, no conflict and the output inferred exactly on yes."""
    checked = 0
    for part in ternary_partials(fn.variables):
        if not fn.in_domain(part):
            continue
        checked += 1
        out = propagate_fixpoint(restrict(formula, part))
        if out.conflicted:
            return False, checked, (part, "no-conflict", "conflict", output_lit)
        expected = bool(fn.evaluate(part))
        observed = output_lit in out.final
        if expected != observed:
            return False, checked, (
                part,
                _word(expected, "inferred", "absent"),
                _word(observed, "inferred", "absent"),
                output_lit,
            )
    return True, checked, None


def restricting_upac(formula, q):
    """is_upac by restriction: conflict on every falsifying assignment;
    elsewhere no conflict and exactly the forced unbound literals."""
    checked = 0
    for part in ternary_partials(q.variables):
        checked += 1
        out = propagate_fixpoint(restrict(formula, part))
        if scan_falsifies(q.sat, q.variables, part):
            if not out.conflicted:
                return False, checked, (part, "conflict", "no-conflict", None)
            continue
        if out.conflicted:
            return False, checked, (part, "no-conflict", "conflict", None)
        for v in q.variables:
            if v in part or -v in part:
                continue
            for lit in (v, -v):
                forced = scan_forced(q.sat, q.variables, part, lit)
                inferred = lit in out.final
                if forced != inferred:
                    return False, checked, (
                        part,
                        _word(forced, "inferred", "absent"),
                        _word(inferred, "inferred", "absent"),
                        lit,
                    )
    return True, checked, None


def seeded_against_table(formula, q, forced_literals: bool) -> Verdict:
    """``is_upac``, or ``is_upi`` without ``forced_literals``, one
    assignment at a time: each assignment of ``enumerate_partials`` is
    seeded and propagated from scratch, and its expected answers are read
    from ``q``'s reference consistency table."""
    weight = digit_weights(q.variables)
    table = reference_consistency_table(q)

    def failed(checked, part, expected, observed, literal=None):
        return Verdict(checked, Counterexample(part, expected, observed, literal))

    checked = 0
    for part in enumerate_partials(q.variables):
        checked += 1
        code = sum(weight[lit] for lit in part)
        out = propagate_fixpoint(formula, part)
        falsified = not table[code]
        if out.conflicted != falsified:
            return failed(
                checked,
                part,
                _word(falsified, "conflict", "no-conflict"),
                _word(out.conflicted, "conflict", "no-conflict"),
            )
        if falsified or not forced_literals:
            continue
        for v in q.variables:
            if v in part or -v in part:
                continue
            for lit in (v, -v):
                forced = not table[code + weight[-lit]]
                inferred = lit in out.final
                if forced != inferred:
                    return failed(
                        checked,
                        part,
                        _word(forced, "inferred", "absent"),
                        _word(inferred, "inferred", "absent"),
                        lit,
                    )
    return Verdict(checked)
