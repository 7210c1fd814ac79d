"""Exhaustive checkers for the claimed propagation behaviors.

Every checker sweeps partial assignments in ternary counting order
(``enumerate_partials``) and reports the first mismatch as a
counterexample.  Expected values never come from the engine under
test: they come from a matching function, from a constraint's
consistency table, built once per ``is_upi``/``is_upac`` sweep, or from
the source formula.  Sweeps seed rather than restrict: the two agree on
conflict and on closure.

``is_upi`` and ``is_upac`` walk the same order depth first.  Each
assignment binds one variable more than its parent in the walk, so its
closure is the parent's extended by one literal, not a propagation from
scratch.  ``propagate._extender`` extends it and keeps the clause
index to itself.  A conflict persists when the seed grows, and so does
falsifying the constraint, so where an assignment both conflicts and
falsifies the constraint, so does every extension of it: that block is
counted as checked and never visited.  ``computes_by_*`` and
``verify-hm --all`` keep the plain ``sweep``: a matching function need
not be monotone, and a stage-correspondence check reads staged timing,
which an extended closure does not keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .cnf import CnfFormula, _check_universe, restrict
from .constraints import (
    Constraint,
    MatchingFunction,
    _check_enumeration,
    _consistency_table,
    enumerate_partials,
)
from .propagate import _extender, propagate_fixpoint, propagate_staged
from .reductions import ReductionOutput, contra_to_prop

# Largest measured ratio size(simulation) / (n^2 * size(source)); the
# witness is the one-variable source (v), which blows up 1 literal into
# 12.  The ratio only shrinks as n grows.
SIZE_BOUND_FACTOR = 12


@dataclass(frozen=True)
class Counterexample:
    assignment: frozenset[int]
    expected: str
    observed: str
    literal: int | None = None
    stage: int | None = None


@dataclass(frozen=True)
class Verdict:
    """The answer of a check: how many assignments it checked, and the
    first of them that failed, if one did.  It holds iff none failed."""

    checked: int
    counterexample: Counterexample | None = None

    @property
    def holds(self) -> bool:
        return self.counterexample is None


_CONFLICT = ("conflict", "no-conflict")
_INFERRED = ("inferred", "absent")
_KNOWN = ("present", "absent")


def _mismatch(
    I: frozenset[int],
    words: tuple[str, str],
    expected: bool,
    literal: int | None = None,
    checked: int = 1,
    stage: int | None = None,
) -> Verdict:
    """The failure of one assignment, the ``checked``-th of its sweep,
    on ``literal`` at ``stage`` where the check names them.  ``words``
    names the yes and the no answer; what was observed is the one that
    was not expected."""
    want, got = words if expected else words[::-1]
    return Verdict(checked, Counterexample(I, want, got, literal, stage))


def sweep(
    variables: Iterable[int],
    check: Callable[[frozenset[int]], Verdict],
    limit: int | None = None,
) -> Verdict:
    """Run ``check`` on each partial assignment in enumeration order,
    summing the ``checked`` counts it returns (0 outside its domain).
    The first failing assignment ends the sweep: its counterexample
    comes back with the running total.  ``enumerate_partials`` refuses
    the variables and ``limit`` before the first check."""
    total = 0
    for I in enumerate_partials(variables, limit):
        verdict = check(I)
        total += verdict.checked
        if not verdict.holds:
            return Verdict(total, verdict.counterexample)
    return Verdict(total)


def _check_sweep(
    formula: CnfFormula, variables: Iterable[int], limit: int | None
) -> tuple[int, ...]:
    """The variables of a sweep that runs ``formula`` over their partial
    assignments.  Refuses more variables than ``limit`` first, then a
    variable outside the formula, before any assignment is checked."""
    vs = _check_enumeration(variables, limit)
    _check_universe(vs, formula)
    return vs


def computes_by_contradiction(
    formula: CnfFormula, fn: MatchingFunction, limit: int | None = None
) -> Verdict:
    """Does propagating the assignment conflict exactly where the
    function says yes?  An over-limit sweep and a variable of ``fn``
    outside the formula are refused before the first evaluation."""
    def check(I: frozenset[int]) -> Verdict:
        if not fn.in_domain(I):
            return Verdict(0)
        expected = bool(fn.evaluate(I))
        if propagate_fixpoint(formula, I).conflicted != expected:
            return _mismatch(I, _CONFLICT, expected)
        return Verdict(1)

    return sweep(_check_sweep(formula, fn.variables, limit), check, limit)


def computes_by_propagation(
    formula: CnfFormula,
    fn: MatchingFunction,
    output_lit: int,
    limit: int | None = None,
) -> Verdict:
    """Does propagation stay conflict-free and infer the output literal
    exactly where the function says yes?  An over-limit sweep, a
    variable of ``fn`` outside the formula and an output literal
    outside it are refused before the first evaluation."""
    vs = _check_sweep(formula, fn.variables, limit)
    _check_universe((output_lit,), formula)

    def check(I: frozenset[int]) -> Verdict:
        if not fn.in_domain(I):
            return Verdict(0)
        out = propagate_fixpoint(formula, I)
        if out.conflicted:
            return _mismatch(I, _CONFLICT, False, output_lit)
        expected = bool(fn.evaluate(I))
        if (output_lit in out.final) != expected:
            return _mismatch(I, _INFERRED, expected, output_lit)
        return Verdict(1)

    return sweep(vs, check, limit)


def is_upi(
    formula: CnfFormula, q: Constraint, limit: int | None = None
) -> Verdict:
    """Does propagation detect exactly the assignments falsifying q?"""
    return _against_table(formula, q, limit, forced_literals=False)


def is_upac(
    formula: CnfFormula, q: Constraint, limit: int | None = None
) -> Verdict:
    """Conflict on every falsifying assignment, and on the rest no
    conflict plus exactly the forced literals inferred.

    Only literals of variables unbound in the assignment are checked;
    what propagation says about already-bound variables is not
    constrained.
    """
    return _against_table(formula, q, limit, forced_literals=True)


def _against_table(
    formula: CnfFormula, q: Constraint, limit: int | None, forced_literals: bool
) -> Verdict:
    """The sweep of ``is_upi`` and ``is_upac``: each assignment's
    conflict, and with ``forced_literals`` its inferred literals, against
    ``q``'s consistency table.  An over-limit sweep and a variable of
    ``q`` outside the formula are refused before the table is built.

    The assignments are walked depth first.  With ``v_k`` the k-th
    variable of ``q``, the block of an assignment ``I`` over its lowest
    ``j`` digits is ``I`` itself, then for k = 0..j-1 the block of
    ``I + v_k`` over k digits followed by that of ``I - v_k``; the
    block of ``{}`` over every digit is ternary counting order.  A
    child's closure extends its parent's by one literal.  Where ``I``
    both conflicts and falsifies ``q``, so does every extension of it,
    and each would hold: the whole block counts as checked, unvisited.

    A node is its code, not its set of literals, and the tuple of its
    unbound digits, the ``j`` low ones first.  The assignment is decoded
    from the code only for a counterexample.
    """
    vs = _check_sweep(formula, q.variables, limit)
    table = _consistency_table(q)
    extend = _extender(formula)
    root = propagate_fixpoint(formula)
    digits = tuple((v, 3 ** j, 2 * 3 ** j) for j, v in enumerate(vs))
    checked = 0
    # (parent's closure, literal added or 0 at the root, code, number of
    # unbound low digits, every unbound digit); children are pushed in
    # reverse, so that they are popped in block order
    stack = [(None if root.conflicted else root.final, 0, 0, len(vs), digits)]
    while stack:
        closed, added, code, j, unbound = stack.pop()
        if added:
            closed = extend(closed, added)
        falsified = not table[code]
        if (closed is None) != falsified:
            I = _decode(vs, code)
            return _mismatch(I, _CONFLICT, falsified, checked=checked + 1)
        if falsified:
            checked += 3 ** j
            continue
        if forced_literals:
            for v, plus, minus in unbound:
                # v is forced iff I - v falsifies q, and -v iff I + v does
                for lit, child in ((v, minus), (-v, plus)):
                    forced = not table[code + child]
                    if (lit in closed) != forced:
                        I = _decode(vs, code)
                        return _mismatch(I, _INFERRED, forced, lit, checked + 1)
        checked += 1
        for k in range(j - 1, -1, -1):
            v, plus, minus = unbound[k]
            rest = unbound[:k] + unbound[k + 1 :]
            stack.append((closed, -v, code + minus, k, rest))
            stack.append((closed, v, code + plus, k, rest))
    return Verdict(checked)


def _decode(vs: tuple[int, ...], code: int) -> frozenset[int]:
    """The partial assignment of ``vs`` whose consistency-table code is
    ``code``: digit j is ``vs[j]`` unbound, positive or negative."""
    I = []
    for v in vs:
        code, digit = divmod(code, 3)
        if digit:
            I.append(v if digit == 1 else -v)
    return frozenset(I)


def check_stage_correspondence(
    source: CnfFormula,
    assn: frozenset[int] | tuple[int, ...] = (),
    reduction: ReductionOutput | None = None,
) -> Verdict:
    """Stage-exact agreement between a source run and its simulation.

    The source is restricted by the assignment and staged; the
    simulation is staged with the assignment as its round-0 seed, which
    is what lines the two columns up: a seed literal enters its chain at
    level 1 in round 1, exactly when the restriction unit fires on the
    source side.  Holds iff for every round m in 1..n+1 and every source
    literal w: x(w,m) is known after round m iff w is known after
    round m.  Each side keeps one known set, which takes in round m's
    inferences just before level m is compared.
    """
    red = reduction if reduction is not None else contra_to_prop(source)
    n = red.map.source_num_vars
    if n != source.num_vars:
        raise ValueError(
            f"reduction covers variables 1..{n}, source has 1..{source.num_vars}"
        )
    levels = n + 1
    t_source = propagate_staged(restrict(source, assn))
    t_sim = propagate_staged(red.formula, assignment=assn, max_stages=levels)
    assn = frozenset(assn)
    known_source = set(t_source.initial)
    known_sim = set(t_sim.initial)
    checked = 0
    for m in range(1, levels + 1):
        for trace, known in ((t_source, known_source), (t_sim, known_sim)):
            if m <= len(trace.stages):
                known.update(lit for lit, _ in trace.stages[m - 1].inferred)
        for v in range(1, n + 1):
            for lit in (v, -v):
                checked += 1
                on_source = lit in known_source
                on_sim = red.map.aux(lit, m) in known_sim
                if on_source != on_sim:
                    return _mismatch(assn, _KNOWN, on_source, lit, checked, m)
    return Verdict(checked)


def check_size_bound(output: ReductionOutput) -> Verdict:
    """Family counts match their closed forms and the total literal
    count stays within ``SIZE_BOUND_FACTOR`` * n^2 * source size."""
    n = output.source.num_vars
    singles = len({c[0] for c in output.source.clauses if len(c) == 1})
    wide = sum(len(c) for c in output.source.clauses if len(c) >= 2)
    expected = {
        "injection": 2 * n,
        "replication": 2 * n * n,
        "deduction": n * wide,
        "unit": singles,
        "collection": n,
    }
    got = output.family_counts
    for family, want in expected.items():
        have = getattr(got, family)
        if have != want:
            return Verdict(
                1, Counterexample(frozenset(), f"{family}={want}", f"{family}={have}")
            )
    clauses = len(output.formula)
    if got.total() != clauses:
        return Verdict(
            1, Counterexample(frozenset(), f"total={clauses}", f"total={got.total()}")
        )
    size = output.formula.size()
    bound = SIZE_BOUND_FACTOR * n * n * output.source.size()
    if size > bound:
        return Verdict(
            1, Counterexample(frozenset(), f"size<={bound:g}", f"size={size}")
        )
    return Verdict(1)


def contradiction_fn(formula: CnfFormula) -> MatchingFunction:
    """The matching function "restricting this formula conflicts",
    computed by running the fixpoint engine on the formula itself.
    Meant as the reference when validating a formula DERIVED from this
    one, never as its own oracle."""
    return MatchingFunction(
        variables=tuple(formula.variables),
        in_domain=lambda I: True,
        evaluate=lambda I: propagate_fixpoint(restrict(formula, I)).conflicted,
    )


def _format_assignment(assn: frozenset[int]) -> str:
    if not assn:
        return "(empty)"
    parts = [
        f"v{abs(lit)}={'1' if lit > 0 else '0'}"
        for lit in sorted(assn, key=abs)
    ]
    return ", ".join(parts)


def render_verdict(verdict: Verdict) -> str:
    ce = verdict.counterexample
    if ce is None:
        return f"HOLDS checked={verdict.checked}"
    lines = [
        f"FAILS checked={verdict.checked}",
        f"  assignment: {_format_assignment(ce.assignment)}",
    ]
    if ce.literal is not None:
        lines.append(f"  literal: {ce.literal}")
    if ce.stage is not None:
        lines.append(f"  stage: {ce.stage}")
    lines.append(f"  expected: {ce.expected}")
    lines.append(f"  observed: {ce.observed}")
    return "\n".join(lines)
