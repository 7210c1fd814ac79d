"""Formula-to-formula reductions between the two ways a CNF can compute
a matching function under unit propagation.

``prop_to_contra`` turns an encoding that signals yes by inferring an
output literal into one that signals yes by deriving a contradiction: it
restricts the encoding by the negated output, which appends it as a unit
clause.

``contra_to_prop`` goes the other way with a staged simulation.  For a
source over n variables it introduces, per source literal w, a chain of
fresh variables x(w, 1..n+1), where x(w, i) means "w was established
within i rounds on the source side".  Five clause families drive the
chains (emitted in this order):

  injection    (v | x(-v,1)) and (-v | x(v,1)) per variable: seed
               literals enter their chains at level 1;
  unit         (x(w,1)) per distinct singleton source clause;
  replication  (-x(w,i) | x(w,i+1)): once established, always
               established at later levels;
  deduction    (x(w,i+1) | -x(-r1,i) | ...) per source clause with at
               least two literals, target literal first: when every
               other literal of the clause was refuted by round i, the
               clause establishes w at round i+1;
  collection   (-x(v,n+1) | -x(-v,n+1) | s) per variable: the fresh
               output s fires exactly when some variable was
               established both ways, i.e. the source run contradicted
               itself.

The composition ``compose_upac`` applies that simulation once per
literal w of the constraint's variables to the source restricted by
w, then adds a guard clause (-s_w | -w): whenever the block discovers
that asserting w would contradict, propagation withdraws w.  This is
what upgrades conflict-detecting encodings to ones that also infer
every forced literal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from operator import index
from typing import Iterable

from .cnf import CnfFormula, _check_universe, _check_variables, restrict


@dataclass(frozen=True)
class SimulationMap:
    """Numbering of one simulation's fresh variables, by formula: from
    ``first_aux`` on, in allocation order (variable, then sign, then
    level), x(w, level) is first_aux + (2(|w| - 1) + [w < 0])(n + 1) +
    level - 1.  The output variable follows the 2n(n+1) ladder ids."""

    source_num_vars: int
    first_aux: int

    @property
    def output_var(self) -> int:
        n = self.source_num_vars
        return self.first_aux + 2 * n * (n + 1)

    def aux(self, lit: int, level: int) -> int:
        """x(lit, level); refuses a literal outside ±1..n or a level outside 1..n+1."""
        n = self.source_num_vars
        lit = index(lit)
        level = index(level)
        v = abs(lit)
        if not (0 < v <= n and 0 < level <= n + 1):
            raise ValueError(f"no ladder variable x({lit}, {level}) over 1..{n}")
        return self.first_aux + (2 * v - 2 + (lit < 0)) * (n + 1) + level - 1


@dataclass(frozen=True)
class FamilyCounts:
    """Clauses per family, in the order the ``REDUCED`` line prints them."""

    injection: int
    replication: int
    deduction: int
    unit: int
    collection: int

    def total(self) -> int:
        return sum(asdict(self).values())


@dataclass(frozen=True)
class ReductionOutput:
    source: CnfFormula
    formula: CnfFormula
    map: SimulationMap
    family_counts: FamilyCounts


@dataclass(frozen=True)
class UpacBlock:
    """One per-literal slice of a composition: the simulation of "source
    plus (literal)", whose output variable is ``output_var``, followed by
    the guard (-s_w | -w) at ``guard_index`` of the composed formula.  The
    slice starts right after the previous block's guard (the first one
    right after the source clauses)."""

    literal: int
    output_var: int
    guard_index: int


@dataclass(frozen=True)
class Composition:
    formula: CnfFormula
    blocks: tuple[UpacBlock, ...]

    def block_for(self, literal: int) -> UpacBlock:
        for block in self.blocks:
            if block.literal == literal:
                return block
        raise ValueError(f"no block for literal {literal}")


def prop_to_contra(formula: CnfFormula, output_lit: int) -> CnfFormula:
    """Restrict the formula by the negated output literal, which appends
    it as a unit clause: the formula grows by exactly one clause of one
    literal.  ``restrict`` refuses -``output_lit`` outside the universe.
    """
    return restrict(formula, (-output_lit,))


def contra_to_prop(
    source: CnfFormula, first_aux: int | None = None
) -> ReductionOutput:
    """Build the staged simulation of a conflict-detecting formula.

    The result never conflicts under propagation for any seed over the
    source universe and infers the output variable exactly when the
    source, restricted the same way, would conflict.  ``first_aux``
    relocates the fresh-variable block (default: right after the source
    universe), which keeps namespaces disjoint when composing.  The map
    numbers x(w, level) by formula (``SimulationMap.aux``) and stores no
    table.  The family counts are measured: each family is built as its
    own list and counted by its length.
    """
    n = source.num_vars
    if n == 0:
        raise ValueError("source universe is empty")
    if any(not clause for clause in source.clauses):
        raise ValueError("source contains the empty clause")
    if first_aux is None:
        first_aux = n + 1
    elif first_aux <= n:
        raise ValueError(f"first_aux must exceed the source universe ({n})")

    sim_map = SimulationMap(source_num_vars=n, first_aux=first_aux)
    x = sim_map.aux
    output_var = sim_map.output_var
    levels = n + 1
    variables = range(1, n + 1)
    injection = [
        clause
        for v in variables
        for clause in ((v, x(-v, 1)), (-v, x(v, 1)))
    ]
    singles = dict.fromkeys(c[0] for c in source.clauses if len(c) == 1)
    unit = [(x(lit, 1),) for lit in singles]
    replication = [
        (-x(lit, i), x(lit, i + 1))
        for v in variables
        for lit in (v, -v)
        for i in range(1, n + 1)
    ]
    deduction = [
        (x(target, i + 1),)
        + tuple(-x(-other, i) for other in clause if other != target)
        for clause in source.clauses
        if len(clause) >= 2
        for target in clause
        for i in range(1, n + 1)
    ]
    collection = [(-x(v, levels), -x(-v, levels), output_var) for v in variables]

    counts = FamilyCounts(
        len(injection), len(replication), len(deduction), len(unit), len(collection)
    )
    formula = CnfFormula(
        injection + unit + replication + deduction + collection,
        num_vars=output_var,
    )
    return ReductionOutput(
        source=source, formula=formula, map=sim_map, family_counts=counts
    )


def compose_upac(
    source: CnfFormula, variables: Iterable[int] | None = None
) -> Composition:
    """Upgrade a conflict-detecting encoding to one that infers forced
    literals.

    For each literal w over ``variables`` (default: the whole source
    universe), in ascending variable order, this conjoins a simulation
    of the source restricted by w and the guard (-s_w | -w).  Auxiliary
    namespaces are allocated back to back so all blocks stay disjoint
    from each other and the source.  Variables must be distinct and
    inside the source universe.
    """
    vs = tuple(source.variables if variables is None else variables)
    _check_variables(vs)
    _check_universe(vs, source)

    clauses: list[tuple[int, ...]] = list(source.clauses)
    blocks: list[UpacBlock] = []
    next_aux = source.num_vars + 1
    for v in sorted(vs):
        for literal in (v, -v):
            red = contra_to_prop(restrict(source, (literal,)), first_aux=next_aux)
            output_var = red.map.output_var
            clauses.extend(red.formula.clauses)
            blocks.append(UpacBlock(literal, output_var, len(clauses)))
            clauses.append((-output_var, -literal))
            next_aux = output_var + 1

    formula = CnfFormula(clauses, num_vars=next_aux - 1)
    return Composition(formula=formula, blocks=tuple(blocks))


def render_simulation_map(sim_map: SimulationMap) -> str:
    """Serialize to the side-map format: one "x <lit> <level> <var>"
    line per ``sim_map.aux`` id in allocation order, then "s <var>"."""
    n = sim_map.source_num_vars
    lines = [
        f"x {lit} {level} {sim_map.aux(lit, level)}"
        for v in range(1, n + 1)
        for lit in (v, -v)
        for level in range(1, n + 2)
    ]
    lines.append(f"s {sim_map.output_var}")
    return "\n".join(lines) + "\n"
