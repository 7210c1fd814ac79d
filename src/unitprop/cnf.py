"""CNF formulas, partial assignments, and DIMACS parsing.

Literals are nonzero ints: ``v`` for a positive literal on variable ``v``,
``-v`` for a negative one.  A clause is a tuple of literals; a formula is a
tuple of clauses plus a variable universe ``1..num_vars``.  A partial
assignment is a frozenset of literals with no variable bound twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable


class DimacsError(ValueError):
    """Raised for malformed DIMACS input.  ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _nonnegative(value: int, name: str) -> int:
    """``value`` as an int, refusing a negative one.  A value that is not
    an integer gets ``operator.index``'s TypeError."""
    value = index(value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")
    return value


def canonical_clause(literals: Iterable[int]) -> tuple[int, ...]:
    """Deduplicate a clause, keeping first-occurrence order.

    Tautological clauses (containing both ``v`` and ``-v``) are kept as is;
    they are legal, merely unhelpful.  Literal 0 is rejected, and a
    literal that is not an integer gets ``operator.index``'s TypeError.
    """
    seen: set[int] = set()
    out: list[int] = []
    for lit in literals:
        lit = index(lit)
        if lit == 0:
            raise ValueError("0 is not a literal")
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return tuple(out)


def assignment(literals: Iterable[int]) -> frozenset[int]:
    """Build a partial assignment: repeated literals collapse into one,
    while 0 and contradictions are refused."""
    result = frozenset(map(index, literals))
    if 0 in result:
        raise ValueError("0 is not a literal")
    for lit in result:
        if -lit in result:
            raise ValueError(f"contradictory assignment: both {lit} and {-lit}")
    return result


@dataclass(frozen=True)
class CnfFormula:
    """An immutable CNF formula over variables ``1..num_vars``.

    Clauses are canonicalized on construction (duplicate literals dropped).
    When ``num_vars`` is omitted it becomes the largest variable mentioned;
    a declared universe may exceed the variables used but not fall short.
    The hash is computed once, on construction; equality is by value.
    """

    clauses: tuple[tuple[int, ...], ...]
    num_vars: int

    def __init__(self, clauses: Iterable[Iterable[int]], num_vars: int | None = None):
        canon = tuple(canonical_clause(c) for c in clauses)
        used = max((abs(lit) for c in canon for lit in c), default=0)
        num_vars = used if num_vars is None else _nonnegative(num_vars, "num_vars")
        if num_vars < used:
            raise ValueError(
                f"num_vars={num_vars} but variable {used} is used"
            )
        object.__setattr__(self, "clauses", canon)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "_hash", hash((self.clauses, self.num_vars)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def variables(self) -> range:
        return range(1, self.num_vars + 1)

    def __len__(self) -> int:
        return len(self.clauses)

    def size(self) -> int:
        """Total literal count across clauses."""
        return sum(len(c) for c in self.clauses)

    def __str__(self) -> str:
        if not self.clauses:
            return "(empty formula)"
        parts = []
        for clause in self.clauses:
            if not clause:
                parts.append("()")
            else:
                parts.append("(" + " | ".join(str(l) for l in clause) + ")")
        return " & ".join(parts)


def _check_variables(vs: tuple[int, ...]) -> None:
    if len(set(vs)) != len(vs) or any(index(v) < 1 for v in vs):
        raise ValueError(
            f"constraint variables must be distinct positive integers, got {vs}"
        )


def _check_universe(literals: Iterable[int], formula: CnfFormula) -> None:
    for lit in literals:
        if not 1 <= abs(index(lit)) <= formula.num_vars:
            raise ValueError(f"literal {lit} outside universe 1..{formula.num_vars}")


def restrict(formula: CnfFormula, assn: Iterable[int]) -> CnfFormula:
    """Append one unit clause per bound literal, sorted by variable.

    This is the syntactic counterpart of conditioning on a partial
    assignment: the original clauses are untouched and each binding
    becomes a fresh unit clause at the end.
    """
    assn = assignment(assn)
    _check_universe(assn, formula)
    units = tuple((lit,) for lit in sorted(assn, key=abs))
    return CnfFormula(formula.clauses + units, num_vars=formula.num_vars)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF.  Strict: header required, counts must match.

    Comment lines start with ``c``.  Each clause is a run of nonzero ints
    terminated by 0; clauses may span lines.  Errors carry line numbers.
    """
    num_vars: int | None = None
    num_clauses: int | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate header", lineno)
            fields = line.split()
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf":
                raise DimacsError(f"bad header {line!r}", lineno)
            try:
                num_vars, num_clauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsError(f"bad header {line!r}", lineno) from None
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f"bad header {line!r}", lineno)
            continue
        if num_vars is None:
            raise DimacsError("clause before 'p cnf' header", lineno)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(f"bad token {token!r}", lineno) from None
            if lit == 0:
                clauses.append(tuple(current))
                current.clear()
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(
                        f"literal {lit} outside declared universe 1..{num_vars}",
                        lineno,
                    )
                current.append(lit)

    if num_vars is None:
        raise DimacsError("missing 'p cnf' header", last_line or 1)
    if current:
        raise DimacsError("unterminated clause (missing 0)", last_line)
    assert num_clauses is not None
    if len(clauses) != num_clauses:
        raise DimacsError(
            f"header declares {num_clauses} clauses, found {len(clauses)}",
            last_line,
        )
    return CnfFormula(clauses, num_vars=num_vars)


def emit_dimacs(formula: CnfFormula) -> str:
    """Serialize to DIMACS.  Inverse of parse_dimacs up to canonicalization."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause + (0,)))
    return "\n".join(lines) + "\n"
