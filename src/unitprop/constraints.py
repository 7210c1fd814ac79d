"""Constraints and brute-force oracles over partial assignments.

A constraint is a total satisfiability test over complete assignments of
its variables.  Everything else here is deliberately brute force: the
oracles exist to validate the propagation engines and encodings, so they
must not consult them.  ``falsifies`` is the definition, and the
matching functions call it directly.  The ``is_upi``/``is_upac`` sweeps
read the same answers from a consistency table filled from one ``sat``
call per complete assignment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import index
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .cnf import (
    CnfFormula,
    _check_variables,
    _nonnegative,
    assignment as _mk_assignment,
    parse_dimacs,
)

DEFAULT_ENUMERATION_LIMIT = 12


@dataclass(frozen=True)
class Constraint:
    """A satisfiability function over complete assignments of ``variables``.

    ``sat`` receives a frozenset of literals binding every variable and
    returns whether the constraint holds.
    """

    variables: tuple[int, ...]
    label: str
    sat: Callable[[frozenset[int]], bool] = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_variables(self.variables)


@dataclass(frozen=True)
class MatchingFunction:
    """A yes/no function over the partial assignments of ``variables``,
    defined only where ``in_domain`` holds."""

    variables: tuple[int, ...]
    in_domain: Callable[[frozenset[int]], bool] = field(compare=False, repr=False)
    evaluate: Callable[[frozenset[int]], bool] = field(compare=False, repr=False)


def at_most_k(k: int, variables: Iterable[int]) -> Constraint:
    """At most ``k`` of the variables are true."""
    vs = tuple(variables)
    k = _nonnegative(k, "k")

    def sat(complete: frozenset[int]) -> bool:
        return sum(1 for v in vs if v in complete) <= k

    return Constraint(vs, f"atmost {k} of {len(vs)}", sat)


def truth_table(variables: Iterable[int], bits: str) -> Constraint:
    """Constraint given by an explicit table.

    ``bits[i]`` is the outcome for the complete assignment whose binary
    code is ``i`` with ``variables[0]`` as the least significant bit;
    '1' means satisfied.
    """
    vs = tuple(variables)
    if len(bits) != 2 ** len(vs):
        raise ValueError(
            f"table for {len(vs)} variables needs {2 ** len(vs)} bits, got {len(bits)}"
        )
    if set(bits) - {"0", "1"}:
        raise ValueError("table bits must be 0 or 1")

    def sat(complete: frozenset[int]) -> bool:
        index = sum(1 << j for j, v in enumerate(vs) if v in complete)
        return bits[index] == "1"

    return Constraint(vs, f"table {len(vs)} {bits}", sat)


def cnf_constraint(formula: CnfFormula) -> Constraint:
    """Treat a formula semantically: satisfied iff every clause holds.

    The variables are the formula's full universe.
    """
    vs = tuple(formula.variables)

    def sat(complete: frozenset[int]) -> bool:
        return all(any(lit in complete for lit in clause) for clause in formula.clauses)

    return Constraint(vs, f"cnf over {len(vs)} vars", sat)


def _check_scope(q: Constraint, literals: Iterable[int]) -> None:
    universe = set(q.variables)
    for lit in literals:
        if abs(index(lit)) not in universe:
            raise ValueError(f"variable {abs(lit)} is not a variable of {q.label}")


def falsifies(q: Constraint, assn: Iterable[int]) -> bool:
    """True iff no complete extension of ``assn`` satisfies ``q``.

    Brute force over the 2^(unbound) extensions by design.
    """
    bindings = _mk_assignment(assn)
    _check_scope(q, bindings)
    unbound = [v for v in q.variables if v not in bindings and -v not in bindings]
    for signs in itertools.product((1, -1), repeat=len(unbound)):
        complete = bindings | frozenset(s * v for s, v in zip(signs, unbound))
        if q.sat(complete):
            return False
    return True


def _consistency_table(q: Constraint) -> bytearray:
    """``falsifies`` in table form, one byte per partial assignment.

    A partial assignment's code is the sum of its literals' weights: with
    ``variables[j]`` as digit j, a positive literal weighs 3^j and a
    negative one 2*3^j, so codes follow ``enumerate_partials`` order.
    ``table[code]`` is 1 iff some complete extension satisfies ``q``.
    Callers compute the weights from ``q.variables`` by this rule.

    The table is built one digit at a time.  ``q.sat`` runs once per
    complete assignment, in binary counting order with digit 0 fastest
    and positive before negative: 2^n blocks of one byte each.  Binding
    digit j, each adjacent pair of blocks, digit j positive then
    negative over the same higher digits, joins into one block of the
    next size: unbound, then positive, then negative, where unbound is
    the bytewise OR of the other two.
    """
    blocks = [
        b"\1" if q.sat(frozenset(complete)) else b"\0"
        for complete in itertools.product(*((v, -v) for v in reversed(q.variables)))
    ]
    size = 1
    for _ in q.variables:
        joined = []
        for plus, minus in zip(blocks[::2], blocks[1::2]):
            unbound = int.from_bytes(plus, "little") | int.from_bytes(minus, "little")
            joined.append(unbound.to_bytes(size, "little") + plus + minus)
        blocks = joined
        size *= 3
    return bytearray(blocks[0])


def inconsistency_fn(q: Constraint) -> MatchingFunction:
    """The matching function that says yes exactly on assignments
    falsifying ``q``.  Its domain is every partial assignment."""
    return MatchingFunction(
        variables=q.variables,
        in_domain=lambda I: True,
        evaluate=lambda I: falsifies(q, I),
    )


def arc_fn(q: Constraint, literal: int) -> MatchingFunction:
    """The matching function that says yes when ``literal`` is forced.

    Defined on assignments that do not falsify ``q``.  When the literal's
    variable is unbound, yes iff adding the opposite literal falsifies
    ``q``.  When it is already bound the answer is read off the binding:
    a present literal is vacuously supported, its negation is not.
    """
    _check_scope(q, (literal,))

    def evaluate(I: frozenset[int]) -> bool:
        if literal in I:
            return True
        if -literal in I:
            return False
        return falsifies(q, I | {-literal})

    return MatchingFunction(
        variables=q.variables,
        in_domain=lambda I: not falsifies(q, I),
        evaluate=evaluate,
    )


def _check_enumeration(
    variables: Iterable[int], limit: int | None
) -> tuple[int, ...]:
    """The variables as a tuple, after the refusals that
    ``enumerate_partials`` documents."""
    vs = tuple(variables)
    _check_variables(vs)
    bound = DEFAULT_ENUMERATION_LIMIT if limit is None else _nonnegative(limit, "limit")
    if len(vs) > bound:
        raise ValueError(
            f"refusing to enumerate 3^{len(vs)} partial assignments "
            f"over {len(vs)} variables (limit {bound})"
        )
    return vs


def enumerate_partials(
    variables: Iterable[int], limit: int | None = None
) -> Iterator[frozenset[int]]:
    """Yield all 3^n partial assignments in ternary counting order.

    ``variables[0]`` is the least significant digit; digit values are
    unbound, positive, negative in that order.  Refuses variables that
    are not distinct positive integers, a negative ``limit``, and more
    than ``limit`` of them (``DEFAULT_ENUMERATION_LIMIT`` when None).
    """
    digits = ((0, v, -v) for v in reversed(_check_enumeration(variables, limit)))
    return (frozenset(filter(None, lits)) for lits in itertools.product(*digits))


def _refuse(form: str, text: str) -> ValueError:
    return ValueError(f"expected '{form}', got {text!r}")


def _integer(token: str, form: str, text: str) -> int:
    """``token`` of the spec ``text`` as an integer; a non-integer
    refuses the spec as not of ``form``."""
    try:
        return int(token)
    except ValueError:
        raise _refuse(form, text) from None


def _universe(n: int) -> range:
    return range(1, _nonnegative(n, "variable count") + 1)


def parse_constraint(text: str) -> Constraint:
    """Parse the constraint mini-language.

    Forms: ``atmost <k> of <n>``, ``table <n> <bits>``, ``cnf <path>``.
    Variables are 1..n.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty constraint spec")
    head = tokens[0]
    if head == "atmost":
        form = "atmost <k> of <n>"
        if len(tokens) != 4 or tokens[2] != "of":
            raise _refuse(form, text)
        k = _integer(tokens[1], form, text)
        n = _integer(tokens[3], form, text)
        return at_most_k(k, _universe(n))
    if head == "table":
        form = "table <n> <bits>"
        if len(tokens) != 3:
            raise _refuse(form, text)
        return truth_table(_universe(_integer(tokens[1], form, text)), tokens[2])
    if head == "cnf":
        if len(tokens) < 2:
            raise _refuse("cnf <path>", text)
        path = text.split(None, 1)[1]
        return cnf_constraint(parse_dimacs(Path(path).read_text()))
    raise ValueError(f"unknown constraint form {head!r}")


def pairwise_at_most_one(variables: Iterable[int]) -> CnfFormula:
    """The quadratic at-most-one encoding: one binary clause per pair."""
    return binomial_at_most_k(variables, 1)


def binomial_at_most_k(variables: Iterable[int], k: int) -> CnfFormula:
    """Forbid every (k+1)-subset from being all true."""
    vs = tuple(variables)
    k = _nonnegative(k, "k")
    clauses = [
        tuple(-v for v in combo) for combo in itertools.combinations(vs, k + 1)
    ]
    return CnfFormula(clauses, num_vars=max(vs, default=0))


def split_pair_at_most_one(variables: Iterable[int]) -> CnfFormula:
    """An at-most-one encoding that detects conflicts but never infers.

    Each pair gets a throwaway variable w and the two clauses
    (-a | -b | w) and (-a | -b | -w): with both a and b set the pair
    propagates w and -w, a contradiction, yet a single set variable
    leaves both clauses with two open literals, so nothing is forced.
    Useful as a worked example of conflict detection without arc
    consistency.
    """
    vs = tuple(variables)
    top = max(vs, default=0)
    aux = top + 1
    clauses: list[tuple[int, ...]] = []
    for a, b in itertools.combinations(vs, 2):
        clauses.append((-a, -b, aux))
        clauses.append((-a, -b, -aux))
        aux += 1
    return CnfFormula(clauses, num_vars=aux - 1 if clauses else top)
