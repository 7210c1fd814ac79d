"""Command-line front end.

Subcommands mirror the library: propagate and trace run the engines on a
DIMACS file, reduce-c2p / reduce-p2c / compose-upac build the derived
formulas, and verify-upi / verify-upac / verify-hm sweep assignments and
report verdicts.  Exit status: 0 success or HOLDS, 1 conflict or FAILS,
2 usage, parse, or domain errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .cnf import CnfFormula, assignment, emit_dimacs, parse_dimacs, restrict
from .constraints import enumerate_partials, parse_constraint
from .propagate import (
    propagate_fixpoint,
    propagate_staged,
    render_outcome,
    render_trace,
    trace_records,
)
from .reductions import compose_upac, contra_to_prop, prop_to_contra, render_simulation_map
from .verify import (
    check_stage_correspondence,
    is_upac,
    is_upi,
    render_verdict,
    sweep,
)


def _read_formula(path: str) -> CnfFormula:
    return parse_dimacs(Path(path).read_text())


def _parse_ints(text: str, what: str, expected: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split()]
    except ValueError:
        raise ValueError(f"bad {what} syntax {text!r}: expected {expected} integers")


def _parse_assign(text: str | None) -> frozenset[int]:
    if not text:
        return frozenset()
    return assignment(_parse_ints(text, "assignment", "signed"))


def _write_or_print(formula: CnfFormula, output: str | None, *summary: str) -> None:
    """Write DIMACS to the output path and print the summary lines, or
    print only the DIMACS when no path is given: stdout then holds the
    formula alone."""
    text = emit_dimacs(formula)
    if not output:
        print(text, end="")
        return
    Path(output).write_text(text)
    for line in summary:
        print(line)


def _formula_and_seed(args: argparse.Namespace) -> tuple[CnfFormula, frozenset[int]]:
    """The formula and seed for one engine run: the assignment is appended
    as unit clauses unless ``--seed`` asks to seed it directly."""
    formula = _read_formula(args.cnf)
    assn = _parse_assign(args.assign)
    if args.seed:
        return formula, assn
    return restrict(formula, assn), frozenset()


def _cmd_propagate(args: argparse.Namespace) -> int:
    outcome = propagate_fixpoint(*_formula_and_seed(args))
    print(render_outcome(outcome))
    return 1 if outcome.conflicted else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if not args.staged:
        if args.records or args.max_stages is not None:
            flag = "--records" if args.records else "--max-stages"
            raise ValueError(f"{flag} requires --staged")
        # a trace only reports, so a conflict still exits 0
        _cmd_propagate(args)
        return 0
    trace = propagate_staged(*_formula_and_seed(args), max_stages=args.max_stages)
    if args.records:
        for record in trace_records(trace):
            print(f"RECORD {record}")
    else:
        print(render_trace(trace))
    return 0


def _cmd_reduce_c2p(args: argparse.Namespace) -> int:
    source = _read_formula(args.cnf)
    red = contra_to_prop(source, first_aux=args.first_aux)
    if args.map:
        Path(args.map).write_text(render_simulation_map(red.map))
    counts = ",".join(f"{k}:{v}" for k, v in asdict(red.family_counts).items())
    _write_or_print(
        red.formula,
        args.output,
        f"REDUCED clauses={len(source.clauses)}->{len(red.formula.clauses)}"
        f" vars={source.num_vars}->{red.formula.num_vars}"
        f" output={red.map.output_var}"
        f" counts={counts}",
    )
    return 0


def _cmd_reduce_p2c(args: argparse.Namespace) -> int:
    source = _read_formula(args.cnf)
    result = prop_to_contra(source, args.omega)
    _write_or_print(
        result,
        args.output,
        f"REDUCED clauses={len(source.clauses)}->{len(result.clauses)}"
        f" appended-unit={-args.omega}",
    )
    return 0


def _cmd_compose_upac(args: argparse.Namespace) -> int:
    source = _read_formula(args.cnf)
    variables = _parse_ints(args.vars, "variable list", "positive") if args.vars else None
    composition = compose_upac(source, variables)
    _write_or_print(
        composition.formula,
        args.output,
        f"COMPOSED blocks={len(composition.blocks)}"
        f" clauses={len(composition.formula.clauses)}"
        f" vars={composition.formula.num_vars}",
        *(f"OUTPUT {block.literal} {block.output_var}" for block in composition.blocks),
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    formula = _read_formula(args.cnf)
    q = parse_constraint(args.constraint)
    verdict = args.checker(formula, q, limit=args.limit)
    print(render_verdict(verdict))
    return 0 if verdict.holds else 1


def _cmd_verify_hm(args: argparse.Namespace) -> int:
    if not args.all and args.limit is not None:
        raise ValueError("--limit requires --all")
    formula = _read_formula(args.cnf)
    if args.all:
        partials = enumerate_partials(formula.variables, args.limit)
        reduction = contra_to_prop(formula)
        verdict = sweep(partials, lambda I: check_stage_correspondence(formula, I, reduction))
    else:
        verdict = check_stage_correspondence(formula, _parse_assign(args.assign))
    print(render_verdict(verdict))
    return 0 if verdict.holds else 1


# Options that several subcommands take, each defined once: the key
# holds the flags, the value the add_argument options.
_SHARED_ARGUMENTS = {
    "--assign": dict(
        default="",
        metavar="LITS",
        help="partial assignment as DIMACS literals, e.g. \"-2 4\"",
    ),
    "--seed": dict(
        action="store_true",
        help="seed the assignment directly instead of appending unit clauses",
    ),
    "-o --output": dict(metavar="FILE", help="write DIMACS here instead of stdout"),
    "--limit": dict(type=int, default=None, metavar="N", help="enumeration guard override"),
}


def _add_shared(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(*name.split(), **_SHARED_ARGUMENTS[name])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitprop",
        description="Unit propagation engines, reductions, and verifiers over DIMACS CNF.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, summary: str, func, **defaults) -> argparse.ArgumentParser:
        """Every subcommand reads the DIMACS file ``cnf``."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("cnf", help="DIMACS CNF file")
        p.set_defaults(func=func, **defaults)
        return p

    p = add_command("propagate", "run propagation to fixpoint or conflict", _cmd_propagate)
    _add_shared(p, "--assign", "--seed")

    p = add_command("trace", "print a propagation trace table", _cmd_trace)
    _add_shared(p, "--assign")
    p.add_argument("--staged", action="store_true", help="round-by-round table")
    _add_shared(p, "--seed")
    p.add_argument(
        "--records",
        action="store_true",
        help="machine-readable lines: RECORD <stage> <clause> <literal>",
    )
    p.add_argument("--max-stages", type=int, default=None, metavar="N")

    p = add_command(
        "reduce-c2p",
        "build the propagation simulation of a conflict-detecting formula",
        _cmd_reduce_c2p,
    )
    _add_shared(p, "-o --output")
    p.add_argument("--map", metavar="FILE", help="write the literal/level side map here")
    p.add_argument("--first-aux", type=int, default=None, metavar="VAR")

    p = add_command(
        "reduce-p2c",
        "append the negated output literal as a unit clause",
        _cmd_reduce_p2c,
    )
    p.add_argument("--omega", type=int, required=True, metavar="LIT", help="output literal")
    _add_shared(p, "-o --output")

    p = add_command(
        "compose-upac",
        "conjoin per-literal simulations and guards onto an encoding",
        _cmd_compose_upac,
    )
    p.add_argument(
        "--vars",
        default="",
        metavar="VARS",
        help="constraint variables, e.g. \"1 2 3\" (default: whole universe)",
    )
    _add_shared(p, "-o --output")

    for name, summary, checker in (
        ("verify-upi", "check conflict-exactness against a constraint", is_upi),
        ("verify-upac", "check conflicts plus forced-literal inference", is_upac),
    ):
        p = add_command(name, summary, _cmd_verify, checker=checker)
        p.add_argument(
            "--constraint",
            required=True,
            metavar="SPEC",
            help="'atmost <k> of <n>', 'table <n> <bits>', or 'cnf <path>'",
        )
        _add_shared(p, "--limit")

    p = add_command(
        "verify-hm",
        "check stage correspondence with the built simulation",
        _cmd_verify_hm,
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--assign", default=None, metavar="LITS")
    group.add_argument("--all", action="store_true", help="sweep every partial assignment")
    _add_shared(p, "--limit")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
