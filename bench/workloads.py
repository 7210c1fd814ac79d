"""Benchmark workloads: seeded inputs, operations and pinned known answers.

Every call into the library goes through a module attribute
(``verify.is_upac``, ``cli.main``, ...) at call time, so the traced run
can rebind those names and see each call.

A workload's ``build(seed, toy)`` makes its inputs through library calls;
that is what ``setup_s`` times.  ``operations(inputs, seed)`` returns one
pass of operations in the order the runner times them.  Each operation
is a ``run`` callable plus an untimed ``check`` that compares the result
with a known answer and reports the (formula, assignment) pairs decided.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from unitprop import cli, cnf, constraints, propagate, reductions, verify

# The seed of tests/test_acceptance.py; with it the corpus generator
# reproduces the acceptance corpus exactly.
ACCEPTANCE_SEED = 20240817
# Formula and pair counts of the corpus.  Every seed gives the same
# counts: the seed picks which clauses are sampled, not how many.
CORPUS_FORMULAS = 1273
CORPUS_PAIRS = 57153

# The sizes are set so that one operation takes well under a second on
# a 2-core box.  Run-to-run drift in machine speed there is 10-20%, and
# only the median of many operations per run keeps the spread of a
# 25-second run below the metrics' bounds.  At n=6, n=9 and n=20 a run
# holds 3 to 20 operations, and the medians spread by 18-28%.
#
# Composed pairwise at-most-one over n=4 variables: 81 restrictions of a
# 758-clause formula.  Restriction (about 46%) and propagation with the
# index rebuild of each restricted copy (about 51%) do nearly all the
# work, and the oracle about 2%.
# The formula-keyed index cache holds every copy, so memory grows with
# the assignments swept.
N_COMPOSED = 4
# Bare pairwise at n=7 gives 2,187 assignments of a 21-clause formula.
# The brute-force falsifies oracle is the largest layer (about 45%), and
# restriction and propagation are cheap.
N_BARE = 7
# Composition of pairwise n=12 has 45,906 clauses (4.5 MB of DIMACS).
# Emit, parse, reduction building and CLI rendering do the work, and the
# staged run takes 26 rounds.  One pipeline takes about a second.
N_BIG = 12

# Toy sizes used by the benchmark's own tests.
TOY_COMPOSED = 3
TOY_BARE = 4
TOY_BIG = 4

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Outcome:
    """What the untimed check found for one operation."""

    errors: list[str]
    pairs: int  # (formula, assignment) pairs decided
    clauses: int  # clauses of the formulas the operation built or swept
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Operation:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


# ---------------------------------------------------------------------------
# Known answers


@dataclass(frozen=True)
class UpacAnswer:
    holds: bool
    checked: int
    assignment: frozenset[int] | None = None
    literal: int | None = None
    expected: str | None = None
    observed: str | None = None


# is_upac verdicts, keyed by workload and n.
UPAC_ANSWERS = {
    ("upac_composed", N_COMPOSED): UpacAnswer(True, 3**N_COMPOSED),
    ("upac_composed", TOY_COMPOSED): UpacAnswer(True, 3**TOY_COMPOSED),
    ("upac_bare", N_BARE): UpacAnswer(True, 3**N_BARE),
    ("upac_bare", TOY_BARE): UpacAnswer(True, 3**TOY_BARE),
}

# The split-pair encoding detects conflicts but infers nothing, so
# is_upac must stop at the second assignment, {1}, where -2 is forced
# but not inferred.  Guards early exit and first-counterexample order.
FAILS_CASE_ANSWER = UpacAnswer(
    False, 2, frozenset({1}), -2, expected="inferred", observed="absent"
)

# sha256 of the stdout of `propagate F --assign 1` and
# `trace F --staged --seed --assign 1` on the composition of pairwise
# at-most-one over 1..n, recorded when the benchmark was written.
CLI_SHA256 = {
    N_BIG: {
        "propagate": "71e2ad1044cfbaed8eae95a973e48a128ad5e8d52c663584dcb1dba7e65a5a88",
        "trace": "3bcf1b5cf425aa5ed4994a56bf77aa785ed8845111dcca0e46bd5842f2736311",
    },
    TOY_BIG: {
        "propagate": "3f3e4567a45eb00864544bf860ce8aa570bfb2fd51a22d3d1e3a1824c1f48669",
        "trace": "f6b85bed93715a41c6489f18f10c8323bcdd9962cdffc7cac713e25c89a0a9e9",
    },
}


def upac_mismatches(verdict: verify.Verdict, want: UpacAnswer) -> list[str]:
    """Differences between an is_upac verdict and its known answer."""
    ce = verdict.counterexample
    got = UpacAnswer(
        verdict.holds,
        verdict.checked,
        ce.assignment if ce else None,
        ce.literal if ce else None,
        ce.expected if ce else None,
        ce.observed if ce else None,
    )
    if got == want:
        return []
    return [f"verdict {got} != known answer {want}"]


def fails_case() -> list[str]:
    """Run the pinned FAILS case; return its mismatches."""
    q = constraints.at_most_k(1, [1, 2, 3])
    formula = constraints.split_pair_at_most_one([1, 2, 3])
    return upac_mismatches(verify.is_upac(formula, q), FAILS_CASE_ANSWER)


# ---------------------------------------------------------------------------
# upac_composed and upac_bare


@dataclass
class UpacInputs:
    formula: cnf.CnfFormula
    constraint: constraints.Constraint
    answer: UpacAnswer


class UpacWorkload:
    def __init__(self, name: str, composed: bool, n: int, toy_n: int):
        self.name, self.composed, self.n, self.toy_n = name, composed, n, toy_n

    def build(self, seed: int, toy: bool = False) -> UpacInputs:
        n = self.toy_n if toy else self.n
        variables = range(1, n + 1)
        formula = constraints.pairwise_at_most_one(variables)
        if self.composed:
            formula = reductions.compose_upac(formula).formula
        return UpacInputs(
            formula,
            constraints.at_most_k(1, variables),
            UPAC_ANSWERS[(self.name, n)],
        )

    def operations(self, inputs: UpacInputs, seed: int) -> list[Operation]:
        def run() -> verify.Verdict:
            return verify.is_upac(inputs.formula, inputs.constraint)

        def check(verdict: verify.Verdict) -> Outcome:
            errors = upac_mismatches(verdict, inputs.answer)
            return Outcome(errors, verdict.checked, len(inputs.formula))

        return [Operation(self.name, run, check)]


# ---------------------------------------------------------------------------
# corpus_stages


def build_corpus(seed: int = ACCEPTANCE_SEED) -> list[cnf.CnfFormula]:
    """The acceptance corpus: exhaustive small pools over one to three
    variables plus seeded samples and 500 random four-variable formulas.

    Makes exactly the calls of ``_build_corpus`` in
    tests/test_acceptance.py in the same order, so the acceptance seed
    gives the same formulas.
    """
    rng = random.Random(seed)
    CnfFormula = cnf.CnfFormula
    formulas = []

    pool1 = [(1,), (-1,), (1, -1)]
    for size in range(1, len(pool1) + 1):
        for subset in itertools.combinations(pool1, size):
            formulas.append(CnfFormula(subset, num_vars=1))

    pool2 = [
        (1,), (-1,), (2,), (-2,),
        (1, 2), (1, -2), (-1, 2), (-1, -2),
        (1, -1), (2, -2),
    ]
    for size in range(1, 4):
        for subset in itertools.combinations(pool2, size):
            formulas.append(CnfFormula(subset, num_vars=2))
    for _ in range(50):
        size = rng.randint(4, len(pool2))
        formulas.append(CnfFormula(rng.sample(pool2, size), num_vars=2))

    lits3 = (1, -1, 2, -2, 3, -3)
    pool3 = [
        clause
        for size in (1, 2, 3)
        for clause in itertools.combinations(lits3, size)
    ]
    for clause in pool3:
        formulas.append(CnfFormula([clause], num_vars=3))
    pairs = list(itertools.combinations(pool3, 2))
    for subset in rng.sample(pairs, 200):
        formulas.append(CnfFormula(subset, num_vars=3))
    triples = list(itertools.combinations(pool3, 3))
    for subset in rng.sample(triples, 200):
        formulas.append(CnfFormula(subset, num_vars=3))
    for _ in range(100):
        size = rng.randint(4, 6)
        formulas.append(CnfFormula(rng.sample(pool3, size), num_vars=3))

    for _ in range(500):
        clauses = []
        for _ in range(rng.randint(1, 8)):
            width = rng.randint(1, 4)
            clauses.append(
                tuple(
                    rng.choice((1, -1)) * rng.randint(1, 4)
                    for _ in range(width)
                )
            )
        formulas.append(CnfFormula(clauses, num_vars=4))

    pair_count = sum(3**f.num_vars for f in formulas)
    if (len(formulas), pair_count) != (CORPUS_FORMULAS, CORPUS_PAIRS):
        raise AssertionError(
            f"corpus has {len(formulas)} formulas and {pair_count} pairs, "
            f"expected {CORPUS_FORMULAS} and {CORPUS_PAIRS}"
        )
    return formulas


@dataclass
class CorpusInputs:
    sources: list[cnf.CnfFormula]
    simulations: list[reductions.ReductionOutput]


@dataclass
class SweepResult:
    pairs: int
    checked: int
    first_violation: frozenset[int] | None


def sweep_stages(
    source: cnf.CnfFormula, red: reductions.ReductionOutput
) -> SweepResult:
    """One source formula's full sweep: stage correspondence (criterion
    3) and the seeded conflict simulation (criterion 2) on every partial
    assignment."""
    output = red.map.output_var
    pairs = checked = 0
    first = None
    for part in constraints.enumerate_partials(source.variables):
        pairs += 1
        verdict = verify.check_stage_correspondence(source, part, reduction=red)
        checked += verdict.checked
        sim = propagate.propagate_fixpoint(red.formula, assignment=part)
        direct = propagate.propagate_fixpoint(source, assignment=part)
        bad = (
            not verdict.holds
            or sim.conflicted
            or (output in sim.final) != direct.conflicted
        )
        if bad and first is None:
            first = part
    return SweepResult(pairs, checked, first)


class CorpusWorkload:
    name = "corpus_stages"

    def build(self, seed: int, toy: bool = False) -> CorpusInputs:
        sources = build_corpus(seed)
        if toy:
            sources = [f for f in sources if f.num_vars == 1]
        return CorpusInputs(
            sources, [reductions.contra_to_prop(f) for f in sources]
        )

    def operations(self, inputs: CorpusInputs, seed: int) -> list[Operation]:
        # A seeded shuffle makes every prefix of the pass a fair sample of
        # the corpus, so a faster program that gets further in a run does
        # not shift the size mix of the formulas it is timed on.
        order = list(range(len(inputs.sources)))
        random.Random(seed).shuffle(order)
        return [self._operation(inputs, i) for i in order]

    @staticmethod
    def _operation(inputs: CorpusInputs, i: int) -> Operation:
        source, red = inputs.sources[i], inputs.simulations[i]
        n = source.num_vars
        want = SweepResult(3**n, 3**n * (n + 1) * 2 * n, None)

        def run() -> SweepResult:
            return sweep_stages(source, red)

        def check(got: SweepResult) -> Outcome:
            errors = [] if got == want else [f"formula {i}: {got} != {want}"]
            return Outcome(errors, got.pairs, len(source) + len(red.formula))

        return Operation(f"formula {i}", run, check)


# ---------------------------------------------------------------------------
# big_composition


@dataclass
class BigInputs:
    n: int
    source: cnf.CnfFormula
    path: Path


@dataclass
class PipelineResult:
    built: cnf.CnfFormula
    parsed: cnf.CnfFormula
    exit_codes: dict[str, int]
    stdout: dict[str, str]


def _literals(text: str) -> set[int]:
    return {int(tok) for tok in text.split()}


class BigWorkload:
    name = "big_composition"

    def build(self, seed: int, toy: bool = False) -> BigInputs:
        n = TOY_BIG if toy else N_BIG
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"big_composition_n{n}.cnf"
        return BigInputs(n, constraints.pairwise_at_most_one(range(1, n + 1)), path)

    def operations(self, inputs: BigInputs, seed: int) -> list[Operation]:
        path = str(inputs.path)
        commands = {
            "propagate": ["propagate", path, "--assign", "1"],
            "trace": ["trace", path, "--staged", "--seed", "--assign", "1"],
        }

        def run() -> PipelineResult:
            built = reductions.compose_upac(inputs.source).formula
            text = cnf.emit_dimacs(built)
            parsed = cnf.parse_dimacs(text)
            inputs.path.write_text(text)
            codes, outs = {}, {}
            for name, argv in commands.items():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    codes[name] = cli.main(argv)
                outs[name] = buf.getvalue()
            return PipelineResult(built, parsed, codes, outs)

        def check(got: PipelineResult) -> Outcome:
            errors = self._mismatches(inputs.n, got)
            stdout_bytes = sum(len(s.encode()) for s in got.stdout.values())
            return Outcome(
                errors, len(commands), len(got.built),
                {"cli.stdout_bytes": stdout_bytes},
            )

        return [Operation(self.name, run, check)]

    @staticmethod
    def _mismatches(n: int, got: PipelineResult) -> list[str]:
        errors = []
        if got.parsed != got.built:
            errors.append("parsed formula differs from the built one")
        for name, code in got.exit_codes.items():
            if code != 0:
                errors.append(f"{name} exited {code}")
        prop_lines = got.stdout["propagate"].splitlines()
        trace_lines = got.stdout["trace"].splitlines()
        if not prop_lines or not prop_lines[0].startswith("FIXPOINT:"):
            errors.append("propagate did not reach a conflict-free fixpoint")
            return errors
        closure = _literals(prop_lines[0].removeprefix("FIXPOINT:"))
        want = {1} | {-v for v in range(2, n + 1)}
        over_source = {lit for lit in closure if abs(lit) <= n}
        if over_source != want:
            errors.append(f"fixpoint over 1..{n} is {sorted(over_source)}")
        staged: set[int] = set()
        for line in trace_lines:
            if line.startswith("INITIAL"):
                staged |= _literals(line.removeprefix("INITIAL"))
            elif line.startswith("STAGE"):
                staged |= _literals(line.split(":", 1)[1])
            elif line.startswith("CONFLICT"):
                errors.append("staged run reports a conflict")
        if staged != closure:
            errors.append("staged closure differs from the fixpoint closure")
        for name, text in got.stdout.items():
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest != CLI_SHA256[n][name]:
                errors.append(f"{name} stdout sha256 {digest}")
        return errors


WORKLOADS = {
    "upac_composed": UpacWorkload("upac_composed", True, N_COMPOSED, TOY_COMPOSED),
    "upac_bare": UpacWorkload("upac_bare", False, N_BARE, TOY_BARE),
    "corpus_stages": CorpusWorkload(),
    "big_composition": BigWorkload(),
}
