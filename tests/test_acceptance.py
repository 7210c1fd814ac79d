"""Acceptance gate: seven end-to-end checks over a fixed formula corpus.

Each test prints a one-line PASS/FAIL summary (visible with -rA or on
failure).  The corpus is deterministic: exhaustive small pools for one
to three variables plus 500 seeded random formulas over four variables.
"""

import itertools
import random
import time

import pytest

from oracles import digit_weights, scan_forced, table_disagreements
from unitprop.cnf import CnfFormula, assignment, restrict
from unitprop.constraints import (
    _consistency_table,
    arc_fn,
    at_most_k,
    binomial_at_most_k,
    cnf_constraint,
    enumerate_partials,
    falsifies,
    pairwise_at_most_one,
    split_pair_at_most_one,
    truth_table,
)
from unitprop.propagate import propagate_fixpoint, propagate_staged, stage_assignment
from unitprop.reductions import compose_upac, contra_to_prop, prop_to_contra
from unitprop.verify import check_size_bound, check_stage_correspondence, is_upac

SEED = 20240817

EXAMPLE = CnfFormula([(1,), (-1, 2, 3), (-3, -4)], num_vars=4)
EXAMPLE_BINDINGS = assignment([-2, 4])


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _build_corpus():
    rng = random.Random(SEED)
    formulas = []

    # one variable: every nonempty subset of the three possible clauses
    pool1 = [(1,), (-1,), (1, -1)]
    for size in range(1, len(pool1) + 1):
        for subset in itertools.combinations(pool1, size):
            formulas.append(CnfFormula(subset, num_vars=1))

    # two variables: all subsets of up to three clauses, then a sample
    # of larger subsets
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

    # three variables: every clause of size <= 3 with distinct literals,
    # singles exhaustively, pairs/triples/larger sampled
    lits3 = (1, -1, 2, -2, 3, -3)
    pool3 = [
        clause
        for size in (1, 2, 3)
        for clause in itertools.combinations(lits3, size)
    ]
    assert len(pool3) == 41
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

    # four variables: 500 random formulas
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

    return formulas


@pytest.fixture(scope="module")
def corpus():
    return _build_corpus()


@pytest.fixture(scope="module")
def reductions(corpus):
    return [contra_to_prop(f) for f in corpus]


def test_criterion_1_golden_trace():
    started = time.perf_counter()

    source_trace = propagate_staged(restrict(EXAMPLE, EXAMPLE_BINDINGS))
    stage1 = {lit for lit, _ in source_trace.stages[0].inferred}
    stage2 = {lit for lit, _ in source_trace.stages[1].inferred}
    assert stage1 == {1, -2, 4}
    assert {3, -3} <= stage2
    assert source_trace.conflicted and source_trace.conflict_stage == 2

    out = contra_to_prop(EXAMPLE)
    x = out.map.aux
    sim_trace = propagate_staged(out.formula, assignment=EXAMPLE_BINDINGS)
    sim1 = {lit for lit, _ in sim_trace.stages[0].inferred}
    sim2 = {lit for lit, _ in sim_trace.stages[1].inferred}
    assert sim1 == {x(1, 1), x(-2, 1), x(4, 1)}
    assert {x(3, 2), x(-3, 2)} <= sim2
    output = out.map.output_var
    assert output in stage_assignment(sim_trace, 6)
    assert output not in stage_assignment(sim_trace, 5)
    assert not sim_trace.conflicted

    elapsed = time.perf_counter() - started
    assert _report(1, elapsed < 1.0, f"exact stage match, {elapsed:.3f}s")


def test_criterion_2_conflict_simulation_end_to_end(corpus, reductions):
    started = time.perf_counter()
    pairs = 0
    violations = 0
    for source, out in zip(corpus, reductions):
        output = out.map.output_var
        for part in enumerate_partials(source.variables):
            pairs += 1
            sim = propagate_fixpoint(out.formula, assignment=part)
            direct = propagate_fixpoint(source, assignment=part)
            if sim.conflicted:
                violations += 1
            elif (output in sim.final) != direct.conflicted:
                violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 300.0
    assert _report(
        2,
        ok,
        f"{pairs} (formula, assignment) pairs, "
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_criterion_3_stage_correspondence(corpus, reductions):
    started = time.perf_counter()
    pairs = 0
    violations = 0
    for source, out in zip(corpus, reductions):
        for part in enumerate_partials(source.variables):
            pairs += 1
            verdict = check_stage_correspondence(source, part, reduction=out)
            if not verdict.holds:
                violations += 1
    elapsed = time.perf_counter() - started
    assert _report(
        3,
        violations == 0,
        f"{pairs} pairs at every stage, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_4_size_bounds(corpus, reductions):
    worst = 0.0
    witness = None
    for source, out in zip(corpus, reductions):
        n = source.num_vars
        counts = out.family_counts
        assert counts.injection == 2 * n
        assert counts.replication == 2 * n * n
        assert counts.deduction == n * sum(
            len(c) for c in source.clauses if len(c) >= 2
        )
        assert counts.unit == len({c[0] for c in source.clauses if len(c) == 1})
        assert counts.collection == n
        assert check_size_bound(out).holds

        ratio = out.formula.size() / (n * n * source.size())
        if ratio > worst:
            worst, witness = ratio, source

        grown = prop_to_contra(out.formula, out.map.output_var)
        assert grown.size() == out.formula.size() + 1

    assert worst <= 12.0
    assert witness == CnfFormula([(1,)], num_vars=1)
    assert _report(
        4,
        True,
        f"closed forms exact on {len(corpus)} formulas; measured "
        f"constant K = {worst:.0f} (witness: single unit clause, one "
        f"variable); appending the negated output adds exactly 1",
    )


def test_criterion_5_composition_is_arc_consistent():
    pairwise = compose_upac(pairwise_at_most_one([1, 2, 3]))
    verdict3 = is_upac(pairwise.formula, at_most_k(1, [1, 2, 3]))
    assert verdict3.holds and verdict3.checked == 27

    binomial = compose_upac(binomial_at_most_k([1, 2, 3, 4], 2))
    verdict4 = is_upac(binomial.formula, at_most_k(2, [1, 2, 3, 4]))
    assert verdict4.holds and verdict4.checked == 81
    assert _report(
        5,
        True,
        "composed pairwise (27 sweeps) and binomial (81 sweeps) encodings "
        "restore every forced literal",
    )


def test_criterion_5_mutation_deleting_any_guard_is_detected():
    """Delete each guard clause in turn and require the checker to fail.

    This is the stated control, asserted faithfully.  It cannot pass for
    these bases: both encodings already restore every forced literal by
    themselves, so every guard is redundant and its deletion is
    undetectable by any behavioral check.  The companion test below
    shows the control working on a base where the guards do carry the
    forcing.  See the README design notes.
    """
    surviving = []
    for base, q in [
        (pairwise_at_most_one([1, 2, 3]), at_most_k(1, [1, 2, 3])),
        (binomial_at_most_k([1, 2, 3, 4], 2), at_most_k(2, [1, 2, 3, 4])),
    ]:
        comp = compose_upac(base)
        for block in comp.blocks:
            mutated = CnfFormula(
                comp.formula.clauses[: block.guard_index]
                + comp.formula.clauses[block.guard_index + 1 :],
                num_vars=comp.formula.num_vars,
            )
            verdict = is_upac(mutated, q)
            if verdict.holds:
                surviving.append((q.label, block.literal))
    ok = not surviving
    _report(
        5,
        ok,
        f"mutation control: {len(surviving)} of 14 guard deletions "
        "left the checker satisfied",
    )
    assert ok, (
        "every guard deletion went undetected: the pairwise and binomial "
        "bases are already arc-consistent on their own, so their guards "
        "are redundant; the split-pair control below demonstrates the "
        f"failure mode instead (surviving deletions: {surviving})"
    )


def test_criterion_5_mutation_control_on_a_base_that_needs_guards():
    """The same control on an encoding whose forcing lives in the guards.

    The split-pair encoding detects every inconsistency but never infers
    forced literals, so the composed guards for negative literals are
    load-bearing and their deletion must be caught.
    """
    q = at_most_k(1, [1, 2])
    comp = compose_upac(split_pair_at_most_one([1, 2]), variables=[1, 2])
    assert is_upac(comp.formula, q).holds

    caught = []
    for literal in (1, 2):
        block = comp.block_for(literal)
        mutated = CnfFormula(
            comp.formula.clauses[: block.guard_index]
            + comp.formula.clauses[block.guard_index + 1 :],
            num_vars=comp.formula.num_vars,
        )
        verdict = is_upac(mutated, q)
        assert not verdict.holds
        assert verdict.counterexample is not None
        caught.append(
            (literal, verdict.counterexample.assignment,
             verdict.counterexample.literal)
        )
    assert caught == [
        (1, frozenset({2}), -1),
        (2, frozenset({1}), -2),
    ]
    assert _report(
        5,
        True,
        "deleting either forcing guard of the split-pair composition is "
        "caught with a concrete counterexample",
    )


def test_criterion_6_engines_agree(corpus):
    started = time.perf_counter()
    pairs = 0
    violations = 0
    for source in corpus:
        for part in enumerate_partials(source.variables):
            pairs += 1
            restricted = restrict(source, part)
            out = propagate_fixpoint(restricted)
            trace = propagate_staged(restricted)
            if out.conflicted != trace.conflicted:
                violations += 1
                continue
            if not out.conflicted:
                if stage_assignment(trace, len(trace.stages)) != out.final:
                    violations += 1
    elapsed = time.perf_counter() - started
    assert _report(
        6,
        violations == 0,
        f"both engines agree on {pairs} restricted formulas, {elapsed:.1f}s",
    )


def _builtin_constraints():
    for n in range(1, 5):
        for k in range(0, n + 1):
            yield at_most_k(k, range(1, n + 1))
    for bits in itertools.product("01", repeat=4):
        yield truth_table([1, 2], "".join(bits))
    yield truth_table([1], "01")
    yield truth_table([1], "10")
    yield truth_table([1, 2, 3], "01101001")  # odd parity
    yield truth_table([1, 2, 3], "00010111")  # majority
    yield truth_table([1, 2, 3, 4], "0110100110010110")  # parity, 4 vars
    yield cnf_constraint(pairwise_at_most_one([1, 2]))
    yield cnf_constraint(pairwise_at_most_one([1, 2, 3]))
    yield cnf_constraint(split_pair_at_most_one([1, 2]))
    yield cnf_constraint(binomial_at_most_k([1, 2, 3, 4], 2))
    yield cnf_constraint(EXAMPLE)
    yield cnf_constraint(CnfFormula([(1, -1)], num_vars=1))


def test_criterion_7_arc_oracle_matches_the_direct_scan():
    checked = 0
    constraints = 0
    for q in _builtin_constraints():
        constraints += 1
        assert len(q.variables) <= 4
        for part in enumerate_partials(q.variables):
            if falsifies(q, part):
                continue
            for v in q.variables:
                for lit in (v, -v):
                    got = arc_fn(q, lit).evaluate(part)
                    want = scan_forced(q.sat, q.variables, part, lit)
                    assert got == want, (q.label, part, lit)
                    checked += 1
    assert checked > 0
    assert _report(
        7,
        True,
        f"{constraints} constraints, {checked} (assignment, literal) "
        "checks against the enumeration oracle",
    )


def test_criterion_7_consistency_table_matches_the_direct_scans():
    # the table that the sweeps read in place of falsifies and the arc oracle
    for q in _builtin_constraints():
        weight = digit_weights(q.variables)
        table = _consistency_table(q)
        for part in enumerate_partials(q.variables):
            assert (not table[sum(weight[lit] for lit in part)]) == falsifies(q, part)
        assert table_disagreements(q, table) == [], q.label
