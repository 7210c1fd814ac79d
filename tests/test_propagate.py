"""Fixpoint and staged unit propagation.

The running example is the three-clause formula
(a) & (~a | b | c) & (~c | ~d) under the partial assignment {~b, d},
which conflicts: a forces c (b is off), but d forbids c.
"""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import naive_stages, naive_unit_closure
from unitprop.cnf import CnfFormula, assignment, restrict
from unitprop.constraints import at_most_k, enumerate_partials, pairwise_at_most_one
from unitprop.propagate import (
    _extender,
    infers,
    propagate_fixpoint,
    propagate_staged,
    render_outcome,
    render_trace,
    stage_assignment,
    trace_records,
)
from unitprop.reductions import contra_to_prop
from unitprop.verify import is_upac

EXAMPLE = CnfFormula([(1,), (-1, 2, 3), (-3, -4)], num_vars=4)
EXAMPLE_BINDINGS = assignment([-2, 4])


def small_formulas(max_vars=5, max_clauses=8, max_len=4, min_len=1):
    def build(n):
        lit = st.builds(
            lambda sign, v: sign * v,
            st.sampled_from([1, -1]),
            st.integers(1, n),
        )
        clause = st.lists(lit, min_size=min_len, max_size=max_len).map(tuple)
        return st.lists(clause, min_size=0, max_size=max_clauses).map(
            lambda cs: CnfFormula(cs, num_vars=n)
        )

    return st.integers(1, max_vars).flatmap(build)


def partial_assignments(formula):
    signs = st.lists(
        st.sampled_from([0, 1, -1]),
        min_size=formula.num_vars,
        max_size=formula.num_vars,
    )
    return signs.map(
        lambda ss: frozenset(s * v for v, s in enumerate(ss, start=1) if s)
    )


class TestFixpoint:
    def test_chain_of_units(self):
        f = CnfFormula([(1,), (-1, 2)])
        out = propagate_fixpoint(f)
        assert not out.conflicted
        assert out.final == frozenset({1, 2})
        assert out.steps == ((1, 0), (2, 1))

    def test_nothing_to_do(self):
        out = propagate_fixpoint(CnfFormula([(1, 2)]))
        assert not out.conflicted
        assert out.final == frozenset()
        assert out.steps == ()

    def test_example_conflicts_under_bindings(self):
        out = propagate_fixpoint(restrict(EXAMPLE, EXAMPLE_BINDINGS))
        assert out.conflicted
        assert out.conflict_clause == 2
        assert out.steps == ((1, 0), (-2, 3), (4, 4), (3, 1))
        assert out.final == frozenset({1, -2, 3, 4})

    def test_seed_matches_restriction(self):
        seeded = propagate_fixpoint(EXAMPLE, assignment=EXAMPLE_BINDINGS)
        assert seeded.conflicted
        assert seeded.final >= EXAMPLE_BINDINGS

    def test_empty_clause_is_an_immediate_conflict(self):
        out = propagate_fixpoint(CnfFormula([(), (1,)], num_vars=1))
        assert out.conflicted
        assert out.conflict_clause == 0
        assert out.steps == ()

    def test_unit_clause_against_the_seed(self):
        out = propagate_fixpoint(CnfFormula([(1,)]), assignment=[-1])
        assert out.conflicted
        assert out.conflict_clause == 0
        assert out.steps == ((1, 0),)

    def test_clause_falsified_by_queued_seeds(self):
        out = propagate_fixpoint(CnfFormula([(-1, -2)]), assignment=[1, 2])
        assert out.conflicted
        assert out.conflict_clause == 0
        assert out.steps == ()

    def test_clause_falsified_before_its_counter_catches_up(self):
        # popping 1 makes both clauses look unit; clause 0 pushes 2 first,
        # so clause 1 finds no live literal although its counter says one
        f = CnfFormula([(-1, 2), (-1, -2)])
        out = propagate_fixpoint(f, assignment=[1])
        assert out.conflicted
        assert out.conflict_clause == 1
        assert out.steps == ((2, 0),)

    def test_seed_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            propagate_fixpoint(CnfFormula([(1,)]), assignment=[2])

    def test_contradictory_seed_rejected(self):
        with pytest.raises(ValueError):
            propagate_fixpoint(CnfFormula([(1,)]), assignment=[1, -1])


class TestStaged:
    def test_example_stage_by_stage(self):
        trace = propagate_staged(restrict(EXAMPLE, EXAMPLE_BINDINGS))
        assert trace.initial == frozenset()
        assert [s.inferred for s in trace.stages] == [
            ((1, 0), (-2, 3), (4, 4)),
            ((3, 1), (-3, 2)),
            ((-1, 1), (2, 1), (-4, 2)),
        ]
        assert stage_assignment(trace, 1) == frozenset({1, -2, 4})
        assert stage_assignment(trace, 2) == frozenset({1, -2, 4, 3, -3})
        assert trace.conflicted
        assert trace.conflict_stage == 2
        assert trace.saturated
        assert len(trace.stages) == 3

    def test_saturation_continues_past_the_conflict(self):
        # stage 3 still fires the two clauses that became fully falsified
        trace = propagate_staged(restrict(EXAMPLE, EXAMPLE_BINDINGS))
        last = trace.stages[-1]
        assert {lit for lit, _ in last.inferred} == {-1, 2, -4}

    def test_fully_falsified_clause_yields_all_its_literals(self):
        f = CnfFormula([(1, 2)])
        trace = propagate_staged(f, assignment=assignment([-1, -2]))
        assert trace.conflicted
        assert trace.conflict_stage == 1
        assert {lit for lit, _ in trace.stages[0].inferred} == {1, 2}

    def test_empty_clause_conflicts_at_stage_zero(self):
        trace = propagate_staged(CnfFormula([(), (1,)], num_vars=1))
        assert trace.conflicted
        assert trace.conflict_stage == 0
        # saturation still runs: the unit clause fires at stage 1
        assert stage_assignment(trace, 0) == frozenset()
        assert stage_assignment(trace, 1) == frozenset({1})

    def test_seeded_literals_are_not_stage_inferences(self):
        trace = propagate_staged(EXAMPLE, assignment=EXAMPLE_BINDINGS)
        assert trace.initial == EXAMPLE_BINDINGS
        for stage in trace.stages:
            assert not (
                {lit for lit, _ in stage.inferred} & EXAMPLE_BINDINGS
            )

    def test_max_stages_zero_gives_an_empty_trace(self):
        trace = propagate_staged(CnfFormula([(1,)]), max_stages=0)
        assert trace.stages == ()
        assert not trace.saturated
        assert not trace.conflicted

    def test_negative_max_stages_refused(self):
        with pytest.raises(ValueError, match="^max_stages must be nonnegative$"):
            propagate_staged(CnfFormula([(1,)]), max_stages=-1)

    def test_max_stages_truncates(self):
        trace = propagate_staged(restrict(EXAMPLE, EXAMPLE_BINDINGS), max_stages=1)
        assert len(trace.stages) == 1
        assert not trace.saturated

    def test_a_non_integer_seed_is_refused_not_truncated(self):
        # int(1.2) used to seed literal 1
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            propagate_staged(pairwise_at_most_one([1, 2]), [1.2])

    def test_a_non_integer_max_stages_is_refused(self):
        # 1.5 used to run as a cap between one and two rounds
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            propagate_staged(pairwise_at_most_one([1, 2]), [1], max_stages=1.5)

    def test_duplicate_candidates_keep_the_lowest_clause(self):
        # both clauses force 2 at stage 1; clause 0 wins the attribution
        f = CnfFormula([(-1, 2), (2, -1)], num_vars=2)
        trace = propagate_staged(f, assignment=assignment([1]))
        assert trace.stages[0].inferred == ((2, 0),)


class TestStageAssignment:
    def test_stage_zero_is_the_seed(self):
        trace = propagate_staged(EXAMPLE, assignment=EXAMPLE_BINDINGS)
        assert stage_assignment(trace, 0) == EXAMPLE_BINDINGS

    def test_known_set_grows_with_the_stage(self):
        trace = propagate_staged(restrict(EXAMPLE, EXAMPLE_BINDINGS))
        assert stage_assignment(trace, 0) == frozenset()
        assert stage_assignment(trace, 1) == frozenset({1, -2, 4})
        assert stage_assignment(trace, 2) == frozenset({1, -2, 4, 3, -3})

    def test_past_the_end_clamps_to_the_last_stage(self):
        trace = propagate_staged(restrict(EXAMPLE, EXAMPLE_BINDINGS))
        assert stage_assignment(trace, 99) == frozenset({1, -2, 4, 3, -3, -1, 2, -4})

    def test_negative_stage_rejected(self):
        trace = propagate_staged(CnfFormula([(1,)]))
        with pytest.raises(ValueError, match="^stage must be nonnegative$"):
            stage_assignment(trace, -1)

    def test_a_non_integer_stage_is_refused(self):
        # 1.5 used to reach the slice, which refused it in its own words
        trace = propagate_staged(CnfFormula([(1,)]))
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            stage_assignment(trace, 1.5)


class TestInfers:
    def test_yes(self):
        f = CnfFormula([(-1, 2)])
        assert infers(f, assignment([1]), 2) == "yes"

    def test_no(self):
        f = CnfFormula([(1, 2)])
        assert infers(f, frozenset(), 1) == "no"

    def test_conflict(self):
        assert infers(EXAMPLE, EXAMPLE_BINDINGS, 3) == "conflict"

    @pytest.mark.parametrize("literal", [99, 0])
    def test_a_literal_outside_the_formula_is_refused(self, literal):
        f = CnfFormula([(1,), (-1, 2)], num_vars=2)
        with pytest.raises(ValueError, match=f"literal {literal} outside universe 1..2"):
            infers(f, (), literal)

    def test_a_non_integer_literal_is_refused(self):
        # 1.5 lies between 1 and num_vars, and the answer used to be "no"
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            infers(pairwise_at_most_one([1, 2]), [1], 1.5)


class TestRendering:
    def test_outcome_lines(self):
        out = propagate_fixpoint(CnfFormula([(1,), (-1, 2)]))
        assert render_outcome(out) == (
            "FIXPOINT: 1 2\nINFER 1 clause=0\nINFER 2 clause=1"
        )

    def test_conflict_outcome(self):
        out = propagate_fixpoint(restrict(EXAMPLE, EXAMPLE_BINDINGS))
        lines = render_outcome(out).splitlines()
        assert lines[0] == "CONFLICT: clause=2"
        assert lines[1:] == [
            "INFER 1 clause=0",
            "INFER -2 clause=3",
            "INFER 4 clause=4",
            "INFER 3 clause=1",
        ]

    def test_trace_lines(self):
        trace = propagate_staged(restrict(EXAMPLE, EXAMPLE_BINDINGS))
        assert render_trace(trace).splitlines() == [
            "INITIAL",
            "STAGE 1: 1 -2 4",
            "STAGE 2: 3 -3",
            "STAGE 3: -1 2 -4",
            "CONFLICT: stage=2",
            "SATURATED stages=3",
        ]

    def test_trace_lines_with_names(self):
        trace = propagate_staged(restrict(EXAMPLE, EXAMPLE_BINDINGS))
        names = {1: "a", 2: "b", 3: "c", 4: "d"}
        text = render_trace(trace, names=names)
        assert "STAGE 1: a ~b d" in text

    def test_truncated_label(self):
        trace = propagate_staged(restrict(EXAMPLE, EXAMPLE_BINDINGS), max_stages=1)
        assert render_trace(trace).splitlines()[-1] == "TRUNCATED stages=1"

    def test_records(self):
        trace = propagate_staged(restrict(EXAMPLE, EXAMPLE_BINDINGS))
        assert list(trace_records(trace)) == [
            "1 0 1",
            "1 3 -2",
            "1 4 4",
            "2 1 3",
            "2 2 -3",
            "3 1 -1",
            "3 1 2",
            "3 2 -4",
        ]


class TestAgainstNaiveOracle:
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_both_engines_match_a_textbook_loop(self, data):
        formula = data.draw(small_formulas(min_len=0))
        part = data.draw(partial_assignments(formula))
        restricted = restrict(formula, part)
        conflict, closure = naive_unit_closure(restricted.clauses)

        out = propagate_fixpoint(restricted)
        assert out.conflicted == conflict
        if not conflict:
            assert out.final == frozenset(closure)

        trace = propagate_staged(restricted)
        assert trace.conflicted == conflict
        if not conflict:
            assert stage_assignment(trace, len(trace.stages)) == frozenset(closure)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_seeding_equals_restricting(self, data):
        formula = data.draw(small_formulas())
        part = data.draw(partial_assignments(formula))
        seeded = propagate_fixpoint(formula, assignment=part)
        restricted = propagate_fixpoint(restrict(formula, part))
        assert seeded.conflicted == restricted.conflicted
        if not seeded.conflicted:
            assert seeded.final == restricted.final

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_extending_a_closure_equals_propagating_from_scratch(self, data):
        formula = data.draw(small_formulas())
        part = data.draw(partial_assignments(formula))
        parent = propagate_fixpoint(formula, part)
        assume(not parent.conflicted)
        extend = _extender(formula)
        for v in formula.variables:
            if v in part or -v in part:
                continue
            for lit in (v, -v):
                extended = extend(parent.final, lit)
                conflict, closure = naive_unit_closure(formula.clauses, part | {lit})
                assert (extended is None) == conflict
                if not conflict:
                    assert extended == closure

    @pytest.mark.parametrize("simulated", [False, True], ids=["source", "simulation"])
    def test_extending_every_closure_of_the_example(self, simulated):
        # the simulation's ladders chain one inference after another
        formula = contra_to_prop(EXAMPLE).formula if simulated else EXAMPLE
        extend = _extender(formula)
        for part in enumerate_partials(EXAMPLE.variables):
            parent = propagate_fixpoint(formula, part)
            if parent.conflicted:
                continue
            for v in EXAMPLE.variables:
                if v in part or -v in part:
                    continue
                for lit in (v, -v):
                    extended = extend(parent.final, lit)
                    out = propagate_fixpoint(formula, part | {lit})
                    assert (extended is None) == out.conflicted
                    if not out.conflicted:
                        assert extended == out.final

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_staged_and_fixpoint_agree(self, data):
        formula = data.draw(small_formulas())
        part = data.draw(partial_assignments(formula))
        out = propagate_fixpoint(formula, assignment=part)
        trace = propagate_staged(formula, assignment=part)
        assert trace.conflicted == out.conflicted
        if not out.conflicted:
            assert stage_assignment(trace, len(trace.stages)) == out.final

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_staged_trace_matches_the_definition(self, data):
        formula = data.draw(small_formulas(min_len=0))
        part = data.draw(partial_assignments(formula))
        max_stages = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
        trace = propagate_staged(formula, part, max_stages)
        stages, conflict, conflict_stage, saturated = naive_stages(
            formula.clauses, part, max_stages
        )
        assert trace.initial == part
        assert [s.inferred for s in trace.stages] == [inf for inf, _ in stages]
        for m, (_, cumulative) in enumerate(stages, start=1):
            assert stage_assignment(trace, m) - trace.initial == cumulative
        last = stages[-1][1] if stages else frozenset()
        assert stage_assignment(trace, len(stages) + 1) == trace.initial | last
        assert trace.conflicted == conflict
        assert trace.conflict_stage == conflict_stage
        assert trace.saturated == saturated

    @settings(deadline=None, max_examples=80)
    @given(formula=small_formulas())
    def test_stages_grow_monotonically(self, formula):
        trace = propagate_staged(formula)
        previous = frozenset()
        for m, stage in enumerate(trace.stages, start=1):
            known = stage_assignment(trace, m)
            assert stage.inferred
            assert previous < known
            assert {lit for lit, _ in stage.inferred} <= known
            previous = known

    @settings(deadline=None, max_examples=80)
    @given(formula=small_formulas())
    def test_stage_count_is_bounded_without_conflict(self, formula):
        trace = propagate_staged(formula)
        if not trace.conflicted:
            assert len(trace.stages) <= formula.num_vars + 1
            assert trace.saturated

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_runs_are_deterministic(self, data):
        formula = data.draw(small_formulas())
        part = data.draw(partial_assignments(formula))
        assert propagate_staged(formula, assignment=part) == propagate_staged(
            formula, assignment=part
        )
        first = propagate_fixpoint(formula, assignment=part)
        second = propagate_fixpoint(formula, assignment=part)
        assert (first.conflicted, first.final, first.steps) == (
            second.conflicted,
            second.final,
            second.steps,
        )


# sha256 of every run below, recorded before the engines shared one
# compiled index; any change to an outcome, its step order or its
# conflict clause, or to a staged trace, changes it.
PINNED_RUNS_DIGEST = "4db5b88f330ee068394d9d22409723ddc1f683dd1be7365d8b562fedd00c624e"


def _pinned_formulas():
    rng = random.Random(20261018)
    formulas = []
    for _ in range(150):
        n = rng.randint(1, 4)
        clauses = [
            [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 3))]
            for _ in range(rng.randint(0, 6))
        ]
        formulas.append(CnfFormula(clauses, num_vars=n))
    return formulas


def test_seeded_and_restricted_runs_match_the_pinned_digest():
    formulas = _pinned_formulas()
    clauses = [c for f in formulas for c in f.clauses]
    assert any(not c for c in clauses)
    assert any(len(c) == 1 for c in clauses)
    assert any(-lit in c for c in clauses for lit in c)  # tautological
    digest = hashlib.sha256()
    for formula in formulas:
        for part in enumerate_partials(formula.variables):
            for f, seed in ((formula, part), (restrict(formula, part), ())):
                out = propagate_fixpoint(f, seed)
                trace = propagate_staged(f, seed)
                # sets are sorted so that the digest pins values, not
                # set iteration order
                fixpoint = (
                    "conflict" if out.conflicted else "fixpoint",
                    sorted(out.final),
                    out.conflict_clause,
                    out.steps,
                )
                staged = (
                    sorted(trace.initial),
                    [
                        (m, s.inferred, sorted(stage_assignment(trace, m) - trace.initial))
                        for m, s in enumerate(trace.stages, start=1)
                    ],
                    trace.conflicted,
                    trace.conflict_stage,
                    trace.saturated,
                )
                digest.update(repr((fixpoint, staged)).encode())
    assert digest.hexdigest() == PINNED_RUNS_DIGEST


def test_the_cost_follows_the_clauses_not_the_declared_universe():
    # a DIMACS header may declare any universe: two clauses under a
    # million declared variables must cost what two clauses cost, in the
    # engines, in a walk's extensions and in a whole is_upac sweep
    n = 10**6
    formula = CnfFormula([(1, 2), (-2, 3)], num_vars=n)
    tracemalloc.start()
    try:
        assert propagate_fixpoint(formula, [n, -1]).final == {n, -1, 2, 3}
        assert propagate_staged(formula, [-1]).stages[-1].inferred == ((3, 1),)
        extend = _extender(formula)
        assert extend(propagate_fixpoint(formula).final, -1) == {-1, 2, 3}
        # {1} forces -2 in at-most-one, and (1 | 2) infers nothing from 1
        verdict = is_upac(formula, at_most_k(1, [1, 2]))
        assert (verdict.checked, verdict.counterexample.literal) == (2, -2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
