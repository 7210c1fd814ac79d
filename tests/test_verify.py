"""Exhaustive verdicts: the brute-force checkers and their renderings."""

import dataclasses
import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    restricting_by_contradiction,
    restricting_by_propagation,
    restricting_upac,
    restricting_upi,
    seeded_against_table,
)
from unitprop import propagate, verify
from unitprop.cnf import CnfFormula, assignment, restrict
from unitprop.constraints import (
    DEFAULT_ENUMERATION_LIMIT,
    arc_fn,
    at_most_k,
    binomial_at_most_k,
    enumerate_partials,
    inconsistency_fn,
    pairwise_at_most_one,
    split_pair_at_most_one,
    truth_table,
)
from unitprop.propagate import propagate_fixpoint
from unitprop.reductions import (
    FamilyCounts,
    ReductionOutput,
    compose_upac,
    contra_to_prop,
    prop_to_contra,
)
from unitprop.verify import (
    SIZE_BOUND_FACTOR,
    Verdict,
    check_size_bound,
    check_stage_correspondence,
    computes_by_contradiction,
    computes_by_propagation,
    contradiction_fn,
    is_upac,
    is_upi,
    render_verdict,
    sweep,
)

EXAMPLE = CnfFormula([(1,), (-1, 2, 3), (-3, -4)], num_vars=4)
AMO3 = at_most_k(1, [1, 2, 3])


def _counting(q):
    """``q`` with a ``sat`` that records each call, and the record."""
    calls = []
    return dataclasses.replace(q, sat=lambda c: calls.append(c) or q.sat(c)), calls


def _by_contradiction(formula, q):
    return computes_by_contradiction(formula, inconsistency_fn(q))


def _by_propagation(formula, q):
    return computes_by_propagation(formula, arc_fn(q, 1), 1)


# every sweep of a formula over a constraint's partial assignments
FORMULA_SWEEPS = pytest.mark.parametrize(
    "checker",
    [is_upi, is_upac, _by_contradiction, _by_propagation],
    ids=["is_upi", "is_upac", "computes_by_contradiction", "computes_by_propagation"],
)


def small_formulas(max_vars=3, max_clauses=4, max_len=3):
    def build(n):
        lit = st.builds(
            lambda sign, v: sign * v,
            st.sampled_from([1, -1]),
            st.integers(1, n),
        )
        clause = st.lists(lit, min_size=1, max_size=max_len).map(tuple)
        return st.lists(clause, min_size=0, max_size=max_clauses).map(
            lambda cs: CnfFormula(cs, num_vars=n)
        )

    return st.integers(1, max_vars).flatmap(build)


class TestComputesByContradiction:
    def test_pairwise_encoding_computes_inconsistency(self):
        verdict = computes_by_contradiction(
            pairwise_at_most_one([1, 2, 3]), inconsistency_fn(AMO3)
        )
        assert verdict.holds
        assert verdict.checked == 27

    def test_wrong_formula_yields_the_first_counterexample(self):
        verdict = computes_by_contradiction(
            CnfFormula([(1,)], num_vars=3), inconsistency_fn(AMO3)
        )
        assert not verdict.holds
        assert verdict.checked == 3
        cex = verdict.counterexample
        assert cex.assignment == frozenset({-1})
        assert cex.expected == "no-conflict"
        assert cex.observed == "conflict"


class TestComputesByPropagation:
    def test_implication_formula(self):
        from unitprop.constraints import MatchingFunction

        f = MatchingFunction(
            variables=(1,),
            in_domain=lambda I: True,
            evaluate=lambda I: 1 in I,
        )
        verdict = computes_by_propagation(CnfFormula([(-1, 2)], num_vars=2), f, 2)
        assert verdict.holds
        assert verdict.checked == 3

    def test_conflicting_formula_fails(self):
        from unitprop.constraints import MatchingFunction

        f = MatchingFunction(
            variables=(1,),
            in_domain=lambda I: True,
            evaluate=lambda I: False,
        )
        verdict = computes_by_propagation(
            CnfFormula([(1,), (-1,)], num_vars=1), f, 1
        )
        assert not verdict.holds
        assert verdict.counterexample.expected == "no-conflict"
        assert verdict.counterexample.observed == "conflict"

    def test_ladder_computes_source_contradiction(self):
        out = contra_to_prop(EXAMPLE)
        verdict = computes_by_propagation(
            out.formula, contradiction_fn(EXAMPLE), out.map.output_var
        )
        assert verdict.holds
        assert verdict.checked == 81

    def test_assignments_outside_the_domain_are_not_counted(self):
        # the 7 of the 27 assignments that falsify AMO3 are outside
        # arc_fn's domain
        verdict = computes_by_propagation(
            pairwise_at_most_one([1, 2, 3]), arc_fn(AMO3, -1), -1
        )
        assert verdict == Verdict(20)

    def test_an_output_literal_outside_the_formula_is_refused(self):
        # the sweep used to report literal 9 "absent" at v1=1, checked=2
        fn = arc_fn(at_most_k(1, [1, 2]), -2)
        with pytest.raises(ValueError, match=r"literal 9 outside universe 1\.\.2"):
            computes_by_propagation(pairwise_at_most_one([1, 2]), fn, 9)

    def test_a_non_integer_output_literal_is_refused(self):
        # the sweep used to report literal 1.5 "absent" at {1}, checked=2
        fn = arc_fn(at_most_k(1, [1, 2]), -2)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            computes_by_propagation(pairwise_at_most_one([1, 2]), fn, 1.5)


class TestUpi:
    def test_pairwise_holds(self):
        verdict = is_upi(pairwise_at_most_one([1, 2, 3]), AMO3)
        assert verdict.holds
        assert verdict.checked == 27

    def test_split_pair_holds(self):
        amo2 = at_most_k(1, [1, 2])
        verdict = is_upi(split_pair_at_most_one([1, 2]), amo2)
        assert verdict.holds
        assert verdict.checked == 9

    def test_dropping_a_clause_breaks_it(self):
        mutated = CnfFormula(
            pairwise_at_most_one([1, 2, 3]).clauses[1:], num_vars=3
        )
        verdict = is_upi(mutated, AMO3)
        assert not verdict.holds
        assert verdict.checked == 5
        cex = verdict.counterexample
        assert cex.assignment == frozenset({1, 2})
        assert cex.expected == "conflict"
        assert cex.observed == "no-conflict"


class TestUpac:
    def test_pairwise_holds(self):
        verdict = is_upac(pairwise_at_most_one([1, 2, 3]), AMO3)
        assert verdict.holds
        assert verdict.checked == 27

    def test_split_pair_is_upi_but_not_upac(self):
        amo2 = at_most_k(1, [1, 2])
        verdict = is_upac(split_pair_at_most_one([1, 2]), amo2)
        assert not verdict.holds
        assert verdict.checked == 2
        cex = verdict.counterexample
        assert cex.assignment == frozenset({1})
        assert cex.literal == -2
        assert cex.expected == "inferred"
        assert cex.observed == "absent"

    def test_composition_repairs_the_split_pair(self):
        amo2 = at_most_k(1, [1, 2])
        comp = compose_upac(split_pair_at_most_one([1, 2]), variables=[1, 2])
        verdict = is_upac(comp.formula, amo2)
        assert verdict.holds
        assert verdict.checked == 9

    def test_deleting_a_forcing_guard_breaks_the_composition(self):
        amo2 = at_most_k(1, [1, 2])
        comp = compose_upac(split_pair_at_most_one([1, 2]), variables=[1, 2])
        block = comp.block_for(2)
        mutated = CnfFormula(
            comp.formula.clauses[: block.guard_index]
            + comp.formula.clauses[block.guard_index + 1 :],
            num_vars=comp.formula.num_vars,
        )
        verdict = is_upac(mutated, amo2)
        assert not verdict.holds
        assert verdict.checked == 2
        cex = verdict.counterexample
        assert cex.assignment == frozenset({1})
        assert cex.literal == -2
        assert cex.observed == "absent"

    def test_deleting_a_vacuous_guard_changes_nothing(self):
        # at-most-one never forces a positive literal, so the guards for
        # negative literals can never fire; removing one is undetectable
        amo2 = at_most_k(1, [1, 2])
        comp = compose_upac(split_pair_at_most_one([1, 2]), variables=[1, 2])
        block = comp.block_for(-2)
        mutated = CnfFormula(
            comp.formula.clauses[: block.guard_index]
            + comp.formula.clauses[block.guard_index + 1 :],
            num_vars=comp.formula.num_vars,
        )
        assert is_upac(mutated, amo2).holds

    @pytest.mark.parametrize("checker", [is_upi, is_upac], ids=["is_upi", "is_upac"])
    def test_sat_runs_once_per_complete_assignment(self, checker):
        q, calls = _counting(at_most_k(1, range(1, 6)))
        verdict = checker(pairwise_at_most_one(range(1, 6)), q)
        assert verdict.holds and verdict.checked == 3 ** 5
        assert len(calls) <= 2 ** 5

    def test_one_table_past_the_default_limit(self):
        # one 2^13 table for the sweep, not one 2^k scan per assignment
        n = DEFAULT_ENUMERATION_LIMIT + 1
        q, calls = _counting(at_most_k(1, range(1, n + 1)))
        pairwise = pairwise_at_most_one(range(1, n + 1))
        formula = CnfFormula(pairwise.clauses[1:], num_vars=n)
        verdict = is_upi(formula, q, limit=n)
        assert _outcome(verdict) == (
            False, 5, (frozenset({1, 2}), "conflict", "no-conflict", None)
        )
        assert len(calls) <= 2 ** n

    @FORMULA_SWEEPS
    def test_an_over_limit_sweep_is_refused_before_the_table(self, checker):
        n = DEFAULT_ENUMERATION_LIMIT + 1
        q, calls = _counting(at_most_k(1, range(1, n + 1)))
        with pytest.raises(ValueError, match="refusing to enumerate"):
            checker(pairwise_at_most_one(range(1, n + 1)), q)
        assert calls == []

    @FORMULA_SWEEPS
    def test_a_variable_outside_the_formula_is_refused(self, checker):
        # the sweep used to report FAILS at {} (is_upac, and
        # computes_by_propagation) or {-1} (is_upi, and
        # computes_by_contradiction) before it reached an assignment
        # binding variable 2
        q, calls = _counting(truth_table([1, 2], "1111"))
        with pytest.raises(ValueError, match=r"literal 2 outside universe 1\.\.1"):
            checker(CnfFormula([(1,)], num_vars=1), q)
        assert calls == []

    def test_a_repeated_variable_is_refused_not_misjudged(self):
        # with (1, 1, 2) accepted, the sweep reported a false FAILS
        # checked=1 at the empty assignment, literal -1
        with pytest.raises(ValueError, match="distinct positive"):
            is_upac(pairwise_at_most_one([1, 2]), at_most_k(1, [1, 1, 2]))

    def test_a_non_integer_variable_is_refused_not_misjudged(self):
        # with 1.5 accepted, inside the universe 1..2, the sweep reported
        # FAILS checked=2 at the assignment {1.5}
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            is_upac(pairwise_at_most_one([1, 2]), at_most_k(1, [1.5, 2]))

    def test_a_non_integer_limit_is_refused_not_misjudged(self):
        # with limit 2.5 accepted, the sweep reported HOLDS checked=9
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            is_upac(pairwise_at_most_one([1, 2]), at_most_k(1, [1, 2]), limit=2.5)


class TestStageCorrespondence:
    def test_example_bindings(self):
        verdict = check_stage_correspondence(EXAMPLE, assignment([-2, 4]))
        assert verdict.holds
        assert verdict.checked == 40

    def test_reduction_can_be_reused(self):
        out = contra_to_prop(EXAMPLE)
        for part in [frozenset(), assignment([1]), assignment([-2, 4])]:
            assert check_stage_correspondence(EXAMPLE, part, reduction=out).holds

    def test_mismatched_reduction_is_caught(self):
        wrong = contra_to_prop(CnfFormula([(-1,)], num_vars=1))
        verdict = check_stage_correspondence(
            CnfFormula([(1,)], num_vars=1), (), reduction=wrong
        )
        assert not verdict.holds
        cex = verdict.counterexample
        assert (cex.literal, cex.stage) == (1, 1)
        assert cex.expected == "present"
        assert cex.observed == "absent"

    @pytest.mark.parametrize("part", [(), (2,)])
    def test_a_reduction_over_another_universe_is_refused(self, part):
        narrow = contra_to_prop(CnfFormula([(1,)], num_vars=1))
        source = CnfFormula([(1,), (2,)], num_vars=2)
        with pytest.raises(ValueError, match=r"1\.\.1, source has 1\.\.2"):
            check_stage_correspondence(source, part, reduction=narrow)

    @pytest.mark.parametrize("given", [False, True], ids=["built", "given"])
    def test_the_assignment_is_refused_before_the_simulation(self, monkeypatch, given):
        def no_simulation(*args, **kwargs):
            raise AssertionError("the simulation was built before the refusal")

        # a given reduction over another universe is checked after the assignment
        narrow = contra_to_prop(CnfFormula([(1,)], num_vars=1)) if given else None
        monkeypatch.setattr(verify, "contra_to_prop", no_simulation)
        with pytest.raises(ValueError, match=r"^literal 99 outside universe 1\.\.4$"):
            check_stage_correspondence(EXAMPLE, (99,), reduction=narrow)


class TestSweep:
    def test_sums_checks_up_to_the_first_failure(self):
        source = CnfFormula([(1, 2)], num_vars=2)
        wrong = contra_to_prop(CnfFormula([(-1, 2)], num_vars=2))
        verdict = sweep(
            enumerate_partials(source.variables),
            lambda I: check_stage_correspondence(source, I, reduction=wrong),
        )
        # {} holds over all 12 stage pairs; {1} fails at its 7th pair
        assert render_verdict(verdict) == (
            "FAILS checked=19\n"
            "  assignment: v1=1\n"
            "  literal: 2\n"
            "  stage: 2\n"
            "  expected: absent\n"
            "  observed: present"
        )

    def test_a_sweep_indexes_its_formula_once(self):
        comp = compose_upac(pairwise_at_most_one([1, 2, 3]))
        propagate._index.cache_clear()
        assert is_upac(comp.formula, AMO3).holds
        assert propagate._index.cache_info().misses == 1

    def test_a_restricting_sweep_keeps_no_formula_per_assignment(self):
        reduction = contra_to_prop(EXAMPLE)

        def live_formulas():
            gc.collect()
            return sum(isinstance(obj, CnfFormula) for obj in gc.get_objects())

        before = live_formulas()
        verdict = sweep(
            enumerate_partials(EXAMPLE.variables),
            lambda I: check_stage_correspondence(EXAMPLE, I, reduction=reduction),
        )
        assert verdict.holds and verdict.checked == 81 * 40
        kept = live_formulas() - before
        # at most one per cached index, and the cache is smaller than the sweep
        assert kept <= propagate._index.cache_info().maxsize < 81


def _outcome(verdict):
    cex = verdict.counterexample
    failure = None
    if cex is not None:
        failure = (cex.assignment, cex.expected, cex.observed, cex.literal)
    return verdict.holds, verdict.checked, failure


def _projection(formula, variables):
    """Table bits: is this complete assignment of ``variables`` part of a
    model of ``formula``?  By brute force over 1..n."""
    models = []
    for signs in itertools.product((1, -1), repeat=formula.num_vars):
        model = {s * v for s, v in zip(signs, formula.variables)}
        if all(model.intersection(clause) for clause in formula.clauses):
            models.append(model)
    bits = ""
    for code in range(2 ** len(variables)):
        part = {v if code >> j & 1 else -v for j, v in enumerate(variables)}
        bits += "1" if any(part <= model for model in models) else "0"
    return bits


@st.composite
def formula_and_table(draw):
    """A formula over 1..n, now and then with the empty clause, and a
    table constraint over some of 1..n in any order: either random bits,
    or the formula's own projection, under which fewer sweeps fail at
    their first assignments."""
    n = draw(st.integers(1, 5))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    # binary clauses make chains of inferences likely
    clause = st.one_of(
        st.lists(lit, min_size=2, max_size=2), st.lists(lit, min_size=1, max_size=3)
    )
    clauses = draw(st.lists(clause, max_size=8))
    if draw(st.integers(0, 9)) == 0:
        clauses.insert(draw(st.integers(0, len(clauses))), [])
    formula = CnfFormula(clauses, num_vars=n)
    variables = draw(
        st.lists(st.integers(1, n), unique=True, min_size=1, max_size=min(n, 4))
    )
    width = 2 ** len(variables)
    if draw(st.booleans()):
        bits = _projection(formula, variables)
    else:
        bits = draw(st.text("01", min_size=width, max_size=width))
    return formula, truth_table(variables, bits)


def _assert_walk_matches_references(formula, q):
    """The walk against the seeded per-assignment sweep, by ``Verdict``
    equality, and against the restricting sweeps."""
    upi, upac = is_upi(formula, q), is_upac(formula, q)
    assert upi == seeded_against_table(formula, q, forced_literals=False)
    assert upac == seeded_against_table(formula, q, forced_literals=True)
    assert _outcome(upi) == restricting_upi(formula, q)
    assert _outcome(upac) == restricting_upac(formula, q)
    return upi, upac


ROOT_CONFLICT = Verdict(
    1, verify.Counterexample(frozenset(), "no-conflict", "conflict")
)
# (formula, constraint, pinned is_upi verdict, pinned is_upac verdict)
WALK_EDGE_CASES = {
    "empty clause, constraint unsatisfiable": (
        CnfFormula([(1, 2), ()], num_vars=2),
        truth_table([1, 2], "0000"),
        Verdict(9),
        Verdict(9),
    ),
    "empty clause, constraint satisfiable": (
        CnfFormula([()], num_vars=2),
        truth_table([2, 1], "0111"),
        ROOT_CONFLICT,
        ROOT_CONFLICT,
    ),
    "conflict at the root from unit clauses": (
        CnfFormula([(1,), (-1, 3), (-3,)], num_vars=3),
        truth_table([3, 2], "0000"),
        Verdict(9),
        Verdict(9),
    ),
    "variables in unsorted order": (
        pairwise_at_most_one([1, 2, 3, 4]),
        at_most_k(1, [3, 1, 4, 2]),
        Verdict(81),
        Verdict(81),
    ),
    "formula wider than the constraint": (
        compose_upac(pairwise_at_most_one([1, 2, 3])).formula,
        at_most_k(1, [3, 2]),
        Verdict(9),
        Verdict(9),
    ),
    # counterexamples decoded from codes: digit 0 is variable 3, bound
    # negative in both, and is_upac's literal is on a digit above the
    # failing node's
    "negative literal on a higher digit, unsorted variables": (
        CnfFormula([(1, -2)], num_vars=3),
        truth_table([3, 1, 2], "11011101"),
        Verdict(
            6,
            verify.Counterexample(frozenset({1, -3}), "conflict", "no-conflict"),
        ),
        Verdict(
            3,
            verify.Counterexample(frozenset({-3}), "inferred", "absent", -1),
        ),
    ),
}


def _random_formula_and_table(rng):
    """A formula over 1..n, n from 3 to 6, mostly of binary clauses, and
    a table constraint over some of 1..n in any order: half the time the
    formula's own projection, else random bits."""
    n = rng.randint(3, 6)
    clauses = []
    for _ in range(rng.randint(1, 2 * n)):
        width = 2 if rng.random() < 0.7 else rng.randint(1, 3)
        clauses.append(
            [rng.choice((v, -v)) for v in rng.sample(range(1, n + 1), width)]
        )
    formula = CnfFormula(clauses, num_vars=n)
    variables = rng.sample(range(1, n + 1), rng.randint(1, n))
    if rng.random() < 0.5:
        bits = _projection(formula, variables)
    else:
        bits = "".join(rng.choice("01") for _ in range(2 ** len(variables)))
    return formula, truth_table(variables, bits)


class TestSeededSweepsMatchRestriction:
    @settings(deadline=None, max_examples=150)
    @given(case=formula_and_table(), data=st.data())
    def test_same_verdicts_as_the_restricting_sweeps(self, case, data):
        formula, q = case
        _assert_walk_matches_references(formula, q)
        lit = data.draw(st.sampled_from(q.variables)) * data.draw(
            st.sampled_from([1, -1])
        )
        output = data.draw(st.integers(1, formula.num_vars))
        fn = arc_fn(q, lit)
        assert _outcome(
            computes_by_propagation(formula, fn, output)
        ) == restricting_by_propagation(formula, fn, output)
        for fn in (arc_fn(q, lit), inconsistency_fn(q)):
            assert _outcome(
                computes_by_contradiction(formula, fn)
            ) == restricting_by_contradiction(formula, fn)

    def test_random_walks_reach_deep_assignments(self):
        # binary clauses chain inferences through derived literals, and
        # projections let many sweeps run far past their first
        # assignments; a walk that never propagates a derived literal
        # onward disagrees on about one formula in six
        rng = random.Random(20240817)
        for _ in range(2000):
            formula, q = _random_formula_and_table(rng)
            assert is_upi(formula, q) == seeded_against_table(formula, q, False)
            assert is_upac(formula, q) == seeded_against_table(formula, q, True)

    @pytest.mark.parametrize(
        "formula, q, upi, upac", WALK_EDGE_CASES.values(), ids=WALK_EDGE_CASES
    )
    def test_edge_cases(self, formula, q, upi, upac):
        assert _assert_walk_matches_references(formula, q) == (upi, upac)

    @pytest.mark.parametrize(
        "base, q",
        [
            (pairwise_at_most_one([1, 2, 3]), AMO3),
            (split_pair_at_most_one([1, 2, 3]), AMO3),
            (binomial_at_most_k([1, 2, 3, 4], 2), at_most_k(2, [1, 2, 3, 4])),
        ],
        ids=["pairwise", "split_pair", "binomial"],
    )
    def test_compositions_and_their_guard_deletions(self, base, q):
        # deep sweeps whose inferences run through chains of ladder
        # variables outside q
        comp = compose_upac(base, q.variables)
        clauses = comp.formula.clauses
        for formula in [base, comp.formula] + [
            CnfFormula(
                clauses[: b.guard_index] + clauses[b.guard_index + 1 :],
                num_vars=comp.formula.num_vars,
            )
            for b in comp.blocks
        ]:
            assert is_upi(formula, q) == seeded_against_table(formula, q, False)
            assert is_upac(formula, q) == seeded_against_table(formula, q, True)

    def test_split_pair_failure_is_pinned(self):
        formula = split_pair_at_most_one([1, 2])
        q = at_most_k(1, [1, 2])
        pinned = (False, 2, (frozenset({1}), "inferred", "absent", -2))
        assert restricting_upac(formula, q) == pinned
        assert _outcome(is_upac(formula, q)) == pinned
        assert is_upac(formula, q) == seeded_against_table(formula, q, True)


class TestWalk:
    """Each test here fails under one wrong way to write the walk."""

    def test_a_falsified_assignment_must_also_conflict(self):
        # the skip needs both: pairwise over 1..3 without (-1 | -2)
        # falsifies {1, 2} without a conflict
        formula = CnfFormula([(-1, -3), (-2, -3)], num_vars=3)
        verdict = is_upi(formula, at_most_k(1, [1, 2, 3]))
        assert _outcome(verdict) == (
            False, 5, (frozenset({1, 2}), "conflict", "no-conflict", None)
        )

    def test_a_skipped_block_counts_each_of_its_assignments(self):
        # the sweep skips blocks of 1, 3 and 9 assignments, for example
        # at {1, 2}, {2, 3} and {3, 4}; without (-1 | -4) the first
        # failure, {1, 4}, follows skips of 1 and 3
        formula = pairwise_at_most_one([1, 2, 3, 4])
        q = at_most_k(1, [1, 2, 3, 4])
        assert is_upi(formula, q) == Verdict(81)
        assert is_upac(formula, q) == Verdict(81)
        without = CnfFormula(
            [c for c in formula.clauses if c != (-1, -4)], num_vars=4
        )
        assert _outcome(is_upi(without, q)) == (
            False, 3 ** 3 + 2, (frozenset({1, 4}), "conflict", "no-conflict", None)
        )

    def test_positive_children_come_before_negative_ones(self):
        # with no clauses, the first falsified assignment in counting
        # order is {1, 2}; visiting -v before v would reach {-1, 2} first
        verdict = is_upi(CnfFormula([], num_vars=2), at_most_k(1, [1, 2]))
        assert _outcome(verdict) == (
            False, 5, (frozenset({1, 2}), "conflict", "no-conflict", None)
        )

    def test_a_literal_against_the_parents_closure_conflicts(self):
        # {2} infers -1, so extending it by 1 must conflict
        q = at_most_k(1, [1, 2])
        assert is_upi(pairwise_at_most_one([1, 2]), q) == Verdict(9)

    def test_derived_literals_propagate_onward(self):
        # 2 infers 3 through (-2 | 3), and 3 infers -1 through (-3 | -1)
        formula = CnfFormula([(-2, 3), (-3, -1)], num_vars=3)
        assert is_upac(formula, at_most_k(1, [1, 2])) == Verdict(9)

    def test_a_walk_leaves_no_reference_cycle(self):
        # a cycle would keep each sweep's index alive until the cyclic
        # collector runs
        formula = compose_upac(pairwise_at_most_one(range(1, 5))).formula
        q = at_most_k(1, range(1, 5))
        gc.collect()
        gc.disable()
        try:
            assert is_upac(formula, q).holds
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0

    def test_the_frontier_at_the_default_limit(self):
        n = DEFAULT_ENUMERATION_LIMIT
        verdict = is_upac(
            pairwise_at_most_one(range(1, n + 1)), at_most_k(1, range(1, n + 1))
        )
        assert verdict == Verdict(3 ** n)


CHAIN = CnfFormula([(1, 2), (2, 3), (3, 4)])


def _grown(source):
    """The simulation of ``source`` with one clause more than its family
    counts sum to."""
    out = contra_to_prop(source)
    grown = CnfFormula(out.formula.clauses + ((1,),), num_vars=out.formula.num_vars)
    return ReductionOutput(out.source, grown, out.map, out.family_counts)


class TestSizeBound:
    def test_example_within_bound(self):
        assert check_size_bound(contra_to_prop(EXAMPLE)).holds

    def test_constant_is_tight_at_twelve(self, monkeypatch):
        out = contra_to_prop(CnfFormula([(1,)], num_vars=1))
        assert SIZE_BOUND_FACTOR == 12
        assert check_size_bound(out).holds
        monkeypatch.setattr(verify, "SIZE_BOUND_FACTOR", 8)
        verdict = check_size_bound(out)
        assert not verdict.holds
        assert verdict.counterexample.expected == "size<=8"
        assert verdict.counterexample.observed == "size=12"

    def test_tampered_counts_are_caught(self):
        out = contra_to_prop(EXAMPLE)
        bad = dataclasses.replace(
            out, family_counts=FamilyCounts(8, 32, 20, 2, 4)
        )
        assert not check_size_bound(bad).holds

    def test_counts_must_sum_to_the_clause_count(self):
        assert check_size_bound(_grown(CHAIN)) == Verdict(
            1, verify.Counterexample(frozenset(), "total=69", "total=68")
        )


class TestContradictionFn:
    def test_matches_restricted_propagation(self):
        f = contradiction_fn(EXAMPLE)
        assert f.evaluate(assignment([-2, 4]))
        assert not f.evaluate(frozenset())
        for part in enumerate_partials(EXAMPLE.variables):
            expected = propagate_fixpoint(restrict(EXAMPLE, part)).conflicted
            assert f.evaluate(part) == expected


class TestRendering:
    def test_holds_line(self):
        verdict = is_upi(pairwise_at_most_one([1, 2, 3]), AMO3)
        assert render_verdict(verdict) == "HOLDS checked=27"

    def test_fails_block(self):
        amo2 = at_most_k(1, [1, 2])
        verdict = is_upac(split_pair_at_most_one([1, 2]), amo2)
        assert render_verdict(verdict) == (
            "FAILS checked=2\n"
            "  assignment: v1=1\n"
            "  literal: -2\n"
            "  expected: inferred\n"
            "  observed: absent"
        )

    @pytest.mark.parametrize(
        "factor, output, text",
        [
            pytest.param(
                SIZE_BOUND_FACTOR,
                dataclasses.replace(
                    contra_to_prop(EXAMPLE), family_counts=FamilyCounts(8, 32, 20, 2, 4)
                ),
                "FAILS checked=1\n"
                "  assignment: (empty)\n"
                "  expected: unit=1\n"
                "  observed: unit=2",
                id="family count",
            ),
            pytest.param(
                SIZE_BOUND_FACTOR,
                _grown(CHAIN),
                "FAILS checked=1\n"
                "  assignment: (empty)\n"
                "  expected: total=69\n"
                "  observed: total=68",
                id="total",
            ),
            pytest.param(
                8,
                contra_to_prop(CnfFormula([(1,)], num_vars=1)),
                "FAILS checked=1\n"
                "  assignment: (empty)\n"
                "  expected: size<=8\n"
                "  observed: size=12",
                id="size bound",
            ),
        ],
    )
    def test_size_bound_failures(self, monkeypatch, factor, output, text):
        monkeypatch.setattr(verify, "SIZE_BOUND_FACTOR", factor)
        assert render_verdict(check_size_bound(output)) == text


class TestVerdict:
    def test_holds_iff_there_is_no_counterexample(self):
        assert [f.name for f in dataclasses.fields(Verdict)] == [
            "checked",
            "counterexample",
        ]
        assert Verdict(3).holds
        cex = verify.Counterexample(frozenset({1}), "conflict", "no-conflict")
        assert not Verdict(3, cex).holds


class TestRoundTrip:
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_ladder_then_negated_output_preserves_conflicts(self, data):
        source = data.draw(small_formulas())
        signs = data.draw(
            st.lists(
                st.sampled_from([0, 1, -1]),
                min_size=source.num_vars,
                max_size=source.num_vars,
            )
        )
        part = frozenset(s * v for v, s in enumerate(signs, start=1) if s)
        out = contra_to_prop(source)
        back = prop_to_contra(out.formula, out.map.output_var)
        direct = propagate_fixpoint(restrict(source, part)).conflicted
        routed = propagate_fixpoint(back, assignment=part).conflicted
        assert routed == direct
