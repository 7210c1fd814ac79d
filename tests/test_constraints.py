"""Constraints, matching functions, and the partial-assignment enumerator."""

import dataclasses
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    digit_weights,
    reference_consistency_table,
    scan_falsifies,
    table_disagreements,
    ternary_partials,
)
from unitprop.cnf import CnfFormula, emit_dimacs
from unitprop.constraints import (
    DEFAULT_ENUMERATION_LIMIT,
    Constraint,
    _consistency_table,
    arc_fn,
    at_most_k,
    binomial_at_most_k,
    cnf_constraint,
    enumerate_partials,
    falsifies,
    inconsistency_fn,
    pairwise_at_most_one,
    parse_constraint,
    split_pair_at_most_one,
    truth_table,
)


class TestConstraintKinds:
    def test_at_most_k_counts_positive_literals(self):
        q = at_most_k(1, [1, 2, 3])
        assert q.label == "atmost 1 of 3"
        assert q.sat(frozenset({1, -2, -3}))
        assert q.sat(frozenset({-1, -2, -3}))
        assert not q.sat(frozenset({1, 2, -3}))

    def test_at_most_zero(self):
        q = at_most_k(0, [1, 2])
        assert q.sat(frozenset({-1, -2}))
        assert not q.sat(frozenset({1, -2}))

    def test_negative_k_refused(self):
        with pytest.raises(ValueError, match="^k must be nonnegative$"):
            at_most_k(-1, [1, 2])

    def test_truth_table_bit_order(self):
        # bit index = sum of 2^(i) over true variables, variables[0] least
        # significant; "0001" over (v1, v2) is the conjunction v1 & v2
        q = truth_table([1, 2], "0001")
        assert q.sat(frozenset({1, 2}))
        assert not q.sat(frozenset({1, -2}))
        assert not q.sat(frozenset({-1, 2}))
        assert not q.sat(frozenset({-1, -2}))

    def test_truth_table_validates_shape(self):
        with pytest.raises(ValueError):
            truth_table([1, 2], "01")
        with pytest.raises(ValueError):
            truth_table([1], "0x")

    def test_cnf_semantics(self):
        q = cnf_constraint(CnfFormula([(1, -2)], num_vars=2))
        assert q.label == "cnf over 2 vars"
        assert q.sat(frozenset({1, 2}))
        assert not q.sat(frozenset({-1, 2}))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: at_most_k(1, [1, 1, 2]),
            lambda: at_most_k(1, [0, 1]),
            lambda: at_most_k(1, [-1, 2]),
            lambda: truth_table([1, 1], "0110"),
            lambda: Constraint((2, 2), "custom", lambda c: True),
        ],
        ids=["duplicate", "zero", "negative", "table-duplicate", "direct"],
    )
    def test_duplicate_or_non_positive_variables_rejected(self, build):
        with pytest.raises(ValueError, match="distinct positive integers"):
            build()

    def test_a_non_integer_variable_is_refused(self):
        # 1.5 >= 1 used to pass as a positive integer
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            at_most_k(1, [1.5, 2])

    def test_a_non_integer_k_is_refused(self):
        # the label used to read "atmost 1.5 of 2"
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            at_most_k(1.5, [1, 2])


class TestFalsifies:
    def test_too_many_trues_bound(self):
        q = at_most_k(1, [1, 2, 3])
        assert falsifies(q, {1, 2})
        assert not falsifies(q, {1})
        assert not falsifies(q, {1, -2, -3})

    def test_foreign_variable_rejected(self):
        with pytest.raises(ValueError, match="not a variable"):
            falsifies(at_most_k(1, [1, 2, 3]), {4})

    def test_matches_the_scan_oracle_on_every_partial(self):
        q = at_most_k(1, [1, 2, 3])
        for part in enumerate_partials(q.variables):
            assert falsifies(q, part) == scan_falsifies(
                q.sat, q.variables, part
            )

    def test_at_most_one_of_three_has_seven_falsifying_partials(self):
        q = at_most_k(1, [1, 2, 3])
        falsifying = [
            part for part in enumerate_partials(q.variables) if falsifies(q, part)
        ]
        assert len(falsifying) == 7
        assert all(
            len([lit for lit in part if lit > 0]) >= 2 for part in falsifying
        )

    @settings(deadline=None, max_examples=60)
    @given(
        bits=st.text(alphabet="01", min_size=8, max_size=8),
        signs=st.lists(st.sampled_from([0, 1, -1]), min_size=3, max_size=3),
        drop=st.integers(0, 2),
    )
    def test_falsifies_is_antitone_in_the_assignment(self, bits, signs, drop):
        q = truth_table([1, 2, 3], bits)
        larger = frozenset(s * v for v, s in enumerate(signs, start=1) if s)
        smaller = frozenset(
            lit for lit in larger if abs(lit) != drop + 1
        )
        if falsifies(q, smaller):
            assert falsifies(q, larger)

    @settings(deadline=None, max_examples=60)
    @given(bits=st.text(alphabet="01", min_size=8, max_size=8))
    def test_complete_assignments_collapse_to_evaluation(self, bits):
        q = truth_table([1, 2, 3], bits)
        for signs in itertools.product((1, -1), repeat=3):
            full = frozenset(s * v for s, v in zip(signs, (1, 2, 3)))
            assert falsifies(q, full) == (not q.sat(full))


@st.composite
def cnf_constraints(draw):
    """A formula over 1..n, n up to 4, read as a constraint."""
    n = draw(st.integers(1, 4), label="n")
    lits = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lits, max_size=3), max_size=5), label="clauses")
    return cnf_constraint(CnfFormula(clauses, num_vars=n))


def _check_table(q):
    """The consistency table agrees with ``falsifies`` and with the scans
    on every assignment, the forcing of each unbound literal included."""
    weight = digit_weights(q.variables)
    table = _consistency_table(q)
    assert len(table) == 3 ** len(q.variables)
    assert table_disagreements(q, table) == []
    for code, part in enumerate(enumerate_partials(q.variables)):
        assert (not table[code]) == falsifies(q, part)
        for v in q.variables:
            if v in part or -v in part:
                continue
            for lit in (v, -v):
                forced = not table[code + weight[-lit]]
                assert forced == falsifies(q, part | {-lit})


class TestConsistencyTable:
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_truth_tables_up_to_six_variables(self, data):
        vs = data.draw(
            st.lists(st.integers(1, 20), unique=True, max_size=6), label="vars"
        )
        bits = data.draw(
            st.text(alphabet="01", min_size=2 ** len(vs), max_size=2 ** len(vs)),
            label="bits",
        )
        _check_table(truth_table(vs, bits))

    @pytest.mark.parametrize("bits", ["0", "1"])
    def test_no_variables(self, bits):
        q = truth_table([], bits)
        _check_table(q)
        assert _consistency_table(q) == bytearray([int(bits)])

    @settings(deadline=None, max_examples=40)
    @given(q=cnf_constraints())
    def test_cnf_constraints(self, q):
        _check_table(q)

    def test_at_most_one_of_three(self):
        # literal codes: 1 and -1 weigh 1 and 2, 2 and -2 weigh 3 and 6,
        # 3 and -3 weigh 9 and 18
        table = _consistency_table(at_most_k(1, [1, 2, 3]))
        assert len(table) == 27
        assert table.count(0) == 7
        assert table[1 + 3] == 0  # {1, 2}
        assert table[1 + 6] == 1  # {1, -2}
        assert table[3 + 9] == 0  # {2, 3}
        assert table[2 + 6 + 18] == 1  # {-1, -2, -3}


class TestFillMatchesTheReference:
    """The digit-by-digit fill against the code-by-code one, byte for
    byte."""

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_truth_tables_up_to_seven_variables(self, data):
        vs = data.draw(
            st.lists(st.integers(1, 20), unique=True, max_size=7), label="vars"
        )
        bits = data.draw(
            st.text(alphabet="01", min_size=2 ** len(vs), max_size=2 ** len(vs)),
            label="bits",
        )
        q = truth_table(vs, bits)
        assert _consistency_table(q) == reference_consistency_table(q)

    @settings(deadline=None, max_examples=40)
    @given(q=cnf_constraints())
    def test_cnf_constraints(self, q):
        assert _consistency_table(q) == reference_consistency_table(q)

    @pytest.mark.parametrize("n", range(1, DEFAULT_ENUMERATION_LIMIT + 1))
    def test_at_most_one(self, n):
        q = at_most_k(1, range(1, n + 1))
        assert _consistency_table(q) == reference_consistency_table(q)


class TestMatchingFunctions:
    def test_inconsistency_carries_the_constraint_universe(self):
        f = inconsistency_fn(at_most_k(1, [1, 2, 3]))
        assert f.variables == (1, 2, 3)
        assert f.evaluate(frozenset({1, 2}))
        assert not f.evaluate(frozenset({1}))
        assert f.in_domain(frozenset({1, 2}))

    def test_arc_unbound_case(self):
        q = at_most_k(1, [1, 2, 3])
        f = arc_fn(q, -2)
        # with v1 already true, v2 must go false
        assert f.evaluate(frozenset({1}))
        assert not f.evaluate(frozenset())

    def test_arc_bound_cases(self):
        q = at_most_k(1, [1, 2, 3])
        assert arc_fn(q, 1).evaluate(frozenset({1}))
        assert not arc_fn(q, 1).evaluate(frozenset({-1}))

    def test_arc_domain_excludes_falsifying_assignments(self):
        q = at_most_k(1, [1, 2, 3])
        assert not arc_fn(q, -2).in_domain(frozenset({1, 3}))
        assert arc_fn(q, -2).in_domain(frozenset({1}))

    def test_arc_foreign_literal_rejected(self):
        with pytest.raises(
            ValueError, match="^variable 3 is not a variable of atmost 1 of 2$"
        ):
            arc_fn(at_most_k(1, [1, 2]), 3)

    def test_arc_non_integer_literal_rejected(self):
        # 1.0 used to pass as variable 1
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            arc_fn(at_most_k(1, [1, 2]), 1.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda q, I: inconsistency_fn(q).evaluate(I),
            lambda q, I: arc_fn(q, 1).evaluate(I),
            lambda q, I: arc_fn(q, 1).in_domain(I),
        ],
        ids=["inconsistency", "arc-evaluate", "arc-domain"],
    )
    def test_errors_match_falsifies(self, call):
        q = at_most_k(1, [1, 2])
        with pytest.raises(ValueError) as want:
            falsifies(q, {3})
        assert str(want.value) == "variable 3 is not a variable of atmost 1 of 2"
        with pytest.raises(ValueError) as got:
            call(q, frozenset({3}))
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="contradictory assignment: both"):
            call(q, frozenset({2, -2}))

    @pytest.mark.parametrize(
        "n", [DEFAULT_ENUMERATION_LIMIT, DEFAULT_ENUMERATION_LIMIT + 1]
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda q, I: inconsistency_fn(q).evaluate(I),
            lambda q, I: arc_fn(q, 1).evaluate(I),
            lambda q, I: arc_fn(q, 1).in_domain(I),
        ],
        ids=["inconsistency", "arc-evaluate", "arc-domain"],
    )
    def test_a_call_builds_no_table(self, call, n):
        # all but two variables bound: at most the 4 complete extensions
        # run, not the 2^n rows of a table
        amo = at_most_k(1, range(1, n + 1))
        calls = []
        q = dataclasses.replace(amo, sat=lambda c: calls.append(c) or amo.sat(c))
        call(q, frozenset(-v for v in range(3, n + 1)))
        assert len(calls) <= 4

    def test_arc_agrees_with_inconsistency_of_the_flipped_literal(self):
        q = at_most_k(1, [1, 2, 3])
        for part in enumerate_partials(q.variables):
            if falsifies(q, part):
                continue
            for v in q.variables:
                for lit in (v, -v):
                    got = arc_fn(q, lit).evaluate(part)
                    if lit in part:
                        assert got
                    elif -lit in part:
                        assert not got
                    else:
                        assert got == falsifies(q, part | {-lit})


class TestEnumeration:
    def test_counting_order_over_two_variables(self):
        got = [frozenset(p) for p in enumerate_partials([1, 2])]
        assert got == [
            frozenset(),
            frozenset({1}),
            frozenset({-1}),
            frozenset({2}),
            frozenset({1, 2}),
            frozenset({-1, 2}),
            frozenset({-2}),
            frozenset({1, -2}),
            frozenset({-1, -2}),
        ]

    def test_empty_universe(self):
        assert list(enumerate_partials([])) == [frozenset()]

    def test_counts_are_powers_of_three(self):
        assert len(list(enumerate_partials([1]))) == 3
        assert len(set(enumerate_partials([1, 2, 3]))) == 27

    def test_limit_guards_the_blowup_eagerly(self):
        with pytest.raises(ValueError, match="refusing to enumerate"):
            enumerate_partials(range(1, 14))

    def test_explicit_limit_overrides(self):
        assert len(list(enumerate_partials([1, 2], limit=2))) == 9
        with pytest.raises(ValueError):
            enumerate_partials([1, 2, 3], limit=2)

    @pytest.mark.parametrize("variables", [[1, 2, 3], []])
    def test_negative_limit_refused(self, variables):
        with pytest.raises(ValueError, match="^limit must be nonnegative$"):
            enumerate_partials(variables, limit=-1)

    @pytest.mark.parametrize("n", range(7))
    def test_order_matches_the_reference_on_unsorted_variables(self, n):
        vs = (5, 2, 9, 14, 3, 11)[:n]
        assert list(enumerate_partials(vs)) == list(ternary_partials(vs))

    @pytest.mark.parametrize("variables", [[1, 1], [0], [2, -3]])
    def test_bad_variable_lists_refused(self, variables):
        with pytest.raises(ValueError, match="distinct positive integers"):
            enumerate_partials(variables)

    def test_a_non_integer_variable_is_refused(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            enumerate_partials([1.5])

    def test_a_non_integer_limit_is_refused(self):
        # 2 variables under a limit of 2.5 used to be enumerated
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            enumerate_partials([1, 2], limit=2.5)

    def test_a_numpy_integer_is_still_a_limit(self):
        np = pytest.importorskip("numpy")
        assert len(list(enumerate_partials([1, 2], limit=np.int64(2)))) == 9
        with pytest.raises(ValueError, match="limit 1"):
            enumerate_partials([1, 2], limit=np.int64(1))


# each malformed spec, and the message that refuses it
MALFORMED_SPECS = {
    "": "empty constraint spec",
    "atmost 1 over 3": "expected 'atmost <k> of <n>', got 'atmost 1 over 3'",
    "table 2": "expected 'table <n> <bits>', got 'table 2'",
    "cnf": "expected 'cnf <path>', got 'cnf'",
    "huh 1 2": "unknown constraint form 'huh'",
    "atmost x of 3": "expected 'atmost <k> of <n>', got 'atmost x of 3'",
    "atmost 1 of y": "expected 'atmost <k> of <n>', got 'atmost 1 of y'",
    "table z 0101": "expected 'table <n> <bits>', got 'table z 0101'",
}


class TestParsing:
    def test_atmost_form(self):
        q = parse_constraint("atmost 2 of 4")
        assert q.label == "atmost 2 of 4"
        assert q.variables == (1, 2, 3, 4)
        assert q.sat(frozenset({1, 2, -3, -4}))
        assert not q.sat(frozenset({1, 2, 3, -4}))

    def test_table_form(self):
        q = parse_constraint("table 2 0001")
        assert q.sat(frozenset({1, 2}))

    def test_cnf_form(self, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text(emit_dimacs(CnfFormula([(1, -2)], num_vars=2)))
        q = parse_constraint(f"cnf {path}")
        assert q.label == "cnf over 2 vars"
        assert q.variables == (1, 2)

    @pytest.mark.parametrize("text", MALFORMED_SPECS)
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(ValueError, match=re.escape(MALFORMED_SPECS[text])):
            parse_constraint(text)

    @pytest.mark.parametrize("text", ["atmost 1 of -3", "table -3 1"])
    def test_negative_variable_counts_rejected(self, text):
        with pytest.raises(ValueError, match="^variable count must be nonnegative$"):
            parse_constraint(text)


class TestEncodings:
    def test_pairwise(self):
        f = pairwise_at_most_one([1, 2, 3])
        assert f.clauses == ((-1, -2), (-1, -3), (-2, -3))
        assert f.num_vars == 3
        f = pairwise_at_most_one([3, 1, 2])
        assert f.clauses == ((-3, -1), (-3, -2), (-1, -2))
        assert f.num_vars == 3
        assert pairwise_at_most_one([]) == CnfFormula([], num_vars=0)

    def test_binomial(self):
        f = binomial_at_most_k([1, 2, 3, 4], 2)
        assert f.clauses == (
            (-1, -2, -3),
            (-1, -2, -4),
            (-1, -3, -4),
            (-2, -3, -4),
        )

    def test_binomial_refuses_negative_k(self):
        with pytest.raises(ValueError, match="^k must be nonnegative$"):
            binomial_at_most_k([1, 2], -1)

    def test_split_pair_adds_one_selector_per_pair(self):
        f = split_pair_at_most_one([1, 2, 3])
        assert f.clauses == (
            (-1, -2, 4),
            (-1, -2, -4),
            (-1, -3, 5),
            (-1, -3, -5),
            (-2, -3, 6),
            (-2, -3, -6),
        )
        assert f.num_vars == 6

    def test_split_pair_single_variable(self):
        f = split_pair_at_most_one([1])
        assert f.clauses == ()
        assert f.num_vars == 1

    def test_encodings_agree_with_the_constraint(self):
        q = at_most_k(1, [1, 2, 3])
        pw = cnf_constraint(pairwise_at_most_one([1, 2, 3]))
        for signs in itertools.product((1, -1), repeat=3):
            full = frozenset(s * v for s, v in zip(signs, (1, 2, 3)))
            assert pw.sat(full) == q.sat(full)
