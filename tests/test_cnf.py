"""Formula representation, restriction, and DIMACS round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from unitprop.cnf import (
    CnfFormula,
    DimacsError,
    assignment,
    canonical_clause,
    emit_dimacs,
    parse_dimacs,
    restrict,
)


def small_formulas(max_vars=5, max_clauses=8, max_len=4):
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


def partial_assignments(formula):
    signs = st.lists(
        st.sampled_from([0, 1, -1]),
        min_size=formula.num_vars,
        max_size=formula.num_vars,
    )
    return signs.map(
        lambda ss: frozenset(s * v for v, s in enumerate(ss, start=1) if s)
    )


class TestClauses:
    def test_duplicates_collapse_keeping_first_position(self):
        assert canonical_clause((2, 1, 2, -3, 1)) == (2, 1, -3)

    def test_zero_is_not_a_literal(self):
        with pytest.raises(ValueError):
            canonical_clause((1, 0, 2))

    def test_tautologies_survive_canonicalization(self):
        assert canonical_clause((1, -1)) == (1, -1)


class TestAssignment:
    def test_builds_frozenset(self):
        assert assignment([3, -1]) == frozenset({3, -1})

    def test_rejects_contradiction(self):
        with pytest.raises(ValueError, match="contradictory assignment"):
            assignment([1, 2, -1])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            assignment([0])

    def test_repeated_literals_collapse(self):
        assert assignment([1, 1]) == frozenset({1})
        assert assignment([-2, 3, -2]) == frozenset({-2, 3})


# a float or a string is refused as range(1.5) refuses it, not truncated
# (int(2.7) == 2) or parsed (int("3") == 3)
NOT_AN_INTEGER = "cannot be interpreted as an integer"


class TestNonIntegers:
    @pytest.mark.parametrize("clause", [(1.9, -2.5), ("3",)], ids=["float", "str"])
    def test_a_clause_literal_is_refused(self, clause):
        with pytest.raises(TypeError, match=NOT_AN_INTEGER):
            CnfFormula([clause])

    def test_an_assignment_literal_is_refused(self):
        with pytest.raises(TypeError, match=NOT_AN_INTEGER):
            assignment([2.7, -1.2])

    @pytest.mark.parametrize("num_vars", [2.7, "3"], ids=["float", "str"])
    def test_a_declared_universe_is_refused(self, num_vars):
        # 2.7 was truncated to 2, and "3" failed a comparison instead
        with pytest.raises(TypeError, match=NOT_AN_INTEGER):
            CnfFormula([(1,)], num_vars=num_vars)

    def test_numpy_integers_are_still_literals(self):
        np = pytest.importorskip("numpy")
        f = CnfFormula([(np.int64(1), np.int32(-2))])
        assert f.clauses == ((1, -2),)
        assert all(type(lit) is int for lit in f.clauses[0])
        assert assignment([np.int64(-3)]) == frozenset({-3})

    def test_a_numpy_integer_is_still_a_declared_universe(self):
        np = pytest.importorskip("numpy")
        f = CnfFormula([(1,)], num_vars=np.int64(3))
        assert f.num_vars == 3 and type(f.num_vars) is int
        assert f == CnfFormula([(1,)], num_vars=3)


class TestFormula:
    def test_universe_derived_from_literals(self):
        f = CnfFormula([(1, -3), (2,)])
        assert f.num_vars == 3
        assert list(f.variables) == [1, 2, 3]

    def test_declared_universe_may_exceed_mentions(self):
        f = CnfFormula([(1,)], num_vars=4)
        assert f.num_vars == 4

    def test_declared_universe_must_cover_mentions(self):
        with pytest.raises(ValueError):
            CnfFormula([(1, -3)], num_vars=2)

    def test_declared_universe_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="^num_vars must be nonnegative$"):
            CnfFormula([], num_vars=-1)

    def test_size_counts_literals(self):
        f = CnfFormula([(1,), (-1, 2, 3), (-3, -4)])
        assert len(f) == 3
        assert f.size() == 6

    def test_immutable(self):
        f = CnfFormula([(1,)])
        with pytest.raises(Exception):
            f.clauses = ()

    def test_equality_and_hash(self):
        a = CnfFormula([(1, 2)], num_vars=2)
        b = CnfFormula([(1, 2, 2)], num_vars=2)
        assert a == b
        assert hash(a) == hash(b)


class TestRestrict:
    def test_appends_unit_clauses_sorted_by_variable(self):
        f = CnfFormula([(1,), (-1, 2, 3), (-3, -4)])
        g = restrict(f, assignment([4, -2]))
        assert g.clauses == ((1,), (-1, 2, 3), (-3, -4), (-2,), (4,))
        assert g.num_vars == 4

    def test_empty_assignment_is_identity(self):
        f = CnfFormula([(1, 2)])
        assert restrict(f, frozenset()) == f

    def test_rejects_foreign_variables(self):
        f = CnfFormula([(1, 2)])
        with pytest.raises(ValueError):
            restrict(f, assignment([3]))

    @settings(deadline=None, max_examples=80)
    @given(data=st.data())
    def test_size_grows_by_exactly_the_bindings(self, data):
        f = data.draw(small_formulas())
        part = data.draw(partial_assignments(f))
        g = restrict(f, part)
        assert len(g) == len(f) + len(part)
        assert g.size() == f.size() + len(part)
        assert g.clauses[: len(f)] == f.clauses


class TestDimacs:
    def test_parse_minimal(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
        assert f == CnfFormula([(1, -2)], num_vars=2)

    def test_parse_empty_formula(self):
        f = parse_dimacs("p cnf 1 0\n")
        assert f.clauses == ()
        assert f.num_vars == 1

    def test_parse_with_comments_and_multiline_clause(self):
        text = "c example\np cnf 4 3\n1 0\nc mid\n-1 2\n3 0\n-3 -4 0\n"
        f = parse_dimacs(text)
        assert f.clauses == ((1,), (-1, 2, 3), (-3, -4))
        assert f.num_vars == 4

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("1 -2 0\n", "header"),
            ("p cnf 2 1\np cnf 2 1\n1 0\n", "duplicate"),
            ("p cnf x 1\n1 0\n", "header"),
            ("p cnf 2 1\n3 0\n", "outside declared universe"),
            ("p cnf 2 1\n1 -2\n", "unterminated"),
            ("p cnf 2 2\n1 0\n", "declares"),
            ("p cnf 2 1\n1 q 0\n", "bad token"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(DimacsError, match="line \\d+") as err:
            parse_dimacs(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf x 1\n", "line 1: bad header 'p cnf x 1'"),
            ("p cnf -1 0\n", "line 1: bad header 'p cnf -1 0'"),
            # the wrong format, or the wrong number of fields
            ("p dnf 2 1\n", "line 1: bad header 'p dnf 2 1'"),
            ("p cnf 2\n", "line 1: bad header 'p cnf 2'"),
            ("p cnf 2 1 0\n", "line 1: bad header 'p cnf 2 1 0'"),
            ("", "line 1: missing 'p cnf' header"),
        ],
    )
    def test_bad_or_missing_header_is_reported_on_line_one(self, text, message):
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert str(err.value) == message
        assert err.value.line == 1

    def test_emit_minimal(self):
        f = CnfFormula([(1, -2)], num_vars=2)
        assert emit_dimacs(f) == "p cnf 2 1\n1 -2 0\n"

    def test_emit_empty_clause(self):
        f = CnfFormula([()], num_vars=1)
        assert emit_dimacs(f) == "p cnf 1 1\n0\n"

    @settings(deadline=None, max_examples=100)
    @given(formula=small_formulas())
    def test_round_trip_is_identity(self, formula):
        assert parse_dimacs(emit_dimacs(formula)) == formula

    @settings(deadline=None, max_examples=60)
    @given(formula=small_formulas())
    def test_emitted_text_is_a_fixed_point(self, formula):
        text = emit_dimacs(formula)
        assert emit_dimacs(parse_dimacs(text)) == text
