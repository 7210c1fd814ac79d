"""Reductions between the two ways of computing a matching function.

Frozen values below were derived by hand from the construction and
cross-checked by the staged engine before being committed.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_ladder
from unitprop.cnf import CnfFormula, assignment, emit_dimacs
from unitprop.propagate import propagate_staged
from unitprop.reductions import (
    compose_upac,
    contra_to_prop,
    prop_to_contra,
    render_simulation_map,
)

EXAMPLE = CnfFormula([(1,), (-1, 2, 3), (-3, -4)], num_vars=4)


def ladder_ids(m):
    """Every ladder variable of a map, in allocation order."""
    n = m.source_num_vars
    return [
        m.aux(lit, level)
        for v in range(1, n + 1)
        for lit in (v, -v)
        for level in range(1, n + 2)
    ]


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


class TestPropToContra:
    def test_appends_the_negated_output(self):
        f = CnfFormula([(-1, 2)], num_vars=2)
        g = prop_to_contra(f, 2)
        assert g.clauses == ((-1, 2), (-2,))
        assert g.num_vars == 2

    def test_grows_by_one_clause_and_one_literal(self):
        g = prop_to_contra(EXAMPLE, 3)
        assert len(g) == len(EXAMPLE) + 1
        assert g.size() == EXAMPLE.size() + 1

    def test_negative_output_literal(self):
        g = prop_to_contra(CnfFormula([(1, 2)]), -2)
        assert g.clauses[-1] == (2,)

    def test_foreign_output_rejected(self):
        # the error names the appended unit literal, -5
        with pytest.raises(ValueError, match=r"literal -5 outside universe 1\.\.1"):
            prop_to_contra(CnfFormula([(1,)]), 5)
        with pytest.raises(ValueError, match="0 is not a literal"):
            prop_to_contra(CnfFormula([(1,)]), 0)


class TestContraToProp:
    def test_family_counts_on_the_example(self):
        out = contra_to_prop(EXAMPLE)
        assert dataclasses.astuple(out.family_counts) == (8, 32, 20, 1, 4)
        assert out.family_counts.total() == 65
        assert len(out.formula) == 65
        assert out.formula.num_vars == 45

    def test_ladder_dimensions(self):
        m = contra_to_prop(EXAMPLE).map
        assert m.source_num_vars == 4
        for level in (0, 6):
            with pytest.raises(ValueError):
                m.aux(1, level)
        ids = ladder_ids(m)
        assert min(ids) == 5
        assert m.output_var == 45
        assert len(set(ids)) == 2 * 4 * 5

    def test_ladder_variable_ids(self):
        m = contra_to_prop(EXAMPLE).map
        assert m.aux(1, 1) == 5
        assert m.aux(-1, 1) == 10
        assert m.aux(-2, 1) == 20
        assert m.aux(4, 1) == 35
        assert m.aux(3, 2) == 26
        assert m.aux(-3, 2) == 31
        assert m.aux(1, 5) == 9
        assert m.aux(-4, 5) == 44

    def test_emission_order_and_shapes(self):
        f = contra_to_prop(EXAMPLE).formula
        # injection pairs, variable by variable
        assert f.clauses[:8] == (
            (1, 10),
            (-1, 5),
            (2, 20),
            (-2, 15),
            (3, 30),
            (-3, 25),
            (4, 40),
            (-4, 35),
        )
        # the lone unit clause, then the first replication step
        assert f.clauses[8] == (5,)
        assert f.clauses[9] == (-5, 6)
        # deduction block: target level i+1 versus the others at level i
        assert f.clauses[41:44] == (
            (11, -20, -30),
            (12, -21, -31),
            (13, -22, -32),
        )
        # collection: both top-of-ladder chains imply the output
        assert f.clauses[61:] == (
            (-9, -14, 45),
            (-19, -24, 45),
            (-29, -34, 45),
            (-39, -44, 45),
        )

    def test_single_unit_source(self):
        out = contra_to_prop(CnfFormula([(1,)], num_vars=1))
        assert dataclasses.astuple(out.family_counts) == (2, 2, 0, 1, 1)
        assert out.formula.clauses == (
            (1, 4),
            (-1, 2),
            (2,),
            (-2, 3),
            (-4, 5),
            (-3, -5, 6),
        )
        assert out.map.output_var == 6

    def test_duplicate_singletons_translate_once(self):
        out = contra_to_prop(CnfFormula([(1,), (1,), (-2,)], num_vars=2))
        assert out.family_counts.unit == 2

    def test_tautological_source_clause(self):
        out = contra_to_prop(CnfFormula([(1, -1)], num_vars=1))
        assert dataclasses.astuple(out.family_counts) == (2, 2, 2, 0, 1)

    def test_output_fires_exactly_when_the_source_conflicts(self):
        out = contra_to_prop(CnfFormula([(1,)], num_vars=1))
        conflicted = propagate_staged(out.formula, assignment=assignment([-1]))
        assert [sorted(lit for lit, _ in s.inferred) for s in conflicted.stages] == [
            [2, 4],
            [3, 5],
            [6],
        ]
        assert not conflicted.conflicted
        quiet = propagate_staged(out.formula, assignment=assignment([1]))
        assert [sorted(lit for lit, _ in s.inferred) for s in quiet.stages] == [
            [2],
            [3],
        ]

    def test_relocated_namespace(self):
        out = contra_to_prop(CnfFormula([(1,)], num_vars=1), first_aux=10)
        assert min(ladder_ids(out.map)) == 10
        assert out.formula.num_vars == out.map.output_var

    def test_rejected_sources(self):
        with pytest.raises(ValueError):
            contra_to_prop(CnfFormula([], num_vars=0))
        with pytest.raises(ValueError):
            contra_to_prop(CnfFormula([()], num_vars=1))
        with pytest.raises(ValueError):
            contra_to_prop(CnfFormula([(1,)], num_vars=1), first_aux=1)

    @settings(deadline=None, max_examples=60)
    @given(source=small_formulas())
    def test_closed_form_counts(self, source):
        n = source.num_vars
        out = contra_to_prop(source)
        counts = out.family_counts
        assert counts.injection == 2 * n
        assert counts.replication == 2 * n * n
        assert counts.unit == len(
            {c[0] for c in source.clauses if len(c) == 1}
        )
        assert counts.deduction == n * sum(
            len(c) for c in source.clauses if len(c) >= 2
        )
        assert counts.collection == n
        assert counts.total() == len(out.formula)
        assert out.formula.num_vars == n + 2 * n * (n + 1) + 1

    @settings(deadline=None, max_examples=40)
    @given(source=small_formulas())
    def test_ladder_ids_are_fresh_and_dense(self, source):
        out = contra_to_prop(source)
        ids = sorted(ladder_ids(out.map))
        assert ids[0] == source.num_vars + 1
        assert ids == list(range(ids[0], ids[0] + len(ids)))
        assert out.map.output_var == ids[-1] + 1


class TestSimulationMap:
    def test_render_format(self):
        m = contra_to_prop(CnfFormula([(1,)], num_vars=1)).map
        assert render_simulation_map(m) == (
            "x 1 1 2\nx 1 2 3\nx -1 1 4\nx -1 2 5\ns 6\n"
        )

    @pytest.mark.parametrize("shift", [1, 7])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_numbering_matches_the_reference(self, n, shift):
        first_aux = n + shift
        m = contra_to_prop(CnfFormula([(1,)], num_vars=n), first_aux=first_aux).map
        ladder, output_var = reference_ladder(n, first_aux)
        assert {key: m.aux(*key) for key in ladder} == ladder
        assert m.output_var == output_var
        in_allocation_order = sorted(ladder.items(), key=lambda item: item[1])
        assert render_simulation_map(m) == "".join(
            f"x {lit} {level} {var}\n" for (lit, level), var in in_allocation_order
        ) + f"s {output_var}\n"
        for lit, level in ((0, 1), (n + 1, 1), (-n - 1, 1), (1, 0), (-1, n + 2)):
            with pytest.raises(ValueError, match="no ladder variable"):
                m.aux(lit, level)

    @pytest.mark.parametrize("lit, level", [(1, 1.5), (1.0, 1)], ids=["level", "lit"])
    def test_a_non_integer_is_refused(self, lit, level):
        # x(1, 1.5) used to be id 3.5, and x(1.0, 1) id 3.0
        m = contra_to_prop(CnfFormula([(-1, -2)])).map
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            m.aux(lit, level)

    def test_numpy_integers_are_still_a_literal_and_a_level(self):
        np = pytest.importorskip("numpy")
        m = contra_to_prop(CnfFormula([(-1, -2)])).map
        var = m.aux(np.int64(-1), np.int32(2))
        assert var == m.aux(-1, 2) and type(var) is int


class TestCompose:
    def test_block_layout_for_pairwise_at_most_one(self):
        from unitprop.constraints import pairwise_at_most_one

        comp = compose_upac(pairwise_at_most_one([1, 2, 3]))
        assert [b.literal for b in comp.blocks] == [1, -1, 2, -2, 3, -3]
        assert len(comp.formula) == 285
        assert comp.formula.num_vars == 153
        first = comp.blocks[0]
        assert first.guard_index == 49
        assert comp.formula.clauses[first.guard_index] == (-28, -1)
        assert [b.output_var for b in comp.blocks] == [
            28,
            53,
            78,
            103,
            128,
            153,
        ]

    def test_every_guard_links_output_to_literal(self):
        from unitprop.constraints import pairwise_at_most_one

        comp = compose_upac(pairwise_at_most_one([1, 2, 3]))
        for block in comp.blocks:
            guard = comp.formula.clauses[block.guard_index]
            assert set(guard) == {
                -block.output_var,
                -block.literal,
            }

    def test_blocks_keep_disjoint_namespaces(self):
        from unitprop.constraints import split_pair_at_most_one

        source = split_pair_at_most_one([1, 2])
        comp = compose_upac(source, variables=[1, 2])
        assert len(comp.blocks) == 4
        assert len(comp.formula) == 190
        assert comp.formula.num_vars == 103
        n = source.num_vars
        spans = []
        start = len(source.clauses)
        for block in comp.blocks:
            clauses = comp.formula.clauses[start : block.guard_index]
            # a source variable appears in a block only as the first
            # literal of an injection clause (v | x(-v,1)), (-v | x(v,1))
            injection, rest = clauses[: 2 * n], clauses[2 * n :]
            assert [c[0] for c in injection] == [
                s * v for v in range(1, n + 1) for s in (1, -1)
            ]
            fresh = {abs(lit) for c in injection for lit in c[1:]}
            fresh |= {abs(lit) for c in rest for lit in c}
            assert min(fresh) > n
            assert block.output_var in fresh
            spans.append(fresh)
            start = block.guard_index + 1
        for i, a in enumerate(spans):
            for b in spans[i + 1 :]:
                assert not (a & b)

    def test_block_lookup(self):
        from unitprop.constraints import pairwise_at_most_one

        comp = compose_upac(pairwise_at_most_one([1, 2, 3]))
        assert comp.block_for(-2).literal == -2
        with pytest.raises(ValueError):
            comp.block_for(4)

    def test_variable_subset(self):
        from unitprop.constraints import pairwise_at_most_one

        comp = compose_upac(pairwise_at_most_one([1, 2, 3]), variables=[2])
        assert [b.literal for b in comp.blocks] == [2, -2]
        comp = compose_upac(pairwise_at_most_one([1, 2, 3]), variables=[3, 1])
        assert [b.literal for b in comp.blocks] == [1, -1, 3, -3]

    def test_foreign_variables_rejected(self):
        with pytest.raises(ValueError, match="outside universe"):
            compose_upac(CnfFormula([(1,)]), variables=[2])
        with pytest.raises(ValueError, match="distinct positive integers"):
            compose_upac(CnfFormula([(1,)]), variables=[1, 1])

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_simulation_infers_only_fresh_positive_literals(self, data):
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
        trace = propagate_staged(out.formula, assignment=part)
        assert not trace.conflicted
        for stage in trace.stages:
            for lit, _ in stage.inferred:
                assert lit > source.num_vars


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of each reduction output below, recorded before prop_to_contra
# and compose_upac appended their unit clauses through restrict and
# before the family counts were measured from the emitted clauses.  The
# side maps were recorded while the ladder was still a stored table.
PINNED_REDUCTION_DIGESTS = {
    "contra_to_prop": "fb72bdb12a30b88c6e6cb657f1beaaaf82b577685024efdabd0b6bdafc06c516",
    "prop_to_contra": "f683ebdccf3fead8aa648601a4da4c0c5ed371d551133c7528a194a5eb1651a7",
    "compose_upac": "ccb5f7cc17270e1e7cf018dcd1b863ffb69554906ce4cf2cabfc08b752c244fe",
    "blocks": "ed831243c0d5a479ad5fbb4c98d2e453795f4d2a566891a2632643cc58f81036",
    "family_counts": "bd36c8539256d7abe78f078af53735ad74a54d9133f5981bc0d1da4e05aec604",
    "side_map": "a67264cfbfcbf0412bd9ccc3b2cbd77a821ed3a1946b826cb34dc1d84ce0b1b6",
    "side_map_first_aux_50": "c26db3f4f6ea663dd1945e86780be244eb9f4e0996911a32b97a29924cda955e",
}


def test_reduction_outputs_match_the_pinned_digests():
    from unitprop.constraints import pairwise_at_most_one

    red = contra_to_prop(EXAMPLE)
    contra = prop_to_contra(red.formula, red.map.output_var)
    comp = compose_upac(pairwise_at_most_one([1, 2, 3]))
    got = {
        "contra_to_prop": _sha256(emit_dimacs(red.formula)),
        "prop_to_contra": _sha256(emit_dimacs(contra)),
        "compose_upac": _sha256(emit_dimacs(comp.formula)),
        "blocks": _sha256(repr([dataclasses.astuple(b) for b in comp.blocks])),
        "family_counts": _sha256(repr(dataclasses.astuple(red.family_counts))),
        "side_map": _sha256(render_simulation_map(red.map)),
        "side_map_first_aux_50": _sha256(
            render_simulation_map(contra_to_prop(EXAMPLE, first_aux=50).map)
        ),
    }
    assert got == PINNED_REDUCTION_DIGESTS
