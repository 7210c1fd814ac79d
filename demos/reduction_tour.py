"""
From conflict detection to a designated output literal
======================================================

A formula that signals by conflicting can be rebuilt as one that never
conflicts and instead infers a single fresh output variable s.  The
construction tracks, per source literal and per round, a ladder
variable x(lit, level) meaning "lit was known by that round".
"""

from unitprop import (
    CnfFormula,
    assignment,
    contra_to_prop,
    enumerate_partials,
    propagate_fixpoint,
    propagate_staged,
    render_trace,
    restrict,
    stage_assignment,
)

names = {1: "a", 2: "b", 3: "c", 4: "d"}

source = CnfFormula([(1,), (-1, 2, 3), (-3, -4)], num_vars=4)
bindings = assignment([-2, 4])

out = contra_to_prop(source)
counts = out.family_counts
print("source:", len(source), "clauses over", source.num_vars, "vars")
print(
    "simulation:", len(out.formula), "clauses over", out.formula.num_vars,
    "vars  (injection", counts.injection, "/ replication", counts.replication,
    "/ deduction", counts.deduction, "/ unit", counts.unit,
    "/ collection", counts.collection, ")",
)
print("output variable s =", out.map.output_var)
print()

# the ladder mirrors the source trace one level per round:
# x(a,1) fires where a fired, x(c,2) where c fired, and so on
print("x(a,1)  =", out.map.aux(1, 1))
print("x(~b,1) =", out.map.aux(-2, 1))
print("x(d,1)  =", out.map.aux(4, 1))
print("x(c,2)  =", out.map.aux(3, 2))
print("x(~c,2) =", out.map.aux(-3, 2))
print()

print("-- source under ~b, d (conflicts at stage 2) --")
print(render_trace(propagate_staged(restrict(source, bindings)), names=names))
print()

print("-- simulation seeded with ~b, d (never conflicts) --")
trace = propagate_staged(out.formula, assignment=bindings)
print(render_trace(trace))
print()
s = out.map.output_var
print("s known after stage 5?", s in stage_assignment(trace, 5))
print("s known after stage 6?", s in stage_assignment(trace, 6))
print()

# the equivalence, spot-checked over the whole assignment space
agreements = 0
for part in enumerate_partials(source.variables):
    conflicted = propagate_fixpoint(source, assignment=part).conflicted
    fired = s in propagate_fixpoint(out.formula, assignment=part).final
    assert conflicted == fired
    agreements += 1
print("s fires exactly when the source conflicts:", agreements, "of 81 agree")
