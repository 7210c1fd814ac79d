"""Command line interface: output contracts and exit codes.

Exit code convention: 0 for success (fixpoint reached, verdict holds),
1 for a conflict or a failed verdict, 2 for usage and input errors.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_reductions import PINNED_REDUCTION_DIGESTS
from unitprop import cli
from unitprop.cli import main
from unitprop.cnf import CnfFormula, emit_dimacs, parse_dimacs
from unitprop.constraints import pairwise_at_most_one, split_pair_at_most_one
from unitprop.reductions import contra_to_prop

EXAMPLE = CnfFormula([(1,), (-1, 2, 3), (-3, -4)], num_vars=4)


@pytest.fixture()
def example_cnf(tmp_path):
    path = tmp_path / "example.cnf"
    path.write_text(emit_dimacs(EXAMPLE))
    return str(path)


@pytest.fixture()
def amo_cnf(tmp_path):
    path = tmp_path / "amo.cnf"
    path.write_text(emit_dimacs(pairwise_at_most_one([1, 2, 3])))
    return str(path)


class TestPropagate:
    def test_conflict_report(self, example_cnf, capsys):
        assert main(["propagate", example_cnf, "--assign", "-2 4"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "CONFLICT: clause=2",
            "INFER 1 clause=0",
            "INFER -2 clause=3",
            "INFER 4 clause=4",
            "INFER 3 clause=1",
        ]

    def test_fixpoint_report(self, example_cnf, capsys):
        assert main(["propagate", example_cnf]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["FIXPOINT: 1", "INFER 1 clause=0"]

    def test_seeded_run_reports_original_clause_indices(self, example_cnf, capsys):
        assert main(["propagate", example_cnf, "--assign", "-2 4", "--seed"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "CONFLICT: clause=1"


class TestTrace:
    def test_staged_table(self, example_cnf, capsys):
        assert main(["trace", example_cnf, "--staged", "--assign", "-2 4"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "INITIAL",
            "STAGE 1: 1 -2 4",
            "STAGE 2: 3 -3",
            "STAGE 3: -1 2 -4",
            "CONFLICT: stage=2",
            "SATURATED stages=3",
        ]

    def test_staged_seeded_table(self, example_cnf, capsys):
        assert main(
            ["trace", example_cnf, "--staged", "--assign", "-2 4", "--seed"]
        ) == 0
        assert capsys.readouterr().out.splitlines() == [
            "INITIAL -2 4",
            "STAGE 1: 1 -3",
            "STAGE 2: -1 2 3",
            "STAGE 3: -4",
            "CONFLICT: stage=2",
            "SATURATED stages=3",
        ]

    def test_record_lines(self, example_cnf, capsys):
        assert main(
            ["trace", example_cnf, "--staged", "--assign", "-2 4", "--records"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "RECORD 1 0 1"
        assert lines[-1] == "RECORD 3 2 -4"
        assert len(lines) == 8

    def test_truncation(self, example_cnf, capsys):
        assert main(
            [
                "trace",
                example_cnf,
                "--staged",
                "--max-stages",
                "1",
                "--assign",
                "-2 4",
            ]
        ) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "TRUNCATED stages=1"

    def test_negative_max_stages_refused(self, example_cnf, capsys):
        argv = ["trace", example_cnf, "--staged", "--max-stages", "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_stages must be nonnegative\n"

    @pytest.mark.parametrize("option", [["--records"], ["--max-stages", "1"]])
    def test_records_require_staged(self, example_cnf, capsys, option):
        assert main(["trace", example_cnf, *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option[0]} requires --staged\n"

    def test_default_is_the_fixpoint_view(self, example_cnf, capsys):
        assert main(["trace", example_cnf]) == 0
        assert capsys.readouterr().out.startswith("FIXPOINT: 1")

    @pytest.mark.parametrize("extra", [[], ["--seed"]])
    def test_fixpoint_view_prints_the_propagate_report(
        self, example_cnf, capsys, monkeypatch, extra
    ):
        argv = [example_cnf, "--assign", "-2 4", *extra]
        assert main(["propagate", *argv]) == 1
        report = capsys.readouterr().out
        reads = []
        real_read = cli._read_formula
        monkeypatch.setattr(
            cli, "_read_formula", lambda path: reads.append(path) or real_read(path)
        )
        # the same bytes, but a trace that ends in conflict still exits 0
        assert main(["trace", *argv]) == 0
        assert capsys.readouterr().out == report
        assert reads == [example_cnf]


class TestReduce:
    def test_summary_and_artifacts(self, example_cnf, tmp_path, capsys):
        sim = tmp_path / "sim.cnf"
        side = tmp_path / "sim.map"
        assert main(
            [
                "reduce-c2p",
                example_cnf,
                "-o",
                str(sim),
                "--map",
                str(side),
            ]
        ) == 0
        assert capsys.readouterr().out.splitlines() == [
            "REDUCED clauses=3->65 vars=4->45 output=45 "
            "counts=injection:8,replication:32,deduction:20,unit:1,collection:4"
        ]
        written = parse_dimacs(sim.read_text())
        assert len(written) == 65
        assert written.num_vars == 45
        side_digest = hashlib.sha256(side.read_bytes()).hexdigest()
        assert side_digest == PINNED_REDUCTION_DIGESTS["side_map"]

    def test_first_aux_moves_the_numbering(self, example_cnf, tmp_path, capsys):
        sim = tmp_path / "sim.cnf"
        argv = ["reduce-c2p", example_cnf, "--first-aux", "50", "-o", str(sim)]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "REDUCED clauses=3->65 vars=4->90 output=90 "
            "counts=injection:8,replication:32,deduction:20,unit:1,collection:4"
        ]
        expected = contra_to_prop(EXAMPLE, first_aux=50).formula
        assert sim.read_text() == emit_dimacs(expected)

    def test_first_aux_inside_the_source_universe_is_refused(self, example_cnf, capsys):
        assert main(["reduce-c2p", example_cnf, "--first-aux", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: first_aux must exceed the source universe (4)\n"

    def test_dimacs_to_stdout_without_output_file(self, example_cnf, capsys):
        assert main(["reduce-c2p", example_cnf]) == 0
        out = capsys.readouterr().out
        assert out.startswith("p cnf 45 65\n")
        assert parse_dimacs(out).num_vars == 45

    def test_appending_the_negated_output(self, example_cnf, tmp_path, capsys):
        sim = tmp_path / "sim.cnf"
        main(["reduce-c2p", example_cnf, "-o", str(sim)])
        capsys.readouterr()
        back = tmp_path / "back.cnf"
        assert main(
            ["reduce-p2c", str(sim), "--omega", "45", "-o", str(back)]
        ) == 0
        assert capsys.readouterr().out.splitlines() == [
            "REDUCED clauses=65->66 appended-unit=-45"
        ]
        assert parse_dimacs(back.read_text()).clauses[-1] == (-45,)


class TestCompose:
    def test_summary_lists_block_outputs(self, amo_cnf, tmp_path, capsys):
        out_file = tmp_path / "comp.cnf"
        assert main(["compose-upac", amo_cnf, "-o", str(out_file)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "COMPOSED blocks=6 clauses=285 vars=153",
            "OUTPUT 1 28",
            "OUTPUT -1 53",
            "OUTPUT 2 78",
            "OUTPUT -2 103",
            "OUTPUT 3 128",
            "OUTPUT -3 153",
        ]
        assert parse_dimacs(out_file.read_text()).num_vars == 153

    def test_variable_subset(self, amo_cnf, tmp_path, capsys):
        out_file = tmp_path / "comp.cnf"
        assert main(
            ["compose-upac", amo_cnf, "--vars", "1 2", "-o", str(out_file)]
        ) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("COMPOSED blocks=4 ")

    def test_repeated_variable_refused(self, amo_cnf, capsys):
        assert main(["compose-upac", amo_cnf, "--vars", "1 1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "distinct positive integers" in captured.err

    def test_unparsable_variable_list(self, amo_cnf, capsys):
        assert main(["compose-upac", amo_cnf, "--vars", "1 x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: bad variable list syntax '1 x': expected positive integers\n"
        )


class TestVerify:
    def test_upi_holds(self, amo_cnf, capsys):
        assert main(["verify-upi", amo_cnf, "--constraint", "atmost 1 of 3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["HOLDS checked=27"]

    def test_upac_holds(self, amo_cnf, capsys):
        assert main(["verify-upac", amo_cnf, "--constraint", "atmost 1 of 3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["HOLDS checked=27"]

    def test_upac_failure_prints_the_counterexample(self, tmp_path, capsys):
        path = tmp_path / "split.cnf"
        path.write_text(emit_dimacs(split_pair_at_most_one([1, 2])))
        assert main(
            ["verify-upac", str(path), "--constraint", "atmost 1 of 2"]
        ) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FAILS checked=2"
        assert "  assignment: v1=1" in lines
        assert "  literal: -2" in lines

    def test_hm_single_assignment(self, example_cnf, capsys):
        assert main(["verify-hm", example_cnf, "--assign", "-2 4"]) == 0
        assert capsys.readouterr().out.splitlines() == ["HOLDS checked=40"]

    def test_hm_full_sweep(self, example_cnf, capsys):
        assert main(["verify-hm", example_cnf, "--all"]) == 0
        assert capsys.readouterr().out.splitlines() == ["HOLDS checked=3240"]

    @pytest.mark.parametrize("limit", ["-1", "5"])
    def test_hm_limit_requires_all(self, example_cnf, capsys, limit):
        argv = ["verify-hm", example_cnf, "--assign", "-2 4", "--limit", limit]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --limit requires --all\n"

    def test_hm_requires_a_mode(self, example_cnf, capsys):
        assert main(["verify-hm", example_cnf]) == 2
        assert "--assign --all is required" in capsys.readouterr().err


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["propagate", "/nonexistent/x.cnf"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_dimacs(self, tmp_path, capsys):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 1 1\n2 0\n")
        assert main(["propagate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_bad_assignment_syntax(self, example_cnf, capsys):
        assert main(["propagate", example_cnf, "--assign", "1 x"]) == 2
        assert capsys.readouterr().err == (
            "error: bad assignment syntax '1 x': expected signed integers\n"
        )

    def test_contradictory_assignment(self, example_cnf, capsys):
        assert main(["propagate", example_cnf, "--assign", "1 -1"]) == 2
        assert "contradictory assignment" in capsys.readouterr().err

    def test_bad_constraint_spec(self, amo_cnf, capsys):
        assert main(["verify-upi", amo_cnf, "--constraint", "bogus 1"]) == 2
        assert "unknown constraint form" in capsys.readouterr().err

    def test_non_integer_in_a_constraint_spec(self, amo_cnf, capsys):
        assert main(["verify-upi", amo_cnf, "--constraint", "atmost x of 3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: expected 'atmost <k> of <n>', got 'atmost x of 3'\n"
        )

    def test_negative_constraint_size(self, amo_cnf, capsys):
        assert main(["verify-upac", amo_cnf, "--constraint", "table -3 1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: variable count must be nonnegative\n"

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("command", ["verify-upac", "verify-upi"])
    def test_constraint_wider_than_the_formula(self, tmp_path, capsys, command):
        # refused up front, also where a clause would fail the sweep first
        cases = [
            ("p cnf 3 0\n", "table 4 " + "1" * 16, "literal 4 outside universe 1..3"),
            ("p cnf 1 1\n1 0\n", "table 2 1111", "literal 2 outside universe 1..1"),
        ]
        for dimacs, table, message in cases:
            path = tmp_path / "narrow.cnf"
            path.write_text(dimacs)
            assert main([command, str(path), "--constraint", table]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_enumeration_guard(self, tmp_path, capsys):
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 13 1\n1 2 0\n")
        assert main(["verify-hm", str(path), "--all"]) == 2
        assert "refusing to enumerate" in capsys.readouterr().err

    def test_negative_limit(self, amo_cnf, capsys):
        command = ["verify-upac", amo_cnf, "--constraint", "atmost 1 of 3"]
        assert main(command + ["--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: limit must be nonnegative\n"


def test_installed_entry_point_runs(example_cnf):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "unitprop", "propagate", example_cnf],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "FIXPOINT: 1"
