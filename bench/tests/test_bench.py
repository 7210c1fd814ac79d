"""The benchmark's own tests, at toy sizes.  Not part of the Tier-1 run:

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def traced(name, seed=3):
    r = run.Run(name, seed, toy=True)
    return r, r.result(r.trace(None), tracing.LAYER_METRICS)


def test_names_and_units_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS
    assert set(run.TRACE_OPS) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_untraced(name):
    r = run.Run(name, 1, toy=True)
    result = r.result(r.measure(0.2), run.END_TO_END_UNITS)
    assert r.errors == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_counts_repeat_exactly(name):
    first, result = traced(name)
    _, again = traced(name)
    assert first.errors == [] and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    counts = {k for k, unit in tracing.LAYER_METRICS.items() if unit == "count"}
    for key in counts:
        assert result["metrics"][key]["value"] == again["metrics"][key]["value"], key
    assert first.details["self_time_check"]["accounted"] > 0
    checked = result["metrics"]["verify.checked"]["value"]
    assert checked > 0 or name == "big_composition"


def test_spans_nest_inside_their_operation():
    r, _ = traced("upac_composed")
    originals = (workloads.verify.is_upac, workloads.verify.restrict)
    tracer = tracing.Tracer()
    with tracer.operation(1):
        r.ops[0].run()
    own = tracer.self_times()
    root = [s for s in tracer.spans if s[3] == tracing.OP_SPAN]
    assert len(root) == 1
    _, sid, _, _, start, end = root[0]
    assert sum(own) == pytest.approx(end - start)
    assert tracer.layer_self_time() == pytest.approx(end - start - own[sid])
    # Originals are restored once the operation ends.
    assert (workloads.verify.is_upac, workloads.verify.restrict) == originals
    assert not hasattr(originals[1], "__wrapped__")


def test_wrong_pinned_answer_raises_error_ratio(monkeypatch):
    key = ("upac_composed", workloads.TOY_COMPOSED)
    wrong = workloads.UpacAnswer(True, workloads.UPAC_ANSWERS[key].checked + 1)
    monkeypatch.setitem(workloads.UPAC_ANSWERS, key, wrong)
    r = run.Run("upac_composed", 1, toy=True)
    result = r.result(r.measure(0.1), run.END_TO_END_UNITS)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_wrong_pinned_stdout_hash_is_caught(monkeypatch):
    pinned = dict(workloads.CLI_SHA256[workloads.TOY_BIG], trace="0" * 64)
    monkeypatch.setitem(workloads.CLI_SHA256, workloads.TOY_BIG, pinned)
    r = run.Run("big_composition", 1, toy=True)
    r.measure(0.1)
    assert r.failed == r.attempted - 1  # every operation but the FAILS case
    assert "trace stdout sha256" in r.errors[0]


def test_fails_case_reproduces_its_counterexample():
    assert workloads.fails_case() == []


def test_acceptance_seed_reproduces_the_acceptance_corpus():
    from test_acceptance import SEED, _build_corpus

    assert SEED == workloads.ACCEPTANCE_SEED
    assert workloads.build_corpus() == _build_corpus()
    assert workloads.build_corpus(7) != workloads.build_corpus()


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert run.tail([float(i) for i in range(20)]) == (100.0, 19.0)
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0)


def test_compare_flags_a_regression(tmp_path, capsys):
    def results(path, scale):
        lines = []
        for i in range(5):
            metrics = {
                m["name"]: {"value": (1.0 + i / 100) * scale, "unit": m["unit"]}
                for m in SPEC["end_to_end"]
            }
            record = {"workload": "upac_bare", "trace": 0,
                      "env": {"python": "3", "nproc": 2, "git_revision": None,
                              "git_dirty": None, "loadavg": [0, 0, 0]}}
            lines += [json.dumps({"run": record}),
                      json.dumps({"correct": True, "attempted": 2, "failed": 0,
                                  "metrics": metrics})]
        path.write_text("\n".join(lines) + "\n")

    results(tmp_path / "a", 1.0)
    results(tmp_path / "b", 1.0)
    assert compare.main(tmp_path / "a", tmp_path / "b", ROOT / "BENCHMARK.json") == 0
    results(tmp_path / "b", 2.0)
    assert compare.main(tmp_path / "a", tmp_path / "b", ROOT / "BENCHMARK.json") == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "upac_bare", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
