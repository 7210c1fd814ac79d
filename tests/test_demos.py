"""Golden output of the scripts under ``demos/``.

Each demo runs in a fresh interpreter with ``PYTHONPATH=src`` and must exit
0 and print exactly the committed ``tests/demo_output/<name>.txt``.  Two of
the demos print staged traces, so this also pins the staged engine's
rendered output end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_output"


def test_every_demo_has_a_golden():
    assert DEMOS
    assert {p.stem for p in DEMOS} == {p.stem for p in GOLDEN.glob("*.txt")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
