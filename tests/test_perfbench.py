"""The benchmark harness runs on the library as it stands.

``perfbench/checks.py`` verifies every workload's outputs against
independent oracles, so a library change that breaks a workload is caught
here, in one untraced round of each, rather than only by a timed run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and not [line for line in lines if line.startswith("FAIL")], proc.stdout
    return lines


def test_selftest_catches_every_planted_fault():
    assert all(line.startswith("ok") for line in _run("perfbench/selftest.py"))


@pytest.mark.parametrize("workload", ["frontier", "filter-gf2", "filter-gfq"])
def test_one_round_is_correct(workload):
    lines = _run(
        "perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", "0"
    )
    summary = json.loads(lines[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] > 0
