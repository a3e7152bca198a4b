"""The benchmark harness in ``bench/`` still runs on the package: with
``--seconds 0`` it runs one cycle of a workload, in its own interpreter, and
its last line must report the outputs correct and repeatable."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["grouped", "distance", "loss"])
def test_harness_runs_one_cycle(workload):
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["attempted"] > 0
