"""``scripts/parity.py`` compares the workload outputs of two checkouts bit
for bit. Run against this checkout itself, it must find every output
identical and no Sinkhorn solve that needed its checked rerun."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_parity_against_this_checkout():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "parity.py"), str(ROOT),
         "--workloads", "grouped", "--seeds", "11"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "identical" in result.stdout
    assert "reruns here 0" in result.stdout
