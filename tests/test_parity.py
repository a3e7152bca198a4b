"""``scripts/parity.py`` compares the workload outputs of two checkouts bit
for bit. Run against this checkout itself, it must find every output
identical and no Sinkhorn solve that needed its checked rerun; on two
fingerprints that differ, it says where. The self-run uses ``distance``,
the only workload whose Sinkhorn solves can take the checked rerun:
``grouped`` and ``loss`` train on one-hot targets, which need no solve."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_names_the_first_difference():
    compare = load_parity().compare
    here = [(1.5).hex(), "ValueError: x", (2.0).hex(), (3.0).hex()]
    there = [(1.5).hex(), "ValueError: x", (2.5).hex(), (3.25).hex()]
    assert compare(here, list(here)) == "identical"
    assert compare(here, there) == (
        "DIFFERENT in 2 outputs, first at index 2: "
        "here 0x1.0000000000000p+1, there 0x1.4000000000000p+1"
    )
    assert compare(here[:2], here) == (
        "DIFFERENT in 2 outputs, first at index 2: here None, there 0x1.0000000000000p+1"
    )


def test_parity_against_this_checkout():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "parity.py"), str(ROOT),
         "--workloads", "distance", "--seeds", "11"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "identical" in result.stdout
    assert "reruns here 0" in result.stdout
