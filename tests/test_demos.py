"""Every script in ``demos/`` runs to completion against the package in
``src/``, with RuntimeWarnings as errors, as CI's numpy-only job runs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    # demos that write files put them in the temporary directory
    env["TMPDIR"] = str(tmp_path)
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    # demos remove the temporary directories they make
    assert not list(tmp_path.glob("wrot_demo_*"))
