"""Every ``python`` block of ``README.md`` runs on its own, against the
package in ``src/``, so a renamed or deleted public name cannot leave the
README stale."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_the_quick_start_and_training_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", BLOCKS[index]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    # the blocks write nothing where they run
    assert not list(tmp_path.iterdir())
