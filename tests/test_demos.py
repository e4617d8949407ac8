"""The quick demos run end to end, so an API change cannot break one silently.

Demos 04 and 05 train for minutes and are run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_data_pipeline", "02_autodiff",
                                  "03_graph_propagation"])
def test_demo_runs(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
