"""Each demo runs as a script against the package source and leaves no files behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_cleans_up(demo, tmp_path):
    # a RuntimeWarning fails a demo as pyproject's filterwarnings fails the suite
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path),
               PYTHONWARNINGS="error::RuntimeWarning")
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []
