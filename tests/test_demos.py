"""Smoke test: every script in demos/ runs to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.slow
@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(tmp_path, script):
    # Run a copy, so that any plot a demo saves next to itself lands in
    # tmp_path rather than in the source tree.
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demos / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
