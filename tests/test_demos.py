"""Every demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          cwd=tmp_path, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # The command-line demo echoes its child processes' stderr on stdout.
    assert "Traceback" not in proc.stderr and "Traceback" not in proc.stdout
