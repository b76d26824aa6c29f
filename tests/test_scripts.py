"""Smoke test: each study script runs to completion at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = [
    ("supercritical_sweep.py", "--d 6 --trials 2 --steps 2 --workers 1 --out sweep.csv"),
    ("gw_convergence.py", "--trials 20 --dims 5 10 40"),  # d = 40 > MAX_DIMENSION: gw is unbounded
    ("sprinkling_study.py", "--d 6 --trials 2 --exponents 3"),
]


@pytest.mark.parametrize("script,argv", SCRIPTS, ids=[name for name, _ in SCRIPTS])
def test_script_runs(tmp_path, script, argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv.split()],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
