"""Demos 01-03 run to completion, so an API change that breaks one fails here.

Each runs in its own interpreter with ``cwd`` in a temporary directory and
``PYTHONPATH=src``, as a reader would run it; each takes 1-3 s.  Demos 04
and 05 are left out: 04 trains a desk-scale run (about 24 s) and 05 sweeps
and probes that run's checkpoints (about 74 s), too slow for every test run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = ("01_gradients_and_spectra.py", "02_toy_games_grid_vs_gradient.py",
              "03_divergence_oracles.py")


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
