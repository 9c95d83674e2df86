"""The benchmark's set-up sample must run on the program as it is.

``perfbench/run.py --setup-sample`` imports ``crewroute`` and generates the
workload's weeks in a fresh process, and its last line is the seconds that
took; ``setup_s`` is the median of several such samples."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["route", "pair-price", "integrated-cuts"])
def test_setup_sample_prints_positive_seconds(workload):
    run = subprocess.run([sys.executable, str(RUN_PY), "--setup-sample",
                          "--workload", workload],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    seconds = float(run.stdout.splitlines()[-1])
    assert seconds > 0.0
