"""The benchmark's output checks must still reject every corrupted output.

``perfbench/selftest.py`` feeds ``instance_to_dict`` back into
``instance_from_dict`` and edits copies of the result dataclasses, so a
program change can break it without breaking any other test."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SELFTEST_PY = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_bench_selftest_reports_no_problems():
    run = subprocess.run([sys.executable, str(SELFTEST_PY)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "0 problems" in run.stdout.splitlines()
