"""``import crewroute`` loads the instance layer only.

The package exports the instance model and the generator, so a process
that reads, writes or generates weeks, or imports the brute-force oracles,
loads neither numpy nor any solver module. The CLI imports a solver only
in the command that runs it, so ``generate``, ``report`` and ``oracle``
load none either. The checks run in a fresh interpreter, since this test
process has loaded both already."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import crewroute
week = crewroute.generate_instance(6, 2, 40, 4, 7)
again = crewroute.instance_from_dict(crewroute.instance_to_dict(week))
assert again == week
import crewroute.oracles
print(crewroute.__file__)
print(" ".join(sorted(sys.modules)))
"""

CLI_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from crewroute import cli
week = sys.argv[2]
assert cli.main(["generate", "--legs", "8", "--aircraft", "2", "--seed", "1",
                 "--output", week]) == 0
assert cli.main(["report", week, "--output", week + ".report"]) == 0
assert cli.main(["oracle", week, "routing", "--output", week + ".oracle"]) == 0
print(cli.__file__)
print(" ".join(sorted(sys.modules)))
"""

HEAVY = ("milp", "rcsp", "pairing", "routing", "integrated")


def test_package_import_loads_no_numpy_and_no_solver():
    run = subprocess.run([sys.executable, "-I", "-c", SCRIPT, str(SRC)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    where, modules = run.stdout.splitlines()
    assert Path(where).resolve().parent == SRC / "crewroute"
    loaded = set(modules.split())
    assert "crewroute.oracles" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "numpy"}
    heavy = {m for m in loaded
             if m.startswith("crewroute.") and m.split(".")[1] in HEAVY}
    assert not heavy, sorted(heavy)


def test_cli_commands_without_a_solve_load_no_numpy_and_no_solver(tmp_path):
    week = str(tmp_path / "week.json")
    run = subprocess.run([sys.executable, "-I", "-c", CLI_SCRIPT, str(SRC),
                          week],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    where, modules = run.stdout.splitlines()
    assert Path(where).resolve().parent == SRC / "crewroute"
    loaded = set(modules.split())
    assert "crewroute.cli" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "numpy"}
    heavy = {m for m in loaded
             if m.startswith("crewroute.") and m.split(".")[1] in HEAVY}
    assert not heavy, sorted(heavy)
