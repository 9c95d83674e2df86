"""The benchmark's per-layer hooks must find every function they wrap, and
the layers they wrap must be the ones the program calls.

A hook whose target is gone reports its layer metrics as absent instead of
failing, so a rename in the program would otherwise go unnoticed; a target
that still resolves but is no longer called would read zero."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

HOOKS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "hooks.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS_PY)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module executes
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


@pytest.mark.parametrize("module, attr",
                         [(h[0], h[1]) for h in _hooks().HOOKS])
def test_hook_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_hooked_search_layers_are_called():
    # The 16-leg seed-0 week's first master MIP (2304) is above its LP bound
    # (2214), so gap completion runs: pricing reaches the rcsp.search hook
    # once per window and round, completion the rcsp.enumerate hook once
    # per window, and their counts add up to the report's.
    from crewroute.generate import generate_instance
    from crewroute.pairing import solve_crew_pairing
    from crewroute.pairing.colgen import COMPLETION_PAD

    inst = generate_instance(4, 2, 16, 3, 0)
    tracer = _hooks().Tracer()
    tracer.install()
    try:
        res = solve_crew_pairing(inst)
    finally:
        tracer.uninstall()
    assert not tracer.absent
    assert res.c_ub_initial > res.c_lb + COMPLETION_PAD
    windows = len(res.stats["kappa"])
    spans = [s for s in tracer.spans
             if s.name in ("rcsp.search", "rcsp.enumerate")]
    calls = [s.name for s in spans]
    assert calls.count("rcsp.search") == windows * res.iterations
    assert calls.count("rcsp.enumerate") == windows
    for count, stat in (("paths", "paths_enumerated"), ("cut_dom", "cut_dom"),
                        ("cut_low", "cut_low")):
        assert sum(s.counts[count] for s in spans) == res.stats[stat]


def test_each_solve_builds_its_connections_once():
    # every public solver takes an Instance and builds the week's
    # connections from it through a module global the hooks wrap: one
    # instance.connections span per call, none skipped and none repeated
    from crewroute.generate import generate_instance
    from crewroute.integrated import solve_integrated
    from crewroute.pairing import solve_crew_pairing
    from crewroute.routing import minimize_aircraft, solve_routing

    inst = generate_instance(4, 2, 16, 3, 0)
    for solver in (solve_routing, minimize_aircraft, solve_crew_pairing,
                   solve_integrated):
        tracer = _hooks().Tracer()
        tracer.install()
        try:
            solver(inst)
        finally:
            tracer.uninstall()
        names = [s.name for s in tracer.spans]
        assert names.count("instance.connections") == 1, solver.__name__
