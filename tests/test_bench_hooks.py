"""The benchmark's per-layer hooks must find every function they wrap.

A hook whose target is gone reports its layer metrics as absent instead of
failing, so a rename in the program would otherwise go unnoticed."""

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
    return mod.HOOKS


@pytest.mark.parametrize("module, attr",
                         [(h[0], h[1]) for h in _hooks()])
def test_hook_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
