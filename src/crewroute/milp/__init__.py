"""Embedded LP/MIP toolkit: model container, simplex, branch and bound."""

from .branch_bound import solve_mip
from .model import (
    Basis,
    LinearProgram,
    LpSolution,
    LpStatus,
    MipResult,
    MipStatus,
)
from .simplex import TOL_FEAS, TOL_PIVOT, solve_lp

__all__ = [
    "Basis",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "MipResult",
    "MipStatus",
    "solve_lp",
    "solve_mip",
    "TOL_FEAS",
    "TOL_PIVOT",
]
