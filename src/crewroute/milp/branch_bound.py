"""Best-first branch and bound over the binary variables of a model.

Nodes are ordered by their parent's LP bound (ties FIFO), branching picks
the most fractional binary (ties to the lowest index) and explores the
1-branch first. Because the heap is bound-ordered, the first node whose
bound cannot beat the incumbent proves optimality; a node budget turns the
same information into a best bound plus gap instead of a wrong answer.

Every node carries its parent's optimal basis: a child differs from its
parent by one fixed binary, so its LP resumes from that basis with a few
dual simplex pivots instead of a cold crash-started solve. The root's
optimal basis is returned too, so a caller that appends rows to the model
or changes its bounds can start its next solve from it.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .model import Basis, LinearProgram, LpStatus, MipResult, MipStatus
from .simplex import solve_lp

PRUNE_EPS = 1e-9
TOL_INT = 1e-6


def solve_mip(
    lp: LinearProgram,
    node_limit: int = 200_000,
    start: Basis | None = None,
) -> MipResult:
    """Minimize over the binaries; ``start`` seeds the root LP's basis."""
    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf
    seq = 0
    # (parent bound, FIFO tie break, bound fixes, parent basis)
    heap: list[tuple[float, int, dict, Basis | None]] = [
        (-math.inf, seq, {}, start)
    ]
    nodes = 0
    root_basis: Basis | None = None
    binaries = np.flatnonzero(lp.binary)

    while heap:
        bound, _, fixes, basis = heapq.heappop(heap)
        if bound >= incumbent_obj - PRUNE_EPS:
            break
        if nodes >= node_limit:
            best_bound = min(bound, incumbent_obj)
            return MipResult(MipStatus.NODE_LIMIT, incumbent_x, incumbent_obj,
                             best_bound, nodes, root_basis)
        nodes += 1
        sol = solve_lp(lp, bound_overrides=fixes, start=basis)
        if sol.status == LpStatus.INFEASIBLE:
            continue
        if sol.status == LpStatus.UNBOUNDED:
            raise ValueError("relaxation is unbounded; model is malformed")
        if sol.status != LpStatus.OPTIMAL:
            raise RuntimeError("LP numeric failure during branch and bound")
        if nodes == 1:
            root_basis = sol.basis
        if sol.objective >= incumbent_obj - PRUNE_EPS:
            continue

        x = sol.x
        xb = x[binaries]
        frac = np.minimum(xb, 1.0 - xb)
        i = int(np.argmax(frac)) if frac.size else -1
        if i < 0 or frac[i] <= TOL_INT:
            x_int = x.copy()
            x_int[binaries] = np.round(xb)
            obj = lp.objective_value(x_int)
            if obj < incumbent_obj - PRUNE_EPS:
                incumbent_obj = obj
                incumbent_x = x_int
            continue

        for val in (1.0, 0.0):
            seq += 1
            child = dict(fixes)
            child[int(binaries[i])] = (val, val)
            heapq.heappush(heap, (sol.objective, seq, child, sol.basis))

    if incumbent_x is None:
        return MipResult(MipStatus.INFEASIBLE, None, math.inf, math.inf, nodes,
                         root_basis)
    return MipResult(MipStatus.OPTIMAL, incumbent_x, incumbent_obj,
                     incumbent_obj, nodes, root_basis)
