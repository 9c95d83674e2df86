"""Two-phase bounded revised simplex with explicit basis inverse.

Phase 1 minimizes artificial infeasibility (slacks seed the basis where
their column survives row flipping), phase 2 the true objective. Dantzig
pricing switches to Bland's rule permanently after a streak of degenerate
pivots, which guarantees termination; a generous pivot cap backstops
numerical trouble as a distinct NUMERIC_FAILURE status rather than a wrong
answer. The basis inverse is maintained by eta updates (see _kernels) and
refactorized periodically.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import eta_update, ratio_test
from .model import LinearProgram, LpSolution, LpStatus

TOL_FEAS = 1e-7
TOL_PIVOT = 1e-9
DEGENERATE_STREAK = 40
REFACTOR_EVERY = 64

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2


class _Tableau:
    """Standard-form working copy: equality rows, variables in [0, ub]."""

    def __init__(self, lp: LinearProgram, overrides=None):
        n = lp.n_vars
        m = lp.n_rows
        lo = np.array(lp.lower)
        hi = np.array(lp.upper)
        if overrides:
            for j, (l, h) in overrides.items():
                lo[j], hi[j] = l, h
                if h < l:
                    raise ValueError("bound override reversed")
        a = lp.dense_matrix()
        b = np.array(lp.rhs) - a @ lo
        cost = np.array(lp.obj)

        n_slack = sum(1 for rel in lp.relations if rel != "=")
        ncols = n + n_slack + m
        self.a = np.zeros((m, ncols))
        self.a[:, :n] = a
        self.ub = np.concatenate(
            [hi - lo, np.full(n_slack, np.inf), np.full(m, np.inf)]
        )
        self.flip = np.ones(m)
        self.basis = np.empty(m, dtype=np.int64)
        self.art_start = n + n_slack

        col = n
        slack_of = {}
        for i, rel in enumerate(lp.relations):
            if rel != "=":
                self.a[i, col] = 1.0 if rel == "<=" else -1.0
                slack_of[i] = col
                col += 1
        for i in range(m):
            if b[i] < 0:
                b[i] = -b[i]
                self.a[i, :] *= -1.0
                self.flip[i] = -1.0
        for i in range(m):
            j = slack_of.get(i)
            if j is not None and self.a[i, j] == 1.0:
                self.basis[i] = j
            else:
                art = self.art_start + i
                self.a[i, art] = 1.0
                self.basis[i] = art
        self.b = b
        self.cost = np.concatenate([cost, np.zeros(ncols - n)])
        self.n_orig = n
        self.lo_shift = lo
        self.obj_shift = float(cost @ lo)
        self.vstat = np.full(ncols, _AT_LOWER, dtype=np.int64)
        self.vstat[self.basis] = _BASIC
        self.binv = np.eye(m)
        for i in range(m):
            if self.a[i, self.basis[i]] == -1.0:
                self.binv[i, i] = -1.0
        self.xb = self.binv @ b


def _recompute_xb(t: _Tableau) -> None:
    rhs = t.b.copy()
    at_upper = np.nonzero(t.vstat == _AT_UPPER)[0]
    for j in at_upper:
        rhs -= t.a[:, j] * t.ub[j]
    t.xb = t.binv @ rhs


def _refactor(t: _Tableau) -> bool:
    try:
        t.binv = np.linalg.inv(t.a[:, t.basis])
    except np.linalg.LinAlgError:
        return False
    _recompute_xb(t)
    return True


def _iterate(t: _Tableau, max_pivots: int) -> tuple[str, int]:
    """Run simplex pivots until optimal/unbounded/cap. Returns (state, count)."""
    bland = False
    streak = 0
    pivots = 0
    since_refactor = 0
    abs_a = np.abs(t.a)
    abs_cost = np.abs(t.cost)
    while True:
        y = t.cost[t.basis] @ t.binv
        d = t.cost - y @ t.a
        # Reduced costs inherit rounding noise at the scale of the dual/cost
        # magnitudes feeding them, so the entering test must be relative:
        # an absolute cutoff stalls forever on big-cost columns whose true
        # reduced cost is zero.
        dscale = np.maximum(1.0, abs_cost + np.abs(y) @ abs_a)
        rel = d / dscale
        can_enter = (t.ub > 0) & (t.vstat != _BASIC)
        down = can_enter & (t.vstat == _AT_LOWER) & (rel < -TOL_PIVOT)
        up = can_enter & (t.vstat == _AT_UPPER) & (rel > TOL_PIVOT)
        viol = np.where(down, -rel, 0.0) + np.where(up, rel, 0.0)
        if not viol.any():
            return "optimal", pivots
        if pivots >= max_pivots:
            return "limit", pivots
        if bland:
            j = int(np.nonzero(viol > 0)[0][0])
        else:
            j = int(np.argmax(viol))
        sigma = 1.0 if t.vstat[j] == _AT_LOWER else -1.0
        w = t.binv @ (sigma * t.a[:, j])
        t_basic, row, kind = ratio_test(t.xb, w, t.ub[t.basis], t.basis, TOL_PIVOT)
        t_flip = t.ub[j]
        step = min(t_basic, t_flip)
        if math.isinf(step):
            return "unbounded", pivots
        t.xb -= step * w
        if t_flip <= t_basic:
            t.vstat[j] = _AT_UPPER if t.vstat[j] == _AT_LOWER else _AT_LOWER
        else:
            leaving = t.basis[row]
            t.vstat[leaving] = _AT_LOWER if kind == 0 else _AT_UPPER
            entering_value = step if sigma > 0 else t.ub[j] - step
            eta_update(t.binv, sigma * w, row)
            t.basis[row] = j
            t.vstat[j] = _BASIC
            t.xb[row] = entering_value
        pivots += 1
        since_refactor += 1
        if step < TOL_FEAS:
            streak += 1
            if streak > DEGENERATE_STREAK:
                bland = True
        else:
            streak = 0
        if since_refactor >= REFACTOR_EVERY:
            if not _refactor(t):
                return "limit", pivots
            since_refactor = 0


def _drive_out_artificials(t: _Tableau) -> None:
    m = t.b.shape[0]
    for r in range(m):
        j = t.basis[r]
        if j < t.art_start:
            continue
        row_vec = t.binv[r, :] @ t.a[:, : t.art_start]
        candidates = np.nonzero(
            (np.abs(row_vec) > TOL_PIVOT) & (t.vstat[: t.art_start] != _BASIC)
        )[0]
        if candidates.size == 0:
            # Redundant row: keep the artificial basic, pinned at zero.
            t.ub[j] = 0.0
            continue
        enter = int(candidates[0])
        w = t.binv @ t.a[:, enter]
        eta_update(t.binv, w, r)
        t.vstat[j] = _AT_LOWER
        t.basis[r] = enter
        old_stat = t.vstat[enter]
        t.vstat[enter] = _BASIC
        t.xb[r] = 0.0 if old_stat == _AT_LOWER else t.ub[enter]


def solve_lp(
    lp: LinearProgram,
    bound_overrides: dict[int, tuple[float, float]] | None = None,
    max_pivots: int | None = None,
) -> LpSolution:
    """Minimize the LP relaxation; binaries are treated as their boxes."""
    t = _Tableau(lp, bound_overrides)
    m, ncols = t.a.shape
    if max_pivots is None:
        max_pivots = max(5000, 100 * (m + ncols))

    if m > 0:
        real_cost = t.cost
        t.cost = np.zeros(ncols)
        t.cost[t.art_start:] = 1.0
        state, it1 = _iterate(t, max_pivots)
        if state == "limit":
            return LpSolution(LpStatus.NUMERIC_FAILURE, None, math.nan, None, None, it1)
        phase1_obj = float(t.cost[t.basis] @ t.xb)
        ptol = TOL_FEAS * max(1.0, float(np.abs(t.b).max(initial=0.0)))
        if phase1_obj > ptol:
            return LpSolution(LpStatus.INFEASIBLE, None, math.inf, None, None, it1)
        _drive_out_artificials(t)
        t.ub[t.art_start:] = 0.0
        t.cost = real_cost
    else:
        it1 = 0

    state, it2 = _iterate(t, max_pivots)
    iterations = it1 + it2
    if state == "limit":
        return LpSolution(LpStatus.NUMERIC_FAILURE, None, math.nan, None, None, iterations)
    if state == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, -math.inf, None, None, iterations)

    if not _refactor(t):
        return LpSolution(LpStatus.NUMERIC_FAILURE, None, math.nan, None, None, iterations)
    # Feasibility audit: a basis outside tolerance is reported, not returned.
    scale = max(1.0, float(np.abs(t.b).max(initial=0.0)))
    ub_b = t.ub[t.basis]
    if (t.xb < -10 * TOL_FEAS * scale).any() or (
        np.isfinite(ub_b) & (t.xb > ub_b + 10 * TOL_FEAS * scale)
    ).any():
        return LpSolution(LpStatus.NUMERIC_FAILURE, None, math.nan, None, None, iterations)

    x_std = np.where(t.vstat[: t.n_orig] == _AT_UPPER, t.ub[: t.n_orig], 0.0)
    for i in range(m):
        if t.basis[i] < t.n_orig:
            x_std[t.basis[i]] = t.xb[i]
    # Snap basic values sitting within tolerance of a bound onto it, so
    # numerical dust never leaks into objectives or integrality checks.
    snap = TOL_FEAS * scale
    near_lo = np.abs(x_std) <= snap
    x_std[near_lo] = 0.0
    ub_orig = t.ub[: t.n_orig]
    near_up = np.isfinite(ub_orig) & (np.abs(x_std - ub_orig) <= snap)
    x_std[near_up] = ub_orig[near_up]
    x = x_std + t.lo_shift
    y = t.cost[t.basis] @ t.binv
    duals = y * t.flip
    reduced = np.array(lp.obj) - y @ t.a[:, : t.n_orig]
    objective = float(np.array(lp.obj) @ x)
    return LpSolution(LpStatus.OPTIMAL, x, objective, duals, reduced, iterations)
