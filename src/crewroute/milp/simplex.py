"""Two-phase bounded revised simplex with explicit basis inverse.

Phase 1 minimizes artificial infeasibility (slacks seed the basis where
their column survives row flipping), phase 2 the true objective. Dantzig
pricing switches to Bland's rule permanently after a streak of degenerate
pivots, which guarantees termination; a generous pivot cap backstops
numerical trouble as a distinct NUMERIC_FAILURE status rather than a wrong
answer. The basis inverse is maintained by eta updates and refactorized
periodically.

The standard-form matrix is stored by columns (CSC: ``ptr``, ``rows``,
``vals``) and only its nonzeros are ever read, so work and memory grow with
the nonzeros of the model, not with rows x columns.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .model import LinearProgram, LpSolution, LpStatus

TOL_FEAS = 1e-7
TOL_PIVOT = 1e-9
DEGENERATE_STREAK = 40
REFACTOR_EVERY = 64

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2
_TIE_SLACK = 1e-12


def eta_update(binv: np.ndarray, w: np.ndarray, r: int) -> None:
    """In-place product-form update of the basis inverse.

    ``w`` is the ftran result B^-1 A_j for the entering column and ``r`` the
    leaving row; afterwards binv is the inverse of the new basis.
    """
    piv = w[r]
    binv[r, :] /= piv
    scale = w.copy()
    scale[r] = 0.0
    binv -= scale[:, None] * binv[r, :]


def ratio_test(
    xb: np.ndarray,
    w: np.ndarray,
    ub: np.ndarray,
    basis: np.ndarray,
    tol_pivot: float,
) -> tuple[float, int, int]:
    """Largest step t for the entering variable before a basic hits a bound.

    Basics move as xb - t*w with upper bounds ``ub``. Returns
    (t, row, kind) with kind 0 when the blocking basic leaves at its lower
    bound (0) and 1 at its upper; row is -1 when no basic blocks. Ties on t
    go to the smallest basis variable index, matching Bland's leaving rule.
    """
    # An infinite ub gives inf - xb = inf, and inf / |w| stays inf, so the
    # rows that cannot block need no mask of their own.
    t_all = np.where(
        w > tol_pivot,
        np.maximum(xb, 0.0),
        np.where(w < -tol_pivot, np.maximum(ub - xb, 0.0), np.inf),
    ) / np.abs(w)
    best = t_all.min() if t_all.size else np.inf
    if not np.isfinite(best):
        return np.inf, -1, 0
    tied = (t_all <= best + _TIE_SLACK).nonzero()[0]
    row = int(tied[0]) if tied.size == 1 else int(tied[basis[tied].argmin()])
    kind = 0 if w[row] > 0.0 else 1
    return float(t_all[row]), row, kind


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
        counts = [len(rows) for rows, _ in lp.columns]
        nnz = sum(counts)
        col_of = np.repeat(np.arange(n, dtype=np.int64), counts)
        row_of = np.fromiter(
            chain.from_iterable(rows for rows, _ in lp.columns), np.int64, nnz
        )
        val = np.fromiter(
            chain.from_iterable(vals for _, vals in lp.columns), np.float64, nnz
        )
        # The nonzeros run column by column, so each row's shift sums its
        # terms in increasing column order.
        b = np.array(lp.rhs) - np.bincount(row_of, val * lo[col_of], m)
        self.flip = np.where(b < 0, -1.0, 1.0)
        b *= self.flip
        val *= self.flip[row_of]

        slack_rows = np.array(
            [i for i, rel in enumerate(lp.relations) if rel != "="], dtype=np.int64
        )
        slack_vals = np.array(
            [1.0 if lp.relations[i] == "<=" else -1.0 for i in slack_rows]
        ) * self.flip[slack_rows]
        n_slack = slack_rows.shape[0]
        self.art_start = n + n_slack
        ncols = self.art_start + m
        # A slack seeds the basis where flipping left it at +1; every other
        # row gets an artificial, so the starting basis is the identity.
        self.basis = self.art_start + np.arange(m, dtype=np.int64)
        seeded = slack_vals == 1.0
        self.basis[slack_rows[seeded]] = n + np.flatnonzero(seeded)
        art_rows = np.flatnonzero(self.basis >= self.art_start)

        self.rows = np.concatenate([row_of, slack_rows, art_rows])
        self.vals = np.concatenate([val, slack_vals, np.ones(art_rows.shape[0])])
        self.cols = np.concatenate(
            [col_of, n + np.arange(n_slack), self.art_start + art_rows]
        )
        self.ptr = np.zeros(ncols + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.cols, minlength=ncols), out=self.ptr[1:])

        self.ub = np.concatenate(
            [hi - lo, np.full(n_slack, np.inf), np.full(m, np.inf)]
        )
        self.b = b
        self.cost = np.concatenate([np.array(lp.obj), np.zeros(ncols - n)])
        self.n_orig = n
        self.lo_shift = lo
        self.vstat = np.full(ncols, _AT_LOWER, dtype=np.int64)
        self.vstat[self.basis] = _BASIC
        self.binv = np.eye(m)
        self.xb = b.copy()

    def ftran(self, j: int) -> np.ndarray:
        """``B^-1 A_j`` from the nonzeros of column ``j``."""
        lo, hi = self.ptr[j], self.ptr[j + 1]
        return self.binv[:, self.rows[lo:hi]] @ self.vals[lo:hi]

    def gather(self, js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions in ``rows`` / ``vals`` of the nonzeros of columns ``js``,
        and for each position the index in ``js`` of its column."""
        starts = self.ptr[js]
        lens = self.ptr[js + 1] - starts
        owner = np.repeat(np.arange(js.shape[0]), lens)
        skip = np.repeat(starts - (np.cumsum(lens) - lens), lens)
        return np.arange(owner.shape[0]) + skip, owner

    def row_times(self, y: np.ndarray, ncols: int) -> np.ndarray:
        """``y @ A[:, :ncols]`` from the nonzeros of the first ``ncols`` columns."""
        k = self.ptr[ncols]
        return np.bincount(self.cols[:k], y[self.rows[:k]] * self.vals[:k], ncols)


def _recompute_xb(t: _Tableau) -> None:
    at_upper = np.flatnonzero(t.vstat == _AT_UPPER)
    pos, owner = t.gather(at_upper)
    rhs = t.b.copy()
    # Unbuffered and in column order, as a column-by-column loop would subtract.
    np.subtract.at(rhs, t.rows[pos], t.vals[pos] * t.ub[at_upper][owner])
    t.xb = t.binv @ rhs


def _refactor(t: _Tableau) -> bool:
    m = t.basis.shape[0]
    pos, owner = t.gather(t.basis)
    basis_matrix = np.zeros((m, m))
    basis_matrix[t.rows[pos], owner] = t.vals[pos]
    try:
        t.binv = np.linalg.inv(basis_matrix)
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
    ncols = t.cost.shape[0]
    abs_cost = np.abs(t.cost)
    cost_b = t.cost[t.basis]
    # Direction a nonbasic column may enter in: +1 up from its lower bound,
    # -1 down from its upper, 0 when it is basic or fixed (ub == 0). Only
    # the columns a pivot moves are rewritten.
    sign = np.where(t.vstat == _AT_LOWER, 1.0, -1.0)
    sign[(t.vstat == _BASIC) | ~(t.ub > 0)] = 0.0
    while True:
        y = cost_b @ t.binv
        prod = y[t.rows] * t.vals
        d = t.cost - np.bincount(t.cols, prod, ncols)
        # Reduced costs inherit rounding noise at the scale of the dual/cost
        # magnitudes feeding them, so the entering test must be relative:
        # an absolute cutoff stalls forever on big-cost columns whose true
        # reduced cost is zero. The scale is >= 1, so only a column with
        # sign * d < -TOL_PIVOT can pass the relative test, and the scale
        # (|y_i| |a_ij| == |y_i a_ij|) is read at those columns alone.
        sd = sign * d
        cand = (sd < -TOL_PIVOT).nonzero()[0]
        dscale = np.maximum(
            1.0, abs_cost[cand] + np.bincount(t.cols, np.abs(prod), ncols)[cand]
        )
        rel = sd[cand] / dscale
        passing = (rel < -TOL_PIVOT).nonzero()[0]
        if not passing.size:
            return "optimal", pivots
        if pivots >= max_pivots:
            return "limit", pivots
        j = int(cand[passing[0] if bland else rel.argmin()])
        sigma = sign[j]
        u = t.ftran(j)
        w = u if sigma > 0 else -u
        t_basic, row, kind = ratio_test(t.xb, w, t.ub[t.basis], t.basis, TOL_PIVOT)
        t_flip = t.ub[j]
        step = min(t_basic, t_flip)
        if math.isinf(step):
            return "unbounded", pivots
        t.xb -= step * w
        if t_flip <= t_basic:
            t.vstat[j] = _AT_UPPER if sigma > 0 else _AT_LOWER
            sign[j] = -sigma
        else:
            leaving = t.basis[row]
            t.vstat[leaving] = _AT_LOWER if kind == 0 else _AT_UPPER
            sign[leaving] = (1.0 if kind == 0 else -1.0) if t.ub[leaving] > 0 else 0.0
            entering_value = step if sigma > 0 else t.ub[j] - step
            eta_update(t.binv, u, row)
            t.basis[row] = j
            cost_b[row] = t.cost[j]
            t.vstat[j] = _BASIC
            sign[j] = 0.0
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
        row_vec = t.row_times(t.binv[r, :], t.art_start)
        candidates = np.nonzero(
            (np.abs(row_vec) > TOL_PIVOT) & (t.vstat[: t.art_start] != _BASIC)
        )[0]
        if candidates.size == 0:
            # Redundant row: keep the artificial basic, pinned at zero.
            t.ub[j] = 0.0
            continue
        enter = int(candidates[0])
        w = t.ftran(enter)
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
    m = t.b.shape[0]
    ncols = t.cost.shape[0]
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
    reduced = np.array(lp.obj) - t.row_times(y, t.n_orig)
    objective = float(np.array(lp.obj) @ x)
    return LpSolution(LpStatus.OPTIMAL, x, objective, duals, reduced, iterations)
