"""Bounded revised simplex with explicit basis inverse.

Every solve starts from a basis with the artificials fixed at zero, which is
installed and refactorized. Without a ``start`` (``solve_lp(start=...)``),
that is a crash basis: a lower-triangular set of structural columns on the
'=' rows, slacks on the inequality rows (``_crash``). A start that is primal
feasible, as after appending columns, goes straight to phase 2, which
minimizes the true objective. Otherwise, as from a crash basis or after
appending a row or fixing a variable, a bounded dual simplex first restores
primal feasibility, and infeasibility is reported only from a row of
``B^-1 A`` whose range over the nonbasic boxes misses its basic variable's
box, which is a Farkas proof.

A start that names unknown or repeated variables, is singular, or whose dual
phase hits its pivot cap or a row that proves nothing falls back to the
crash start. A crash start that fails in the same way gives up with
NUMERIC_FAILURE, never a wrong OPTIMAL or INFEASIBLE.

Dantzig pricing switches to Bland's rule permanently after a streak of
degenerate pivots, which guarantees termination; a generous pivot cap
backstops numerical trouble as a distinct NUMERIC_FAILURE status rather
than a wrong answer. The basis inverse is maintained by eta updates and
refactorized periodically. Both phases change the basis through
``_Tableau.pivot`` and share the tableau's entering signs and basic costs,
which ``_install`` sets and every pivot and bound flip keeps.

The standard-form matrix is stored by columns (CSC: ``ptr``, ``rows``,
``vals``) and only its nonzeros are ever read, so work and memory grow with
the nonzeros of the model, not with rows x columns.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .model import (
    ARTIFICIAL,
    SLACK,
    STRUCTURAL,
    Basis,
    LinearProgram,
    LpSolution,
    LpStatus,
)

TOL_FEAS = 1e-7
TOL_PIVOT = 1e-9
DEGENERATE_STREAK = 40
REFACTOR_EVERY = 64
# A resumed solve's dual phase gives up, and the solve restarts from the
# crash basis, after this many pivots per row (plus the minimum). The crash
# start's own dual phase is how a cold solve reaches feasibility, so it runs
# under the solve's full pivot cap.
DUAL_PIVOTS_PER_ROW = 2
DUAL_PIVOTS_MIN = 50

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
    """Standard-form working copy: equality rows, variables in [0, ub], and
    one artificial per row with ``ub = 0``, which a basis may name but no
    pivot can enter. ``_install`` gives it its basis: ``basis``, ``vstat``,
    ``binv`` and ``xb``, the basic costs ``cost_b``, and ``sign``, the
    direction a nonbasic column may enter in (+1 up from its lower bound, -1
    down from its upper, 0 when it is basic or fixed)."""

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
        self.b = np.array(lp.rhs) - np.bincount(row_of, val * lo[col_of], m)

        slack_rows = np.array(
            [i for i, rel in enumerate(lp.relations) if rel != "="], dtype=np.int64
        )
        slack_vals = np.array(
            [1.0 if lp.relations[i] == "<=" else -1.0 for i in slack_rows]
        )
        n_slack = slack_rows.shape[0]
        self.art_start = n + n_slack
        ncols = self.art_start + m
        self.slack_rows = slack_rows

        self.rows = np.concatenate([row_of, slack_rows, np.arange(m)])
        self.vals = np.concatenate([val, slack_vals, np.ones(m)])
        self.cols = np.concatenate(
            [col_of, n + np.arange(n_slack), self.art_start + np.arange(m)]
        )
        self.ptr = np.zeros(ncols + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.cols, minlength=ncols), out=self.ptr[1:])

        self.ub = np.concatenate([hi - lo, np.full(n_slack, np.inf), np.zeros(m)])
        self.cost = np.concatenate([np.array(lp.obj), np.zeros(ncols - n)])
        self.n_orig = n
        self.lo_shift = lo

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

    def duals(self) -> np.ndarray:
        """``c_B B^-1``."""
        return self.cost_b @ self.binv

    def pivot(self, r: int, j: int, u: np.ndarray, to_upper: bool,
              value: float) -> None:
        """The basic of row ``r`` leaves at its upper bound if ``to_upper``,
        else at its lower; column ``j``, with ftran ``u``, enters at ``value``."""
        leaving = self.basis[r]
        self.vstat[leaving] = _AT_UPPER if to_upper else _AT_LOWER
        self.sign[leaving] = ((-1.0 if to_upper else 1.0) if self.ub[leaving] > 0
                              else 0.0)
        eta_update(self.binv, u, r)
        self.basis[r] = j
        self.cost_b[r] = self.cost[j]
        self.vstat[j] = _BASIC
        self.sign[j] = 0.0
        self.xb[r] = value


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
    sign = t.sign
    while True:
        y = t.duals()
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
            t.pivot(row, j, u, kind == 1, step if sigma > 0 else t.ub[j] - step)
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


def _install(t: _Tableau, start: Basis) -> bool:
    """Make ``start`` the tableau's basis with the artificials fixed at zero;
    False when it names unknown or repeated variables or is singular."""
    m = t.b.shape[0]
    n = t.n_orig
    slack_col = np.full(m, -1, dtype=np.int64)
    slack_col[t.slack_rows] = n + np.arange(t.slack_rows.shape[0])
    cols = []
    for kind, i in start.basic:
        if kind == STRUCTURAL and 0 <= i < n:
            cols.append(i)
        elif kind == SLACK and 0 <= i < m and slack_col[i] >= 0:
            cols.append(int(slack_col[i]))
        elif kind == ARTIFICIAL and 0 <= i < m:
            cols.append(t.art_start + i)
        else:
            return False
    if len(cols) != m or len(set(cols)) != m:
        return False
    t.basis = np.array(cols, dtype=np.int64)
    t.vstat = np.full(t.cost.shape[0], _AT_LOWER, dtype=np.int64)
    upper = [j for j in start.at_upper if 0 <= j < n and math.isfinite(t.ub[j])]
    t.vstat[upper] = _AT_UPPER
    t.vstat[t.basis] = _BASIC
    t.cost_b = t.cost[t.basis]
    t.sign = np.where(t.vstat == _AT_LOWER, 1.0, -1.0)
    t.sign[(t.vstat == _BASIC) | ~(t.ub > 0)] = 0.0
    return _refactor(t)


def _farkas_row(t: _Tableau, r: int, alpha: np.ndarray, ptol: float) -> bool:
    """Whether row ``r`` of ``B^-1 A x = B^-1 b`` proves the LP infeasible.

    The row pins basic ``r`` to ``beta - sum_j alpha_j x_j`` over the
    nonbasics. If the range of that over the nonbasic boxes misses the basic
    variable's own box, no point satisfies the rows and bounds together.
    Entries of ``alpha`` within the pivot tolerance are rounding noise of
    exact zeros (no pivot ever takes them) and count as zero.
    """
    a = np.where((t.vstat == _BASIC) | (np.abs(alpha) <= TOL_PIVOT), 0.0, alpha)
    beta = float(t.binv[r] @ t.b)
    neg, pos = a < 0.0, a > 0.0
    low_part = float(a[neg] @ t.ub[neg])  # most negative sum_j a_j x_j
    high_part = float(a[pos] @ t.ub[pos])
    finite = np.isfinite(t.ub)
    spread = float(np.abs(a[finite] * t.ub[finite]).sum())
    tol = ptol + TOL_FEAS * (abs(beta) + spread)
    if t.xb[r] < 0.0:
        return beta - low_part < -tol
    return bool(beta - high_part > t.ub[t.basis[r]] + tol)


def _dual_iterate(t: _Tableau, max_pivots: int) -> tuple[str, int]:
    """Bounded dual simplex from the installed basis to primal feasibility.

    Returns (state, count): "feasible", "infeasible" when a Farkas row
    proves it, or "stuck" at the pivot cap, on a singular refactor, or at a
    row with no entering column that proves nothing. The most violated basic
    leaves at the bound it broke; the entering column keeps the reduced
    costs' signs, ties to the largest pivot. Reduced costs of the wrong sign
    count as zero, so a start that is not dual feasible still moves; phase 2
    repairs them.
    """
    ncols = t.cost.shape[0]
    sign = t.sign
    ptol = TOL_FEAS * max(1.0, float(np.abs(t.b).max(initial=0.0)))
    pivots = 0
    since_refactor = 0
    while True:
        ub_b = t.ub[t.basis]
        viol = np.maximum(-t.xb, t.xb - ub_b)
        r = int(viol.argmax()) if viol.size else 0
        if not viol.size or viol[r] <= ptol:
            return "feasible", pivots
        if pivots >= max_pivots:
            return "stuck", pivots
        below = t.xb[r] < 0.0
        alpha = t.row_times(t.binv[r], ncols)
        # Entering j moves x_B(r) by -alpha_j per unit along sign_j; it must
        # move toward the broken bound.
        toward = sign * alpha * (1.0 if below else -1.0)
        cand = (toward < -TOL_PIVOT).nonzero()[0]
        if not cand.size:
            if since_refactor:
                # judge the row on a fresh inverse
                if not _refactor(t):
                    return "stuck", pivots
                since_refactor = 0
                continue
            return ("infeasible" if _farkas_row(t, r, alpha, ptol) else "stuck"), pivots
        d = t.cost[cand] - t.row_times(t.duals(), ncols)[cand]
        ratio = np.maximum(sign[cand] * d, 0.0) / -toward[cand]
        tied = cand[ratio <= ratio.min() + _TIE_SLACK]
        q = int(tied[np.abs(alpha[tied]).argmax()])
        u = t.ftran(q)
        target = 0.0 if below else ub_b[r]
        theta = (t.xb[r] - target) / u[r]
        entering_value = (0.0 if t.vstat[q] == _AT_LOWER else t.ub[q]) + theta
        t.xb -= theta * u
        t.pivot(r, q, u, not below, entering_value)
        pivots += 1
        since_refactor += 1
        if since_refactor >= REFACTOR_EVERY:
            if not _refactor(t):
                return "stuck", pivots
            since_refactor = 0


def _basis_of(t: _Tableau) -> Basis:
    n = t.n_orig
    names = []
    for j in t.basis.tolist():
        if j < n:
            names.append((STRUCTURAL, j))
        elif j < t.art_start:
            names.append((SLACK, int(t.slack_rows[j - n])))
        else:
            names.append((ARTIFICIAL, j - t.art_start))
    at_upper = np.flatnonzero(t.vstat[:n] == _AT_UPPER)
    return Basis(tuple(names), tuple(at_upper.tolist()))


def _phase2(
    lp: LinearProgram, t: _Tableau, max_pivots: int, pivots: int
) -> tuple[LpSolution | None, int]:
    """Optimize the true objective from a feasible basis: (solution,
    pivots), or (None, pivots) when it gives up at the pivot cap, on a
    singular refactor or on a final basis outside tolerance. ``pivots``
    counts the pivots spent before, and the result counts them in."""
    state, it2 = _iterate(t, max_pivots)
    iterations = pivots + it2
    if state == "unbounded":
        sol = LpSolution(LpStatus.UNBOUNDED, None, -math.inf, None, iterations)
        return sol, iterations
    if state == "limit" or not _refactor(t):
        return None, iterations
    # Feasibility audit: a basis outside tolerance is reported, not returned.
    scale = max(1.0, float(np.abs(t.b).max(initial=0.0)))
    ub_b = t.ub[t.basis]
    if (t.xb < -10 * TOL_FEAS * scale).any() or (
        np.isfinite(ub_b) & (t.xb > ub_b + 10 * TOL_FEAS * scale)
    ).any():
        return None, iterations

    x_std = np.where(t.vstat[: t.n_orig] == _AT_UPPER, t.ub[: t.n_orig], 0.0)
    structural = t.basis < t.n_orig
    x_std[t.basis[structural]] = t.xb[structural]
    # Snap basic values sitting within tolerance of a bound onto it, so
    # numerical dust never leaks into objectives or integrality checks.
    snap = TOL_FEAS * scale
    near_lo = np.abs(x_std) <= snap
    x_std[near_lo] = 0.0
    ub_orig = t.ub[: t.n_orig]
    near_up = np.isfinite(ub_orig) & (np.abs(x_std - ub_orig) <= snap)
    x_std[near_up] = ub_orig[near_up]
    x = x_std + t.lo_shift
    objective = float(np.array(lp.obj) @ x)
    return LpSolution(LpStatus.OPTIMAL, x, objective, t.duals(), iterations,
                      _basis_of(t)), iterations


def _crash(lp: LinearProgram) -> Basis:
    """A lower-triangular starting basis of structural columns.

    The columns are walked sparsest first, ties to the lower index. A
    column is taken only if it has no nonzero in a row already pivoted, and
    it pivots on its largest entry among the uncovered '=' rows, ties to the
    lower row. In the order they were taken, no column has a nonzero in an
    earlier column's pivot row, so the basis is lower-triangular with a
    nonzero diagonal and never singular. Inequality rows keep their slack
    and uncovered '=' rows their artificial (Bixby, "Implementing the
    simplex method: the initial basis", ORSA J. Computing 1992).
    """
    names = [(ARTIFICIAL if rel == "=" else SLACK, i)
             for i, rel in enumerate(lp.relations)]
    open_eq = [rel == "=" for rel in lp.relations]
    pivoted = [False] * lp.n_rows
    for j in sorted(range(lp.n_vars), key=lambda j: (len(lp.columns[j][0]), j)):
        rows, vals = lp.columns[j]
        if any(pivoted[i] for i in rows):
            continue
        best, r = 0.0, -1
        for i, v in zip(rows, vals):  # rows increase, so ties keep the lowest
            if open_eq[i] and abs(v) > best:
                best, r = abs(v), i
        if r >= 0:
            pivoted[r] = True
            open_eq[r] = False
            names[r] = (STRUCTURAL, j)
    return Basis(tuple(names))


def _solve_warm(
    lp: LinearProgram,
    bound_overrides: dict[int, tuple[float, float]] | None,
    max_pivots: int,
    start: Basis,
    dual_cap: int | None = None,
) -> tuple[LpSolution | None, int]:
    """Solve from ``start``: (solution, pivots), or (None, pivots spent)
    when the start is malformed or singular or the warm solve gives up.

    The dual phase stops at ``dual_cap`` pivots, by default the cap of a
    resumed solve (``DUAL_PIVOTS_PER_ROW`` per row plus ``DUAL_PIVOTS_MIN``).
    """
    t = _Tableau(lp, bound_overrides)
    if not _install(t, start):
        return None, 0
    if dual_cap is None:
        dual_cap = DUAL_PIVOTS_PER_ROW * lp.n_rows + DUAL_PIVOTS_MIN
    state, pivots = _dual_iterate(t, min(max_pivots, dual_cap))
    if state == "feasible":
        return _phase2(lp, t, max_pivots, pivots)
    if state == "infeasible":
        return LpSolution(LpStatus.INFEASIBLE, None, math.inf, None, pivots), pivots
    return None, pivots


def solve_lp(
    lp: LinearProgram,
    bound_overrides: dict[int, tuple[float, float]] | None = None,
    max_pivots: int | None = None,
    start: Basis | None = None,
) -> LpSolution:
    """Minimize the LP relaxation; binaries are treated as their boxes.

    ``start`` is a basis to resume from, typically ``LpSolution.basis`` of
    the same model before columns, rows or bound fixes were added. Without
    one, or when it is unusable, the solve starts from ``_crash(lp)``; when
    that start gives up too, the result is NUMERIC_FAILURE with every pivot
    spent counted.
    """
    if max_pivots is None:
        ncols = lp.n_vars + sum(rel != "=" for rel in lp.relations) + lp.n_rows
        max_pivots = max(5000, 100 * (lp.n_rows + ncols))
    spent = 0
    if start is not None:
        sol, spent = _solve_warm(lp, bound_overrides, max_pivots, start)
        if sol is not None:
            return sol
    # The crash start's dual phase is the cold solve's way to feasibility,
    # so it runs under the full cap rather than a resumed solve's.
    sol, used = _solve_warm(lp, bound_overrides, max_pivots, _crash(lp),
                            dual_cap=max_pivots)
    if sol is None:
        return LpSolution(LpStatus.NUMERIC_FAILURE, None, math.nan, None,
                          spent + used)
    sol.iterations += spent
    return sol
