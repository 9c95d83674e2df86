"""Dense references for the LP solver and for branch and bound.

``tableau_solve_lp`` is a textbook two-phase full-tableau simplex with
Bland's rule at every pivot, a different path from the crash-started
revised simplex of ``crewroute.milp`` that it checks. ``brute_force_binary``
enumerates every assignment of a small all-binary model. Only the tests
call them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from crewroute.milp.model import LinearProgram
from crewroute.oracles import OracleLimitError

_BLAND_TOL = 1e-9
_FEAS_TOL = 1e-7


def tableau_solve_lp(lp: LinearProgram, max_iter: int = 20_000):
    """Textbook two-phase tableau simplex, Bland's rule at every pivot.

    Returns (status, x, objective, duals). Finite upper bounds become
    explicit rows, so duals are only comparable with the revised simplex
    when no variable upper bound exists (tests arrange that).
    """
    n = lp.n_vars
    lo = np.array(lp.lower)
    a = lp.dense_matrix()
    a_rows = list(a)
    rhs = list(np.array(lp.rhs) - a @ lo)
    rels = list(lp.relations)
    for j in range(n):
        u = lp.upper[j] - lo[j]
        if math.isfinite(u):
            row = np.zeros(n)
            row[j] = 1.0
            a_rows.append(row)
            rhs.append(u)
            rels.append("<=")
    m = len(a_rows)
    n_orig_rows = lp.n_rows

    n_slack = sum(1 for r in rels if r != "=")
    ncols = n + n_slack + m
    tab = np.zeros((m, ncols + 1))
    flip = np.ones(m)
    col = n
    for i in range(m):
        tab[i, :n] = a_rows[i]
        tab[i, ncols] = rhs[i]
        if rels[i] != "=":
            tab[i, col] = 1.0 if rels[i] == "<=" else -1.0
            col += 1
    for i in range(m):
        if tab[i, ncols] < 0:
            tab[i, :] *= -1.0
            flip[i] = -1.0
        tab[i, n + n_slack + i] = 1.0
    basis = [n + n_slack + i for i in range(m)]
    art_start = n + n_slack

    def pivot(r, j):
        tab[r, :] /= tab[r, j]
        for i in range(m):
            if i != r and tab[i, j] != 0.0:
                tab[i, :] -= tab[i, j] * tab[r, :]

    def run(cost, banned, iters):
        for it in range(iters):
            cb = cost[basis]
            d = cost - cb @ tab[:, :ncols]
            entering = -1
            for j in range(ncols):
                if not banned[j] and j not in basis and d[j] < -_BLAND_TOL:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            best_t, leave = math.inf, -1
            for i in range(m):
                if tab[i, entering] > _BLAND_TOL:
                    t = tab[i, ncols] / tab[i, entering]
                    if t < best_t - 1e-12 or (
                        t <= best_t + 1e-12 and (leave < 0 or basis[i] < basis[leave])
                    ):
                        best_t, leave = t, i
            if leave < 0:
                return "unbounded"
            pivot(leave, entering)
            basis[leave] = entering
        raise OracleLimitError("tableau simplex iteration cap")

    cost1 = np.zeros(ncols)
    cost1[art_start:] = 1.0
    banned = np.zeros(ncols, dtype=bool)
    state = run(cost1, banned, max_iter)
    if state != "optimal":
        raise OracleLimitError("phase 1 cannot be unbounded")
    if float(cost1[basis] @ tab[:, ncols]) > _FEAS_TOL * max(1.0, max(map(abs, rhs), default=1.0)):
        return "infeasible", None, math.inf, None

    banned[art_start:] = True
    cost2 = np.zeros(ncols)
    cost2[:n] = lp.obj
    state = run(cost2, banned, max_iter)
    if state == "unbounded":
        return "unbounded", None, -math.inf, None

    x_std = np.zeros(ncols)
    for i, j in enumerate(basis):
        x_std[j] = tab[i, ncols]
    x = x_std[:n] + lo
    objective = float(np.array(lp.obj) @ x)

    # Duals from the final basis against the flipped pre-pivot matrix.
    full = np.zeros((m, ncols))
    col = n
    for i in range(m):
        full[i, :n] = a_rows[i] * flip[i]
        if rels[i] != "=":
            full[i, col] = (1.0 if rels[i] == "<=" else -1.0) * flip[i]
            col += 1
        full[i, n + n_slack + i] = 1.0
    b_mat = full[:, basis]
    y = np.linalg.solve(b_mat.T, cost2[basis])
    duals = (y * flip)[:n_orig_rows]
    return "optimal", x, objective, duals


def brute_force_binary(lp: LinearProgram):
    """Enumerate all assignments of an all-binary model.

    Returns (status, x, objective). Guarded to 20 variables.
    """
    n = lp.n_vars
    if n > 20:
        raise OracleLimitError("brute force limited to 20 binaries")
    if not all(lp.binary):
        raise ValueError("brute_force_binary needs an all-binary model")
    a = lp.dense_matrix()
    rhs = np.array(lp.rhs)
    best, best_x = math.inf, None
    for bits in itertools.product((0.0, 1.0), repeat=n):
        x = np.array(bits)
        act = a @ x
        ok = True
        for i, rel in enumerate(lp.relations):
            if rel == "<=" and act[i] > rhs[i] + _FEAS_TOL:
                ok = False
            elif rel == ">=" and act[i] < rhs[i] - _FEAS_TOL:
                ok = False
            elif rel == "=" and abs(act[i] - rhs[i]) > _FEAS_TOL:
                ok = False
            if not ok:
                break
        if ok:
            obj = lp.objective_value(x)
            if obj < best - 1e-12:
                best, best_x = obj, x
    if best_x is None:
        return "infeasible", None, math.inf
    return "optimal", best_x, best
