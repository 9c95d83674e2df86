"""Embedded LP and MIP solvers against textbook cases and oracle recomputation."""

from __future__ import annotations

import copy
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crewroute.generate import generate_instance
from crewroute.milp import (
    TOL_PIVOT,
    Basis,
    LinearProgram,
    LpSolution,
    LpStatus,
    MipStatus,
    solve_lp,
    solve_mip,
)
from crewroute.milp import branch_bound, simplex
from crewroute.milp.model import ARTIFICIAL, RELATIONS, SLACK, STRUCTURAL
from crewroute.milp.simplex import _TIE_SLACK, _Tableau, ratio_test
from crewroute.oracles import brute_force_binary, tableau_solve_lp
from crewroute.pairing.master import CutRow, MasterProblem
from crewroute.pairing.network import PairingColumn


def test_single_bound_row():
    lp = LinearProgram()
    x = lp.add_variable(obj=1.0)
    lp.add_row({x: 1.0}, ">=", 3.0)
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[x] == pytest.approx(3.0)
    assert sol.objective == pytest.approx(3.0)
    # at a minimum, tightening x >= 3 by one unit costs one unit
    assert sol.duals[0] == pytest.approx(1.0)


def test_infeasible_detected():
    lp = LinearProgram()
    x = lp.add_variable(obj=1.0)
    lp.add_row({x: 1.0}, "<=", -1.0)
    assert solve_lp(lp).status is LpStatus.INFEASIBLE


def test_unbounded_detected():
    lp = LinearProgram()
    x = lp.add_variable(obj=-1.0)
    lp.add_row({x: 0.0}, "<=", 1.0)
    assert solve_lp(lp).status is LpStatus.UNBOUNDED


def test_equality_pair_infeasible():
    lp = LinearProgram()
    x1 = lp.add_variable(obj=1.0)
    x2 = lp.add_variable(obj=1.0)
    lp.add_row({x1: 1.0, x2: 1.0}, "=", 1.0)
    lp.add_row({x1: 1.0}, "=", 1.0)
    lp.add_row({x2: 1.0}, "=", 1.0)
    assert solve_lp(lp).status is LpStatus.INFEASIBLE


def test_two_variable_corner():
    # min -x - 2y st x + y <= 4, y <= 2 has its optimum at (2, 2)
    lp = LinearProgram()
    x = lp.add_variable(obj=-1.0)
    y = lp.add_variable(obj=-2.0)
    lp.add_row({x: 1.0, y: 1.0}, "<=", 4.0)
    lp.add_row({y: 1.0}, "<=", 2.0)
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-6.0)
    assert sol.x[x] == pytest.approx(2.0)
    assert sol.x[y] == pytest.approx(2.0)
    # <= rows price non-positive at a minimum
    assert sol.duals[0] <= 1e-9 and sol.duals[1] <= 1e-9


def _random_lp(rng: random.Random, n: int, m: int,
               with_upper: bool) -> LinearProgram:
    lp = LinearProgram()
    for _ in range(n):
        hi = rng.choice([math.inf, rng.uniform(1.0, 5.0)]) if with_upper \
            else math.inf
        lp.add_variable(obj=rng.uniform(-3.0, 5.0), lo=0.0, hi=hi)
    for _ in range(m):
        coefs = {j: rng.uniform(-2.0, 4.0)
                 for j in rng.sample(range(n), rng.randrange(2, n + 1))}
        # keep the origin feasible for <= and >= with negative rhs shifted up
        rel = rng.choice(["<=", ">="])
        rhs = rng.uniform(1.0, 8.0) if rel == "<=" else rng.uniform(-8.0, -1.0)
        lp.add_row(coefs, rel, rhs)
    return lp


def _reduced_cost(lp: LinearProgram, duals, j: int) -> float:
    """c_j - y.A_j from the model's column j and the duals y."""
    rows, vals = lp.columns[j]
    return lp.obj[j] - sum(duals[i] * v for i, v in zip(rows, vals))


def test_random_lps_match_tableau_oracle():
    rng = random.Random(17)
    solved = 0
    for _ in range(60):
        lp = _random_lp(rng, rng.randrange(3, 8), rng.randrange(2, 8),
                        with_upper=False)
        got = solve_lp(lp)
        want_status, _, want_obj, want_duals = tableau_solve_lp(lp)
        assert got.status.value == want_status
        if got.status is LpStatus.OPTIMAL:
            solved += 1
            assert got.objective == pytest.approx(want_obj, abs=1e-7)
            assert np.allclose(got.duals, want_duals, atol=1e-7)
            # primal feasibility of the reported point
            act = lp.dense_matrix() @ got.x
            for i, rel in enumerate(lp.relations):
                if rel == "<=":
                    assert act[i] <= lp.rhs[i] + 1e-7
                elif rel == ">=":
                    assert act[i] >= lp.rhs[i] - 1e-7
                else:
                    assert act[i] == pytest.approx(lp.rhs[i], abs=1e-7)
    assert solved >= 20


def test_random_lps_with_upper_bounds():
    rng = random.Random(23)
    for _ in range(40):
        lp = _random_lp(rng, rng.randrange(3, 7), rng.randrange(2, 6),
                        with_upper=True)
        got = solve_lp(lp)
        want_status, _, want_obj, _ = tableau_solve_lp(lp)
        assert got.status.value == want_status
        if got.status is LpStatus.OPTIMAL:
            assert got.objective == pytest.approx(want_obj, abs=1e-6)
            assert np.all(got.x <= np.array(lp.upper) + 1e-9)


def test_duality_and_slackness():
    rng = random.Random(5)
    for _ in range(25):
        lp = _random_lp(rng, 5, 4, with_upper=False)
        sol = solve_lp(lp)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        act = lp.dense_matrix() @ sol.x
        strong = sum(d * r for d, r in zip(sol.duals, lp.rhs))
        assert strong == pytest.approx(sol.objective, abs=1e-6)
        for i, rel in enumerate(lp.relations):
            if rel == "<=":
                assert sol.duals[i] <= 1e-7
            elif rel == ">=":
                assert sol.duals[i] >= -1e-7
            # either the row is tight or its price is zero
            assert abs(sol.duals[i]) * abs(act[i] - lp.rhs[i]) < 1e-5
        for j in range(lp.n_vars):
            if sol.x[j] > 1e-7:
                assert abs(_reduced_cost(lp, sol.duals, j)) < 1e-6


def test_pivot_limit_reports_numeric_failure():
    lp = LinearProgram()
    xs = [lp.add_variable(obj=1.0) for _ in range(4)]
    for i in range(4):
        lp.add_row({xs[i]: 1.0, xs[(i + 1) % 4]: 0.5}, ">=", 1.0)
    sol = solve_lp(lp, max_pivots=1)
    assert sol.status is LpStatus.NUMERIC_FAILURE


# ---------------------------------------------------------------------------
# branch and bound


def test_knapsack_small():
    # max 8a + 11b + 6c + 4d st 5a + 7b + 4c + 3d <= 14, optimum 21 at a,b,d
    lp = LinearProgram()
    xs = [lp.add_variable(obj=-v, binary=True) for v in (8.0, 11.0, 6.0, 4.0)]
    lp.add_row({xs[0]: 5.0, xs[1]: 7.0, xs[2]: 4.0, xs[3]: 3.0}, "<=", 14.0)
    res = solve_mip(lp)
    assert res.status is MipStatus.OPTIMAL
    assert res.objective == pytest.approx(-21.0)
    assert [round(v) for v in res.x] == [1, 1, 0, 0] or \
        [round(v) for v in res.x] == [0, 1, 1, 1]
    assert res.best_bound <= res.objective + 1e-9
    assert res.gap == pytest.approx(0.0, abs=1e-9)


def test_assignment_lp_is_integral():
    # 3x3 assignment relaxations are integral, so no branching happens
    cost = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]]
    lp = LinearProgram()
    xs = [[lp.add_variable(obj=cost[i][j], binary=True) for j in range(3)]
          for i in range(3)]
    for i in range(3):
        lp.add_row({xs[i][j]: 1.0 for j in range(3)}, "=", 1.0)
    for j in range(3):
        lp.add_row({xs[i][j]: 1.0 for i in range(3)}, "=", 1.0)
    res = solve_mip(lp)
    assert res.status is MipStatus.OPTIMAL
    assert res.objective == pytest.approx(12.0)
    assert res.nodes == 1


def test_binary_infeasible():
    lp = LinearProgram()
    x1 = lp.add_variable(obj=1.0, binary=True)
    x2 = lp.add_variable(obj=1.0, binary=True)
    lp.add_row({x1: 1.0, x2: 1.0}, "=", 1.0)
    lp.add_row({x1: 1.0}, "=", 1.0)
    lp.add_row({x2: 1.0}, "=", 1.0)
    assert solve_mip(lp).status is MipStatus.INFEASIBLE


def _random_binary_model(rng: random.Random) -> LinearProgram:
    n = rng.randrange(4, 11)
    lp = LinearProgram()
    xs = [lp.add_variable(obj=rng.uniform(-5.0, 5.0), binary=True)
          for _ in range(n)]
    for _ in range(rng.randrange(2, 6)):
        coefs = {xs[j]: float(rng.randrange(-3, 4))
                 for j in rng.sample(range(n), rng.randrange(2, n))}
        rel = rng.choice(["<=", ">=", "="])
        rhs = float(rng.randrange(-2, 5))
        lp.add_row(coefs, rel, rhs)
    return lp


def test_random_binary_models_match_enumeration():
    rng = random.Random(31)
    optimal = 0
    for _ in range(80):
        lp = _random_binary_model(rng)
        res = solve_mip(lp)
        want_status, _, want_obj = brute_force_binary(lp)
        assert res.status.value == want_status
        if res.status is MipStatus.OPTIMAL:
            optimal += 1
            assert res.objective == pytest.approx(want_obj, abs=1e-6)
            assert all(abs(v - round(v)) < 1e-6 for v in res.x)
    assert optimal >= 12


def test_node_limit():
    rng = random.Random(2)
    lp = LinearProgram()
    xs = [lp.add_variable(obj=rng.uniform(0.9, 1.1), binary=True)
          for _ in range(12)]
    lp.add_row({x: 1.0 for x in xs}, "=", 6.0)
    res = solve_mip(lp, node_limit=1)
    assert res.status in (MipStatus.NODE_LIMIT, MipStatus.OPTIMAL)
    lp2 = LinearProgram()
    ys = [lp2.add_variable(obj=rng.uniform(0.9, 1.1), binary=True)
          for _ in range(12)]
    lp2.add_row({y: 2.0 for y in ys}, "=", 11.0)
    res2 = solve_mip(lp2, node_limit=2)
    assert res2.status in (MipStatus.NODE_LIMIT, MipStatus.INFEASIBLE)


# ---------------------------------------------------------------------------
# model container


def test_model_columns_and_rows():
    lp = LinearProgram()
    x = lp.add_variable(obj=1.0)
    y = lp.add_variable(obj=2.0, binary=True)
    r = lp.add_row({y: 1.0, x: 1.0}, "<=", 5.0)
    s = lp.add_row({x: 0.0}, ">=", -1.0)
    # a later variable brings its coefficients in existing rows, any order
    lp.add_variable(obj=0.5, column={s: 4.0, r: 3.0})
    assert lp.columns == [([r], [1.0]), ([r], [1.0]), ([r, s], [3.0, 4.0])]
    assert (lp.n_rows, lp.n_vars, lp.upper[y]) == (2, 3, 1.0)
    np.testing.assert_array_equal(lp.dense_matrix(), [[1.0, 1.0, 3.0],
                                                      [0.0, 0.0, 4.0]])
    assert lp.objective_value(np.array([2.0, 1.0, 2.0])) == pytest.approx(5.0)
    # rejected rows and variables leave the model as it was
    with pytest.raises(ValueError, match="unknown variable 5"):
        lp.add_row({x: 1.0, 7: 1.0, 5: 1.0}, "<=", 1.0)
    with pytest.raises(ValueError, match="unknown row 2"):
        lp.add_variable(column={0: 1.0, 3: 1.0, 2: 1.0})
    with pytest.raises(ValueError, match="finite"):
        lp.add_variable(column={s: math.inf})
    assert lp.columns[x] == ([r], [1.0])
    assert (lp.n_rows, lp.n_vars) == (2, 3)


def _reference_csc(lp: LinearProgram):
    """The standard-form CSC arrays rebuilt from ``dense_matrix()``, for a
    model whose variables all have lower bound 0: nonzeros column by column,
    rows ascending, then a slack per inequality row and an artificial per
    row."""
    a = lp.dense_matrix()
    m, n = a.shape
    rows, vals, cols = [], [], []
    for j in range(n):
        for i in np.flatnonzero(a[:, j]):
            rows.append(i)
            vals.append(a[i, j])
            cols.append(j)
    k = n
    for i, rel in enumerate(lp.relations):
        if rel != "=":
            rows.append(i)
            vals.append(1.0 if rel == "<=" else -1.0)
            cols.append(k)
            k += 1
    for i in range(m):
        rows.append(i)
        vals.append(1.0)
        cols.append(k + i)
    ptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=k + m))])
    return ptr, np.array(rows), np.array(vals), np.array(cols)


def _check_layout(lp: LinearProgram) -> None:
    for rows, vals in lp.columns:
        assert all(a < b for a, b in zip(rows, rows[1:]))
        assert 0.0 not in vals
    t = _Tableau(lp)
    ptr, rows, vals, cols = _reference_csc(lp)
    np.testing.assert_array_equal(t.ptr, ptr)
    np.testing.assert_array_equal(t.rows, rows)
    np.testing.assert_array_equal(t.vals, vals)
    np.testing.assert_array_equal(t.cols, cols)


def test_columns_match_dense_layout():
    rng = random.Random(23)
    for _ in range(40):
        lp = LinearProgram()
        for _ in range(rng.randrange(1, 4)):
            lp.add_variable(obj=rng.uniform(-2.0, 2.0))
        for _ in range(rng.randrange(4, 14)):
            if lp.n_rows and rng.random() < 0.5:
                picked = rng.sample(range(lp.n_rows),
                                    rng.randrange(1, lp.n_rows + 1))
                lp.add_variable(obj=rng.uniform(-2.0, 2.0), column={
                    i: rng.choice([0.0, rng.uniform(-3.0, 3.0)])
                    for i in picked})
            else:
                picked = rng.sample(range(lp.n_vars),
                                    rng.randrange(0, lp.n_vars + 1))
                lp.add_row({j: rng.choice([0.0, rng.uniform(-3.0, 3.0)])
                            for j in picked},
                           rng.choice(RELATIONS), rng.uniform(-5.0, 5.0))
        _check_layout(lp)

    # the master's columns arrive with their legs in path order
    master = _random_master(rng)
    assert any(list(c.legs) != sorted(c.legs) for c in master.columns)
    _check_layout(master.lp)


def _random_master(rng: random.Random) -> MasterProblem:
    """A 16-leg master with three cuts and up to 30 random pairing columns."""
    inst = generate_instance(n_airports=4, n_bases=2, n_legs=16,
                             n_aircraft=3, seed=5)
    master_legs = sorted(l.id for l in inst.legs)
    conns = [(a, b) for a in master_legs for b in master_legs if a != b]
    cuts = tuple(CutRow(frozenset(rng.sample(conns, 6)), 1.0)
                 for _ in range(3))
    master = MasterProblem(inst)
    for cut in cuts:
        master.add_cut(cut)
    for k in range(30):
        legs = rng.sample(master.leg_ids, rng.randrange(2, 6))
        duties = (tuple(legs[:1]), tuple(legs[1:]))
        col = PairingColumn(
            legs=tuple(legs), cost=100.0 + k, nights=rng.randrange(0, 4),
            duties=duties, n_long_duties=rng.randrange(0, 3),
            shorts=tuple(rng.sample(conns, 8)))
        if not master.has_column(col.legs):
            master.add_column(col)
    return master


def test_binary_bounds_validated():
    lp = LinearProgram()
    with pytest.raises(ValueError):
        lp.add_variable(obj=1.0, lo=0.0, hi=2.0, binary=True)
    with pytest.raises(ValueError):
        lp.add_row({99: 1.0}, "<=", 1.0)
    x = lp.add_variable()
    with pytest.raises(ValueError):
        lp.add_row({x: 1.0}, "<<", 1.0)


# ---------------------------------------------------------------------------
# sparse simplex


def test_solvers_never_build_dense_matrix(monkeypatch):
    # the simplex reads the model's nonzeros only: a routing MIP and a
    # column-generation round must solve without the dense m x n matrix
    from crewroute.pairing import solve_crew_pairing
    from crewroute.routing import solve_routing

    def refuse(self):
        raise AssertionError("dense_matrix called by a solver")

    monkeypatch.setattr(LinearProgram, "dense_matrix", refuse)
    route = solve_routing(generate_instance(6, 2, 40, 4, 7))
    assert route.status == "optimal"
    pairing = solve_crew_pairing(
        generate_instance(n_airports=4, n_bases=2, n_legs=16, n_aircraft=3,
                          seed=5),
        max_rounds=1)
    assert pairing.stats["pricing_rounds"] == 1


_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _highs_lp(lp: LinearProgram, overrides=None) -> tuple[str, float]:
    optimize = pytest.importorskip("scipy.optimize")
    a = lp.dense_matrix()
    rel = np.array(lp.relations)
    rhs = np.array(lp.rhs)
    sign = np.where(rel == ">=", -1.0, 1.0)
    ub_rows = rel != "="
    bounds = list(zip(lp.lower, lp.upper))
    for j, box in (overrides or {}).items():
        bounds[j] = box
    model = dict(
        A_ub=(a[ub_rows] * sign[ub_rows, None]) if ub_rows.any() else None,
        b_ub=(rhs[ub_rows] * sign[ub_rows]) if ub_rows.any() else None,
        A_eq=a[~ub_rows] if (~ub_rows).any() else None,
        b_eq=rhs[~ub_rows] if (~ub_rows).any() else None,
        bounds=[(lo, None if math.isinf(hi) else hi) for lo, hi in bounds],
        method="highs")
    res = optimize.linprog(lp.obj, **model)
    if res.status == 2:
        # HiGHS presolve can call a feasible, unbounded LP infeasible; the
        # solve without presolve tells the two apart. It is not the default
        # because it gives up on some LPs that presolve settles.
        res = optimize.linprog(lp.obj, options={"presolve": False}, **model)
    return _HIGHS_STATUS[res.status], res.fun


def _random_sparse_lp(rng: random.Random) -> tuple[LinearProgram, dict]:
    n = rng.randrange(6, 40)
    lp = LinearProgram()
    for _ in range(n):
        hi = rng.choice([math.inf, 1.0, rng.uniform(0.5, 6.0)])
        lp.add_variable(obj=rng.uniform(-4.0, 6.0), lo=0.0, hi=hi,
                        binary=hi == 1.0)
    for _ in range(rng.randrange(3, 25)):
        k = max(1, int(n * rng.uniform(0.05, 0.3)))
        coefs = {j: rng.choice([1.0, -1.0, rng.uniform(-3.0, 4.0)])
                 for j in rng.sample(range(n), k)}
        lp.add_row(coefs, rng.choice(RELATIONS), rng.uniform(-6.0, 6.0))
    overrides = {}
    for j in rng.sample(range(n), rng.randrange(0, 4)):
        if lp.binary[j]:
            v = float(rng.randrange(2))
            overrides[j] = (v, v)
        else:
            lo = rng.uniform(0.0, 1.0)
            overrides[j] = (lo, lo + rng.choice([0.0, rng.uniform(0.0, 2.0)]))
    return lp, overrides


def _assert_agrees_with_highs(lp: LinearProgram, overrides=None) -> str:
    got = solve_lp(lp, bound_overrides=overrides)
    want_status, want_obj = _highs_lp(lp, overrides)
    assert got.status.value == want_status
    if want_status == "optimal":
        assert abs(got.objective - want_obj) <= 1e-9 * max(1.0, abs(want_obj))
    return want_status


def test_lp_matches_highs():
    # beyond the brute-force oracle sizes: the LP relaxations of the 40- and
    # 60-leg routing models and random sparse LPs with every relation,
    # negative right-hand sides and branch-and-bound style bound overrides
    from crewroute.routing import build_ar_model, build_routing_graph

    for n_legs, n_aircraft in ((40, 4), (60, 6)):
        inst = generate_instance(6, 2, n_legs, n_aircraft, 7)
        lp, _ = build_ar_model(build_routing_graph(inst), inst.rules.n_a)
        assert _assert_agrees_with_highs(lp) == "optimal"

    rng = random.Random(41)
    seen = set()
    for _ in range(150):
        lp, overrides = _random_sparse_lp(rng)
        seen.add(_assert_agrees_with_highs(lp, overrides))
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_highs_reference_tells_unbounded_from_infeasible():
    # a feasible, unbounded LP that HiGHS presolve reports infeasible
    lp = LinearProgram()
    xs = [lp.add_variable(obj=c) for c in (
        -2.600196481596635, -1.2174484106271581, 4.5755388774404855,
        -1.6927193075285185, -0.6626531520382564)]
    lp.add_row(dict(zip(xs, (-1.4677864676965655, 1.735962387537862,
                             -0.6139062643259248, 0.5188574258984868,
                             -0.2904386389022695))),
               "<=", 5.2680722537858085)
    lp.add_row({xs[0]: 2.686864471439131, xs[2]: 1.4301776245541378,
                xs[4]: -1.7286401817901997}, ">=", -2.345498458558642)
    lp.add_row({xs[0]: 1.612167988870218, xs[1]: -1.6279203690233377,
                xs[3]: -0.4399853670295759}, "<=", 3.10681597374394)
    assert _assert_agrees_with_highs(lp) == "unbounded"
    assert tableau_solve_lp(lp)[0] == "unbounded"


def _ratio_test_reference(xb, w, ub, basis, tol_pivot):
    # the masked ratio test the where-chain kernel replaced
    t_all = np.full(xb.shape[0], np.inf)
    dn = w > tol_pivot
    t_all[dn] = np.maximum(xb[dn], 0.0) / w[dn]
    up = (w < -tol_pivot) & np.isfinite(ub)
    t_all[up] = np.maximum(ub[up] - xb[up], 0.0) / (-w[up])
    best = t_all.min() if t_all.size else np.inf
    if not np.isfinite(best):
        return np.inf, -1, 0
    tied = np.nonzero(t_all <= best + _TIE_SLACK)[0]
    row = int(tied[np.argmin(basis[tied])])
    kind = 0 if w[row] > 0.0 else 1
    return float(t_all[row]), row, kind


def test_ratio_test_is_bit_exact():
    rng = np.random.default_rng(3)
    tol = TOL_PIVOT
    cases = [(np.zeros(0), np.zeros(0), np.zeros(0))]
    # nothing blocks: every |w| <= tol, or w < 0 against an infinite ub
    cases.append((np.ones(4), np.array([tol, -tol, 0.0, -0.5 * tol]),
                  np.full(4, 2.0)))
    cases.append((np.ones(3), -np.ones(3), np.full(3, np.inf)))
    # every row blocks at the same step
    cases.append((np.full(5, 2.0), np.full(5, 4.0), np.full(5, np.inf)))
    for _ in range(400):
        m = int(rng.integers(1, 12))
        xb = rng.choice([0.0, -1e-9, 1.0, 3.0]) * rng.random(m) \
            + rng.choice([0.0, 1.0]) * rng.integers(0, 3, m)
        w = rng.choice([-2.0, -tol, -0.5 * tol, 0.0, 0.5 * tol, tol, 2.0,
                        1.0, -1.0], m) * rng.choice([1.0, rng.random()], m)
        ub = rng.choice([np.inf, 0.0, 1.0, 2.5], m)
        if rng.random() < 0.3:
            # steps tied within, at and just beyond the tie slack
            step = float(rng.random())
            off = rng.choice([0.0, 0.5, 1.0, 1.0 + 1e-3, 2.0], m) * _TIE_SLACK
            w = np.where(rng.random(m) < 0.5, 1.0, -1.0)
            xb = np.where(w > 0, step + off, 0.0)
            ub = np.where(w > 0, np.inf, step + off)
        cases.append((xb, w, ub))
    for xb, w, ub in cases:
        basis = rng.permutation(xb.shape[0] + 7)[: xb.shape[0]]
        want = _ratio_test_reference(xb, w, ub, basis, tol)
        got = ratio_test(xb.copy(), w.copy(), ub.copy(), basis, tol)
        assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# warm starts


def _with_bounds(lp: LinearProgram, fixes: dict) -> LinearProgram:
    """A copy of ``lp`` whose variable boxes carry ``fixes``."""
    out = copy.deepcopy(lp)
    for j, (lo, hi) in fixes.items():
        out.lower[j], out.upper[j] = lo, hi
    return out


def _assert_certified_optimal(lp: LinearProgram, sol, tol: float = 1e-6):
    """Primal feasibility, dual signs and complementary slackness."""
    act = lp.dense_matrix() @ sol.x
    for i, rel in enumerate(lp.relations):
        gap = act[i] - lp.rhs[i]
        if rel == "<=":
            assert gap <= tol and sol.duals[i] <= tol
        elif rel == ">=":
            assert gap >= -tol and sol.duals[i] >= -tol
        else:
            assert abs(gap) <= tol
        assert abs(sol.duals[i]) * abs(gap) <= tol
    for j in range(lp.n_vars):
        lo, hi = lp.lower[j], lp.upper[j]
        assert lo - tol <= sol.x[j] <= hi + tol
        rc = _reduced_cost(lp, sol.duals, j)
        if sol.x[j] > lo + tol:
            assert rc <= tol  # a variable above its lower bound cannot price up
        if sol.x[j] < hi - tol:
            assert rc >= -tol
    assert sol.objective == pytest.approx(lp.objective_value(sol.x), abs=tol)


def _assert_warm_matches(lp: LinearProgram, start: Basis, fixes=None) -> LpSolution:
    """The warm solve agrees with a cold solve and the tableau oracle."""
    warm = solve_lp(lp, bound_overrides=fixes, start=start)
    cold = solve_lp(lp, bound_overrides=fixes)
    bounded = _with_bounds(lp, fixes or {})
    want_status, _, want_obj, _ = tableau_solve_lp(bounded)
    assert warm.status == cold.status
    assert warm.status.value == want_status
    if warm.status is LpStatus.OPTIMAL:
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
        assert warm.objective == pytest.approx(want_obj, abs=1e-6)
        _assert_certified_optimal(bounded, warm)
        assert warm.basis is not None
    return warm


def test_cold_solve_returns_a_basis_that_resumes_in_zero_pivots():
    rng = random.Random(8)
    resumed = 0
    for _ in range(40):
        lp = _random_lp(rng, rng.randrange(3, 8), rng.randrange(2, 7),
                        with_upper=True)
        cold = solve_lp(lp)
        if cold.status is not LpStatus.OPTIMAL:
            assert cold.basis is None
            continue
        assert len(cold.basis.basic) == lp.n_rows
        again = solve_lp(lp, start=cold.basis)
        assert again.iterations == 0
        assert again.objective == pytest.approx(cold.objective, abs=1e-9)
        assert again.basis == cold.basis
        resumed += 1
    assert resumed >= 15


def test_warm_start_after_appending_a_column():
    rng = random.Random(19)
    checked = 0
    for _ in range(60):
        n, m = rng.randrange(3, 8), rng.randrange(2, 7)
        lp = _random_lp(rng, n, m, with_upper=False)
        cold = solve_lp(lp)
        if cold.status is not LpStatus.OPTIMAL:
            continue
        lp.add_variable(obj=rng.uniform(-3.0, 2.0),
                        column={i: rng.uniform(-2.0, 4.0) for i in range(m)
                                if rng.random() < 0.7})
        warm = _assert_warm_matches(lp, cold.basis)
        if warm.status is LpStatus.OPTIMAL:
            # duals agree with the oracle's where no bound rows exist
            _, _, _, want_duals = tableau_solve_lp(lp)
            assert warm.objective == pytest.approx(
                float(np.dot(want_duals, lp.rhs)), abs=1e-6)
        checked += 1
    assert checked >= 20


def test_warm_start_after_appending_a_cutting_row():
    # the cut removes the old optimum, so the start is primal infeasible and
    # the dual phase runs; deep cuts leave nothing, and the dual phase must
    # prove that itself rather than hand over to the cold solve
    rng = random.Random(29)
    outcomes = {"optimal": 0, "infeasible": 0}
    for trial in range(80):
        n, m = rng.randrange(3, 8), rng.randrange(2, 7)
        lp = _random_lp(rng, n, m, with_upper=trial % 2 == 0)
        cold = solve_lp(lp)
        if cold.status is not LpStatus.OPTIMAL:
            continue
        coefs = {j: rng.uniform(-1.0, 3.0) for j in range(n)}
        act = sum(v * cold.x[j] for j, v in coefs.items())
        row = lp.add_row(coefs, "<=", act - rng.uniform(0.1, 4.0))
        start = cold.basis.with_slack(row)
        warm = _assert_warm_matches(lp, start)
        sol, _ = simplex._solve_warm(lp, None, 10_000, start)
        assert sol is not None and sol.status == warm.status
        outcomes[warm.status.value] += 1
    assert outcomes["optimal"] >= 10 and outcomes["infeasible"] >= 5


def test_warm_start_after_fixing_a_basic_binary(monkeypatch):
    # phase-2 pivot counts of the solves _solve_warm makes
    phase2 = []
    iterate = simplex._iterate

    def counted(t, max_pivots):
        state, pivots = iterate(t, max_pivots)
        phase2.append(pivots)
        return state, pivots

    rng = random.Random(37)
    seen = set()
    for _ in range(60):
        n, m = rng.randrange(4, 9), rng.randrange(2, 6)
        lp = LinearProgram()
        for _ in range(n):
            lp.add_variable(obj=rng.uniform(-4.0, 2.0), binary=True)
        for _ in range(m):
            coefs = {j: rng.uniform(-1.0, 3.0)
                     for j in rng.sample(range(n), rng.randrange(2, n + 1))}
            lp.add_row(coefs, rng.choice(RELATIONS), rng.uniform(0.5, 4.0))
        cold = solve_lp(lp)
        if cold.status is not LpStatus.OPTIMAL:
            continue
        basic = [j for kind, j in cold.basis.basic if kind == STRUCTURAL]
        for j in basic:
            for v in (0.0, 1.0):
                fix = {j: (v, v)}
                warm = _assert_warm_matches(lp, cold.basis, fix)
                # the dual phase reaches the answer without the cold solve,
                # and keeps the optimal start dual feasible: phase 2 has
                # nothing left to do
                monkeypatch.setattr(simplex, "_iterate", counted)
                phase2.clear()
                sol, _ = simplex._solve_warm(lp, fix, 10_000, cold.basis)
                monkeypatch.setattr(simplex, "_iterate", iterate)
                assert sol is not None and sol.status == warm.status
                if sol.status is LpStatus.OPTIMAL:
                    assert phase2 == [0]
                seen.add(warm.status)
    assert seen == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}


@pytest.mark.parametrize("y_upper,proves", [(1.0, True), (2.5, False),
                                            (math.inf, False)])
def test_farkas_row_needs_the_boxes_to_exclude_the_basic(y_upper, proves):
    # x + y = 3 with x basic in [0, 1] reads x = 3 - y: it proves
    # infeasibility only when y's box cannot bring x down to 1
    lp = LinearProgram()
    x = lp.add_variable(obj=1.0, hi=1.0)
    y = lp.add_variable(obj=1.0, hi=y_upper)
    lp.add_row({x: 1.0, y: 1.0}, "=", 3.0)
    t = _Tableau(lp)
    assert simplex._install(t, Basis(((STRUCTURAL, x),)))
    assert t.xb[0] == pytest.approx(3.0)
    alpha = t.row_times(t.binv[0], t.cost.shape[0])
    assert simplex._farkas_row(t, 0, alpha, simplex.TOL_FEAS) is proves
    want = LpStatus.INFEASIBLE if proves else LpStatus.OPTIMAL
    assert solve_lp(lp, start=Basis(((STRUCTURAL, x),))).status is want


def test_warm_start_with_every_relation_matches_highs():
    # sparse LPs with '=', '<=', '>=' rows and negative right-hand sides:
    # resolve under one more bound fix and under the parent's fixes dropped
    rng = random.Random(43)
    seen = set()
    for _ in range(120):
        lp, fixes = _random_sparse_lp(rng)
        parent = solve_lp(lp, bound_overrides=fixes)
        if parent.status is not LpStatus.OPTIMAL:
            continue
        child = dict(fixes)
        j = rng.randrange(lp.n_vars)
        v = 1.0 - round(parent.x[j]) if lp.binary[j] else parent.x[j] + 0.5
        child[j] = (v, v)
        for overrides in (child, None):
            got = solve_lp(lp, bound_overrides=overrides, start=parent.basis)
            want_status, want_obj = _highs_lp(lp, overrides)
            assert got.status.value == want_status
            if want_status == "optimal":
                assert got.objective == pytest.approx(want_obj, abs=1e-7)
            seen.add(want_status)
    assert {"optimal", "infeasible"} <= seen


def test_unusable_starts_fall_back_to_the_cold_solve():
    rng = random.Random(53)
    lp = _random_lp(rng, 6, 4, with_upper=True)
    cold = solve_lp(lp)
    assert cold.status is LpStatus.OPTIMAL
    names = cold.basis.basic
    eq = LinearProgram()
    x = eq.add_variable(obj=1.0)
    y = eq.add_variable(obj=2.0)
    eq.add_row({x: 1.0, y: 1.0}, "=", 2.0)
    eq.add_row({x: 2.0, y: 2.0}, "<=", 5.0)
    bad = {
        "short": Basis(names[:-1]),
        "long": Basis(names + (names[0],)),
        "duplicate": Basis((names[0],) * len(names)),
        "unknown variable": Basis(((STRUCTURAL, 99),) + names[1:]),
        "unknown row": Basis(((SLACK, 99),) + names[1:]),
        "unknown kind": Basis((("nonsense", 0),) + names[1:]),
        "at_upper out of range": Basis(names, (99, -1)),
    }
    for label, start in bad.items():
        got = solve_lp(lp, start=start)
        if label == "at_upper out of range":
            assert got.status is LpStatus.OPTIMAL
            assert got.objective == pytest.approx(cold.objective, abs=1e-9)
            continue
        assert got.iterations == cold.iterations, label
        assert np.array_equal(got.x, cold.x), label
    # x and y have parallel columns, so {x, y} is singular, and the '=' row
    # has no slack to name; the all-artificial basis is a valid start
    want = solve_lp(eq)
    assert want.status is LpStatus.OPTIMAL
    for start in (Basis(((STRUCTURAL, x), (STRUCTURAL, y))),
                  Basis(((SLACK, 0), (SLACK, 1))),
                  Basis(((ARTIFICIAL, 0), (ARTIFICIAL, 1)))):
        got = solve_lp(eq, start=start)
        assert got.status is LpStatus.OPTIMAL
        assert got.objective == pytest.approx(want.objective, abs=1e-9)


# ---------------------------------------------------------------------------
# crash starts


def _assert_triangular_crash(lp: LinearProgram) -> None:
    """``_crash`` names one variable per row, its structural part permutes
    to lower-triangular, and ``_install`` accepts it."""
    basis = simplex._crash(lp)
    assert len(basis.basic) == lp.n_rows
    assert len(set(basis.basic)) == lp.n_rows
    logical = set()
    for kind, i in basis.basic:
        if kind == SLACK:
            assert lp.relations[i] != "="
        elif kind == ARTIFICIAL:
            assert lp.relations[i] == "="
        if kind != STRUCTURAL:
            logical.add(i)
    # The structurals cover the rows no slack or artificial names. Peeling
    # a row with one nonzero among the columns left, and that column, until
    # nothing is left finds a lower-triangular order.
    rows = {i for i in range(lp.n_rows) if i not in logical}
    cols = {j for kind, j in basis.basic if kind == STRUCTURAL}
    assert len(rows) == len(cols)
    a = lp.dense_matrix()
    while rows:
        left = sorted(cols)
        singleton = next((i for i in sorted(rows)
                          if np.count_nonzero(a[i, left]) == 1), None)
        assert singleton is not None, "structural part is not triangular"
        (k,) = np.flatnonzero(a[singleton, left])
        rows.remove(singleton)
        cols.remove(left[k])
    assert simplex._install(_Tableau(lp), basis)


def test_crash_basis_is_triangular_and_installs():
    from crewroute.routing import build_ar_model, build_routing_graph

    rng = random.Random(71)
    models = [_random_lp(rng, rng.randrange(3, 8), rng.randrange(2, 8),
                         with_upper=rng.random() < 0.5) for _ in range(40)]
    models += [_random_sparse_lp(rng)[0] for _ in range(60)]
    models += [_random_binary_model(rng) for _ in range(30)]
    models += [_conflicting_binary_model(rng) for _ in range(30)]
    for n_legs, n_aircraft in ((40, 4), (60, 6)):
        inst = generate_instance(6, 2, n_legs, n_aircraft, 7)
        graph = build_routing_graph(inst)
        lp, x = build_ar_model(graph, inst.rules.n_a)
        # one ">=" row per connection: its arcs are flown at least once
        for key in sorted(graph.conn_keys)[:3]:
            lp.add_row({x[i]: 1.0 for i, a in enumerate(graph.arcs)
                        if a.conn.key == key}, ">=", 1.0)
        models.append(lp)
        models.append(build_ar_model(graph, None)[0])
    models.append(_random_master(rng).lp)
    structural = 0
    for lp in models:
        _assert_triangular_crash(lp)
        structural += sum(kind == STRUCTURAL
                          for kind, _ in simplex._crash(lp).basic)
    assert structural > 0


def test_stuck_crash_reports_numeric_failure(monkeypatch):
    # with no start and a crash start that gives up, nothing else runs: the
    # solve reports NUMERIC_FAILURE with the pivots spent, never an answer
    rng = random.Random(73)
    stuck = []

    def give_up(t, max_pivots):
        stuck.append(max_pivots)
        return "stuck", 7

    monkeypatch.setattr(simplex, "_dual_iterate", give_up)
    for trial in range(60):
        if trial % 2:
            lp, overrides = _random_sparse_lp(rng)
        else:
            lp = _random_lp(rng, rng.randrange(3, 8), rng.randrange(2, 8),
                            with_upper=trial % 4 == 0)
            overrides = None
        max_pivots = 10_000
        got = solve_lp(lp, bound_overrides=overrides, max_pivots=max_pivots)
        # the crash start's dual phase runs under the full pivot cap
        assert stuck == [max_pivots]
        stuck.clear()
        assert got.status is LpStatus.NUMERIC_FAILURE
        assert got.iterations == 7
        assert got.x is None and got.basis is None
        # a start that gives up too is counted in
        got = solve_lp(lp, bound_overrides=overrides, max_pivots=max_pivots,
                       start=simplex._crash(lp))
        assert stuck == [simplex.DUAL_PIVOTS_PER_ROW * lp.n_rows
                         + simplex.DUAL_PIVOTS_MIN, max_pivots]
        stuck.clear()
        assert got.status is LpStatus.NUMERIC_FAILURE
        assert got.iterations == 14


def test_phase2_give_up_falls_back_to_the_crash_start(monkeypatch):
    # a phase 2 that gives up hands the solve to the crash start, as a dual
    # phase that gives up does, and every pivot of both attempts is counted
    rng = random.Random(79)
    iterate, dual_iterate = simplex._iterate, simplex._dual_iterate
    phase2, dual = [], []

    def limit_first(t, max_pivots):
        phase2.append(max_pivots)
        if len(phase2) == 1:
            return "limit", 5
        return iterate(t, max_pivots)

    def always_limit(t, max_pivots):
        phase2.append(max_pivots)
        return "limit", 5

    def dual_counted(t, max_pivots):
        state, pivots = dual_iterate(t, max_pivots)
        dual.append(pivots)
        return state, pivots

    checked = 0
    for trial in range(40):
        lp = _random_lp(rng, rng.randrange(3, 8), rng.randrange(2, 8),
                        with_upper=trial % 2 == 0)
        cold = solve_lp(lp)
        if cold.status is not LpStatus.OPTIMAL:
            continue
        monkeypatch.setattr(simplex, "_dual_iterate", dual_counted)
        monkeypatch.setattr(simplex, "_iterate", limit_first)
        phase2.clear()
        dual.clear()
        got = solve_lp(lp, start=cold.basis)
        # the second attempt is the crash start, which retraces the cold solve
        assert len(phase2) == 2 and len(dual) == 2
        assert got.status is LpStatus.OPTIMAL
        assert got.iterations == dual[0] + 5 + cold.iterations
        assert np.array_equal(got.x, cold.x)
        monkeypatch.setattr(simplex, "_iterate", always_limit)
        for start, attempts in ((cold.basis, 2), (None, 1)):
            phase2.clear()
            dual.clear()
            got = solve_lp(lp, start=start)
            assert len(phase2) == len(dual) == attempts
            assert got.status is LpStatus.NUMERIC_FAILURE
            assert got.x is None and got.basis is None
            assert got.iterations == sum(dual) + 5 * attempts
        monkeypatch.undo()
        checked += 1
    assert checked >= 20


def _assert_signs_and_basic_costs(t: _Tableau) -> None:
    """``t.sign`` and ``t.cost_b`` equal a fresh recomputation."""
    sign = np.where(t.vstat == simplex._AT_LOWER, 1.0, -1.0)
    sign[(t.vstat == simplex._BASIC) | ~(t.ub > 0)] = 0.0
    np.testing.assert_array_equal(t.sign, sign)
    np.testing.assert_array_equal(t.cost_b, t.cost[t.basis])


def test_pivots_keep_entering_signs_and_basic_costs():
    rng = random.Random(83)
    models = [(_random_lp(rng, rng.randrange(3, 8), rng.randrange(2, 8),
                          with_upper=k % 2 == 0), None) for k in range(40)]
    models += [_random_sparse_lp(rng) for _ in range(60)]
    # variables and no rows: phase 2 only flips bounds
    flips = LinearProgram()
    for c in (-1.0, 2.0, -3.0):
        flips.add_variable(obj=c, hi=2.0)
    empty_le = LinearProgram()
    empty_le.add_variable(obj=-1.0, hi=3.0)
    empty_le.add_row({}, "<=", 1.0)
    empty_eq = LinearProgram()
    empty_eq.add_variable(obj=-1.0, hi=3.0)
    empty_eq.add_row({}, "=", 1.0)
    models += [(flips, None), (empty_le, None), (empty_eq, None)]
    states, tableaus = [], []
    for lp, fixes in models:
        t = _Tableau(lp, fixes)
        tableaus.append(t)
        assert simplex._install(t, simplex._crash(lp))
        _assert_signs_and_basic_costs(t)
        state, dual = simplex._dual_iterate(t, 10_000)
        _assert_signs_and_basic_costs(t)
        pivots = 0
        if state == "feasible":
            state, pivots = simplex._iterate(t, 10_000)
            _assert_signs_and_basic_costs(t)
        states.append((state, dual, pivots))
    assert states[-3] == ("optimal", 0, 2)
    assert tableaus[-3].vstat.tolist() == [simplex._AT_UPPER, simplex._AT_LOWER,
                                           simplex._AT_UPPER]
    assert states[-2][0] == "optimal"
    assert states[-1][0] == "infeasible"
    assert sum(dual for _, dual, _ in states) > 0
    assert sum(pivots for _, _, pivots in states) > 0


@pytest.mark.parametrize("n_legs,n_aircraft", [(40, 4), (60, 6), (80, 7)])
def test_routing_solves_never_give_up(
        monkeypatch, n_legs, n_aircraft):
    # every cold routing LP goes through the crash start, and every node LP
    # through its parent's basis, without giving up on either
    from crewroute.routing import minimize_aircraft, solve_routing

    outcomes = []
    solve_warm = simplex._solve_warm

    def counted(*args, **kwargs):
        sol, pivots = solve_warm(*args, **kwargs)
        outcomes.append(sol is not None)
        return sol, pivots

    monkeypatch.setattr(simplex, "_solve_warm", counted)
    inst = generate_instance(6, 2, n_legs, n_aircraft, 7)
    for result in (solve_routing(inst), minimize_aircraft(inst)):
        assert result.status == "optimal"
    assert outcomes and all(outcomes)


@pytest.mark.parametrize("n_legs,n_aircraft,budget,minimized", [
    (40, 4, ([101], 1), ([179, 5], 2)),
    (60, 6, ([182], 1), ([485], 1)),
])
def test_route_workload_pivot_path(monkeypatch, n_legs, n_aircraft, budget,
                                   minimized):
    # the benchmark's route weeks under one BLAS thread (see conftest): the
    # pivots of each node LP and the node counts pin the simplex's path on
    # real routing models
    from crewroute.routing import minimize_aircraft, solve_routing

    iterations = []

    def counted(lp, bound_overrides=None, max_pivots=None, start=None):
        sol = simplex.solve_lp(lp, bound_overrides, max_pivots, start)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(branch_bound, "solve_lp", counted)
    inst = generate_instance(6, 2, n_legs, n_aircraft, 7)
    for solve, want in ((solve_routing, budget), (minimize_aircraft, minimized)):
        iterations.clear()
        result = solve(inst)
        assert result.status == "optimal"
        assert (iterations, result.nodes) == want


_NUMPY_MA_PROBE = """
import sys
from crewroute.milp import Basis, LinearProgram, solve_lp
from crewroute.milp.model import ARTIFICIAL
from crewroute.milp.simplex import _crash

lp = LinearProgram()
x = lp.add_variable(obj=1.0)
y = lp.add_variable(obj=2.0)
lp.add_row({x: 1.0, y: 1.0}, "=", 2.0)
lp.add_row({x: 2.0, y: 2.0}, "=", 4.0)
lp.add_row({x: 1.0}, "<=", 5.0)
assert any(kind == ARTIFICIAL for kind, _ in _crash(lp).basic)
assert solve_lp(lp).status.value == "optimal"
start = Basis(((ARTIFICIAL, 0), (ARTIFICIAL, 1), (ARTIFICIAL, 2)))
assert solve_lp(lp, start=start).status.value == "optimal"
print("numpy.ma" in sys.modules)
"""


def test_cold_and_warm_solves_never_import_numpy_ma():
    # numpy.ma costs about 1.3 MB of peak memory; the probe's crash start
    # names the artificial of an uncovered '=' row, and its warm start names
    # one on the '<=' row
    src = Path(simplex.__file__).resolve().parents[2]
    run = subprocess.run([sys.executable, "-c", _NUMPY_MA_PROBE],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]


# ---------------------------------------------------------------------------
# branch and bound from parent bases


def _conflicting_binary_model(rng: random.Random) -> LinearProgram:
    """Binaries tied by equalities and tight pairs, so fixing one binary
    often leaves its child LP infeasible."""
    n = rng.randrange(5, 12)
    lp = LinearProgram()
    xs = [lp.add_variable(obj=rng.uniform(-5.0, 5.0), binary=True)
          for _ in range(n)]
    for _ in range(rng.randrange(2, 5)):
        group = rng.sample(xs, rng.randrange(2, n))
        lp.add_row({x: 1.0 for x in group}, "=", float(rng.randrange(1, 3)))
    for _ in range(rng.randrange(1, 4)):
        a, b = rng.sample(xs, 2)
        lp.add_row({a: 2.0, b: 2.0}, rng.choice(["<=", ">="]), 1.0 + rng.random())
    return lp


def test_branch_and_bound_children_match_enumeration(monkeypatch):
    calls = []

    def counted(lp, bound_overrides=None, max_pivots=None, start=None):
        sol = simplex.solve_lp(lp, bound_overrides, max_pivots, start)
        calls.append((start is not None, sol.status))
        return sol

    monkeypatch.setattr(branch_bound, "solve_lp", counted)
    rng = random.Random(61)
    statuses = set()
    for _ in range(120):
        lp = _conflicting_binary_model(rng) if rng.random() < 0.6 \
            else _random_binary_model(rng)
        res = solve_mip(lp)
        want_status, _, want_obj = brute_force_binary(lp)
        assert res.status.value == want_status
        statuses.add(want_status)
        if want_status == "optimal":
            assert res.objective == pytest.approx(want_obj, abs=1e-6)
            assert res.x == pytest.approx(np.round(res.x), abs=1e-6)
    assert statuses == {"optimal", "infeasible"}
    warm_infeasible = sum(1 for warm, st in calls
                          if warm and st is LpStatus.INFEASIBLE)
    assert warm_infeasible >= 20
    assert sum(1 for warm, _ in calls if not warm) == 120  # the roots


def test_branch_and_bound_ignores_a_garbage_start():
    rng = random.Random(67)
    garbage = (
        Basis(((STRUCTURAL, 0),)),
        Basis(((SLACK, 0),) * 40, (3, 3, 500)),
        Basis(tuple((STRUCTURAL, j) for j in range(200))),
    )
    for _ in range(30):
        lp = _conflicting_binary_model(rng)
        want = solve_mip(lp)
        for start in garbage:
            got = solve_mip(lp, start=start)
            assert got.status == want.status
            if want.status is MipStatus.OPTIMAL:
                assert got.objective == pytest.approx(want.objective, abs=1e-9)
