"""Column generation for the crew pairing problem.

The drill: keep a restricted master over priced pairing columns plus
artificial single-cover columns, alternate LP solves with pricing over the
seven window networks, and once no pairing prices below zero take the LP
value as the lower bound. A first integer solve gives an upper bound, then
every pairing whose reduced cost under the converged duals is at most the
gap is enumerated into the master and a final integer solve closes the
loop. The final answer is provably optimal exactly when no enumeration was
truncated and no artificial column stayed active.

The master LP is solved with column upper bounds relaxed to infinity. The
cover equalities already imply y <= 1, so the optimum is unchanged, and it
keeps every nonbasic column at its lower bound, which is what makes "no
column prices below zero" equivalent to LP optimality and makes the
reduced-cost completion threshold valid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..instance import Connection, Instance, build_connections
from ..milp import LpStatus, MipStatus, solve_lp, solve_mip
from ..rcsp import build_state_graph, enumerate_within, solve, update_bounds
from .algebra import PairingAlgebra
from .master import CutRow, MasterProblem
from .network import (
    PairingColumn,
    WindowNetwork,
    arc_dual_legs,
    arc_resources,
    build_pricing_networks,
    decode_pairing,
)

PRICING_TOL = 1e-6
COMPLETION_PAD = 1e-6


@dataclass
class PairingResult:
    status: str
    objective: float
    c_lb: float | None
    c_ub_initial: float | None
    provably_optimal: bool
    pairings: list[PairingColumn]
    uncovered_legs: list[int]
    iterations: int
    n_columns: int
    truncated: bool
    stats: dict = field(default_factory=dict)

    def as_dict(self, include_timing: bool = False) -> dict:
        stats = dict(self.stats)
        stats["cg_iterations"] = stats.pop("pricing_rounds", self.iterations)
        runtime = stats.pop("runtime_ms", 0.0)
        sections = {k: stats.pop(k, 0.0)
                    for k in ("pricing_ms", "lp_ms", "mip_ms")}
        if include_timing:
            # Wall-clock shares of the three phases; not reproducible.
            total = max(runtime, 1e-9)
            stats["runtime_ms"] = runtime
            stats["pricing_time_frac"] = sections["pricing_ms"] / total
            stats["lp_time_frac"] = sections["lp_ms"] / total
            stats["mip_time_frac"] = sections["mip_ms"] / total
        return {
            "status": self.status,
            "objective": None if math.isinf(self.objective) else self.objective,
            "c_LB": self.c_lb,
            "c_ub_initial": self.c_ub_initial,
            "provably_optimal": self.provably_optimal,
            "iterations": self.iterations,
            "n_columns": self.n_columns,
            "truncated": self.truncated,
            "uncovered_legs": self.uncovered_legs,
            "pairings": [
                {
                    "legs": list(p.legs),
                    "cost": p.cost,
                    "is_long": p.is_long,
                    "nights": p.nights,
                    "duties": [list(d) for d in p.duties],
                    "n_long_duties": p.n_long_duties,
                    "shorts": [list(k) for k in p.shorts],
                }
                for p in self.pairings
            ],
            "stats": stats,
        }


class _WindowPricer:
    """One window's network and the state graph that prices it."""

    def __init__(self, net: WindowNetwork, inst: Instance,
                 base_algebra: PairingAlgebra,
                 cut_sets: tuple[frozenset, ...], kappa):
        self.net = net
        net.graph.resources = arc_resources(net, inst, base_algebra, {},
                                            cut_sets)
        self.state_graph = build_state_graph(net.graph, base_algebra, kappa)
        # Duals only move z: keep each arc's dual-free z and the leg whose
        # cover dual it pays.
        self.base_z = [base_algebra.scalar(q) for q in net.graph.resources]
        self.dual_legs = arc_dual_legs(net)
        self.algebra = base_algebra

    def reprice(self, algebra: PairingAlgebra, leg_duals: dict[int, float]):
        z = [b - leg_duals.get(leg, 0.0)
             for b, leg in zip(self.base_z, self.dual_legs)]
        graph = self.net.graph
        graph.resources = list(map(algebra.with_scalar, graph.resources, z))
        self.algebra = algebra
        update_bounds(self.state_graph, z, algebra)
        # Pricing only wants columns with reduced cost below -PRICING_TOL,
        # so seed the incumbent there: labels that cannot beat it die early,
        # and a None result certifies that no wanted column exists.
        return solve(self.state_graph, algebra, initial_ub=-PRICING_TOL)

    def enumerate(self, c_ub: float, path_limit: int):
        return enumerate_within(self.state_graph, self.algebra, c_ub,
                                path_limit)


def solve_crew_pairing(
    inst: Instance,
    connections: list[Connection] | None = None,
    cuts: tuple[CutRow, ...] = (),
    kappa=None,
    path_limit: int = 200_000,
    node_limit: int = 200_000,
    max_rounds: int = 500,
) -> PairingResult:
    t0 = time.perf_counter()
    if connections is None:
        connections = build_connections(inst)
    rules = inst.rules
    if kappa is None:
        kappa = rules.kappa
    cut_sets = tuple(c.conns for c in cuts)
    base_algebra = PairingAlgebra(
        rules.max_legs_per_duty, rules.F_max, rules.alpha, rules.beta,
        n_cuts=len(cuts),
    )
    nets = build_pricing_networks(inst, connections)
    pricers = [_WindowPricer(n, inst, base_algebra, cut_sets, kappa)
               for n in nets]
    master = MasterProblem(inst, cuts)

    stats = {
        "pricing_rounds": 0,
        "columns_priced": 0,
        "columns_completion": 0,
        "lp_values": [],
        "paths_enumerated": 0,
        "cut_dom": 0,
        "cut_low": 0,
        "kappa": [p.state_graph.kappa for p in pricers],
        "pricing_ms": 0.0,
        "lp_ms": 0.0,
        "mip_ms": 0.0,
    }

    def run_windows(fn):
        t = time.perf_counter()
        out = [fn(p) for p in pricers]
        stats["pricing_ms"] += (time.perf_counter() - t) * 1000.0
        return out

    def tally(st):
        stats["paths_enumerated"] += st.paths_enumerated
        stats["cut_dom"] += st.cut_dom
        stats["cut_low"] += st.cut_low

    def master_lp():
        t = time.perf_counter()
        relax = {v: (0.0, math.inf) for v in master.col_vars}
        sol = solve_lp(master.lp, bound_overrides=relax)
        stats["lp_ms"] += (time.perf_counter() - t) * 1000.0
        if sol.status != LpStatus.OPTIMAL:
            raise RuntimeError(f"master LP ended {sol.status.value}")
        return sol

    def master_mip():
        t = time.perf_counter()
        out = solve_mip(master.lp, node_limit=node_limit)
        stats["mip_ms"] += (time.perf_counter() - t) * 1000.0
        return out

    def finish(result: PairingResult) -> PairingResult:
        stats["runtime_ms"] = (time.perf_counter() - t0) * 1000.0
        result.n_columns = len(master.columns)
        result.stats = stats
        return result

    def check_column(col: PairingColumn, model_cost: float, duals) -> None:
        rc = master.reduced_cost(col, duals)
        if abs(rc - model_cost) > 1e-5 * max(1.0, abs(rc)):
            raise RuntimeError(
                f"pricing arithmetic mismatch: network {model_cost!r} "
                f"vs master {rc!r} for legs {col.legs}"
            )

    # Step 1-3: price until no pairing has reduced cost below -PRICING_TOL.
    lp_sol = None
    converged = False
    while stats["pricing_rounds"] < max_rounds:
        lp_sol = master_lp()
        stats["lp_values"].append(lp_sol.objective)
        stats["pricing_rounds"] += 1
        leg_duals, mu, nu, sigma = master.duals_of(lp_sol.duals)
        algebra = base_algebra.with_duals(mu, nu, sigma)

        priced = run_windows(lambda p: p.reprice(algebra, leg_duals))
        added = 0
        for pricer, (cost, path, st) in zip(pricers, priced):
            tally(st)
            if path is None or cost >= -PRICING_TOL:
                continue
            col = decode_pairing(pricer.net, inst, path)
            if master.has_column(col):
                continue
            check_column(col, cost, lp_sol.duals)
            master.add_column(col)
            added += 1
        stats["columns_priced"] += added
        if added == 0:
            converged = True
            break

    if not converged:
        return finish(PairingResult(
            status="limit", objective=math.inf, c_lb=None, c_ub_initial=None,
            provably_optimal=False, pairings=[], uncovered_legs=[],
            iterations=stats["pricing_rounds"], n_columns=0, truncated=True,
        ))

    c_lb = lp_sol.objective
    final_duals = lp_sol.duals

    # Uncoverable legs keep their artificial active even in the LP, and the
    # LP relaxes the integer problem, so this is a proof of infeasibility.
    lp_uncovered = master.active_artificials(lp_sol.x)
    if lp_uncovered:
        return finish(PairingResult(
            status="infeasible", objective=math.inf, c_lb=c_lb,
            c_ub_initial=None, provably_optimal=True, pairings=[],
            uncovered_legs=lp_uncovered, iterations=stats["pricing_rounds"],
            n_columns=0, truncated=False,
        ))

    # Step 4: first integer solve gives the upper bound.
    mip1 = master_mip()
    if mip1.status == MipStatus.NODE_LIMIT and mip1.x is None:
        return finish(PairingResult(
            status="limit", objective=math.inf, c_lb=c_lb, c_ub_initial=None,
            provably_optimal=False, pairings=[], uncovered_legs=[],
            iterations=stats["pricing_rounds"], n_columns=0, truncated=True,
        ))
    if mip1.status == MipStatus.INFEASIBLE:
        raise RuntimeError("master with artificial columns cannot be infeasible")
    c_ub = mip1.objective
    truncated = mip1.status == MipStatus.NODE_LIMIT

    # Step 5: enumerate every column whose reduced cost under the converged
    # duals is within the optimality gap.
    threshold = (c_ub - c_lb) + COMPLETION_PAD
    completion = run_windows(lambda p: p.enumerate(threshold, path_limit))
    for pricer, (entries, st) in zip(pricers, completion):
        tally(st)
        truncated = truncated or st.truncated
        for path, _q, cost in entries:
            col = decode_pairing(pricer.net, inst, path)
            if master.has_column(col):
                continue
            check_column(col, cost, final_duals)
            master.add_column(col)
            stats["columns_completion"] += 1

    # Step 6: final integer solve over the completed pool.
    mip2 = master_mip()
    if mip2.status == MipStatus.INFEASIBLE:
        raise RuntimeError("master with artificial columns cannot be infeasible")
    if mip2.x is None:
        return finish(PairingResult(
            status="limit", objective=math.inf, c_lb=c_lb, c_ub_initial=c_ub,
            provably_optimal=False, pairings=[], uncovered_legs=[],
            iterations=stats["pricing_rounds"], n_columns=0, truncated=True,
        ))
    truncated = truncated or mip2.status == MipStatus.NODE_LIMIT

    uncovered = master.active_artificials(mip2.x)
    if uncovered:
        # No integer cover exists among all columns within the threshold; if
        # nothing was truncated this proves the instance has no crew solution.
        return finish(PairingResult(
            status="infeasible" if not truncated else "limit",
            objective=math.inf, c_lb=c_lb, c_ub_initial=c_ub,
            provably_optimal=not truncated, pairings=[],
            uncovered_legs=uncovered, iterations=stats["pricing_rounds"],
            n_columns=0, truncated=truncated,
        ))

    pairings = master.selected(mip2.x)
    pairings.sort(key=lambda p: p.legs)
    proven = (not truncated) and mip2.status == MipStatus.OPTIMAL
    return finish(PairingResult(
        status="optimal" if proven else "feasible",
        objective=mip2.objective,
        c_lb=c_lb,
        c_ub_initial=c_ub,
        provably_optimal=proven,
        pairings=pairings,
        uncovered_legs=[],
        iterations=stats["pricing_rounds"],
        n_columns=0,
        truncated=truncated,
    ))
