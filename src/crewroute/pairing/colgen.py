"""Column generation for the crew pairing problem.

The drill: keep a restricted master over priced pairing columns plus
artificial single-cover columns, alternate LP solves with pricing over the
seven window networks, and once no pairing prices below zero take the LP
value as the lower bound. A first integer solve gives an upper bound, then
every pairing whose reduced cost under the converged duals is at most the
gap is enumerated into the master and a final integer solve closes the
loop. The final answer is provably optimal exactly when no enumeration was
truncated and no artificial column stayed active. When the first integer
solve is artificial-free and already within the pad of the lower bound it
is the proven optimum, and nothing is enumerated.

A ``PairingSession`` keeps this state between solves of one instance: the
window networks and their pricers, the master with its column pool and
cuts, and the last optimal master basis. Each master LP resumes from the
previous one's basis, and each integer solve starts its root from the
converged column-generation basis. ``add_cut`` is the one way a
short-connection cut reaches the master: it appends one master row, whose
slack joins the basis, and nothing else. Every pooled column stays, and
each round prices the row's dual on the arcs of its short connections, so
arc resources and state graphs are built once per session. The integrated
loop adds each cut to its session and re-solves instead of restarting, and
a report's ``n_columns`` is the size of the session's pool.
``solve_crew_pairing`` either opens a session with no cuts or resumes the
one it is given under that session's own cuts and kappa.

The master LP is solved with column upper bounds relaxed to infinity. The
cover equalities already imply y <= 1, so the optimum is unchanged, and it
keeps every nonbasic column at its lower bound, which is what makes "no
column prices below zero" equivalent to LP optimality and makes the
reduced-cost completion threshold valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..instance import Connection, ConnectionKind, Instance, build_connections
from ..milp import Basis, LpStatus, MipStatus, solve_lp, solve_mip
from ..rcsp import (
    build_state_graph,
    enumerate_within,
    resolve_kappa,
    solve,
    update_bounds,
)
from .algebra import PairingAlgebra
from .master import CutRow, MasterProblem
from .network import (
    PairingColumn,
    WindowNetwork,
    arc_resources,
    arc_shorts,
    build_pricing_networks,
    decode_pairing,
    path_legs,
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

    def as_dict(self) -> dict:
        stats = dict(self.stats)
        stats["cg_iterations"] = stats.pop("pricing_rounds", self.iterations)
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


def connection_duals(cuts: tuple[CutRow, ...],
                     sigma) -> dict[tuple[int, int], float]:
    """Each cut connection's dual: the sum of the duals ``sigma`` of the cut
    rows that hold it, each clamped non-positive to absorb solver noise."""
    out: dict[tuple[int, int], float] = {}
    for cut, s in zip(cuts, sigma):
        s = min(s, 0.0)
        for key in cut.conns:
            out[key] = out.get(key, 0.0) + s
    return out


class _WindowPricer:
    """One window's network and the state graph that prices it."""

    def __init__(self, net: WindowNetwork, inst: Instance,
                 base_algebra: PairingAlgebra, kappa: int):
        self.net = net
        graph = net.graph
        graph.resources = arc_resources(net, inst, base_algebra, {})
        self.state_graph = build_state_graph(graph, base_algebra, kappa)
        # Duals only move z: keep each arc's dual-free z and the short
        # connection it flies; net.arc_legs holds the leg whose cover dual
        # it pays.
        self.base_z = [base_algebra.scalar(q) for q in graph.resources]
        self.short_arcs = arc_shorts(net)

    def reprice(self, algebra: PairingAlgebra, leg_duals: dict[int, float],
                conn_duals: dict[tuple[int, int], float]):
        z = [b - leg_duals.get(leg, 0.0)
             for b, leg in zip(self.base_z, self.net.arc_legs)]
        for aid, key in self.short_arcs:
            if key in conn_duals:
                z[aid] -= conn_duals[key]
        update_bounds(self.state_graph, z, algebra)
        # Pricing only wants columns with reduced cost below -PRICING_TOL,
        # so seed the incumbent there: labels that cannot beat it die early,
        # and a None result certifies that no wanted column exists.
        return solve(self.state_graph, algebra, initial_ub=-PRICING_TOL)


class PairingSession:
    """Column-generation state of one instance, kept across cut rounds."""

    def __init__(self, inst: Instance,
                 connections: list[Connection] | None = None, kappa=None):
        if connections is None:
            connections = build_connections(inst)
        self.inst = inst
        self.shorts = frozenset(c.key for c in connections
                                if c.kind == ConnectionKind.SHORT)
        self.master = MasterProblem(inst)
        self.basis: Basis | None = None
        rules = inst.rules
        self.base_algebra = PairingAlgebra(rules.max_legs_per_duty,
                                           rules.F_max, rules.alpha,
                                           rules.beta)
        kappa = resolve_kappa(rules.kappa if kappa is None else kappa)
        self.pricers = [
            _WindowPricer(n, inst, self.base_algebra, kappa)
            for n in build_pricing_networks(inst, connections)
        ]

    @property
    def cuts(self) -> tuple[CutRow, ...]:
        return self.master.cuts

    def add_cut(self, cut: CutRow) -> None:
        """Add a cut row to the master and its slack to the basis.

        The master counts a pairing's short connections only, so a cut on
        any other connection is a ValueError."""
        other = cut.conns - self.shorts
        if other:
            raise ValueError(f"cut connection {min(other)} is not a short "
                             f"connection of the instance")
        row = self.master.add_cut(cut)
        if self.basis is not None:
            self.basis = self.basis.with_slack(row)

    def solve(self, path_limit: int = 200_000, node_limit: int = 200_000,
              max_rounds: int = 500) -> PairingResult:
        """Column generation, completion and the master MIP under the
        session's cuts, resumed from its pool and basis."""
        inst, master, pricers = self.inst, self.master, self.pricers
        base_algebra = self.base_algebra
        stats = {
            "pricing_rounds": 0,
            "columns_priced": 0,
            "columns_completion": 0,
            "lp_values": [],
            "paths_enumerated": 0,
            "cut_dom": 0,
            "cut_low": 0,
            "kappa": [p.state_graph.kappa for p in pricers],
        }

        def tally(st):
            stats["paths_enumerated"] += st.paths_enumerated
            stats["cut_dom"] += st.cut_dom
            stats["cut_low"] += st.cut_low

        def result(status, c_lb, c_ub, truncated, proven=False, mip=None,
                   uncovered=()):
            """The report; ``mip`` is the final solve when it picked
            pairings."""
            pairings = [] if mip is None else sorted(master.selected(mip.x),
                                                     key=lambda p: p.legs)
            return PairingResult(
                status=status,
                objective=math.inf if mip is None else mip.objective,
                c_lb=c_lb, c_ub_initial=c_ub, provably_optimal=proven,
                pairings=pairings, uncovered_legs=list(uncovered),
                iterations=stats["pricing_rounds"],
                n_columns=len(master.columns),
                truncated=truncated, stats=stats,
            )

        def admit(net: WindowNetwork, path, model_cost: float, duals) -> bool:
            """Add the pairing of a window path unless the pool has it. Its
            reduced cost in the master must be the network's cost."""
            if master.has_column(path_legs(net, path)):
                return False
            col = decode_pairing(net, inst, path)
            rc = master.reduced_cost(col, duals)
            if abs(rc - model_cost) > 1e-5 * max(1.0, abs(rc)):
                raise RuntimeError(
                    f"pricing arithmetic mismatch: network {model_cost!r} "
                    f"vs master {rc!r} for legs {col.legs}"
                )
            master.add_column(col)
            return True

        # Step 1-3: price until no pairing has reduced cost below
        # -PRICING_TOL. New columns enter nonbasic at zero, so the previous
        # round's basis is a primal feasible start.
        lp_sol = None
        converged = False
        while stats["pricing_rounds"] < max_rounds:
            relax = {v: (0.0, math.inf) for v in master.col_vars}
            lp_sol = solve_lp(master.lp, bound_overrides=relax,
                              start=self.basis)
            if lp_sol.status != LpStatus.OPTIMAL:
                raise RuntimeError(f"master LP ended {lp_sol.status.value}")
            self.basis = lp_sol.basis
            stats["lp_values"].append(lp_sol.objective)
            stats["pricing_rounds"] += 1
            leg_duals, mu, nu, sigma = master.duals_of(lp_sol.duals)
            algebra = base_algebra.with_duals(mu, nu)
            conn_duals = connection_duals(master.cuts, sigma)

            added = 0
            for pricer in pricers:
                cost, path, st = pricer.reprice(algebra, leg_duals,
                                                conn_duals)
                tally(st)
                if path is not None:
                    added += admit(pricer.net, path, cost, lp_sol.duals)
            stats["columns_priced"] += added
            if added == 0:
                converged = True
                break

        if not converged:
            return result("limit", None, None, truncated=True)

        c_lb = lp_sol.objective
        final_duals = lp_sol.duals

        # Uncoverable legs keep their artificial active even in the LP, and
        # the LP relaxes the integer problem, so this is a proof of
        # infeasibility.
        lp_uncovered = master.active_artificials(lp_sol.x)
        if lp_uncovered:
            return result("infeasible", c_lb, None, truncated=False,
                          proven=True, uncovered=lp_uncovered)

        # Step 4: first integer solve gives the upper bound.
        mip1 = solve_mip(master.lp, node_limit=node_limit, start=self.basis)
        if mip1.status == MipStatus.NODE_LIMIT and mip1.x is None:
            return result("limit", c_lb, None, truncated=True)
        if mip1.status == MipStatus.INFEASIBLE:
            raise RuntimeError("master with artificial columns cannot be "
                               "infeasible")
        c_ub = mip1.objective
        truncated = mip1.status == MipStatus.NODE_LIMIT

        # An artificial-free optimum within the pad of the LP bound over
        # every column is optimal: there is nothing left to enumerate.
        if (mip1.status == MipStatus.OPTIMAL
                and c_ub <= c_lb + COMPLETION_PAD
                and not master.active_artificials(mip1.x)):
            return result("optimal", c_lb, c_ub, False, proven=True,
                          mip=mip1)

        # Step 5: enumerate every column whose reduced cost under the
        # converged duals is within the optimality gap.
        threshold = (c_ub - c_lb) + COMPLETION_PAD
        for pricer in pricers:
            entries, st = enumerate_within(pricer.state_graph,
                                           pricer.state_graph.ordered_for,
                                           threshold, path_limit)
            tally(st)
            truncated = truncated or st.truncated
            for path, _q, cost in entries:
                stats["columns_completion"] += admit(pricer.net, path, cost,
                                                     final_duals)

        # Step 6: final integer solve over the completed pool.
        mip2 = solve_mip(master.lp, node_limit=node_limit, start=self.basis)
        if mip2.status == MipStatus.INFEASIBLE:
            raise RuntimeError("master with artificial columns cannot be "
                               "infeasible")
        if mip2.x is None:
            return result("limit", c_lb, c_ub, truncated=True)
        truncated = truncated or mip2.status == MipStatus.NODE_LIMIT

        uncovered = master.active_artificials(mip2.x)
        if uncovered:
            # No integer cover exists among all columns within the
            # threshold; if nothing was truncated this proves the instance
            # has no crew solution.
            return result("infeasible" if not truncated else "limit", c_lb,
                          c_ub, truncated, proven=not truncated,
                          uncovered=uncovered)

        proven = (not truncated) and mip2.status == MipStatus.OPTIMAL
        return result("optimal" if proven else "feasible", c_lb, c_ub,
                      truncated, proven=proven, mip=mip2)


def solve_crew_pairing(
    inst: Instance,
    kappa=None,
    path_limit: int = 200_000,
    node_limit: int = 200_000,
    max_rounds: int = 500,
    session: PairingSession | None = None,
) -> PairingResult:
    """Solve crew pairing by column generation.

    ``session`` resumes an open session of ``inst`` under its own cuts, with
    its networks, kappa, column pool and basis, so it takes no ``kappa``.
    Without one, a session with no cuts is opened.
    """
    if session is None:
        session = PairingSession(inst, kappa=kappa)
    elif session.inst is not inst:
        raise ValueError("session belongs to another instance")
    elif kappa is not None:
        raise ValueError("a resumed session prices at its own kappa")
    return session.solve(path_limit, node_limit, max_rounds)
