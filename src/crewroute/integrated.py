"""Integrated crew pairing and aircraft routing.

Crew pairing ignores aircraft; its short connections assume the crew stays
on the same airplane, so the airplane must actually fly them. The loop
solves crew pairing, collects the short connections S its solution uses,
and asks the routing side to fly all of S under the maintenance rules and
the fleet budget. If routing succeeds the pair of solutions is consistent
and we stop. Otherwise a cut caps how many connections of S future crew
solutions may use: at gamma = 1 the cap is |S| - 1 (a pure no-good, which
keeps the loop exact), below 1 it is floor(gamma * |S|), which cuts deeper
and trades optimality for fewer iterations. A cut row counts the short
connections of binary pairing columns, so its left side is an integer, and
rounding the cap down admits the same crew plans while tightening the LP.

The same S can never come back: any crew solution using all of S violates
its own cut, which is asserted each iteration.

All iterations share one ``PairingSession``, and the session holds the
cuts: each cut is added to it (``add_cut``) as soon as routing rejects S,
on the networks, column pool and master basis of the previous iteration,
and pairing resumes from there instead of starting over. They share one
``RoutingSession`` too: the routing graph and arc-flow model are built
once, and a forced connection (a, b) reaches branch and bound as root
bound overrides of [0, 0] on every other arc into leg b, so no solve
writes the model.

The first time routing rejects a non-empty S, the loop routes once more
with nothing forced. If the fleet cannot fly the week at all, no crew plan
can ever be routed, whatever the cuts: the loop stops there with a proof of
infeasibility at any gamma. That unforced solve's root basis also starts
every later forced solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .instance import Instance, build_connections
from .pairing import CutRow, PairingResult, PairingSession, solve_crew_pairing
from .routing import RoutingResult, RoutingSession, solve_routing


@dataclass
class IntegratedResult:
    status: str
    objective: float
    lower_bound: float | None
    gamma: float
    provably_optimal: bool
    iterations: int
    cuts: list[CutRow]
    pairing: PairingResult | None
    routing: RoutingResult | None
    log: list[dict] = field(default_factory=list)
    over_cut: bool = False
    cg_iter_total: int = 0
    short_connections: int = 0

    @property
    def gap(self) -> float | None:
        if self.lower_bound is None or math.isinf(self.objective):
            return None
        return self.objective - self.lower_bound

    def as_dict(self) -> dict:
        stats = {
            "integ_steps": self.iterations,
            "cg_iter_total": self.cg_iter_total,
            "short_connections": self.short_connections,
            "gap": self.gap,
        }
        return {
            "status": self.status,
            "objective": None if math.isinf(self.objective) else self.objective,
            "lower_bound": self.lower_bound,
            "gap": self.gap,
            "gamma": self.gamma,
            "provably_optimal": self.provably_optimal,
            "iterations": self.iterations,
            "over_cut": self.over_cut,
            "cuts": [
                {"connections": sorted([list(k) for k in c.conns]),
                 "rhs": c.rhs}
                for c in self.cuts
            ],
            "pairing": self.pairing.as_dict() if self.pairing else None,
            "routing": self.routing.as_dict() if self.routing else None,
            "stats": stats,
            "log": self.log,
        }


def short_connections_of(result: PairingResult) -> frozenset:
    used = set()
    for p in result.pairings:
        used.update(p.shorts)
    return frozenset(used)


def cut_for(s: frozenset, gamma: float) -> CutRow:
    """Cap ``floor(gamma * |S|)``, at most ``|S| - 1``; the tolerance keeps a
    product a hair below an integer (0.58 * 50) from cutting one deeper."""
    rhs = min(len(s) - 1, math.floor(gamma * len(s) + 1e-9))
    return CutRow(conns=s, rhs=float(rhs))


def solve_integrated(
    inst: Instance,
    gamma: float | None = None,
    iteration_limit: int = 100,
    kappa=None,
    path_limit: int = 200_000,
    node_limit: int = 200_000,
) -> IntegratedResult:
    if gamma is None:
        gamma = inst.rules.gamma
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
    connections = build_connections(inst)

    # One pairing and one routing session for the whole loop: the pairing
    # session holds the cuts, each iteration adds its cut to the same
    # networks, pool and basis, forces its S on the same routing model, and
    # re-solves from there.
    session = PairingSession(inst, connections, kappa=kappa)
    routing = RoutingSession(inst, connections, inst.rules.n_a)

    lower_bound: float | None = None
    log: list[dict] = []
    cg_iter_total = 0

    def result(status, cp, ar, proven, over_cut=False):
        return IntegratedResult(
            status=status,
            objective=cp.objective if cp and status in ("optimal", "feasible")
            else math.inf,
            lower_bound=lower_bound,
            gamma=gamma,
            provably_optimal=proven,
            iterations=len(log),
            cuts=list(session.cuts),
            pairing=cp,
            routing=ar,
            log=log,
            over_cut=over_cut,
            cg_iter_total=cg_iter_total,
            short_connections=len(short_connections_of(cp)) if cp else 0,
        )

    fleet_checked = False
    for it in range(1, iteration_limit + 1):
        cp = solve_crew_pairing(inst, session=session, path_limit=path_limit,
                                node_limit=node_limit)
        cg_iter_total += cp.iterations
        if lower_bound is None:
            lower_bound = cp.c_lb
        entry = {"iteration": it, "cp_status": cp.status,
                 "cp_objective": None if math.isinf(cp.objective)
                 else cp.objective}
        log.append(entry)
        if cp.status == "infeasible":
            if not session.cuts:
                return result("infeasible", cp, None, proven=True)
            if gamma >= 1.0 and cp.provably_optimal:
                # Exact no-goods: every cut's S was rejected by the exact
                # routing solve, and no cover avoids using some rejected S
                # in full, so the integrated problem has no solution.
                return result("infeasible", cp, None, proven=True)
            # Cuts at gamma < 1 over-restrict; emptying the crew problem is
            # a diagnostic, not a proof.
            return result("limit", cp, None, proven=False, over_cut=True)
        if cp.status == "limit":
            return result("limit", cp, None, proven=False)

        s = short_connections_of(cp)
        entry["n_short_used"] = len(s)
        ar = solve_routing(inst, forced=sorted(s), node_limit=node_limit,
                           session=routing)
        entry["ar_status"] = ar.status
        if ar.status == "optimal":
            proven = gamma >= 1.0 and cp.provably_optimal
            return result("optimal" if proven else "feasible", cp, ar, proven)
        if ar.status == "limit":
            return result("limit", cp, ar, proven=False)

        # Routing rejected S. With no short connection used at all the
        # aircraft side is infeasible on its own, proving the instance out.
        if not s:
            return result("infeasible", cp, ar, proven=True)
        # The first rejection checks the fleet alone: with nothing forced
        # an infeasible routing is that same proof, and no cut can help.
        # A node-limit result proves nothing, so the loop just cuts.
        if not fleet_checked:
            fleet_checked = True
            unforced = solve_routing(inst, forced=[], node_limit=node_limit,
                                     session=routing)
            if unforced.status == "infeasible":
                return result("infeasible", cp, unforced, proven=True)
        if any(c.conns == s for c in session.cuts):
            raise RuntimeError("cut failed to exclude its own support set")
        cut = cut_for(s, gamma)
        session.add_cut(cut)
        entry["cut_rhs"] = cut.rhs

    return result("limit", None, None, proven=False)
