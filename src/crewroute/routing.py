"""Aircraft maintenance routing as a compact integer program.

The week is cyclic. A vertex is a (leg, k) pair where k counts days since
the aircraft last spent a night at a maintenance base; k never exceeds the
maintenance interval T. An arc follows one airplane-feasible connection:
same-day connections keep k, overnight stays at a base reset k to 1, and
overnight stays elsewhere advance k by the midnights crossed (dropped when
that would exceed T, which is exactly the maintenance rule). A cycle that
never rests at a base cannot close, because k strictly increases along it.

Each selected arc spans the tail leg's flight plus the ground time to the
head leg's departure. The number of times that span contains the weekly
Monday-midnight instant equals, summed over a route, the number of weeks
the route takes, and one aircraft is needed per week of route span. The
fleet budget row caps that sum.

Crew-side short connections are imposed by forcing them to be flown. Leg
b's cover row lets exactly one arc into b carry flow, so "fly (a, b)" is
the same constraint as "no arc into b from a leg other than a": a forced
solve closes those arcs (upper bound 0), which gives the same integer and
LP feasible sets as a row over (a, b)'s arcs. When the maintenance cap or
the pruning below dropped every arc of (a, b), every arc into b is closed
and b's cover row proves the model infeasible.

Only arcs on a directed cycle of the (leg, k) graph enter the model: an arc
is kept when its two ends lie in one strongly connected component. A
routing is a circulation, and every circulation splits into cycles (flow
decomposition), so an arc on no cycle carries no flow in any LP or MIP
solution, and dropping it is exact. A vertex left without arcs gets no
flow row. A leg left without arcs keeps an empty cover row, which the LP
proves infeasible. ``uncoverable_legs`` is found before the pruning, so it
still names only the legs with no arc in or out under the maintenance cap.

A ``RoutingSession`` builds the graph and the model once per week and
budget. Each solve checks its forced keys against the week's connections,
so an unknown key is a ``ValueError`` even on a week that no routing can
fly, then closes the arcs its keys rule out, runs the MIP and reopens
them; the model's rows and columns never change. The root LP basis of the
session's last unforced solve starts every later forced solve as it is,
so the integrated loop re-solves one model instead of rebuilding it.
Routing holds no cuts: they live in the loop's pairing session, and
routing only sees each iteration's forced S. ``solve_routing`` without a
session, and ``minimize_aircraft``, open a throwaway session and solve
cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .instance import (
    WEEK_MINUTES,
    Connection,
    Instance,
    build_connections,
)
from .milp import Basis, MipStatus, solve_mip
from .milp.model import LinearProgram


@dataclass(frozen=True)
class RoutingArc:
    conn: Connection
    k_from: int
    k_to: int
    crossings: int


@dataclass
class RoutingGraph:
    inst: Instance
    arcs: list[RoutingArc]
    vertex_of: dict[tuple[int, int], int]
    in_arcs_of_leg: dict[int, list[int]]
    conn_keys: set[tuple[int, int]]
    # Legs with no arc in or no arc out under the maintenance cap, found
    # before the arcs on no cycle are dropped.
    uncoverable_legs: list[int]


def weekly_crossings(start: int, length: int, instant: int = 0) -> int:
    """How often [start, start + length) contains the weekly instant."""
    if length <= 0:
        return 0
    d0 = (instant - start) % WEEK_MINUTES
    if d0 >= length:
        return 0
    return 1 + (length - 1 - d0) // WEEK_MINUTES


def _components(succ: list[list[int]]) -> list[int]:
    """Strongly connected component of every vertex of the adjacency lists
    ``succ``: Tarjan's algorithm with an explicit stack instead of
    recursion."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    count = n_comp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0:  # w is on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1
    return comp


def build_routing_graph(
    inst: Instance, connections: list[Connection] | None = None
) -> RoutingGraph:
    """The (leg, k) graph, keeping only the arcs that lie on a directed
    cycle (see the module docstring)."""
    if connections is None:
        connections = build_connections(inst)
    legs = {l.id: l for l in inst.legs}
    t_max = inst.rules.T

    vertex_of = {}
    for leg in sorted(inst.legs, key=lambda l: l.id):
        for k in range(1, t_max + 1):
            vertex_of[(leg.id, k)] = len(vertex_of)

    # (tail vertex, head vertex, connection, k, k2, crossings) of every arc
    # under the maintenance cap
    candidates: list[tuple] = []
    succ: list[list[int]] = [[] for _ in vertex_of]
    for c in connections:
        tail = legs[c.from_leg]
        cross = weekly_crossings(tail.dep_time,
                                 tail.flying_minutes + c.ground_minutes)
        at_base = inst.airport(tail.arr_airport).is_base
        # the vertices of a leg are numbered k = 1..T in a row
        u0 = vertex_of[(c.from_leg, 1)] - 1
        v0 = vertex_of[(c.to_leg, 1)] - 1
        for k in range(1, t_max + 1):
            if c.midnights_crossed == 0:
                k2 = k
            elif at_base:
                k2 = 1
            else:
                k2 = k + c.midnights_crossed
                if k2 > t_max:
                    continue
            succ[u0 + k].append(v0 + k2)
            candidates.append((u0 + k, v0 + k2, c, k, k2, cross))

    heads = {c.to_leg for _, _, c, _, _, _ in candidates}
    tails = {c.from_leg for _, _, c, _, _, _ in candidates}
    uncoverable = sorted(l.id for l in inst.legs
                         if l.id not in heads or l.id not in tails)

    comp = _components(succ)
    arcs: list[RoutingArc] = []
    in_arcs: dict[int, list[int]] = {l.id: [] for l in inst.legs}
    for u, v, c, k, k2, cross in candidates:
        if comp[u] != comp[v]:
            continue
        aid = len(arcs)
        arcs.append(RoutingArc(c, k, k2, cross))
        in_arcs[c.to_leg].append(aid)
    return RoutingGraph(inst, arcs, vertex_of, in_arcs,
                        conn_keys={c.key for c in connections},
                        uncoverable_legs=uncoverable)


def build_ar_model(
    graph: RoutingGraph, budget: int | None
) -> tuple[LinearProgram, list[int]]:
    """Flow + cover + budget rows over binary arc variables."""
    lp = LinearProgram()
    x = [lp.add_variable(obj=float(a.crossings), binary=True)
         for a in graph.arcs]

    # One flow row per vertex that a kept arc enters or leaves. A connection
    # joins two different legs, so no arc enters the vertex it leaves.
    flow: dict[tuple[int, int], dict[int, float]] = {}
    for j, a in zip(x, graph.arcs):
        flow.setdefault((a.conn.to_leg, a.k_to), {})[j] = 1.0
        flow.setdefault((a.conn.from_leg, a.k_from), {})[j] = -1.0
    for key in sorted(flow):
        lp.add_row(flow[key], "=", 0.0)

    for leg_id in sorted(graph.in_arcs_of_leg):
        coefs = {x[i]: 1.0 for i in graph.in_arcs_of_leg[leg_id]}
        lp.add_row(coefs, "=", 1.0)

    if budget is not None:
        coefs = {x[i]: float(a.crossings)
                 for i, a in enumerate(graph.arcs) if a.crossings}
        lp.add_row(coefs, "<=", float(budget))
    return lp, x


@dataclass
class Route:
    legs: list[int]
    week_span: int


@dataclass
class RoutingResult:
    status: str
    n_aircraft: int | None
    routes: list[Route]
    forced: list[tuple[int, int]]
    uncoverable_legs: list[int] = field(default_factory=list)
    nodes: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "aircraft_used": self.n_aircraft,
            "routes": [r.legs for r in self.routes],
            "a0_crossings": [r.week_span for r in self.routes],
            "forced": [list(k) for k in self.forced],
            "uncoverable_legs": self.uncoverable_legs,
        }


def _extract_routes(graph: RoutingGraph, x) -> list[Route]:
    inst = graph.inst
    legs = {l.id: l for l in inst.legs}
    succ: dict[int, tuple[int, int]] = {}
    for i, a in enumerate(graph.arcs):
        if x[i] > 0.5:
            if a.conn.from_leg in succ:
                raise RuntimeError("leg with two selected outgoing arcs")
            succ[a.conn.from_leg] = (a.conn.to_leg, a.crossings)
    if set(succ) != set(legs):
        raise RuntimeError("selected arcs do not cover every leg")

    routes = []
    seen: set[int] = set()
    for start in sorted(legs):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        crossings = succ[start][1]
        cur = succ[start][0]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            crossings += succ[cur][1]
            cur = succ[cur][0]

        # Independent week count: total cyclic duration must be a whole
        # number of weeks and must match the crossing count.
        total = 0
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            leg = legs[a]
            gap = (legs[b].dep_time - leg.arr_time) % WEEK_MINUTES
            total += leg.flying_minutes + gap
        if total % WEEK_MINUTES != 0 or total // WEEK_MINUTES != crossings:
            raise RuntimeError(
                f"route week span {crossings} disagrees with duration {total}"
            )
        routes.append(Route(legs=cycle, week_span=crossings))
    return routes


class RoutingSession:
    """The routing graph and arc-flow model of one week under one budget,
    kept across solves that force different connections.

    ``budget=None`` builds the model without a budget row.
    """

    def __init__(self, inst: Instance,
                 connections: list[Connection] | None = None,
                 budget: int | None = None):
        self.inst = inst
        self.budget = budget
        self.graph = build_routing_graph(inst, connections)
        self.lp: LinearProgram | None = None
        self.x: list[int] = []
        if not self.graph.uncoverable_legs:
            self.lp, self.x = build_ar_model(self.graph, budget)
        # Root LP basis of the last unforced solve, the start of forced ones.
        self.basis: Basis | None = None

    def solve(self, forced=(), node_limit: int = 200_000) -> RoutingResult:
        """Route the week with every connection key in ``forced`` flown."""
        forced_keys = sorted({tuple(k) for k in forced})
        for key in forced_keys:
            if key not in self.graph.conn_keys:
                raise ValueError(f"forced connection {key} does not exist")
        gaps = self.graph.uncoverable_legs
        if gaps:
            return RoutingResult(status="infeasible", n_aircraft=None,
                                 routes=[], forced=forced_keys,
                                 uncoverable_legs=gaps)

        # Close every arc into a forced key's head leg from another tail,
        # keeping the bounds to reopen them.
        lp, arcs = self.lp, self.graph.arcs
        upper = {self.x[i]: lp.upper[self.x[i]] for a, b in forced_keys
                 for i in self.graph.in_arcs_of_leg[b]
                 if arcs[i].conn.from_leg != a}
        try:
            for j in upper:
                lp.upper[j] = 0.0
            mip = solve_mip(lp, node_limit=node_limit, start=self.basis)
        finally:
            for j, hi in upper.items():
                lp.upper[j] = hi
        if not forced_keys:
            self.basis = mip.root_basis

        if mip.status == MipStatus.NODE_LIMIT:
            return RoutingResult(status="limit", n_aircraft=None, routes=[],
                                 forced=forced_keys, nodes=mip.nodes)
        if mip.status == MipStatus.INFEASIBLE:
            return RoutingResult(status="infeasible", n_aircraft=None,
                                 routes=[], forced=forced_keys,
                                 nodes=mip.nodes)
        routes = _extract_routes(self.graph, mip.x)
        n_air = sum(r.week_span for r in routes)
        return RoutingResult(status="optimal", n_aircraft=n_air,
                             routes=routes, forced=forced_keys,
                             nodes=mip.nodes)


def solve_routing(
    inst: Instance,
    forced=None,
    budget: int | None = None,
    node_limit: int = 200_000,
    session: RoutingSession | None = None,
) -> RoutingResult:
    """Minimum-aircraft maintenance routing under a fleet budget.

    ``budget=None`` means the instance's fleet size. ``session`` re-solves
    an open session of ``inst`` under the same budget; without one, a
    throwaway session is opened.
    """
    if budget is None:
        budget = inst.rules.n_a
    if session is None:
        session = RoutingSession(inst, budget=budget)
    elif session.inst is not inst or session.budget != budget:
        raise ValueError("session belongs to another instance or budget")
    return session.solve(forced or (), node_limit)


def minimize_aircraft(inst: Instance,
                      node_limit: int = 200_000) -> RoutingResult:
    """Fewest aircraft that can fly the whole schedule, no budget row."""
    return RoutingSession(inst).solve((), node_limit)
