"""Independent brute-force reference implementations.

Everything here deliberately avoids the production solver paths: the
routing oracle enumerates successor permutations and replays the
maintenance rules directly on raw times, and the pairing oracle enumerates
leg sequences with explicit duty rule checks (no resource algebra, no
pricing network, no bounds). Results are compared against the fast paths in
the test suite and by the ``oracle`` CLI command. The module imports
neither numpy nor a solver; the LP and binary references live with the
tests, in ``tests/lp_reference.py``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .instance import (
    WEEK_MINUTES,
    Connection,
    ConnectionKind,
    Instance,
    cyclic_gap,
    midnights_in_gap,
)


class OracleLimitError(RuntimeError):
    """An enumeration guard tripped; the instance is too big to brute force."""


# ---------------------------------------------------------------------------
# Routing oracle


def _airplane_successors(inst: Instance):
    """Valid airplane links recomputed from raw times and airport minima."""
    t_air = inst.rules.short_band[0]
    succ: dict[int, list[int]] = {l.id: [] for l in inst.legs}
    for l1 in inst.legs:
        ap = inst.airport(l1.arr_airport)
        for l2 in inst.legs:
            if l1.id == l2.id or l1.arr_airport != l2.dep_airport:
                continue
            gap = cyclic_gap(l1.arr_time, l2.dep_time)
            if gap >= max(t_air, ap.min_airplane_turn):
                succ[l1.id].append(l2.id)
    return succ


def _cycle_weeks_and_legal(inst: Instance, cycle: list[int]) -> int | None:
    """Weeks spanned by the rotation, or None when maintenance fails."""
    legs = {l.id: l for l in inst.legs}
    n = len(cycle)
    total = 0
    anchor = -1
    conn_info = []
    for i in range(n):
        l1 = legs[cycle[i]]
        l2 = legs[cycle[(i + 1) % n]]
        gap = cyclic_gap(l1.arr_time, l2.dep_time)
        mid = midnights_in_gap(l1.arr_time, gap)
        at_base = inst.airport(l1.arr_airport).is_base
        conn_info.append((mid, at_base))
        total += l1.flying_minutes + gap
        if mid >= 1 and at_base:
            anchor = i
    weeks = total // WEEK_MINUTES
    if anchor < 0:
        return None
    k = 1
    for off in range(1, n + 1):
        pos = (anchor + off) % n
        if k > inst.rules.T:
            return None
        mid, at_base = conn_info[pos]
        if mid >= 1:
            k = 1 if at_base else k + mid
    if k != 1:
        # Walk must end on the anchor reset; anchor is a base night.
        return None
    return weeks


@dataclass
class RoutingOracleResult:
    feasible: bool
    min_aircraft: int | None
    routes: list[list[int]] | None


def routing_brute_force(
    inst: Instance,
    forced: Iterable[tuple[int, int]] = (),
    budget: int | None = None,
    max_nodes: int = 2_000_000,
) -> RoutingOracleResult:
    """Enumerate successor permutations; check maintenance on raw times.

    ``forced`` holds (from-leg, to-leg) connections that must be flown by
    one airplane: each makes to-leg the only successor of from-leg, so a
    set that gives one leg two successors, or two predecessors, is
    infeasible. ``budget`` caps the total aircraft count (defaults to
    rules.n_a); pass math.inf semantics via a large int to minimize freely.
    """
    succ = _airplane_successors(inst)
    head_of: dict[int, int] = {}
    for src, dst in forced:
        if head_of.setdefault(src, dst) != dst or dst not in succ.get(src, []):
            return RoutingOracleResult(False, None, None)
    ids = sorted(succ)
    n = len(ids)
    cap = inst.rules.n_a if budget is None else budget
    nodes = 0
    best_weeks = math.inf
    best_next: dict[int, int] | None = None
    next_of: dict[int, int] = {}
    used: set[int] = set()

    def cycles_of(assignment: dict[int, int]) -> list[list[int]]:
        seen, cycles = set(), []
        for start in ids:
            if start in seen:
                continue
            cyc, cur = [], start
            while cur not in seen:
                seen.add(cur)
                cyc.append(cur)
                cur = assignment[cur]
            cycles.append(cyc)
        return cycles

    def recurse(i: int):
        nonlocal nodes, best_weeks, best_next
        nodes += 1
        if nodes > max_nodes:
            raise OracleLimitError("routing oracle node cap")
        if i == n:
            total = 0
            for cyc in cycles_of(next_of):
                weeks = _cycle_weeks_and_legal(inst, cyc)
                if weeks is None:
                    return
                total += weeks
            if total < best_weeks:
                best_weeks = total
                best_next = dict(next_of)
            return
        src = ids[i]
        options = [head_of[src]] if src in head_of else succ[src]
        for dst in options:
            if dst in used:
                continue
            used.add(dst)
            next_of[src] = dst
            recurse(i + 1)
            used.discard(dst)
            del next_of[src]

    if n:
        recurse(0)
    else:
        best_weeks, best_next = 0, {}
    if best_next is None:
        return RoutingOracleResult(False, None, None)
    routes = cycles_of(best_next) if best_next else []
    feasible = best_weeks <= cap
    return RoutingOracleResult(feasible, int(best_weeks), routes)


# ---------------------------------------------------------------------------
# Pairing oracle


@dataclass(frozen=True)
class OraclePairing:
    legs: tuple[int, ...]
    cost: float
    nights: int
    duties: tuple[tuple[int, ...], ...]
    n_long_duties: int
    n_short_duties: int
    shorts: tuple[tuple[int, int], ...]

    @property
    def is_long(self) -> bool:
        return self.nights >= 3


def enumerate_pairings(
    inst: Instance,
    connections: list[Connection],
    max_pairings: int = 200_000,
) -> list[OraclePairing]:
    """All rule-feasible pairings by direct DFS with explicit duty checks."""
    rules = inst.rules
    legs = {l.id: l for l in inst.legs}
    day_next: dict[int, list[Connection]] = {l.id: [] for l in inst.legs}
    night_next: dict[int, list[Connection]] = {l.id: [] for l in inst.legs}
    for c in connections:
        if c.kind in (ConnectionKind.SHORT, ConnectionKind.DAY_CREW):
            day_next[c.from_leg].append(c)
        elif c.kind == ConnectionKind.NIGHT_CREW:
            night_next[c.from_leg].append(c)

    out: list[OraclePairing] = []
    w = rules.weights

    def record(path, duty_bounds, duty_counters, nights, shorts, fly_total):
        duties, longs = [], 0
        for (s, e), counter in zip(duty_bounds, duty_counters):
            duties.append(tuple(path[s:e]))
            if counter > 3:
                longs += 1
        cost = w.w_pairing + w.w_fly * fly_total + w.w_hotel * nights
        out.append(
            OraclePairing(
                legs=tuple(path),
                cost=cost,
                nights=nights,
                duties=tuple(duties),
                n_long_duties=longs,
                n_short_duties=len(duties) - longs,
                shorts=tuple(shorts),
            )
        )
        if len(out) > max_pairings:
            raise OracleLimitError("pairing oracle cap")

    def dfs(path, duty_bounds, duty_counters, duty_fly, duty_limit,
            nights, shorts, fly_total, elapsed_days):
        last = legs[path[-1]]
        if inst.airport(last.arr_airport).is_base:
            record(path, duty_bounds, duty_counters, nights, shorts, fly_total)
        for c in day_next[last.id]:
            nxt = legs[c.to_leg]
            if nxt.id in path:
                continue
            counter = duty_counters[-1] + 1
            flying = duty_fly + nxt.flying_minutes
            if counter > rules.max_legs_per_duty or flying > duty_limit:
                continue
            new_shorts = shorts + [c.key] if c.kind == ConnectionKind.SHORT else shorts
            dfs(
                path + [nxt.id],
                duty_bounds[:-1] + [(duty_bounds[-1][0], len(path) + 1)],
                duty_counters[:-1] + [counter],
                flying,
                duty_limit,
                nights,
                new_shorts,
                fly_total + nxt.flying_minutes,
                elapsed_days,
            )
        for c in night_next[last.id]:
            nxt = legs[c.to_leg]
            if nxt.id in path:
                continue
            days = elapsed_days + c.midnights_crossed
            if days + 1 > rules.max_pairing_days:
                continue
            carry = rules.reduced_rest_extra if c.is_reduced_rest else 0
            counter = 1 + carry
            limit = rules.flying_limit(nxt.dep_time)
            if counter > rules.max_legs_per_duty or nxt.flying_minutes > limit:
                continue
            dfs(
                path + [nxt.id],
                duty_bounds + [(len(path), len(path) + 1)],
                duty_counters + [counter],
                nxt.flying_minutes,
                limit,
                nights + c.midnights_crossed,
                shorts,
                fly_total + nxt.flying_minutes,
                days,
            )

    for leg in sorted(inst.legs, key=lambda l: l.id):
        if not inst.airport(leg.dep_airport).is_base:
            continue
        limit = rules.flying_limit(leg.dep_time)
        if leg.flying_minutes > limit or rules.max_legs_per_duty < 1:
            continue
        dfs([leg.id], [(0, 1)], [1], leg.flying_minutes, limit,
            0, [], leg.flying_minutes, 0)
    return out


def _cover_side_rows_ok(chosen: list[OraclePairing], rules) -> bool:
    n_long = sum(1 for p in chosen if p.is_long)
    if n_long - rules.alpha * len(chosen) > 1e-9:
        return False
    balance = sum(
        (1.0 - rules.beta) * p.n_long_duties - rules.beta * p.n_short_duties
        for p in chosen
    )
    return balance <= 1e-9


def _cheapest_cover(inst: Instance, pairings: list[OraclePairing], accept):
    """Cheapest exact cover of the legs by pairings whose list ``accept``
    admits, by exhaustive search that branches on the lowest uncovered leg
    and prunes on the best cost found so far.

    Returns (cost, chosen pairings), or (inf, None) without a cover.
    """
    by_leg: dict[int, list[int]] = {l.id: [] for l in inst.legs}
    for idx, p in enumerate(pairings):
        for leg in p.legs:
            by_leg[leg].append(idx)
    leg_ids = sorted(by_leg)
    best = [math.inf, None]

    def recurse(uncovered: frozenset, cost: float, chosen: list[int]):
        if cost >= best[0] - 1e-12:
            return
        if not uncovered:
            picked = [pairings[i] for i in chosen]
            if accept(picked):
                best[0] = cost
                best[1] = picked
            return
        target = min(uncovered)
        for idx in by_leg[target]:
            p = pairings[idx]
            if any(l not in uncovered for l in p.legs):
                continue
            chosen.append(idx)
            recurse(uncovered - frozenset(p.legs), cost + p.cost, chosen)
            chosen.pop()

    recurse(frozenset(leg_ids), 0.0, [])
    return best[0], best[1]


def crew_pairing_brute_force(inst: Instance, connections: list[Connection]):
    """Exact set partitioning over all pairings via exhaustive cover search.

    Returns (status, objective, chosen pairings).
    """
    cost, chosen = _cheapest_cover(
        inst, enumerate_pairings(inst, connections),
        lambda picked: _cover_side_rows_ok(picked, inst.rules),
    )
    if chosen is None:
        return "infeasible", math.inf, None
    return "optimal", cost, chosen


def integrated_brute_force(inst: Instance, connections: list[Connection]):
    """Joint optimum: cheapest crew cover whose short connections admit a
    feasible aircraft routing that honours them. Returns (status, objective).
    """

    def flyable(picked: list[OraclePairing]) -> bool:
        if not _cover_side_rows_ok(picked, inst.rules):
            return False
        forced = [key for p in picked for key in p.shorts]
        return routing_brute_force(inst, forced=forced).feasible

    cost, chosen = _cheapest_cover(
        inst, enumerate_pairings(inst, connections), flyable
    )
    if chosen is None:
        return "infeasible", math.inf
    return "optimal", cost
