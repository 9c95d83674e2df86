"""Independent brute-force reference implementations.

Everything here deliberately avoids the production solver paths: the LP
oracle is a dense full-tableau simplex with Bland's rule throughout, the
binary oracle enumerates assignments, the routing oracle enumerates
successor permutations and replays the maintenance rules directly on raw
times, and the pairing oracle enumerates leg sequences with explicit duty
rule checks (no resource algebra, no pricing network, no bounds). Results
are compared against the fast paths in the test suite and by the ``oracle``
CLI command.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .instance import (
    WEEK_MINUTES,
    Connection,
    ConnectionKind,
    Instance,
    cyclic_gap,
    midnights_in_gap,
)
from .milp.model import LinearProgram

_BLAND_TOL = 1e-9
_FEAS_TOL = 1e-7


class OracleLimitError(RuntimeError):
    """An enumeration guard tripped; the instance is too big to brute force."""


# ---------------------------------------------------------------------------
# Dense tableau simplex (LP oracle)


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
    forced: dict[int, int] | None = None,
    budget: int | None = None,
    max_nodes: int = 2_000_000,
) -> RoutingOracleResult:
    """Enumerate successor permutations; check maintenance on raw times.

    ``forced`` maps from-leg to to-leg for connections that must be flown
    by one airplane. ``budget`` caps the total aircraft count (defaults to
    rules.n_a); pass math.inf semantics via a large int to minimize freely.
    """
    succ = _airplane_successors(inst)
    forced = forced or {}
    for src, dst in forced.items():
        if dst not in succ.get(src, []):
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
        options = [forced[src]] if src in forced else succ[src]
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
        forced: dict[int, int] = {}
        for p in picked:
            for a, b in p.shorts:
                forced[a] = b
        return routing_brute_force(inst, forced=forced).feasible

    cost, chosen = _cheapest_cover(
        inst, enumerate_pairings(inst, connections), flyable
    )
    if chosen is None:
        return "infeasible", math.inf
    return "optimal", cost
