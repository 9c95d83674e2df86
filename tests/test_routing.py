"""Maintenance routing graph, the compact arc IP, and route extraction."""

from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import airport, leg, make_instance, minutes
from crewroute.generate import generate_instance
from crewroute.instance import WEEK_MINUTES, FlightLeg, build_connections
from crewroute.milp.model import LinearProgram
from crewroute.oracles import routing_brute_force
from crewroute.routing import (
    RoutingSession,
    build_ar_model,
    build_routing_graph,
    minimize_aircraft,
    solve_routing,
    weekly_crossings,
)
from test_milp import _highs_lp


def _four_cycle(T: int):
    """A single forced rotation A-B-C-D-A spanning exactly two weeks."""
    return make_instance(
        [airport("AAA", base=True), airport("BBB"), airport("CCC"),
         airport("DDD")],
        [
            leg(0, "AAA", "BBB", minutes(0, 8), minutes(0, 10)),
            leg(1, "BBB", "CCC", minutes(2, 8), minutes(2, 10)),
            leg(2, "CCC", "DDD", minutes(4, 8), minutes(4, 10)),
            leg(3, "DDD", "AAA", minutes(0, 8), minutes(0, 10)),
        ],
        T=T, n_a=2,
    )


# ---------------------------------------------------------------------------
# week-crossing arithmetic


def test_weekly_crossings_units():
    assert weekly_crossings(10000, 200) == 1
    assert weekly_crossings(500, 50) == 0
    assert weekly_crossings(500, 0) == 0
    assert weekly_crossings(0, WEEK_MINUTES) == 1
    assert weekly_crossings(480, 2 * WEEK_MINUTES) == 2
    assert weekly_crossings(100, 50, instant=120) == 1
    assert weekly_crossings(100, 20, instant=120) == 0
    assert weekly_crossings(100, 21, instant=120) == 1


def test_closed_cycle_crossings_invariant():
    # around a closed route the crossing total is the week count, wherever
    # the weekly instant is anchored
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(2, 9)
        cuts = sorted(rng.randrange(1, 2 * WEEK_MINUTES)
                      for _ in range(n - 1))
        lengths = [b - a for a, b in
                   zip([0] + cuts, cuts + [2 * WEEK_MINUTES])]
        lengths = [l for l in lengths if l > 0]
        start = rng.randrange(0, WEEK_MINUTES)
        for instant in (0, rng.randrange(0, WEEK_MINUTES)):
            total, s = 0, start
            for length in lengths:
                total += weekly_crossings(s, length, instant)
                s = (s + length) % WEEK_MINUTES
            assert total == 2


# ---------------------------------------------------------------------------
# graph construction


def test_toy_graph_shape(toy2):
    g = build_routing_graph(toy2)
    # two legs at T=3 give six (leg, k) vertices
    assert len(g.vertex_of) == 6
    assert set(g.conn_keys) == {(0, 1), (1, 0)}
    # the same-day turnaround keeps k and the overnight at the base resets
    # k to 1, so only the k = 1 arcs lie on a cycle: from k = 2 or 3 the
    # turnaround leads to k = 1, which never returns to k = 2 or 3
    assert [(a.k_from, a.k_to) for a in g.arcs
            if a.conn.key == (0, 1)] == [(1, 1)]
    assert [(a.k_from, a.k_to) for a in g.arcs
            if a.conn.key == (1, 0)] == [(1, 1)]
    assert g.uncoverable_legs == []
    for a in g.arcs:
        assert a.crossings == (1 if a.conn.key == (1, 0) else 0)


def test_away_overnights_advance_k():
    inst = _four_cycle(T=8)
    g = build_routing_graph(inst)
    jumps = {(a.conn.key, a.k_from): a.k_to for a in g.arcs}
    assert jumps[((0, 1), 1)] == 3
    assert jumps[((1, 2), 3)] == 5
    assert jumps[((2, 3), 5)] == 8
    assert jumps[((3, 0), 8)] == 1
    # advances beyond the maintenance interval are dropped
    assert ((2, 3), 6) not in jumps


def test_model_row_and_column_counts(toy2):
    g = build_routing_graph(toy2)
    lp, x = build_ar_model(g, budget=1)
    # flow rows for the two (leg, 1) vertices that keep arcs, one cover
    # row per leg, one budget row
    assert lp.n_rows == 2 + 2 + 1
    assert lp.n_vars == len(x) == 2
    lp2, _ = build_ar_model(g, budget=None)
    assert lp2.n_rows == 4
    # a forced solve leaves the model's rows and bounds as they were
    session = RoutingSession(toy2, budget=1)
    upper = list(session.lp.upper)
    assert session.solve([(0, 1)]).status == "optimal"
    assert session.lp.n_rows == 5
    assert session.lp.upper == upper


def test_row_count_formula_random():
    for seed in (0, 1, 2):
        inst = generate_instance(n_airports=4, n_bases=2, n_legs=10,
                                 n_aircraft=3, seed=seed)
        g = build_routing_graph(inst)
        lp, x = build_ar_model(g, budget=3)
        live = {(a.conn.from_leg, a.k_from) for a in g.arcs}
        live |= {(a.conn.to_leg, a.k_to) for a in g.arcs}
        n = len(inst.legs)
        # a flow row per vertex that keeps an arc, a cover row per leg
        assert lp.n_rows == len(live) + n + 1
        assert lp.n_vars == len(g.arcs)


def _every_arc(inst):
    """(connection, k_from, k_to) of every (leg, k) arc, none pruned."""
    t_max = inst.rules.T
    out = []
    for c in build_connections(inst):
        at_base = inst.airport(inst.leg(c.from_leg).arr_airport).is_base
        for k in range(1, t_max + 1):
            if c.midnights_crossed == 0:
                k2 = k
            elif at_base:
                k2 = 1
            else:
                k2 = k + c.midnights_crossed
            if k2 <= t_max:
                out.append((c, k, k2))
    return out


def _reaches(arcs, source, target) -> bool:
    succ: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for c, k, k2 in arcs:
        succ.setdefault((c.from_leg, k), []).append((c.to_leg, k2))
    seen, todo = {source}, [source]
    while todo:
        for w in succ.get(todo.pop(), []):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return target in seen


def _full_model(inst, arcs, budget):
    """The arc-flow model over every arc: a flow row per (leg, k) vertex,
    a cover row per leg and the budget row."""
    lp = LinearProgram()
    x = []
    flow = {(l.id, k): {} for l in inst.legs
            for k in range(1, inst.rules.T + 1)}
    for c, k, k2 in arcs:
        tail = inst.leg(c.from_leg)
        j = lp.add_variable(
            obj=float(weekly_crossings(tail.dep_time,
                                       tail.flying_minutes + c.ground_minutes)),
            binary=True)
        x.append(j)
        flow[(c.to_leg, k2)][j] = 1.0
        flow[(c.from_leg, k)][j] = -1.0
    for key in sorted(flow):
        lp.add_row(flow[key], "=", 0.0)
    for leg_id in sorted(l.id for l in inst.legs):
        lp.add_row({j: 1.0 for j, (c, _, _) in zip(x, arcs)
                    if c.to_leg == leg_id}, "=", 1.0)
    if budget is not None:
        lp.add_row({j: lp.obj[j] for j in x if lp.obj[j]}, "<=", float(budget))
    return lp


def test_pruning_keeps_exactly_the_arcs_on_cycles():
    # an arc is kept exactly when its tail is reachable from its head over
    # the unpruned arcs, and pruning leaves every LP relaxation optimum as is
    pruned, seen = 0, set()
    for T in (1, 2, 3):
        for seed in range(8):
            inst = generate_instance(n_airports=5, n_bases=2, n_legs=14,
                                     n_aircraft=2, seed=seed,
                                     rules_overrides={"T": T})
            every = _every_arc(inst)
            on_cycle = [a for a in every
                        if _reaches(every, (a[0].to_leg, a[2]),
                                    (a[0].from_leg, a[1]))]
            g = build_routing_graph(inst)
            assert [(a.conn, a.k_from, a.k_to) for a in g.arcs] == on_cycle
            pruned += len(every) - len(on_cycle)
            for budget in (inst.rules.n_a, None):
                lp, _ = build_ar_model(g, budget)
                got = _highs_lp(lp)
                want = _highs_lp(_full_model(inst, every, budget))
                assert got[0] == want[0]
                if want[0] == "optimal":
                    assert got[1] == pytest.approx(want[1], abs=1e-7)
                seen.add(want[0])
    # some weeks lose arcs, and some cannot be flown by the fleet
    assert pruned > 0
    assert seen == {"optimal", "infeasible"}
    # the T=7 two-week rotation cannot close, so every arc goes
    assert build_routing_graph(_four_cycle(T=7)).arcs == []


def test_forced_unknown_connection_rejected(toy2):
    with pytest.raises(ValueError, match="does not exist"):
        solve_routing(toy2, forced=[(5, 6)])
    # a leg that no connection reaches makes a week infeasible, but an
    # unknown forced key is still an input error, checked first
    inst = generate_instance(n_airports=4, n_bases=2, n_legs=16,
                             n_aircraft=3, seed=0)
    lone = FlightLeg(999, "A03", "A02", 100, 160)
    inst = dataclasses.replace(inst, legs=inst.legs + (lone,))
    routed = solve_routing(inst)
    assert routed.status == "infeasible"
    assert 999 in routed.uncoverable_legs
    with pytest.raises(ValueError, match="does not exist"):
        solve_routing(inst, forced=[(12345, 54321)])


# ---------------------------------------------------------------------------
# solving


def test_toy_roundtrip_needs_one_aircraft(toy2):
    res = solve_routing(toy2)
    assert res.status == "optimal"
    assert res.n_aircraft == 1
    assert len(res.routes) == 1
    assert sorted(res.routes[0].legs) == [0, 1]
    assert res.routes[0].week_span == 1
    d = res.as_dict()
    assert d["aircraft_used"] == 1
    assert d["a0_crossings"] == [1]
    assert d["uncoverable_legs"] == []


def test_toy_zero_budget_infeasible(toy2):
    res = solve_routing(toy2, budget=0)
    assert res.status == "infeasible"
    assert res.n_aircraft is None


def test_node_limit_status(toy2):
    res = solve_routing(toy2, node_limit=0)
    assert res.status == "limit"


def test_two_week_rotation():
    inst = _four_cycle(T=8)
    res = solve_routing(inst)
    assert res.status == "optimal"
    # one physical rotation, two weeks long, so two tail numbers fly it
    assert res.n_aircraft == 2
    assert len(res.routes) == 1
    assert res.routes[0].week_span == 2
    assert solve_routing(inst, budget=1).status == "infeasible"


def test_two_week_rotation_tight_interval_infeasible():
    # T=7 kills the k=5 departure from the third stop, and the cycle's k
    # profile is forced, so no routing exists
    res = solve_routing(_four_cycle(T=7))
    assert res.status == "infeasible"
    assert res.uncoverable_legs == []


def test_interval_two_structural_gap():
    res = solve_routing(_four_cycle(T=2))
    assert res.status == "infeasible"
    assert res.uncoverable_legs == [0, 1, 2, 3]


def _parallel_pairs(shift: int):
    """Two A-B round trips; shift moves the second pair later in the day."""
    return make_instance(
        [airport("AAA", base=True), airport("BBB")],
        [
            leg(0, "AAA", "BBB", minutes(0, 8), minutes(0, 9)),
            leg(1, "BBB", "AAA", minutes(0, 10), minutes(0, 11)),
            leg(2, "AAA", "BBB", minutes(0, 8, 30) + shift,
                minutes(0, 9, 30) + shift),
            leg(3, "BBB", "AAA", minutes(0, 10, 30) + shift,
                minutes(0, 11, 30) + shift),
        ],
        n_a=4,
    )


def test_minimize_overlapping_pairs():
    res = minimize_aircraft(_parallel_pairs(0))
    assert res.status == "optimal"
    assert res.n_aircraft == 2


def test_minimize_chainable_pairs():
    res = minimize_aircraft(_parallel_pairs(270))
    assert res.status == "optimal"
    assert res.n_aircraft == 1
    assert len(res.routes) == 1


def test_forced_connection_is_used(toy2):
    res = solve_routing(toy2, forced=[(0, 1)])
    assert res.status == "optimal"
    assert res.forced == [(0, 1)]
    route = res.routes[0].legs
    i = route.index(0)
    assert route[(i + 1) % len(route)] == 1


def test_forced_connection_without_arcs_is_infeasible():
    # (0, 2) is a real connection, but T=1 drops every arc it would need,
    # while leg 2 stays coverable through the Tuesday feeder
    inst = make_instance(
        [airport("AAA", base=True), airport("BBB")],
        [
            leg(0, "AAA", "BBB", minutes(0, 8), minutes(0, 10)),
            leg(1, "BBB", "AAA", minutes(0, 11), minutes(0, 12)),
            leg(2, "BBB", "AAA", minutes(1, 11), minutes(1, 12)),
            leg(3, "AAA", "BBB", minutes(1, 8), minutes(1, 9)),
        ],
        T=1, n_a=2,
    )
    g = build_routing_graph(inst)
    assert (0, 2) in g.conn_keys
    assert not any(a.conn.key == (0, 2) for a in g.arcs)
    assert solve_routing(inst).status == "optimal"
    res = solve_routing(inst, forced=[(0, 2)])
    assert res.status == "infeasible"


# ---------------------------------------------------------------------------
# oracle agreement


def test_matches_brute_force_batch():
    agree_feasible = 0
    for seed in range(10):
        inst = generate_instance(n_airports=4, n_bases=2, n_legs=8,
                                 n_aircraft=3, seed=seed,
                                 rules_overrides={"T": 3})
        got = minimize_aircraft(inst)
        want = routing_brute_force(inst)
        # min_aircraft is the unbudgeted minimum; feasible compares it to n_a
        assert (got.status == "optimal") == (want.min_aircraft is not None)
        if want.min_aircraft is not None:
            agree_feasible += 1
            assert got.n_aircraft == want.min_aircraft
            covered = sorted(l for r in got.routes for l in r.legs)
            assert covered == sorted(l.id for l in inst.legs)
            for r in got.routes:
                assert r.week_span >= 1
    assert agree_feasible >= 5


def test_forced_routing_matches_oracle():
    # forcing (a, b) is a's only successor in the oracle; a set that gives
    # one tail two heads cannot be flown at all
    rng = random.Random(29)
    feasible = infeasible = 0
    for seed in range(8):
        for T in (1, 2, 3):
            inst = generate_instance(n_airports=4, n_bases=2, n_legs=8,
                                     n_aircraft=3, seed=seed,
                                     rules_overrides={"T": T})
            keys = sorted(c.key for c in build_connections(inst))
            session = RoutingSession(inst, budget=inst.rules.n_a)
            # the unforced solve's root basis starts the forced ones
            solve_routing(inst, session=session)
            for _ in range(6):
                S = rng.sample(keys, rng.randint(1, min(3, len(keys))))
                got = solve_routing(inst, forced=S, session=session)
                if len({a for a, _ in S}) < len(S):
                    assert got.status == "infeasible"
                else:
                    want = routing_brute_force(inst, forced=dict(S))
                    assert (got.status == "optimal") == want.feasible
                    if want.feasible:
                        assert got.n_aircraft == want.min_aircraft
                feasible += got.status == "optimal"
                infeasible += got.status == "infeasible"
    assert feasible >= 20 and infeasible >= 20


def test_budget_feasibility_matches_oracle():
    for seed in range(6):
        inst = generate_instance(n_airports=4, n_bases=1, n_legs=6,
                                 n_aircraft=2, seed=seed,
                                 rules_overrides={"T": 3})
        got = solve_routing(inst)
        want = routing_brute_force(inst, budget=inst.rules.n_a)
        assert (got.status == "optimal") == want.feasible
