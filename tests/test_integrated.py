"""Integrated pairing and routing loop with short-connection cuts."""

from __future__ import annotations

import json
import math
import random

import pytest

from conftest import airport, leg, make_instance
from crewroute.generate import generate_instance
from crewroute.instance import ConnectionKind, build_connections
from crewroute.integrated import cut_for, short_connections_of, solve_integrated
from crewroute.oracles import integrated_brute_force
from crewroute.pairing import solve_crew_pairing
from crewroute.routing import RoutingSession, solve_routing


def _overcut(n_a: int):
    """Both crew round trips need their short turn; one airplane cannot fly
    the four legs at all, two can fly them with both turns."""
    return make_instance(
        [airport("AAA", base=True), airport("BBB")],
        [
            leg(0, "AAA", "BBB", 300, 400),
            leg(3, "AAA", "BBB", 310, 410),
            leg(2, "BBB", "AAA", 435, 535),
            leg(1, "BBB", "AAA", 442, 542),
        ],
        n_a=n_a,
    )


# ---------------------------------------------------------------------------
# cut arithmetic


def test_cut_rhs_by_gamma():
    # a cut row counts short connections of binary columns, an integer, so
    # gamma < 1 rounds gamma * |S| down; never above the no-good |S| - 1
    s4 = frozenset({(0, 1), (2, 3), (4, 5), (6, 7)})
    assert cut_for(s4, 1.0).rhs == 3.0
    assert cut_for(s4, 0.9).rhs == 3.0
    s10 = frozenset((i, i + 1) for i in range(10))
    assert cut_for(s10, 0.9).rhs == 9.0
    assert cut_for(s10, 1.0).rhs == 9.0
    assert cut_for(frozenset({(1, 2)}), 0.6).rhs == 0.0
    assert cut_for(frozenset({(1, 2)}), 1.0 - 1e-12).rhs == 0.0
    # 0.58 * 50 evaluates to 28.999999999999996, a hair below 29
    s50 = frozenset((i, i + 1) for i in range(50))
    assert 0.58 * 50 < 29
    assert cut_for(s50, 0.58).rhs == 29.0
    assert cut_for(s4, 1.0).conns == s4


def test_short_connections_of_union():
    inst = _overcut(2)
    cp = solve_crew_pairing(inst)
    assert cp.status == "optimal"
    assert short_connections_of(cp) == {(0, 2), (3, 1)}


# ---------------------------------------------------------------------------
# loop outcomes on hand instances


def test_no_shorts_single_iteration(toy2):
    res = solve_integrated(toy2, gamma=1.0)
    assert res.status == "optimal"
    assert res.provably_optimal
    assert res.iterations == 1
    assert res.cuts == []
    assert res.objective == pytest.approx(300.0)
    assert res.lower_bound == pytest.approx(300.0)
    assert res.gap == pytest.approx(0.0)
    entry = res.log[0]
    assert entry["cp_status"] == "optimal"
    assert entry["n_short_used"] == 0
    assert entry["ar_status"] == "optimal"
    assert "cut_rhs" not in entry


@pytest.mark.parametrize("gamma", [0.0, -1.0, 1.5, math.nan])
def test_gamma_outside_unit_interval_is_rejected(toy2, gamma):
    with pytest.raises(ValueError, match=r"gamma must be in \(0, 1\]"):
        solve_integrated(toy2, gamma=gamma)


def test_relaxed_gamma_not_marked_proven(toy2):
    # same solution, but gamma < 1 never certifies optimality
    res = solve_integrated(toy2)
    assert res.gamma == pytest.approx(0.9)
    assert res.status == "feasible"
    assert not res.provably_optimal
    assert res.objective == pytest.approx(300.0)


def test_shorts_flown_when_fleet_allows():
    inst = _overcut(2)
    res = solve_integrated(inst, gamma=1.0)
    assert res.status == "optimal"
    assert res.iterations == 1
    assert res.cuts == []
    s = short_connections_of(res.pairing)
    assert s == {(0, 2), (3, 1)}
    assert res.routing.forced == sorted(s)
    # every crew short turn is consecutive on some aircraft rotation
    for a, b in s:
        hit = False
        for route in res.routing.routes:
            if a in route.legs:
                i = route.legs.index(a)
                hit = route.legs[(i + 1) % len(route.legs)] == b
        assert hit


def test_relaxed_cuts_saturate(looping_week):
    res = solve_integrated(looping_week, gamma=0.5)
    assert res.status == "limit"
    assert res.over_cut
    assert not res.provably_optimal
    assert res.iterations == 3
    assert len(res.cuts) == 2
    first = res.cuts[0]
    assert len(first.conns) == 6
    assert first.rhs == pytest.approx(3.0)
    assert res.as_dict()["cuts"][0] == {
        "connections": sorted(list(k) for k in first.conns), "rhs": 3.0}
    assert res.log[0]["ar_status"] == "infeasible"
    assert res.log[0]["cut_rhs"] == pytest.approx(3.0)
    assert res.log[-1]["cp_status"] == "infeasible"


def test_rounded_relaxed_cuts_over_cut_within_the_node_limit(looping_week):
    # gamma = 0.9 cuts floor(0.9 |S|), which admits the same integer crew
    # plans as the fractional 0.9 |S| but tightens the master LP: the loop
    # over-cuts in six iterations, and no master MIP reaches the node limit
    res = solve_integrated(looping_week, gamma=0.9, node_limit=2000)
    assert res.status == "limit"
    assert res.over_cut
    assert res.iterations == 6
    assert [c.rhs for c in res.cuts] == [
        math.floor(0.9 * len(c.conns)) for c in res.cuts]
    assert res.log[-1]["cp_status"] == "infeasible"


def test_exact_cuts_prove_infeasible(looping_week):
    res = solve_integrated(looping_week, gamma=1.0)
    assert res.status == "infeasible"
    assert res.provably_optimal
    assert not res.over_cut
    assert res.iterations == 6
    assert [c.rhs for c in res.cuts] == [len(c.conns) - 1 for c in res.cuts]
    assert res.routing is None
    assert math.isinf(res.objective)
    assert res.as_dict()["objective"] is None


def _fleet_infeasible_week(request, week):
    if week == "overcut":
        return request.getfixturevalue("overcut")
    return generate_instance(n_airports=4, n_bases=2, n_legs=24, n_aircraft=3,
                             seed=week, rules_overrides={"T": 2})


@pytest.mark.parametrize("gamma", [1.0, 0.9])
@pytest.mark.parametrize("week", ["overcut", 7, 16])
def test_fleet_infeasible_week_is_proven_in_one_iteration(request, week,
                                                          gamma):
    # the fleet cannot fly these weeks even with nothing forced: the first
    # rejected S leads to one unforced routing solve, whose infeasibility
    # ends the loop at any gamma, with no cut
    inst = _fleet_infeasible_week(request, week)
    res = solve_integrated(inst, gamma=gamma)
    assert res.status == "infeasible"
    assert res.provably_optimal
    assert not res.over_cut
    assert res.iterations == 1
    assert res.cuts == []
    assert res.pairing.status == "optimal"
    assert res.log[0]["ar_status"] == "infeasible"
    assert res.routing.forced == []
    assert res.routing.status == "infeasible"
    assert solve_routing(inst).status == "infeasible"
    if week == "overcut":
        status, _ = integrated_brute_force(inst, build_connections(inst))
        assert status == "infeasible"


def test_uncoverable_crew_side(uncoverable):
    res = solve_integrated(uncoverable, gamma=1.0)
    assert res.status == "infeasible"
    assert res.provably_optimal
    assert res.iterations == 1
    assert res.cuts == []
    assert res.routing is None
    assert res.pairing.uncovered_legs == [0, 1]


def test_iteration_limit_reports_limit(looping_week):
    res = solve_integrated(looping_week, gamma=0.5, iteration_limit=1)
    assert res.status == "limit"
    assert not res.over_cut
    assert res.iterations == 1
    assert len(res.cuts) == 1
    assert res.pairing is None
    assert res.as_dict()["objective"] is None


# ---------------------------------------------------------------------------
# oracle agreement and relaxation behaviour


def test_matches_joint_brute_force():
    cases = [_overcut(1), _overcut(2)]
    for seed in range(6):
        cases.append(generate_instance(n_airports=4, n_bases=2, n_legs=7,
                                        n_aircraft=3, seed=seed))
    n_optimal = 0
    for inst in cases:
        conns = build_connections(inst)
        got = solve_integrated(inst, gamma=1.0)
        status, objective = integrated_brute_force(inst, conns)
        assert got.status == status
        if status == "optimal":
            n_optimal += 1
            assert got.objective == pytest.approx(objective, abs=1e-6)
            assert got.provably_optimal
    assert n_optimal >= 3


def test_relaxation_never_beats_exact_and_cuts_stay_distinct():
    for seed in (1, 3, 4):
        inst = generate_instance(n_airports=4, n_bases=2, n_legs=8,
                                 n_aircraft=3, seed=seed)
        exact = solve_integrated(inst, gamma=1.0)
        if exact.status != "optimal":
            continue
        for gamma in (0.9, 0.6):
            res = solve_integrated(inst, gamma=gamma)
            assert len({c.conns for c in res.cuts}) == len(res.cuts)
            if res.status in ("optimal", "feasible"):
                assert res.objective >= exact.objective - 1e-9
                assert res.objective >= res.lower_bound - 1e-9


# ---------------------------------------------------------------------------
# report shape


def test_report_shape_and_determinism(toy2):
    a = solve_integrated(toy2, gamma=1.0).as_dict()
    b = solve_integrated(toy2, gamma=1.0).as_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["stats"] == {"integ_steps": 1, "cg_iter_total": a["stats"]["cg_iter_total"],
                          "short_connections": 0, "gap": 0.0}
    assert a["cuts"] == []
    assert a["pairing"]["objective"] == pytest.approx(300.0)
    assert a["routing"]["aircraft_used"] == 1
    assert "total_time_ms" not in a["stats"]


# ---------------------------------------------------------------------------
# one pairing session and one routing session per loop
#
# A week the fleet cannot fly even unforced ends after one iteration, so
# these tests run on a week whose loop really repeats (``looping_week``).
# Generated 10-, 12- and 16-leg weeks with a 2-day maintenance interval
# (seeds 0-39) never loop more than once.


def _traced_loop(monkeypatch, inst, gamma=1.0):
    """Run the loop and record each pairing call's session cuts and result."""
    import crewroute.integrated as integrated

    calls = []
    solve = integrated.solve_crew_pairing

    def traced(*args, **kwargs):
        cuts = kwargs["session"].cuts
        res = solve(*args, **kwargs)
        calls.append((cuts, res))
        return res

    monkeypatch.setattr(integrated, "solve_crew_pairing", traced)
    res = solve_integrated(inst, gamma=gamma)
    monkeypatch.setattr(integrated, "solve_crew_pairing", solve)
    return res, calls


def test_loop_builds_the_networks_once(monkeypatch, looping_week):
    # networks once per loop, and each of the 7 windows' arc resources and
    # state graph once, however many cuts the loop adds
    from crewroute.pairing import colgen

    built = []

    def counted(name):
        fn = getattr(colgen, name)

        def wrapped(*args, **kwargs):
            built.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(colgen, name, wrapped)

    for name in ("build_pricing_networks", "arc_resources",
                 "build_state_graph"):
        counted(name)
    res = solve_integrated(looping_week, gamma=1.0)
    assert res.iterations >= 2
    assert built.count("build_pricing_networks") == 1
    assert built.count("arc_resources") == 7
    assert built.count("build_state_graph") == 7


def test_loop_routes_through_one_session(monkeypatch, looping_week):
    # the routing graph and model are built once per loop; every routing
    # solve goes through crewroute.integrated.solve_routing, which
    # per-layer tracing patches, and leaves the model as it was built
    import crewroute.integrated as integrated
    from crewroute import routing

    built, mips, solves = [], [], []
    fresh_model = routing.build_ar_model

    def counted(name, log):
        fn = getattr(routing, name)

        def wrapped(*args, **kwargs):
            log.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(routing, name, wrapped)

    counted("build_routing_graph", built)
    counted("build_ar_model", built)
    counted("solve_mip", mips)
    solve = integrated.solve_routing

    def traced(*args, **kwargs):
        res = solve(*args, **kwargs)
        session = kwargs["session"]
        lp, _ = fresh_model(session.graph, session.budget)
        assert session.lp.columns == lp.columns
        assert session.lp.rhs == lp.rhs
        assert session.lp.relations == lp.relations
        assert session.lp.lower == lp.lower
        assert session.lp.upper == lp.upper
        solves.append(res)
        return res

    monkeypatch.setattr(integrated, "solve_routing", traced)
    res = solve_integrated(looping_week, gamma=1.0)
    assert built == ["build_routing_graph", "build_ar_model"]
    # one forced solve per cut, plus the fleet check after the first
    assert len(solves) == len(mips) == len(res.cuts) + 1
    assert [r.forced for r in solves] == (
        [sorted(res.cuts[0].conns), []]
        + [sorted(c.conns) for c in res.cuts[1:]])
    assert solves[1].status == "optimal"


def test_session_forced_solves_match_fresh_solves(looping_week):
    # forced solves warm-started from the unforced root basis reach the
    # status and fleet size of a fresh cold solve
    inst = looping_week
    conns = build_connections(inst)
    shorts = sorted(c.key for c in conns if c.kind == ConnectionKind.SHORT)
    session = RoutingSession(inst, conns, inst.rules.n_a)
    assert solve_routing(inst, session=session).status == "optimal"
    assert session.basis is not None
    rng = random.Random(5)
    statuses = set()
    for _ in range(12):
        s = rng.sample(shorts, rng.randrange(1, 7))
        got = solve_routing(inst, forced=s, session=session)
        fresh = solve_routing(inst, forced=s)
        assert got.status == fresh.status
        assert got.n_aircraft == fresh.n_aircraft
        statuses.add(got.status)
    assert statuses == {"optimal", "infeasible"}
    with pytest.raises(ValueError, match="another instance or budget"):
        solve_routing(inst, budget=inst.rules.n_a + 1, session=session)


def test_failed_forced_solve_reopens_the_arcs(monkeypatch, looping_week):
    # a forced solve closes arcs only while its MIP runs: when the MIP
    # raises, the model's bounds come back as they were
    from crewroute import routing

    inst = looping_week
    shorts = sorted(c.key for c in build_connections(inst)
                    if c.kind == ConnectionKind.SHORT)
    session = RoutingSession(inst, budget=inst.rules.n_a)
    lower, upper = list(session.lp.lower), list(session.lp.upper)
    closed = []

    def failing(lp, **kwargs):
        closed.append(lp.upper.count(0.0))
        raise RuntimeError("LP numeric failure during branch and bound")

    monkeypatch.setattr(routing, "solve_mip", failing)
    with pytest.raises(RuntimeError, match="numeric failure"):
        session.solve(shorts[:3])
    assert closed[0] > 0
    assert session.lp.lower == lower
    assert session.lp.upper == upper
    assert session.basis is None


def test_loop_decodes_only_the_columns_it_adds(monkeypatch, looping_week):
    # pooled paths are recognised by their legs before decoding
    from crewroute.pairing import colgen

    decoded = []
    decode = colgen.decode_pairing

    def counted(*args, **kwargs):
        decoded.append(args[2])
        return decode(*args, **kwargs)

    monkeypatch.setattr(colgen, "decode_pairing", counted)
    res, calls = _traced_loop(monkeypatch, looping_week)
    assert res.iterations >= 2
    added = sum(r.stats["columns_priced"] + r.stats["columns_completion"]
                for _, r in calls)
    assert len(decoded) == added == res.pairing.n_columns


def test_loop_calls_the_pairing_solver_once_per_iteration(monkeypatch,
                                                          looping_week):
    # per-layer tracing patches crewroute.integrated.solve_crew_pairing, so
    # every iteration must go through that name
    res, calls = _traced_loop(monkeypatch, looping_week)
    assert len(calls) == res.iterations >= 2
    assert [len(c) for c, _ in calls] == list(range(res.iterations))
    assert res.cg_iter_total == sum(r.iterations for _, r in calls)


def test_session_iterations_match_fresh_solves(monkeypatch, looping_week):
    # each resumed solve reaches the status and objective of a fresh session
    # given the same cuts, in fewer column-generation rounds after the first
    from crewroute.pairing import PairingSession

    for gamma in (1.0, 0.9, 0.5):
        _, calls = _traced_loop(monkeypatch, looping_week, gamma)
        assert len(calls) >= 2
        resumed_rounds = fresh_rounds = 0
        for k, (cuts, got) in enumerate(calls):
            session = PairingSession(looping_week)
            for cut in cuts:
                session.add_cut(cut)
            fresh = session.solve()
            assert got.status == fresh.status
            assert got.objective == pytest.approx(fresh.objective, abs=1e-6)
            assert got.provably_optimal == fresh.provably_optimal
            if k:
                resumed_rounds += got.iterations
                fresh_rounds += fresh.iterations
        assert resumed_rounds < fresh_rounds


def test_session_solves_under_its_own_cuts(overcut):
    # solve_crew_pairing resumes a session under the cuts added to it, and a
    # session of another instance is an input error
    from crewroute.pairing import PairingSession

    session = PairingSession(overcut)
    cut = cut_for(frozenset({(0, 2), (3, 1)}), 1.0)
    assert solve_crew_pairing(overcut, session=session).status == "optimal"
    session.add_cut(cut)
    first = solve_crew_pairing(overcut, session=session)
    assert first.status == "infeasible"
    assert session.cuts == (cut,)
    with pytest.raises(ValueError, match="another instance"):
        solve_crew_pairing(_overcut(2), session=session)


def test_resumed_session_refuses_a_kappa(overcut, looping_week):
    # a session prices at the kappa it was opened with, so a kappa given
    # with it is an input error that leaves the session as it was; the
    # integrated loop opens its session at its kappa and resumes it bare
    from crewroute.pairing import PairingSession

    session = PairingSession(overcut, kappa=2)
    with pytest.raises(ValueError, match="kappa"):
        solve_crew_pairing(overcut, kappa=1, session=session)
    assert session.basis is None and not session.master.columns
    resumed = solve_crew_pairing(overcut, session=session)
    fresh = solve_crew_pairing(overcut, kappa=2)
    assert resumed.status == "optimal"
    assert resumed.as_dict() == fresh.as_dict()

    res = solve_integrated(looping_week, gamma=1.0, kappa=1)
    assert res.iterations >= 2
    assert set(res.pairing.stats["kappa"]) == {1}
