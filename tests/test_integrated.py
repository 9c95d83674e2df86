"""Integrated pairing and routing loop with short-connection cuts."""

from __future__ import annotations

import json
import math

import pytest

from conftest import airport, leg, make_instance
from crewroute.generate import generate_instance
from crewroute.instance import build_connections
from crewroute.integrated import cut_for, short_connections_of, solve_integrated
from crewroute.oracles import integrated_brute_force
from crewroute.pairing import solve_crew_pairing


def _overcut(n_a: int):
    """Both crew round trips need their short turn; one airplane cannot
    serve the two interleaved departures."""
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
    s4 = frozenset({(0, 1), (2, 3), (4, 5), (6, 7)})
    assert cut_for(s4, 1.0).rhs == 3.0
    assert cut_for(s4, 0.9).rhs == pytest.approx(3.6)
    s10 = frozenset((i, i + 1) for i in range(10))
    assert cut_for(s10, 0.9).rhs == pytest.approx(9.0)
    assert cut_for(s10, 1.0).rhs == 9.0
    assert cut_for(frozenset({(1, 2)}), 0.6).rhs == pytest.approx(0.6)
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


def test_overcut_relaxed_saturates(overcut):
    res = solve_integrated(overcut, gamma=0.9)
    assert res.status == "limit"
    assert res.over_cut
    assert not res.provably_optimal
    assert res.iterations == 2
    assert len(res.cuts) == 1
    assert res.cuts[0].conns == {(0, 2), (3, 1)}
    assert res.cuts[0].rhs == pytest.approx(1.8)
    assert res.as_dict()["cuts"] == [{"connections": [[0, 2], [3, 1]],
                                      "rhs": 1.8}]
    assert res.log[0]["ar_status"] == "infeasible"
    assert res.log[0]["cut_rhs"] == pytest.approx(1.8)
    assert res.log[1]["cp_status"] == "infeasible"


def test_overcut_exact_gamma_proves_infeasible(overcut):
    res = solve_integrated(overcut, gamma=1.0)
    assert res.status == "infeasible"
    assert res.provably_optimal
    assert not res.over_cut
    assert res.iterations == 2
    assert res.cuts[0].rhs == 1.0
    assert math.isinf(res.objective)
    assert res.as_dict()["objective"] is None


def test_uncoverable_crew_side(uncoverable):
    res = solve_integrated(uncoverable, gamma=1.0)
    assert res.status == "infeasible"
    assert res.provably_optimal
    assert res.iterations == 1
    assert res.cuts == []
    assert res.routing is None
    assert res.pairing.uncovered_legs == [0, 1]


def test_iteration_limit_reports_limit(overcut):
    res = solve_integrated(overcut, gamma=0.5, iteration_limit=1)
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
        got = solve_integrated(inst, conns, gamma=1.0)
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
# one pairing session per loop


def _cut_loop_weeks(overcut):
    """Weeks whose gamma=1 loop runs several iterations."""
    weeks = [overcut]
    for n_legs, seed in ((10, 8), (16, 9), (24, 5)):
        weeks.append(generate_instance(n_airports=4, n_bases=2, n_legs=n_legs,
                                       n_aircraft=3, seed=seed,
                                       rules_overrides={"T": 2}))
    return weeks


def _traced_loop(monkeypatch, inst, gamma=1.0):
    """Run the loop and record each pairing call's cuts and result."""
    import crewroute.integrated as integrated

    calls = []
    solve = integrated.solve_crew_pairing

    def traced(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls.append((kwargs["cuts"], res))
        return res

    monkeypatch.setattr(integrated, "solve_crew_pairing", traced)
    res = solve_integrated(inst, gamma=gamma)
    monkeypatch.setattr(integrated, "solve_crew_pairing", solve)
    return res, calls


def test_loop_builds_the_networks_once(monkeypatch, overcut):
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
    for inst in _cut_loop_weeks(overcut):
        built.clear()
        res = solve_integrated(inst, gamma=1.0)
        assert res.iterations >= 2
        assert built.count("build_pricing_networks") == 1
        assert built.count("arc_resources") == 7
        assert built.count("build_state_graph") == 7


def test_loop_calls_the_pairing_solver_once_per_iteration(monkeypatch,
                                                          overcut):
    # per-layer tracing patches crewroute.integrated.solve_crew_pairing, so
    # every iteration must go through that name
    for inst in _cut_loop_weeks(overcut):
        res, calls = _traced_loop(monkeypatch, inst)
        assert len(calls) == res.iterations >= 2
        assert [len(c) for c, _ in calls] == list(range(res.iterations))
        assert res.cg_iter_total == sum(r.iterations for _, r in calls)


def test_session_iterations_match_fresh_solves(monkeypatch, overcut):
    # each resumed solve reaches the status and objective of a fresh solve
    # under the same cuts, in fewer column-generation rounds after the first
    weeks = _cut_loop_weeks(overcut)
    # gamma=0.9 on the 24-leg week runs for minutes (see CHANGES.md)
    runs = [(w, 1.0) for w in weeks] + [(w, 0.9) for w in weeks[:3]]
    for inst, gamma in runs:
        _, calls = _traced_loop(monkeypatch, inst, gamma)
        resumed_rounds = fresh_rounds = 0
        for k, (cuts, got) in enumerate(calls):
            fresh = solve_crew_pairing(inst, cuts=cuts)
            assert got.status == fresh.status
            assert got.objective == pytest.approx(fresh.objective, abs=1e-6)
            assert got.provably_optimal == fresh.provably_optimal
            if k:
                resumed_rounds += got.iterations
                fresh_rounds += fresh.iterations
        assert resumed_rounds < fresh_rounds


def test_session_rejects_a_foreign_cut_sequence(overcut):
    from crewroute.pairing import PairingSession

    session = PairingSession(overcut)
    cut = cut_for(frozenset({(0, 2), (3, 1)}), 1.0)
    other = cut_for(frozenset({(0, 2)}), 1.0)
    first = solve_crew_pairing(overcut, cuts=(cut,), session=session)
    assert first.status == "infeasible"
    assert session.cuts == (cut,)
    with pytest.raises(ValueError, match="cut sequence"):
        solve_crew_pairing(overcut, cuts=(other,), session=session)
    with pytest.raises(ValueError, match="another instance"):
        solve_crew_pairing(_overcut(2), cuts=(cut,), session=session)
