"""Acceptance gate: eight end-to-end checks, one printed line each.

Each test prints a single PASS line with its measured numbers once its
assertions hold; a failing criterion shows up as the usual pytest FAILED
line for that test.
"""

from __future__ import annotations

import json
import math
import random
import time

from conftest import (
    all_suffix_resources,
    check_laws,
    check_monotone,
    dyadic,
    random_additive_dag,
    random_pairing_dag,
    random_resource,
    small_pairing_algebra,
    worsen,
)
from crewroute.cli import main
from crewroute.generate import generate_instance
from crewroute.instance import (
    WEEK_MINUTES,
    ConnectionKind,
    InstanceError,
    build_connections,
)
from crewroute.integrated import solve_integrated
from crewroute.oracles import (
    crew_pairing_brute_force,
    integrated_brute_force,
    routing_brute_force,
)
from crewroute.pairing import solve_crew_pairing
from crewroute.pairing.network import build_pricing_networks
from crewroute.rcsp import (
    AdditiveCapacityAlgebra,
    brute_force_oracle,
    build_state_graph,
    enumerate_within,
    solve,
)
from crewroute.routing import minimize_aircraft, solve_routing, weekly_crossings

ALL_CONFIGS = ((), ("dom",), ("low",), ("dom", "low"))


def _report(capsys, text: str) -> None:
    with capsys.disabled():
        print(f"\n{text}")


def _gen(seed: int, n_legs: int, n_aircraft: int, **overrides):
    return generate_instance(n_airports=4, n_bases=2, n_legs=n_legs,
                             n_aircraft=n_aircraft, seed=seed,
                             rules_overrides=overrides or None)


# ---------------------------------------------------------------------------
# criterion 1: algebra laws on random resources


def _random_additive_resource(rng):
    return (dyadic(rng), rng.randrange(0, 9))


def test_criterion_1_algebra_laws(capsys):
    t0 = time.perf_counter()
    n = 10_000
    rng = random.Random(101)
    for i in range(n):
        if i % 2500 == 0:
            alg = small_pairing_algebra(rng)
        q1, q2, q3 = (random_resource(rng) for _ in range(3))
        check_laws(alg, q1, q2, q3)
        check_monotone(alg, q1, worsen(rng, q1), q3)

    rng = random.Random(102)
    add = AdditiveCapacityAlgebra(6)
    for _ in range(n):
        q1, q2, q3 = (_random_additive_resource(rng) for _ in range(3))
        check_laws(add, q1, q2, q3)
        worse = (q1[0] + rng.randrange(0, 257) / 256.0,
                 q1[1] + rng.randrange(0, 3))
        check_monotone(add, q1, worse, q3)

    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(capsys, f"PASS criterion 1: {n} random triples per algebra "
                    f"satisfy all order and monoid laws ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# criteria 2 and 3 share one DAG corpus


_CORPUS: list | None = None


def _corpus() -> list:
    global _CORPUS
    if _CORPUS is None:
        graphs = []
        rng = random.Random(202)
        for _ in range(250):
            cap = rng.randrange(2, 9)
            graphs.append((random_additive_dag(rng, capacity=cap),
                           AdditiveCapacityAlgebra(cap)))
        rng = random.Random(203)
        for _ in range(250):
            graphs.append((random_pairing_dag(rng),
                           small_pairing_algebra(rng)))
        _CORPUS = graphs
    return _CORPUS


def test_criterion_2_search_matches_oracle(capsys):
    t0 = time.perf_counter()
    feasible = 0
    for g, alg in _corpus():
        want_cost, _, feas = brute_force_oracle(g, alg)
        if want_cost < math.inf:
            feasible += 1
        b = build_state_graph(g, alg, 2)
        for tests in ALL_CONFIGS:
            cost, path, _ = solve(b, alg, tests=tests)
            assert cost == want_cost
            if cost < math.inf:
                assert (path, cost) in feas

        costs = sorted(c for _, c in feas)
        thresholds = [math.inf] if not costs else \
            [costs[len(costs) // 2], math.inf]
        for c_ub in thresholds:
            found, st = enumerate_within(b, alg, c_ub)
            assert not st.truncated
            got = sorted((p, c) for p, _, c in found)
            assert got == sorted((p, c) for p, c in feas if c <= c_ub)

    dt = time.perf_counter() - t0
    assert feasible >= 200
    _report(capsys, f"PASS criterion 2: 500 DAGs x 4 test configs equal the "
                    f"path oracle exactly, enumeration included "
                    f"({feasible} feasible, {dt:.1f}s)")


def test_criterion_3_bounds_dominate_suffixes(capsys):
    t0 = time.perf_counter()
    checked = 0
    for g, alg in _corpus():
        suffixes = {v: all_suffix_resources(g, alg, v) for v in g.kept}
        for kappa in (1, 2, 4, "auto"):
            b = build_state_graph(g, alg, kappa)
            for v in g.kept:
                lows = b.at(v)
                for q in suffixes[v]:
                    assert any(alg.leq(low, q) for low in lows)
                    checked += 1
    dt = time.perf_counter() - t0
    _report(capsys, f"PASS criterion 3: every suffix resource is dominated "
                    f"by a stored bound ({checked} checks across kappa "
                    f"1/2/4/auto, {dt:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: column generation equals brute-force set partitioning


def test_criterion_4_pairing_matches_oracle(capsys):
    t0 = time.perf_counter()
    insts, seed = [], 0
    while len(insts) < 50 and seed < 500:
        try:
            insts.append(_gen(seed, 6 + seed % 7, 3))
        except InstanceError:
            pass
        seed += 1
    assert len(insts) == 50

    n_opt = 0
    for inst in insts:
        conns = build_connections(inst)
        got = solve_crew_pairing(inst)
        status, objective, _ = crew_pairing_brute_force(inst, conns)
        assert got.status == status
        assert got.provably_optimal
        if status == "optimal":
            n_opt += 1
            assert abs(got.objective - objective) <= 1e-6
            covered = sorted(l for p in got.pairings for l in p.legs)
            assert covered == sorted(l.id for l in inst.legs)
    dt = time.perf_counter() - t0
    assert dt < 300.0
    assert n_opt >= 25
    _report(capsys, f"PASS criterion 4: 50 instances (6-12 legs) match the "
                    f"set-partitioning oracle within 1e-6, all proven "
                    f"({n_opt} optimal, {dt:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 5: routing feasibility, fleet minimum and week spans


def test_criterion_5_routing_matches_oracle(capsys):
    t0 = time.perf_counter()
    insts, seed = [], 0
    while len(insts) < 100 and seed < 1000:
        try:
            insts.append(_gen(seed, 4 + seed % 7, 2, T=1 + seed % 3))
        except InstanceError:
            pass
        seed += 1
    assert len(insts) == 100

    n_feasible = 0
    for inst in insts:
        legs_by_id = {l.id: l for l in inst.legs}
        got = minimize_aircraft(inst)
        want = routing_brute_force(inst)
        assert (got.status == "optimal") == (want.min_aircraft is not None)
        if want.min_aircraft is not None:
            n_feasible += 1
            assert got.n_aircraft == want.min_aircraft
            covered = sorted(l for r in got.routes for l in r.legs)
            assert covered == sorted(legs_by_id)
            for r in got.routes:
                # recompute the weekly instant crossings along the rotation
                total = 0
                for i, a in enumerate(r.legs):
                    la = legs_by_id[a]
                    lb = legs_by_id[r.legs[(i + 1) % len(r.legs)]]
                    gap = (lb.dep_time - la.arr_time) % WEEK_MINUTES
                    total += weekly_crossings(la.dep_time,
                                              la.flying_minutes + gap)
                assert total == r.week_span >= 1

        # same oracle call also answers the budgeted question: rules.n_a
        got_b = solve_routing(inst)
        assert (got_b.status == "optimal") == want.feasible
    dt = time.perf_counter() - t0
    assert n_feasible >= 30
    _report(capsys, f"PASS criterion 5: 100 instances agree with the cycle "
                    f"oracle on feasibility, fleet minimum and week spans "
                    f"({n_feasible} feasible, {dt:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 6: integrated loop against the joint oracle


def test_criterion_6_integrated_matches_oracle(capsys):
    t0 = time.perf_counter()
    picked, seed = [], 0
    while len(picked) < 20 and seed < 400:
        try:
            inst = _gen(seed, 5 + seed % 4, 2)
        except InstanceError:
            seed += 1
            continue
        conns = build_connections(inst)
        if any(c.kind is ConnectionKind.SHORT for c in conns):
            picked.append((inst, conns))
        seed += 1
    assert len(picked) == 20

    n_opt = 0
    for inst, conns in picked:
        exact = solve_integrated(inst, gamma=1.0)
        status, objective = integrated_brute_force(inst, conns)
        assert exact.status == status
        assert len({c.conns for c in exact.cuts}) == len(exact.cuts)
        if status == "optimal":
            n_opt += 1
            assert abs(exact.objective - objective) <= 1e-6
            assert exact.provably_optimal

        relaxed = {}
        for gamma in (0.9, 0.6):
            r = solve_integrated(inst, gamma=gamma)
            assert len({c.conns for c in r.cuts}) == len(r.cuts)
            if not math.isinf(r.objective) and r.lower_bound is not None:
                assert r.objective >= r.lower_bound - 1e-9
            relaxed[gamma] = r
        assert exact.objective <= relaxed[0.9].objective + 1e-9
        assert relaxed[0.9].objective <= relaxed[0.6].objective + 1e-9
    dt = time.perf_counter() - t0
    _report(capsys, f"PASS criterion 6: 20 short-connection instances match "
                    f"the joint oracle at gamma=1, cuts stay distinct, "
                    f"relaxations never beat the exact loop "
                    f"({n_opt} optimal, {dt:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 7: bound strength at scale


def test_criterion_7_bound_strength(capsys):
    t0 = time.perf_counter()
    inst = generate_instance(n_airports=8, n_bases=2, n_legs=300,
                             n_aircraft=25, seed=11)
    conns = build_connections(inst)
    n_windows = len(build_pricing_networks(inst, conns))

    runs = {}
    for kappa in (50, 1):
        res = solve_crew_pairing(inst, kappa=kappa, max_rounds=15)
        st = res.stats
        solves = st["pricing_rounds"] * n_windows
        runs[kappa] = {
            "avg_paths": st["paths_enumerated"] / solves,
            "cut_low": st["cut_low"],
            "cut_dom": st["cut_dom"],
        }

    dt = time.perf_counter() - t0
    rich, flat = runs[50], runs[1]
    low_share = rich["cut_low"] / max(1, rich["cut_low"] + rich["cut_dom"])
    assert rich["avg_paths"] < flat["avg_paths"]
    assert low_share >= 0.5
    assert dt < 1200.0
    _report(capsys, f"PASS criterion 7: kappa=50 expands "
                    f"{rich['avg_paths']:.0f} paths per pricing solve vs "
                    f"{flat['avg_paths']:.0f} at kappa=1, lower-bound cuts "
                    f"carry {low_share:.0%} of the pruning ({dt:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 8: reproducible reports


def test_criterion_8_reports_reproducible(capsys, tmp_path):
    t0 = time.perf_counter()
    gen_argv = ["generate", "--legs", "8", "--aircraft", "3", "--airports",
                "4", "--bases", "2", "--seed", "5"]
    inst_path = tmp_path / "inst.json"
    assert main(gen_argv + ["--output", str(inst_path)]) == 0

    commands = {
        "generate": gen_argv,
        "route": ["route", str(inst_path)],
        "minimize": ["route", str(inst_path), "--minimize"],
        "pair": ["pair", str(inst_path)],
        "integrated": ["integrated", str(inst_path), "--gamma", "1.0"],
        "report": ["report", str(inst_path)],
        "oracle": ["oracle", str(inst_path), "pairing"],
    }
    for name, argv in commands.items():
        a = tmp_path / f"{name}-a.json"
        b = tmp_path / f"{name}-b.json"
        code_a = main(argv + ["--output", str(a)])
        code_b = main(argv + ["--output", str(b)])
        assert code_a == code_b == 0
        assert a.read_bytes() == b.read_bytes()
        json.loads(a.read_text())
    dt = time.perf_counter() - t0
    _report(capsys, f"PASS criterion 8: {len(commands)} subcommands produce "
                    f"byte-identical reports on rerun ({dt:.1f}s)")
