"""State-space construction, suffix bounds, and the bounded path search."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from conftest import (
    all_suffix_resources,
    dyadic,
    random_additive_dag,
    random_pairing_dag,
    small_pairing_algebra,
)
from crewroute.pairing.algebra import TOP, PairingAlgebra, one_core
from crewroute.rcsp import (
    AdditiveCapacityAlgebra,
    RcspGraph,
    _cluster,
    brute_force_oracle,
    build_state_graph,
    compute_bounds,
    enumerate_within,
    resolve_kappa,
    solve,
    update_bounds,
)
from rcsp_reference import reference_build

ALL_CONFIGS = ((), ("dom",), ("low",), ("dom", "low"))


def _state_graph(graph, algebra, kappa):
    # the bounds a build leaves are the full-tuple DP's, which compute_bounds
    # returns without writing them
    sg = build_state_graph(graph, algebra, kappa)
    assert compute_bounds(sg, algebra) == sg.bounds
    return sg


def test_auto_kappa_prices_as_kappa_1():
    # 'auto' is kappa 1 at every window size: on the 150-leg week two
    # windows hold 100 or more kept vertices
    from crewroute.generate import generate_instance
    from crewroute.pairing import solve_crew_pairing
    from crewroute.pairing.colgen import PairingSession

    assert resolve_kappa("auto") == 1
    assert resolve_kappa(7) == 7
    inst = generate_instance(8, 2, 150, 13, 11)
    assert inst.rules.kappa == "auto"
    session = PairingSession(inst)
    assert max(len(p.net.graph.kept) for p in session.pricers) >= 100
    assert [p.state_graph.kappa for p in session.pricers] == [1] * 7
    auto = solve_crew_pairing(inst, max_rounds=2)
    one = solve_crew_pairing(inst, kappa=1, max_rounds=2)
    assert auto.as_dict() == one.as_dict()


@pytest.mark.parametrize("kappa", [2.7, 1.0, True, False, "7", None, 0, -3])
def test_resolve_kappa_rejects_non_integers(kappa):
    # the instance loader's rule: an integer of at least 1 or "auto", never
    # truncated
    with pytest.raises(ValueError):
        resolve_kappa(kappa)
    g = RcspGraph(2, [(0, 1)], 0, 1, [(1.0, 0)])
    with pytest.raises(ValueError):
        build_state_graph(g, AdditiveCapacityAlgebra(1), kappa)


def test_graph_validation():
    with pytest.raises(ValueError, match="directed cycle"):
        RcspGraph(3, [(0, 1), (1, 2), (2, 0)], 0, 2, [(0.0, 0)] * 3)
    with pytest.raises(ValueError, match="must differ"):
        RcspGraph(2, [(0, 1)], 0, 0, [(0.0, 0)])
    with pytest.raises(ValueError, match="out of range"):
        RcspGraph(2, [(0, 5)], 0, 1, [(0.0, 0)])
    with pytest.raises(ValueError, match="length mismatch"):
        RcspGraph(2, [(0, 1)], 0, 1, [])


def test_pruning_keeps_od_core():
    # vertex 3 dangles off the o-d core and must not receive out arcs
    g = RcspGraph(4, [(0, 1), (1, 2), (0, 3)], 0, 2,
                  [(1.0, 0), (1.0, 0), (1.0, 0)])
    assert g.kept == {0, 1, 2}
    assert g.out[0] == [0]


def test_disconnected_origin_is_empty():
    g = RcspGraph(4, [(0, 1), (2, 3)], 0, 3, [(1.0, 0), (1.0, 0)])
    alg = AdditiveCapacityAlgebra(10)
    cost, path, _ = solve(_state_graph(g, alg, 1), alg)
    assert cost == math.inf and path is None
    found, _ = enumerate_within(_state_graph(g, alg, 1), alg, math.inf)
    assert found == []


# ---------------------------------------------------------------------------
# state graphs and bound sets


def test_path_graph_single_state():
    g = RcspGraph(4, [(0, 1), (1, 2), (2, 3)], 0, 3,
                  [(1.0, 1), (2.0, 0), (4.0, 1)])
    alg = AdditiveCapacityAlgebra(5)
    sg = _state_graph(g, alg, 4)
    assert all(len(sg.states_of[v]) == 1 for v in g.kept)
    assert sg.at(0) == [(7.0, 2)]
    assert sg.at(2) == [(4.0, 1)]
    assert sg.at(3) == [alg.neutral]


DIAMOND_ARCS = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
DIAMOND_RES = [(1.0, 0), (5.0, 0), (2.0, 0), (7.0, 0), (1.0, 0)]


def test_diamond_two_states_split_at_divergence():
    g = RcspGraph(5, DIAMOND_ARCS, 0, 4, DIAMOND_RES)
    alg = AdditiveCapacityAlgebra(10)
    sg = _state_graph(g, alg, 2)
    assert len(sg.states_of[0]) == 2
    assert sorted(sg.at(0)) == [(4.0, 0), (13.0, 0)]


def test_diamond_single_state_meets():
    g = RcspGraph(5, DIAMOND_ARCS, 0, 4, DIAMOND_RES)
    alg = AdditiveCapacityAlgebra(10)
    sg = _state_graph(g, alg, 1)
    assert all(len(sg.states_of[v]) == 1 for v in g.kept)
    assert sg.at(0) == [(4.0, 0)]


def test_single_arc_bound_is_exact():
    g = RcspGraph(2, [(0, 1)], 0, 1, [(3.5, 2)])
    alg = AdditiveCapacityAlgebra(10)
    assert _state_graph(g, alg, 3).at(0) == [(3.5, 2)]


def test_parallel_fork_meet():
    g = RcspGraph(2, [(0, 1), (0, 1)], 0, 1, [(3.0, 5), (1.0, 7)])
    alg = AdditiveCapacityAlgebra(10)
    assert _state_graph(g, alg, 1).at(0) == [(1.0, 5)]


@pytest.mark.parametrize("kappa", [1, 2, 4])
def test_bounds_dominate_all_suffixes_additive(kappa):
    rng = random.Random(100 + kappa)
    for _ in range(40):
        g = random_additive_dag(rng, capacity=rng.randrange(2, 9))
        alg = AdditiveCapacityAlgebra(10)
        sg = _state_graph(g, alg, kappa)
        for v in g.kept:
            lows = sg.at(v)
            for q in all_suffix_resources(g, alg, v):
                assert any(alg.leq(low, q) for low in lows)


def test_bounds_dominate_all_suffixes_pairing():
    rng = random.Random(41)
    alg = small_pairing_algebra(rng)
    for _ in range(25):
        g = random_pairing_dag(rng)
        for kappa in (1, 3):
            sg = _state_graph(g, alg, kappa)
            for v in g.kept:
                lows = sg.at(v)
                for q in all_suffix_resources(g, alg, v):
                    assert any(alg.leq(low, q) for low in lows)


def test_state_count_never_exceeds_kappa():
    rng = random.Random(9)
    for _ in range(20):
        g = random_additive_dag(rng, capacity=6)
        for kappa in (1, 2, 5):
            sg = build_state_graph(g, AdditiveCapacityAlgebra(6), kappa)
            assert all(len(sg.states_of[v]) <= kappa for v in g.kept)
            assert sg.kappa == kappa
            if kappa == 1:
                # one state per vertex, holding every (arc, successor state)
                # candidate in the order the build enumerates them
                for v in g.kept:
                    assert len(sg.states_of[v]) == 1
                    want = [(aid, sid) for aid in g.out[v]
                            for sid in sg.states_of[g.arcs[aid][1]]]
                    assert sg.state_arcs[sg.states_of[v][0]] == want


def _ok(z):
    return (one_core(1, 60), z, 0, 0)


def _top(z):
    return (TOP, z, 0, 0)


def _cluster_candidates(scalars, tops, kappa):
    """One vertex's clusters through ``rcsp._cluster``, as lists of
    candidate indices; up to kappa candidates, and at kappa 1, the build
    does not cluster, and each candidate, or all of them, is one."""
    n = len(scalars)
    if n <= kappa:
        return [[i] for i in range(n)]
    if kappa == 1:
        return [list(range(n))]
    members, starts = _cluster(np.array(scalars, dtype=np.float64),
                               np.array(tops, dtype=bool), [n], kappa)
    return [run.tolist() for run in np.split(members, starts[1:])]


def _keys(ests, alg):
    return [alg.scalar(b) for b in ests], [alg.is_top(b) for b in ests]


@pytest.mark.parametrize("ests, kappa, want", [
    # non-top candidates in scalar order 2 6 0 5 3, then tops 1 4 7; the
    # pair (3, 1) would lose 9 - 1 and is never merged above kappa 1
    ([_ok(5), _top(1), _ok(3), _ok(9), _top(7), _ok(4), _ok(3), _top(20)],
     2, [[0, 2, 3, 5, 6], [1, 4, 7]]),
    ([_ok(5), _top(1), _ok(3), _ok(9), _top(7), _ok(4), _ok(3), _top(20)],
     3, [[0, 2, 5, 6], [3], [1, 4, 7]]),
    ([_ok(5), _top(1), _ok(3), _ok(9), _top(7), _ok(4), _ok(3), _top(20)],
     4, [[0, 2, 5, 6], [3], [1, 4], [7]]),
    ([_ok(5), _top(1), _ok(3), _ok(9), _top(7), _ok(4), _ok(3), _top(20)],
     5, [[2, 6], [0, 5], [3], [1, 4], [7]]),
    # a top whose scalar ties the non-top cluster's loses nothing by joining
    ([_top(4), _ok(4), _top(0), _top(9)], 3, [[0, 1], [2], [3]]),
])
def test_cluster_partition_is_pinned(ests, kappa, want):
    alg = PairingAlgebra(4, 600, 0.25, 0.5)
    assert _cluster_candidates(*_keys(ests, alg), kappa) == want


def test_cluster_runs_follow_cost_order():
    # above kappa candidates, clusters are contiguous runs of the cost order
    # (non-top by scalar, then top, ties by index), returned in that order,
    # kappa of them; up to kappa, every candidate is its own cluster
    alg = PairingAlgebra(4, 600, 0.25, 0.5)
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(0, 40)
        ests = [(_top if rng.random() < 0.3 else _ok)(rng.randrange(-5, 6))
                for _ in range(n)]
        order = sorted(range(n), key=lambda i: (
            math.inf if alg.is_top(ests[i]) else alg.scalar(ests[i]), i))
        kappa = rng.randrange(1, 12)
        clusters = _cluster_candidates(*_keys(ests, alg), kappa)
        if n <= kappa:
            assert clusters == [[i] for i in range(n)]
            continue
        assert len(clusters) == kappa
        runs, pos = [], 0
        for c in clusters:
            runs.append(sorted(order[pos:pos + len(c)]))
            pos += len(c)
        assert clusters == runs


def _pairwise_passes(scalars, tops, kappa):
    """The clustering as literal passes over neighbour pairs, each cluster
    a member list with its minimum scalar and whether every member is top:
    the reference for the run-slicing passes of ``_cluster_candidates``."""
    n = len(scalars)
    if n <= kappa:
        return [[i] for i in range(n)]
    if kappa == 1:
        return [list(range(n))]
    order = sorted(range(n),
                   key=lambda i: (math.inf if tops[i] else scalars[i], i))
    clusters = [[[i], scalars[i], tops[i]] for i in order]
    remaining = n
    while remaining > kappa:
        merged = []
        i = 0
        while i < len(clusters):
            a = clusters[i]
            if i + 1 < len(clusters) and remaining > kappa:
                b = clusters[i + 1]
                if a[2] or not b[2] or b[1] >= a[1]:
                    a[0].extend(b[0])
                    a[1] = min(a[1], b[1])
                    a[2] = a[2] and b[2]
                    remaining -= 1
                    i += 1
            merged.append(a)
            i += 1
        clusters = merged
    return [sorted(c[0]) for c in clusters]


def test_cluster_passes_match_pairwise_reference():
    # top shares from none to all, tied scalars, and kappa from 1 to past
    # the candidate count, so the lossy pair lines up with a pass both ways
    rng = random.Random(41)
    for _ in range(3000):
        n = rng.randrange(0, 60)
        p_top = rng.choice((0.0, 0.2, 0.5, 0.9, 1.0))
        span = rng.choice((2, 6, 100))
        scalars = [rng.randrange(-span, span) / 2.0 for _ in range(n)]
        tops = [rng.random() < p_top for _ in range(n)]
        kappa = rng.randrange(1, n + 3)
        assert (_cluster_candidates(scalars, tops, kappa)
                == _pairwise_passes(scalars, tops, kappa))


def test_cluster_batches_vertices_apart():
    # the vertices of a batch are clustered as if one at a time: no run,
    # sort or pass reaches into a neighbour's candidates
    rng = random.Random(43)
    for _ in range(500):
        kappa = rng.randrange(2, 8)
        sizes = [rng.randrange(kappa + 1, 40)
                 for _ in range(rng.randrange(1, 6))]
        p_top = rng.choice((0.0, 0.2, 0.5, 0.9))
        scalars = [rng.randrange(-6, 6) / 2.0 for _ in range(sum(sizes))]
        tops = [rng.random() < p_top for _ in scalars]
        members, starts = _cluster(np.array(scalars), np.array(tops), sizes,
                                   kappa)
        got = [run.tolist() for run in np.split(members, starts[1:])]
        want, lo = [], 0
        for n in sizes:
            want += [[lo + i for i in run] for run in _pairwise_passes(
                scalars[lo:lo + n], tops[lo:lo + n], kappa)]
            lo += n
        assert got == want


def _with_scalars(graph, algebra, scalars):
    return [algebra.with_scalar(q, x)
            for q, x in zip(graph.resources, scalars)]


def test_update_bounds_tracks_new_resources():
    # the clustering and the load structure are frozen at build time; new
    # costs on the same loads refresh the values, which must agree with a
    # full recomputation and stay a valid family of suffix lower bounds
    rng = random.Random(13)
    alg = AdditiveCapacityAlgebra(8)
    g = random_additive_dag(rng, capacity=8)
    sg = build_state_graph(g, alg, 2)
    for _ in range(20):
        costs = [rng.randrange(-512, 1025) / 256.0 for _ in g.arcs]
        g.resources = _with_scalars(g, alg, costs)
        update_bounds(sg, costs, alg)
        recomputed = compute_bounds(sg, alg)
        for v in g.kept:
            assert sorted(sg.at(v)) == sorted(recomputed[s]
                                              for s in sg.states_of[v])
            lows = sg.at(v)
            for q in all_suffix_resources(g, alg, v):
                assert any(alg.leq(low, q) for low in lows)


def test_update_bounds_matches_full_dp_pairing():
    # the refresh recomputes only the z of each bound; on pricing graphs
    # with duals and cut counts it must reproduce the full-tuple DP bit for
    # bit at every state, and so must the bounds the build leaves behind
    rng = random.Random(29)
    for _ in range(25):
        alg = small_pairing_algebra(rng)
        g = random_pairing_dag(rng)
        built = g.resources
        for kappa in (1, 2, 3):
            g.resources = built
            sg = build_state_graph(g, alg, kappa)
            assert repr(sg.bounds) == repr(compute_bounds(sg, alg))
            for _ in range(3):
                z = [dyadic(rng) for _ in g.arcs]
                update_bounds(sg, z, alg)
                g.resources = _with_scalars(g, alg, z)
                want = compute_bounds(sg, alg)
                for a, b in zip(sg.bounds, want, strict=True):
                    assert repr(a) == repr(b)


def test_update_bounds_reprices_the_arcs():
    # update_bounds alone moves the graph's arcs to the new scalars, so the
    # search combines labels with the arcs the bounds were refreshed for
    rng = random.Random(37)
    for _ in range(10):
        alg = small_pairing_algebra(rng)
        g = random_pairing_dag(rng)
        built = g.resources
        sg = build_state_graph(g, alg, rng.choice((1, 3)))
        for _ in range(3):
            z = [dyadic(rng) for _ in g.arcs]
            update_bounds(sg, z, alg)
            assert repr(g.resources) == repr(
                [alg.with_scalar(q, x) for q, x in zip(built, z)])
            assert repr(compute_bounds(sg, alg)) == repr(sg.bounds)


# ---------------------------------------------------------------------------
# search


def test_solve_single_path():
    g = RcspGraph(3, [(0, 1), (1, 2)], 0, 2, [(2.0, 1), (3.0, 1)])
    alg = AdditiveCapacityAlgebra(5)
    cost, path, stats = solve(_state_graph(g, alg, 1), alg)
    assert cost == 5.0
    assert path == (0, 1)
    assert stats.paths_enumerated >= 1


def test_solve_respects_capacity():
    g = RcspGraph(2, [(0, 1), (0, 1)], 0, 1, [(1.0, 9), (4.0, 1)])
    alg = AdditiveCapacityAlgebra(5)
    cost, path, _ = solve(_state_graph(g, alg, 2), alg)
    assert cost == 4.0
    assert path == (1,)


def test_solve_all_infeasible():
    g = RcspGraph(3, [(0, 1), (1, 2)], 0, 2, [(1.0, 3), (1.0, 3)])
    alg = AdditiveCapacityAlgebra(5)
    cost, path, _ = solve(_state_graph(g, alg, 1), alg)
    assert cost == math.inf and path is None


def test_negative_costs_found_exactly():
    g = RcspGraph(5, DIAMOND_ARCS, 0, 4,
                  [(1.0, 0), (-5.0, 0), (2.0, 0), (-1.0, 0), (1.0, 0)])
    alg = AdditiveCapacityAlgebra(10)
    for tests in ALL_CONFIGS:
        cost, path, _ = solve(_state_graph(g, alg, 2), alg, tests=tests)
        assert cost == -5.0
        assert path == (1, 3, 4)


def test_initial_ub_is_a_strict_incumbent():
    g = RcspGraph(3, [(0, 1), (1, 2)], 0, 2, [(2.0, 0), (3.0, 0)])
    alg = AdditiveCapacityAlgebra(5)
    sg = _state_graph(g, alg, 1)
    cost, path, _ = solve(sg, alg, initial_ub=6.0)
    assert cost == 5.0 and path == (0, 1)
    for ub in (5.0, 4.0):
        cost, path, _ = solve(sg, alg, initial_ub=ub)
        assert cost == math.inf and path is None


def test_configs_agree_with_oracle_additive():
    rng = random.Random(55)
    nontrivial = 0
    for _ in range(60):
        cap = rng.randrange(2, 9)
        g = random_additive_dag(rng, capacity=cap)
        alg = AdditiveCapacityAlgebra(cap)
        want_cost, want_path, feas = brute_force_oracle(g, alg)
        if want_cost < math.inf:
            nontrivial += 1
        for kappa in (1, 2, "auto"):
            sg = _state_graph(g, alg, kappa)
            for tests in ALL_CONFIGS:
                cost, path, _ = solve(sg, alg, tests=tests)
                assert cost == want_cost
                if want_cost < math.inf:
                    # any reported path must be feasible and optimal
                    assert (path, cost) in feas
    assert nontrivial >= 30


def test_configs_agree_with_oracle_pairing():
    rng = random.Random(77)
    alg = small_pairing_algebra(rng)
    for _ in range(30):
        g = random_pairing_dag(rng)
        want_cost, _, feas = brute_force_oracle(g, alg)
        sg = _state_graph(g, alg, 2)
        for tests in ALL_CONFIGS:
            cost, path, _ = solve(sg, alg, tests=tests)
            assert cost == want_cost
            if cost < math.inf:
                assert (path, cost) in feas


def test_pruning_only_changes_statistics():
    rng = random.Random(3)
    g = random_additive_dag(rng, capacity=6, max_v=8)
    alg = AdditiveCapacityAlgebra(6)
    sg = _state_graph(g, alg, 2)
    baseline = solve(sg, alg, tests=())[2]
    assert baseline.cut_dom == 0 and baseline.cut_low == 0
    low_only = solve(sg, alg, tests=("low",))[2]
    assert low_only.cut_dom == 0
    dom_only = solve(sg, alg, tests=("dom",))[2]
    assert dom_only.cut_low == 0
    both = solve(sg, alg, tests=("dom", "low"))[2]
    assert both.paths_enumerated <= baseline.paths_enumerated


# ---------------------------------------------------------------------------
# enumeration within a cost threshold


def test_enumerate_below_optimum_is_empty():
    g = RcspGraph(3, [(0, 1), (1, 2)], 0, 2, [(2.0, 0), (3.0, 0)])
    alg = AdditiveCapacityAlgebra(5)
    found, stats = enumerate_within(_state_graph(g, alg, 1), alg, 4.9)
    assert found == []
    assert not stats.truncated


def test_enumerate_matches_oracle_filter():
    rng = random.Random(19)
    for _ in range(40):
        cap = rng.randrange(2, 8)
        g = random_additive_dag(rng, capacity=cap)
        alg = AdditiveCapacityAlgebra(cap)
        _, _, feas = brute_force_oracle(g, alg)
        if not feas:
            continue
        costs = sorted(c for _, c in feas)
        for c_ub in (costs[0], costs[len(costs) // 2], math.inf):
            sg = _state_graph(g, alg, 2)
            found, stats = enumerate_within(sg, alg, c_ub)
            assert not stats.truncated
            want = sorted((p, c) for p, c in feas if c <= c_ub)
            got = sorted((p, c) for p, _, c in found)
            assert got == want
            for path, q, c in found:
                r = alg.neutral
                for aid in path:
                    r = alg.combine(r, g.resources[aid])
                assert r == q and alg.cost(r) == c


def test_enumerate_truncates_at_path_limit():
    g = RcspGraph(2, [(0, 1)] * 5, 0, 1, [(float(i), 0) for i in range(5)])
    alg = AdditiveCapacityAlgebra(3)
    found, stats = enumerate_within(_state_graph(g, alg, 2), alg, math.inf,
                                    path_limit=2)
    assert len(found) == 2
    assert stats.truncated


@pytest.mark.parametrize("limit, n_found, truncated",
                         [(5, 5, False), (0, 0, True)])
def test_enumerate_truncates_only_beyond_path_limit(limit, n_found,
                                                    truncated):
    # five paths within c_ub: a limit of five holds them all, so nothing is
    # cut off; a limit of zero holds none of them
    g = RcspGraph(2, [(0, 1)] * 5, 0, 1, [(float(i), 0) for i in range(5)])
    alg = AdditiveCapacityAlgebra(3)
    found, stats = enumerate_within(_state_graph(g, alg, 2), alg, math.inf,
                                    path_limit=limit)
    assert len(found) == n_found
    assert stats.truncated is truncated


def test_oracle_path_guard():
    arcs, res = [], []
    for i in range(5):
        arcs += [(2 * i, 2 * i + 1), (2 * i, 2 * i + 1),
                 (2 * i + 1, 2 * i + 2)]
        res += [(1.0, 0)] * 3
    g = RcspGraph(11, arcs, 0, 10, res)
    with pytest.raises(RuntimeError, match="path guard"):
        brute_force_oracle(g, AdditiveCapacityAlgebra(9), max_paths=10)


# ---------------------------------------------------------------------------
# the fused build on pricing windows


def _window_builds(kappa, n_cuts):
    from crewroute.generate import generate_instance
    from crewroute.instance import ConnectionKind, build_connections
    from crewroute.pairing.colgen import connection_duals
    from crewroute.pairing.master import CutRow
    from crewroute.pairing.network import (
        arc_resources, arc_shorts, build_pricing_networks)

    inst = generate_instance(6, 2, 60, 6, 7)
    rules = inst.rules
    args = (rules.max_legs_per_duty, rules.F_max, rules.alpha, rules.beta)
    fused = PairingAlgebra(*args)
    conns = build_connections(inst)
    # n_cuts cuts over the short connections, their duals folded into the
    # z of the short-connection arcs as the pricer does
    shorts = sorted(c.key for c in conns if c.kind == ConnectionKind.SHORT)
    cuts = tuple(CutRow(frozenset(shorts[i::n_cuts]), 0.0)
                 for i in range(n_cuts))
    conn_duals = connection_duals(cuts, [-7.5 * (i + 1)
                                         for i in range(n_cuts)])
    for net in build_pricing_networks(inst, conns):
        res = arc_resources(net, inst, fused, {})
        for aid, key in arc_shorts(net):
            if key in conn_duals:
                res[aid] = fused.with_scalar(
                    res[aid], fused.scalar(res[aid]) - conn_duals[key])
        net.graph.resources = res
        yield (_state_graph(net.graph, fused, kappa),
               reference_build(net.graph, fused, kappa))


@pytest.mark.parametrize("kappa", [1, 2, 5, 50])
@pytest.mark.parametrize("n_cuts", [0, 2])
def test_fused_build_matches_reference_build(kappa, n_cuts):
    # the array build (keys, run-sliced passes and meets per batch of
    # clustered vertices) leaves the state graph of the list-based build,
    # float for float, with and without cut duals on the short-connection
    # arcs; _state_graph also checks the bounds against compute_bounds
    for sg, want in _window_builds(kappa, n_cuts):
        assert sg.states_of == want.states_of
        assert sg.state_arcs == want.state_arcs
        assert repr(sg.bounds) == repr(want.bounds)


def test_kappa_50_state_graph_size_is_pinned():
    # the state and state-arc counts of the fused build's predecessor
    sgs = [sg for sg, _ in _window_builds(50, 0)]
    assert sum(len(sg.state_arcs) for sg in sgs) == 4655
    assert sum(len(a) for sg in sgs for a in sg.state_arcs) == 13087


@pytest.mark.parametrize("kappa", [2, 3, 5])
def test_array_build_matches_list_build_on_random_dags(kappa):
    # clustered vertices of both algebras on small DAGs, a third of the
    # scalars set to +0.0 or -0.0: the array build leaves the list build's
    # state graph field for field
    rng = random.Random(200 + kappa)
    clustered = 0
    for _ in range(60):
        for g, alg in ((random_additive_dag(rng, 6),
                        AdditiveCapacityAlgebra(6)),
                       (random_pairing_dag(rng), small_pairing_algebra())):
            g.resources = [alg.with_scalar(q, rng.choice((0.0, -0.0)))
                           if rng.random() < 0.3 else q for q in g.resources]
            sg = build_state_graph(g, alg, kappa)
            want = reference_build(g, alg, kappa)
            assert sg.states_of == want.states_of
            assert sg.state_arcs == want.state_arcs
            assert repr(sg.bounds) == repr(want.bounds)
            clustered += sum(len(arcs) > 1 for arcs in sg.state_arcs)
    assert clustered > 100
