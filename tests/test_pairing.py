"""Pricing networks, the set-partitioning master, and column generation."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from conftest import airport, leg, make_instance, minutes
from crewroute.instance import ConnectionKind, build_connections
from crewroute.milp import solve_lp
from crewroute.oracles import crew_pairing_brute_force, enumerate_pairings
from crewroute.pairing import solve_crew_pairing
from crewroute.pairing.algebra import PairingAlgebra, multi_core, one_core
from crewroute.pairing.master import CutRow, MasterProblem, artificial_cost
from crewroute.pairing.network import (
    PairingColumn,
    arc_resources,
    build_pricing_networks,
    decode_pairing,
)
from crewroute.rcsp import brute_force_oracle


def _networks(inst):
    return build_pricing_networks(inst, build_connections(inst))


def _algebra(inst):
    return PairingAlgebra(inst.rules.max_legs_per_duty, inst.rules.F_max,
                          inst.rules.alpha, inst.rules.beta)


# ---------------------------------------------------------------------------
# network construction


def test_seven_windows(toy2):
    nets = _networks(toy2)
    assert len(nets) == 7
    assert [n.window for n in nets] == list(range(7))
    # Monday legs are members of the four windows that include Monday
    populated = [n.window for n in nets if n.leg_of_vertex]
    assert populated == [0, 4, 5, 6]


def test_window_arcs_toy(toy2):
    net = _networks(toy2)[0]
    kinds = [tag[0] for tag in net.arc_info]
    # leg 0 departs the base, leg 1 returns to it, one day connection links
    assert kinds.count("o") == 1
    assert kinds.count("d") == 1
    assert kinds.count("day") == 1
    o_tag = net.arc_info[kinds.index("o")]
    d_tag = net.arc_info[kinds.index("d")]
    assert o_tag[1] == 0 and d_tag[1] == 1
    day_tag = net.arc_info[kinds.index("day")]
    assert day_tag[1].key == (0, 1)
    # the leg each arc enters, none on the arc into the destination
    assert net.arc_legs == [{"o": 0, "day": 1, "d": None}[k] for k in kinds]


def test_connection_arcs_stay_inside_window():
    # the same two legs on Monday and Thursday: the Monday-Thursday link
    # is only forward inside windows that contain both days in that order
    inst = make_instance(
        [airport("AAA", base=True), airport("BBB")],
        [
            leg(0, "AAA", "BBB", minutes(0, 8), minutes(0, 9)),
            leg(1, "BBB", "AAA", minutes(3, 8), minutes(3, 9)),
        ],
    )
    nets = _networks(inst)
    for net in nets:
        conn_arcs = [tag for tag in net.arc_info if tag[0] == "night"]
        if net.window == 0:
            assert [c.key for _, c in conn_arcs] == [(0, 1)]
        else:
            assert conn_arcs == []


# ---------------------------------------------------------------------------
# arc resources


def _resource_of(net, inst, duals, kind, ident):
    res = arc_resources(net, inst, _algebra(inst), duals)
    for aid, tag in enumerate(net.arc_info):
        if tag[0] == kind and (tag[1] == ident or
                               getattr(tag[1], "key", None) == ident):
            return res[aid]
    raise AssertionError("arc not found")


def test_day_arc_resource():
    inst = make_instance(
        [airport("AAA", base=True), airport("BBB")],
        [
            leg(0, "AAA", "BBB", minutes(0, 8), minutes(0, 9)),
            leg(1, "BBB", "AAA", minutes(0, 10), minutes(0, 11, 30)),
        ],
        weights={"w_fly": 0.0, "w_hotel": 30.0, "w_pairing": 120.0},
    )
    got = _resource_of(_networks(inst)[0], inst, {1: 12.0}, "day", (0, 1))
    assert got == (one_core(1, 90), -12.0, 0, 0)


def test_origin_arc_charges_pairing_cost():
    inst = make_instance(
        [airport("AAA", base=True), airport("BBB")],
        [
            leg(0, "AAA", "BBB", minutes(0, 8), minutes(0, 9, 30)),
            leg(1, "BBB", "AAA", minutes(0, 11), minutes(0, 12)),
        ],
    )
    got = _resource_of(_networks(inst)[0], inst, {0: 12.0}, "o", 0)
    # 08:00 departures carry the full 540 limit, so no padding applies
    assert got == (one_core(1, 90), 120.0 + 90.0 - 12.0, 0, 0)


def test_origin_arc_pads_afternoon_limit():
    inst = make_instance(
        [airport("AAA", base=True), airport("BBB")],
        [
            leg(0, "AAA", "BBB", minutes(0, 13), minutes(0, 14)),
            leg(1, "BBB", "AAA", minutes(0, 15), minutes(0, 16)),
        ],
    )
    got = _resource_of(_networks(inst)[0], inst, {}, "o", 0)
    # the 480 afternoon band tightens by 60 against the 540 ceiling
    assert got[0] == one_core(1, 60 + 60)


def test_night_arc_reduced_rest():
    inst = make_instance(
        [airport("AAA", base=True), airport("BBB")],
        [
            leg(0, "AAA", "BBB", minutes(0, 20), minutes(0, 22)),
            leg(1, "BBB", "AAA", minutes(1, 7), minutes(1, 8, 30)),
        ],
    )
    got = _resource_of(_networks(inst)[0], inst, {1: 5.0}, "night", (0, 1))
    # gap 540 < 600 reduces the rest: the next duty starts with 2 legs spent
    assert got == (multi_core(0, 0, 2, 90, 0),
                   90.0 + 30.0 - 5.0, 1, 1)


def test_night_arc_full_rest():
    inst = make_instance(
        [airport("AAA", base=True), airport("BBB")],
        [
            leg(0, "AAA", "BBB", minutes(0, 8), minutes(0, 10)),
            leg(1, "BBB", "AAA", minutes(1, 13), minutes(1, 14)),
        ],
    )
    got = _resource_of(_networks(inst)[0], inst, {}, "night", (0, 1))
    assert got[0] == multi_core(0, 0, 1, 60 + 60, 0)
    assert got[2] == 1 and got[3] == 1


def _short_cuts(inst, conns):
    """Two cuts that split the week's short connections between them."""
    shorts = sorted(c.key for c in conns if c.kind == ConnectionKind.SHORT)
    assert len(shorts) >= 2
    return (CutRow(frozenset(shorts[::2]), 1.0),
            CutRow(frozenset(shorts[1::2]), 1.0))


def test_repriced_arcs_and_bounds_match_full_rebuild():
    # a pricing round moves only z: the refreshed arc resources must equal
    # arc_resources under the same leg duals, less each short connection's
    # cut dual on the arcs that fly it, and the refreshed bounds the
    # full-tuple DP over them, bit for bit
    import random

    from crewroute.generate import generate_instance
    from crewroute.pairing.colgen import _WindowPricer, connection_duals
    from crewroute.rcsp import compute_bounds

    inst = generate_instance(n_airports=4, n_bases=2, n_legs=16,
                             n_aircraft=3, seed=5)
    conns = build_connections(inst)
    cuts = _short_cuts(inst, conns)
    base = _algebra(inst)
    rng = random.Random(4)
    for net in build_pricing_networks(inst, conns):
        pricer = _WindowPricer(net, inst, base, 2)
        for _ in range(3):
            duals = {l.id: rng.randrange(-4096, 4096) / 16.0
                     for l in inst.legs if rng.random() < 0.8}
            alg = base.with_duals(-rng.random(), -rng.random())
            conn_duals = connection_duals(cuts, (-rng.random(), 0.0))
            pricer.reprice(alg, duals, conn_duals)
            want = arc_resources(net, inst, alg, duals)
            for aid, tag in enumerate(net.arc_info):
                if tag[0] == "day" and tag[1].key in conn_duals:
                    want[aid] = alg.with_scalar(
                        want[aid], want[aid][1] - conn_duals[tag[1].key])
            assert repr(net.graph.resources) == repr(want)
            full = compute_bounds(pricer.state_graph, alg)
            assert repr(pricer.state_graph.bounds) == repr(full)


def test_folded_cut_duals_price_the_master_reduced_cost():
    # every path of every window costs the master's reduced cost of the
    # pairing it decodes to, under duals with the <= rows clamped as the
    # pricer clamps them: cover duals on the legs, cut duals on the arcs of
    # the cut's short connections and nowhere else. The third cut holds
    # only connections the master does not count.
    import random

    from crewroute.generate import generate_instance
    from crewroute.pairing.colgen import _WindowPricer, connection_duals
    from crewroute.rcsp import enumerate_within, solve

    inst = generate_instance(n_airports=4, n_bases=2, n_legs=16,
                             n_aircraft=3, seed=5)
    conns = build_connections(inst)
    others = frozenset(c.key for c in conns if c.kind in (
        ConnectionKind.DAY_CREW, ConnectionKind.NIGHT_CREW))
    assert others
    cuts = _short_cuts(inst, conns) + (CutRow(others, 1.0),)
    master = MasterProblem(inst)
    for cut in cuts:
        master.add_cut(cut)
    base = _algebra(inst)
    pricers = [_WindowPricer(net, inst, base, 2)
               for net in build_pricing_networks(inst, conns)]
    le_rows = [master.alpha_row, master.beta_row] + master.cut_rows
    rng = random.Random(11)
    n_paths = 0
    for trial in range(4):
        duals = np.array([rng.uniform(-300.0, 300.0)
                          for _ in range(master.lp.n_rows)])
        # one positive cut dual at least, for the clamp to act on
        duals[master.cut_rows[trial % 2]] = rng.uniform(1.0, 50.0)
        legs, mu, nu, sigma = master.duals_of(duals)
        alg = base.with_duals(mu, nu)
        conn_duals = connection_duals(master.cuts, sigma)
        clamped = duals.copy()
        clamped[le_rows] = np.minimum(clamped[le_rows], 0.0)
        for pricer in pricers:
            pricer.reprice(alg, legs, conn_duals)
            entries, st = enumerate_within(pricer.state_graph, alg,
                                           math.inf, 100_000)
            assert not st.truncated
            costs = []
            for path, _q, cost in entries:
                col = decode_pairing(pricer.net, inst, path)
                rc = master.reduced_cost(col, clamped)
                assert cost == pytest.approx(rc, rel=1e-9, abs=1e-9)
                costs.append(cost)
            n_paths += len(costs)
            best, _, _ = solve(pricer.state_graph, alg)
            assert best == min(costs, default=math.inf)
    assert n_paths > 0


def test_session_rejects_cuts_on_connections_the_master_does_not_count():
    # the master counts a pairing's short connections only: a cut that
    # also holds day-crew connections is an input error when added, and the
    # session keeps its cuts
    from crewroute.generate import generate_instance
    from crewroute.pairing import PairingSession

    inst = generate_instance(n_airports=4, n_bases=2, n_legs=24,
                             n_aircraft=3, seed=0, rules_overrides={"T": 2})
    conns = build_connections(inst)
    uncut = solve_crew_pairing(inst)
    shorts = frozenset(k for p in uncut.pairings for k in p.shorts)
    assert shorts
    day_crew = frozenset(c.key for c in conns
                         if c.kind == ConnectionKind.DAY_CREW)
    cut = CutRow(shorts | day_crew, len(shorts) - 1)
    first = str(min(day_crew))
    session = PairingSession(inst, conns)
    with pytest.raises(ValueError, match=re.escape(first)):
        session.add_cut(cut)
    assert session.cuts == ()
    assert session.master.cut_rows == []


# ---------------------------------------------------------------------------
# decoding


def test_decode_round_trip(toy2):
    net = _networks(toy2)[0]
    alg = _algebra(toy2)
    net.graph.resources = arc_resources(net, toy2, alg, {})
    _, best_path, feas = brute_force_oracle(net.graph, alg)
    assert len(feas) == 1
    col = decode_pairing(net, toy2, best_path)
    assert col.legs == (0, 1)
    assert col.cost == pytest.approx(120.0 + 180.0)
    assert col.duties == ((0, 1),)
    assert col.nights == 0
    assert not col.is_long
    assert col.n_long_duties == 0 and col.n_short_duties == 1
    assert col.shorts == ()
    # the algebra cost of the path equals the decoded column cost when all
    # duals are zero
    assert feas[0][1] == pytest.approx(col.cost)


def test_windows_enumerate_exactly_the_rule_feasible_pairings():
    from crewroute.generate import generate_instance

    inst = generate_instance(n_airports=4, n_bases=2, n_legs=10,
                             n_aircraft=3, seed=8)
    conns = build_connections(inst)
    alg = _algebra(inst)
    decoded: dict[tuple, object] = {}
    for net in build_pricing_networks(inst, conns):
        net.graph.resources = arc_resources(net, inst, alg, {})
        _, _, feas = brute_force_oracle(net.graph, alg)
        for path, cost in feas:
            col = decode_pairing(net, inst, path)
            assert cost == pytest.approx(col.cost, abs=1e-9)
            decoded[col.legs] = col
    want = {p.legs: p for p in enumerate_pairings(inst, conns)}
    assert set(decoded) == set(want)
    for legs, col in decoded.items():
        p = want[legs]
        assert col.cost == pytest.approx(p.cost)
        assert col.duties == p.duties
        assert col.nights == p.nights
        assert col.n_long_duties == p.n_long_duties
        assert col.shorts == p.shorts


# ---------------------------------------------------------------------------
# master problem


def _col(legs, cost, nights=0, duties=None, n_long=0, shorts=()):
    return PairingColumn(legs=tuple(legs), cost=cost, nights=nights,
                         duties=duties or (tuple(legs),),
                         n_long_duties=n_long, shorts=tuple(shorts))


def test_master_row_layout(toy2):
    m = MasterProblem(toy2)
    assert m.lp.n_rows == 4
    assert m.lp.n_vars == 2
    var = m.add_column(_col((0, 1), 300.0))
    dense = m.lp.dense_matrix()
    assert dense[m.cover_row[0], var] == 1.0
    assert dense[m.cover_row[1], var] == 1.0
    assert dense[m.alpha_row, var] == pytest.approx(-0.5)
    assert dense[m.beta_row, var] == pytest.approx(-0.5)
    assert m.has_column((0, 1))
    with pytest.raises(ValueError, match="duplicate"):
        m.add_column(_col((0, 1), 300.0))


def test_master_alpha_coef_vanishes_when_alpha_one():
    inst = make_instance(
        [airport("CDG", base=True), airport("NCE")],
        [
            leg(0, "CDG", "NCE", minutes(0, 8), minutes(0, 9, 30)),
            leg(1, "NCE", "CDG", minutes(0, 11), minutes(0, 12, 30)),
        ],
        alpha=1.0,
    )
    m = MasterProblem(inst)
    var = m.add_column(_col((0, 1), 500.0, nights=3,
                            duties=((0,), (1,)), n_long=0))
    assert m.lp.dense_matrix()[m.alpha_row, var] == pytest.approx(0.0)


def test_master_cut_coefficients(toy2):
    cuts = (CutRow(frozenset({(0, 1), (2, 3)}), 1.0),
            CutRow(frozenset({(7, 8)}), 0.9))
    m = MasterProblem(toy2)
    for cut in cuts:
        m.add_cut(cut)
    assert m.lp.n_rows == 6
    var = m.add_column(_col((0, 1), 300.0, shorts=((0, 1), (2, 3))))
    dense = m.lp.dense_matrix()
    assert dense[m.cut_rows[0], var] == 2.0
    assert dense[m.cut_rows[1], var] == 0.0
    assert m.lp.rhs[m.cut_rows[0]] == 1.0
    assert m.lp.rhs[m.cut_rows[1]] == 0.9


def test_master_add_cut_gives_pooled_columns_their_coefficient(toy2):
    cut = CutRow(frozenset({(0, 1), (2, 3)}), 1.0)
    cols = (_col((0, 1), 300.0, shorts=((0, 1), (2, 3))),
            _col((1,), 200.0, shorts=((2, 3),)), _col((0,), 150.0))
    late = MasterProblem(toy2)
    for col in cols:
        late.add_column(col)
    row = late.add_cut(cut)
    assert row == late.cut_rows[0] == 4
    assert late.cuts == (cut,)
    early = MasterProblem(toy2)
    early.add_cut(cut)
    for col in cols:
        early.add_column(col)
    assert np.array_equal(late.lp.dense_matrix(), early.lp.dense_matrix())
    assert late.lp.rhs == early.lp.rhs
    assert late.lp.relations == early.lp.relations


def test_master_duals_and_reduced_cost(toy2):
    m = MasterProblem(toy2)
    m.add_cut(CutRow(frozenset({(0, 1)}), 1.0))
    col = _col((0, 1), 300.0, shorts=((0, 1),))
    m.add_column(col)
    # pricing solves the master with column bounds relaxed, as the
    # generation loop does, so an optimal basis prices its columns to zero
    relax = {v: (0.0, math.inf) for v in m.col_vars}
    sol = solve_lp(m.lp, bound_overrides=relax)
    assert sol.objective == pytest.approx(300.0)
    legs, mu, nu, sig = m.duals_of(sol.duals)
    assert set(legs) == {0, 1}
    # strong duality over the tight rows: cover rhs 1 each, cut rhs 1
    assert legs[0] + legs[1] + sig[0] == pytest.approx(300.0)
    assert mu <= 1e-9 and nu <= 1e-9 and all(s <= 1e-9 for s in sig)
    rc = m.reduced_cost(col, sol.duals)
    assert rc == pytest.approx(0.0, abs=1e-6)
    assert m.selected(sol.x) == [col]
    assert m.active_artificials(sol.x) == []


def test_artificials_cover_unpriced_legs(toy2):
    m = MasterProblem(toy2)
    sol = solve_lp(m.lp)
    assert m.active_artificials(sol.x) == [0, 1]
    assert sol.objective == pytest.approx(2 * artificial_cost(toy2))


# ---------------------------------------------------------------------------
# column generation end to end


def test_colgen_toy_unique_cover(toy2):
    res = solve_crew_pairing(toy2)
    assert res.status == "optimal"
    assert res.provably_optimal
    assert res.objective == pytest.approx(300.0)
    assert res.c_lb == pytest.approx(300.0, abs=1e-6)
    assert [p.legs for p in res.pairings] == [(0, 1)]
    assert res.uncovered_legs == []
    assert res.stats["pricing_rounds"] >= 1
    assert res.stats["kappa"]


def test_colgen_uncoverable(uncoverable):
    res = solve_crew_pairing(uncoverable)
    assert res.status == "infeasible"
    assert res.provably_optimal
    assert res.objective == math.inf
    assert res.uncovered_legs == [0, 1]
    assert res.as_dict()["objective"] is None


def test_colgen_matches_brute_force_batch():
    from crewroute.generate import generate_instance

    for seed in range(6):
        inst = generate_instance(n_airports=4, n_bases=2,
                                 n_legs=8 + (seed % 4), n_aircraft=3,
                                 seed=seed)
        conns = build_connections(inst)
        got = solve_crew_pairing(inst)
        want_status, want_obj, _ = crew_pairing_brute_force(inst, conns)
        assert got.status == want_status
        if want_status == "optimal":
            assert got.provably_optimal
            assert got.objective == pytest.approx(want_obj, abs=1e-6)
            covered = sorted(l for p in got.pairings for l in p.legs)
            assert covered == sorted(l.id for l in inst.legs)


def test_colgen_kappa_does_not_change_the_optimum():
    from crewroute.generate import generate_instance

    inst = generate_instance(n_airports=5, n_bases=2, n_legs=14,
                             n_aircraft=4, seed=21)
    res1 = solve_crew_pairing(inst, kappa=1)
    res50 = solve_crew_pairing(inst, kappa=50)
    assert res1.status == res50.status == "optimal"
    assert res1.objective == pytest.approx(res50.objective, abs=1e-6)


@pytest.mark.parametrize("kappa,counts", [(50, (513, 3, 387)),
                                          (1, (1162, 18, 811))])
def test_pricing_search_order_is_pinned(kappa, counts):
    # Exact label counts of one pricing round on a 60-leg week: a kernel
    # change that reorders the search (a different key, bound or clustering)
    # moves them. Round 1 prices under the all-artificial duals, so the LP's
    # floating-point rounding does not enter.
    from crewroute.generate import generate_instance

    inst = generate_instance(6, 2, 60, 6, 7)
    st = solve_crew_pairing(inst, kappa=kappa, max_rounds=1).stats
    assert (st["paths_enumerated"], st["cut_dom"], st["cut_low"]) == counts


def _repriced_windows(kappa, n_random=0):
    """The window pricers of a 60-leg week, repriced under fixed duals and
    then under ``n_random`` seeded random ones; yields the pricers once per
    dual set. No LP sets the duals, so solver rounding cannot move them."""
    import random

    from crewroute.generate import generate_instance
    from crewroute.pairing.colgen import PairingSession

    inst = generate_instance(6, 2, 60, 6, 7)
    session = PairingSession(inst, kappa=kappa)
    mu, nu = -1.5, -2.5
    duals = {l.id: 100.0 + 4 * (l.id % 7) for l in inst.legs}
    rng = random.Random(1)
    for i in range(1 + n_random):
        if i:
            mu, nu = -rng.randrange(64) / 4, -rng.randrange(64) / 4
            duals = {l.id: rng.randrange(800) / 4 for l in inst.legs}
        alg = session.base_algebra.with_duals(mu, nu)
        for pricer in session.pricers:
            pricer.reprice(alg, duals, {})
        yield session.pricers


_COMPLETION_PINS = {
    # per window: entries, sha256 prefix of their (arc path, cost) list in
    # order, labels popped, Low cuts, truncated
    50: [(2257, "e14cccc13b31", 15413, 3918, False),
         (211, "2478eae7ff46", 1625, 501, False),
         (65, "e4346e079809", 460, 162, False),
         (3, "5e9a1bd2c323", 30, 12, False),
         (0, "4f53cda18c2b", 1, 1, False),
         (0, "4f53cda18c2b", 16, 15, False),
         (131, "3b62794ff7ba", 859, 306, False)],
    1: [(2257, "3e9c33fa65f7", 15980, 4202, False),
        (211, "a530ce067a76", 1657, 517, False),
        (65, "e4346e079809", 466, 164, False),
        (3, "5e9a1bd2c323", 30, 12, False),
        (0, "4f53cda18c2b", 14, 9, False),
        (0, "4f53cda18c2b", 31, 23, False),
        (131, "4789b91facc9", 1360, 489, False)],
}


@pytest.mark.parametrize("kappa", sorted(_COMPLETION_PINS))
def test_completion_enumeration_is_pinned(kappa):
    # Gap completion's enumeration of every window of a 60-leg week after
    # one reprice under fixed duals, at one threshold: the order in which
    # the search emits the paths within it and its work counters. The duals
    # are fixed rather than taken from an LP, so solver rounding cannot
    # move them.
    import hashlib

    from crewroute.rcsp import enumerate_within

    got = []
    for pricer in next(_repriced_windows(kappa)):
        sg = pricer.state_graph
        entries, st = enumerate_within(sg, sg.ordered_for, 25.0)
        listed = repr([(path, cost) for path, _q, cost in entries])
        got.append((len(entries),
                    hashlib.sha256(listed.encode()).hexdigest()[:12],
                    st.paths_enumerated, st.cut_low, st.truncated))
    assert got == _COMPLETION_PINS[kappa]


@pytest.mark.parametrize("kappa", [1, 50])
def test_search_counters_match_reference_loop(kappa):
    # The loop that skips the labels keyed above its bound ends as the loop
    # that pushes and pops them all, counters included: pricing with and
    # without Low and the incumbent, completion, and a completion whose
    # path limit truncates, on every window of a 60-leg week under the
    # fixed duals of the completion pins and one random dual set.
    from crewroute.pairing.colgen import PRICING_TOL
    from crewroute.rcsp import enumerate_within, solve
    from rcsp_reference import reference_arc_path, reference_search

    def counters(st):
        return (st.paths_enumerated, st.cut_dom, st.cut_low, st.truncated)

    truncated = 0
    for pricers in _repriced_windows(kappa, n_random=1):
        for pricer in pricers:
            sg = pricer.state_graph
            alg = sg.ordered_for
            for tests in (("dom", "low"), ("dom",), ("low",)):
                for ub in (math.inf, -PRICING_TOL):
                    cost, path, st = solve(sg, alg, tests, ub)
                    ref_ub, ref_best, ref_st = reference_search(
                        sg, alg, ub, None, "dom" in tests, "low" in tests)
                    if ref_best is None:
                        assert (cost, path) == (math.inf, None)
                    else:
                        assert (cost, path) == (
                            ref_ub, reference_arc_path(ref_best))
                    assert counters(st) == counters(ref_st)
            for limit in (200_000, 100):
                found, st = enumerate_within(sg, alg, 25.0, limit)
                ref_found = []
                _, _, ref_st = reference_search(sg, alg, 25.0, ref_found,
                                                False, True, limit)
                assert repr(found) == repr(ref_found)
                assert counters(st) == counters(ref_st)
                truncated += st.truncated
    assert truncated > 0


def test_dominance_keeps_the_optimum_on_real_windows():
    # Dom may only discard labels, never the optimum: on every window of a
    # 60-leg week, under the fixed duals of the completion pins and nine
    # random dual sets, with and without the pricing incumbent, the search
    # with Dom and Low finds the cost that Low alone finds.
    from crewroute.pairing.colgen import PRICING_TOL
    from crewroute.rcsp import solve

    cut_dom = 0
    for kappa in (1, 50):
        for pricers in _repriced_windows(kappa, n_random=9):
            for pricer in pricers:
                sg = pricer.state_graph
                alg = sg.ordered_for
                for ub in (math.inf, -PRICING_TOL):
                    cost, _, st = solve(sg, alg, initial_ub=ub)
                    assert cost == solve(sg, alg, tests=("low",),
                                         initial_ub=ub)[0]
                    cut_dom += st.cut_dom
    assert cut_dom > 0  # Dom fired, so the check is not vacuous


def test_colgen_lp_values_non_increasing(toy2):
    from crewroute.generate import generate_instance

    inst = generate_instance(n_airports=4, n_bases=1, n_legs=12,
                             n_aircraft=3, seed=2)
    res = solve_crew_pairing(inst)
    vals = res.stats["lp_values"]
    assert vals
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-6
    assert res.c_lb is not None
    assert res.c_lb <= res.objective + 1e-6


def test_colgen_report_shape(toy2):
    res = solve_crew_pairing(toy2)
    d = res.as_dict()
    assert d["status"] == "optimal"
    assert d["pairings"][0]["legs"] == [0, 1]
    assert "cg_iterations" in d["stats"]
    assert "runtime_ms" not in d["stats"]


def test_completion_skipped_when_first_mip_closes_the_gap(monkeypatch):
    # the first MIP is artificial-free and meets the LP bound, so it is the
    # proven optimum: no column is enumerated and no second MIP runs
    from crewroute.generate import generate_instance
    from crewroute.pairing import colgen

    mips = []

    def counted(*args, **kwargs):
        mips.append(1)
        return colgen_solve_mip(*args, **kwargs)

    colgen_solve_mip = colgen.solve_mip
    monkeypatch.setattr(colgen, "solve_mip", counted)
    res = solve_crew_pairing(generate_instance(6, 2, 60, 6, 9))
    assert res.status == "optimal"
    assert res.provably_optimal
    assert res.objective == pytest.approx(7685.0)
    assert res.stats["columns_completion"] == 0
    assert res.c_ub_initial == res.objective
    assert res.c_ub_initial <= res.c_lb + colgen.COMPLETION_PAD
    assert len(mips) == 1
