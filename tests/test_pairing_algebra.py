"""Duty-rule monoid: hand-checked combinations, order laws, cost functional."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    check_laws,
    check_monotone,
    dyadic,
    random_pairing_dag,
    random_resource,
    small_pairing_algebra,
    worsen,
)
from crewroute.pairing.algebra import (
    BOT,
    TOP,
    PairingAlgebra,
    multi_core,
    one_core,
)
from crewroute.rcsp import (
    AdditiveCapacityAlgebra,
    ResourceAlgebra,
    build_state_graph,
    update_bounds,
)
from rcsp_reference import reference_meet_of_combines


def _alg(**kw) -> PairingAlgebra:
    args = {"max_duty_legs": 4, "f_max": 480, "alpha": 0.5, "beta": 0.5}
    args.update(kw)
    return PairingAlgebra(**args)


def _q(core, z=0.0, nights=0, rests=0):
    return (core, z, nights, rests)


# ---------------------------------------------------------------------------
# combine on cores


def test_open_duty_extends():
    alg = _alg()
    got = alg.combine(_q(one_core(1, 60), z=1.0), _q(one_core(1, 90), z=2.0))
    assert got == _q(one_core(2, 150), z=3.0)


def test_merged_middle_duty_overflow_is_top():
    alg = _alg()
    q1 = _q(multi_core(2, 100, 3, 200, 0))
    q2 = _q(multi_core(2, 50, 1, 30, 0))
    # the merged middle duty would carry 3 + 2 = 5 legs
    assert alg.combine(q1, q2)[0] == TOP
    assert alg.infeasible(alg.combine(q1, q2))


def test_merged_middle_duty_short():
    alg = _alg(f_max=600)
    q1 = _q(multi_core(1, 60, 1, 30, 0))
    q2 = _q(multi_core(2, 50, 1, 30, 0))
    got = alg.combine(q1, q2)
    # 1 + 2 = 3 legs is not long, so the long-middle counter stays at zero
    assert got[0] == multi_core(1, 60, 1, 30, 0)


def test_merged_middle_duty_long():
    alg = _alg(f_max=600)
    q1 = _q(multi_core(1, 60, 2, 30, 0))
    q2 = _q(multi_core(2, 50, 1, 30, 1))
    got = alg.combine(q1, q2)
    assert got[0] == multi_core(1, 60, 1, 30, 2)


def test_open_duty_closes_into_multi():
    alg = _alg()
    got = alg.combine(_q(one_core(2, 100)), _q(multi_core(1, 50, 1, 30, 0)))
    assert got[0] == multi_core(3, 150, 1, 30, 0)
    got = alg.combine(_q(multi_core(1, 50, 1, 30, 0)), _q(one_core(2, 100)))
    assert got[0] == multi_core(1, 50, 3, 130, 0)


def test_counters_add():
    alg = _alg()
    q1 = (one_core(1, 60), 1.5, 1, 1)
    q2 = (one_core(1, 30), 2.5, 2, 1)
    assert alg.combine(q1, q2) == (one_core(2, 90), 4.0, 3, 2)


def test_neutral_identity_examples():
    alg = _alg()
    e = alg.neutral
    assert e == (one_core(0, 0), 0.0, 0, 0)
    q = (multi_core(1, 10, 2, 20, 1), 5.0, 2, 1)
    assert alg.combine(e, q) == q
    assert alg.combine(q, e) == q


# ---------------------------------------------------------------------------
# feasibility predicate


def test_infeasibility_boundaries():
    alg = _alg()
    assert alg.infeasible(_q(one_core(5, 0)))
    assert not alg.infeasible(_q(one_core(4, 480)))
    assert alg.infeasible(_q(one_core(4, 481)))
    assert alg.infeasible(_q(TOP))
    assert not alg.infeasible(_q(BOT))
    assert alg.infeasible(_q(multi_core(5, 0, 1, 0, 0)))
    assert alg.infeasible(_q(multi_core(1, 0, 1, 481, 0)))
    assert not alg.infeasible(_q(multi_core(4, 480, 4, 480, 9)))


# ---------------------------------------------------------------------------
# cost functional


def test_cost_without_duals_is_z():
    alg = _alg()
    assert alg.cost(_q(one_core(2, 100), z=7.25)) == 7.25
    assert alg.cost(_q(TOP, z=7.25)) == math.inf


def test_cost_long_pairing_dual():
    alg = _alg(alpha=0.2, mu=-10.0)
    # mu * alpha applies to every column; the full -mu only to long pairings
    assert alg.cost(_q(one_core(1, 50), z=3.0, nights=3)) \
        == pytest.approx(3.0 - 2.0 + 10.0)
    assert alg.cost(_q(one_core(1, 50), z=3.0, nights=2)) \
        == pytest.approx(3.0 - 2.0)


def test_cost_neutral_carries_dual_constants():
    alg = _alg(alpha=0.2, mu=-10.0, nu=0.0)
    assert alg.cost(alg.neutral) == pytest.approx(-2.0)
    alg2 = _alg(alpha=0.2, beta=0.5, mu=-10.0, nu=-3.0)
    assert alg2.cost(alg2.neutral) == pytest.approx(-2.0 + (-3.0) * 0.5)


def test_cost_long_duty_balance():
    alg = _alg(beta=0.5, nu=-1.0)
    # one long duty among three duties: g - beta * duties = 1 - 1.5
    q = _q(multi_core(4, 100, 1, 50, 0), z=0.0, rests=2)
    assert alg.cost(q) == pytest.approx(-0.5)


def test_cost_counts_long_duties_everywhere():
    alg = _alg(nu=-1.0, beta=0.0)
    # with nu = -1 and beta = 0 the cost is the long-duty count
    assert alg.cost(_q(one_core(4, 0))) == pytest.approx(1.0)
    assert alg.cost(_q(one_core(3, 0))) == pytest.approx(0.0)
    assert alg.cost(_q(multi_core(4, 0, 4, 0, 2))) == pytest.approx(4.0)


def test_duals_clamped_non_positive():
    alg = PairingAlgebra(4, 480, 0.5, 0.5, mu=5.0, nu=3.0)
    assert alg.mu == 0.0 and alg.nu == 0.0


def test_with_duals_rebinds_only_prices():
    alg = _alg()
    alg2 = alg.with_duals(mu=-2.0, nu=-1.0)
    assert (alg2.max_duty_legs, alg2.f_max) == (4, 480)
    assert (alg2.mu, alg2.nu) == (-2.0, -1.0)


# ---------------------------------------------------------------------------
# order structure


def test_rest_order_is_reversed():
    alg = _alg()
    better = _q(one_core(1, 10), rests=3)
    worse = _q(one_core(1, 10), rests=1)
    assert alg.leq(better, worse)
    assert not alg.leq(worse, better)
    assert alg.meet(better, worse)[3] == 3
    assert alg.join(better, worse)[3] == 1


def test_incomparable_cores_meet_to_extremes():
    alg = _alg()
    q1 = _q(one_core(1, 10))
    q2 = _q(multi_core(1, 10, 1, 10, 0))
    assert not alg.leq(q1, q2) and not alg.leq(q2, q1)
    assert alg.meet(q1, q2)[0] == BOT
    assert alg.join(q1, q2)[0] == TOP


_CORES = st.one_of(
    st.just(BOT),
    st.just(TOP),
    st.builds(one_core, st.integers(0, 5), st.integers(0, 70)),
    st.builds(multi_core, st.integers(0, 5), st.integers(0, 70),
              st.integers(0, 5), st.integers(0, 70), st.integers(0, 2)),
)
_RESOURCES = st.tuples(
    _CORES,
    st.integers(-2048, 2048).map(lambda v: v / 256.0),
    st.integers(0, 4),
    st.integers(0, 4),
)


@settings(max_examples=300, deadline=None)
@given(_RESOURCES, _RESOURCES, _RESOURCES)
def test_lattice_monoid_laws(q1, q2, q3):
    alg = PairingAlgebra(4, 60, 0.5, 0.5, mu=-3.25, nu=-1.5)
    check_laws(alg, q1, q2, q3)


def test_monotone_under_constructed_pairs():
    rng = random.Random(123)
    alg = small_pairing_algebra(rng)
    for _ in range(2000):
        q1 = random_resource(rng)
        check_monotone(alg, q1, worsen(rng, q1), random_resource(rng))


def test_additive_algebra_laws_random():
    rng = random.Random(9)
    alg = AdditiveCapacityAlgebra(7)
    for _ in range(2000):
        qs = [(rng.randrange(-1024, 1025) / 256.0, rng.randrange(0, 9))
              for _ in range(3)]
        check_laws(alg, *qs)
        q1 = qs[0]
        q2 = (q1[0] + rng.randrange(0, 129) / 128.0, q1[1] + rng.randrange(0, 3))
        check_monotone(alg, q1, q2, qs[2])


def _check_split(alg, free, q1, q2, a, b):
    """Scalar split laws; ``free`` is the same algebra without duals."""
    assert alg.scalar(alg.with_scalar(q1, a)) == a
    assert alg.with_scalar(q1, alg.scalar(q1)) == q1
    s1, s2 = alg.with_scalar(q1, a), alg.with_scalar(q2, b)
    assert alg.combine(s1, s2) == alg.with_scalar(alg.combine(q1, q2), a + b)
    assert alg.meet(s1, s2) == alg.with_scalar(alg.meet(q1, q2), min(a, b))
    assert alg.is_top(alg.meet(q1, q2)) == (alg.is_top(q1) and alg.is_top(q2))
    want = math.inf if alg.is_top(q1) else alg.scalar(q1)
    assert free.cost(q1) == want


def test_scalar_split_laws_random():
    # the scalar is the only component that moves with the duals: combine
    # adds it, meet takes its minimum, the rest never depends on it, and
    # without duals the cost is the scalar unless the structure is top
    rng = random.Random(23)
    free = small_pairing_algebra()
    for _ in range(300):
        q1, q2 = random_resource(rng), random_resource(rng)
        assert free.is_top(q1) == (q1[0] == TOP)
        _check_split(small_pairing_algebra(rng), free, q1, q2,
                     dyadic(rng), dyadic(rng))
    add = AdditiveCapacityAlgebra(7)
    for _ in range(300):
        q1 = (dyadic(rng), rng.randrange(0, 9))
        q2 = (dyadic(rng), rng.randrange(0, 9))
        _check_split(add, add, q1, q2, dyadic(rng), dyadic(rng))


def _off_grid(rng, q):
    """q with a z that is not a dyadic rational, so float order shows."""
    return q[:1] + (rng.uniform(-40.0, 40.0),) + q[2:]


def test_completion_cost_matches_reference_bit_for_bit():
    # the fused loop must return the reference's float exactly: cores of
    # every type (BOT, TOP, overflowing ones), empty bound lists,
    # and duals and costs off the dyadic grid, where any change in the order
    # of the float operations would show in the last bits
    rng = random.Random(31)
    for trial in range(300):
        if trial % 3:
            alg = small_pairing_algebra(rng)
        else:
            alg = PairingAlgebra(4, 480, rng.random(), rng.random(),
                                 mu=-rng.uniform(0, 50),
                                 nu=-rng.uniform(0, 50))
        bounds = [random_resource(rng) for _ in range(60)]
        bounds += [_off_grid(rng, q) for q in bounds[:30]]
        for _ in range(10):
            q = random_resource(rng)
            if rng.random() < 0.5:
                q = _off_grid(rng, q)
            for k in (0, 1, 2, rng.randrange(3, 61)):
                states = rng.sample(range(len(bounds)), k)
                got = alg.completion_cost(q, bounds, states)
                want = ResourceAlgebra.completion_cost(alg, q, bounds, states)
                assert repr(got) == repr(want), (q, states)
    assert alg.completion_cost(q, bounds, []) == math.inf


# ---------------------------------------------------------------------------
# the state-graph build kernels and the ordered completion scan


def test_build_kernels_match_reference_bit_for_bit():
    # the array kernels of the clustered build against combine, scalar,
    # is_top and the reference meet fold: BOT, TOP and MULTI cores on both
    # sides, z off the dyadic grid and z of both zero signs, runs of one
    # member
    rng = random.Random(43)
    for _ in range(300):
        alg = small_pairing_algebra(rng)
        resources = [random_resource(rng) for _ in range(8)]
        bounds = [random_resource(rng) for _ in range(12)]
        resources += [_off_grid(rng, q) for q in resources[:4]]
        bounds += [_off_grid(rng, q) for q in bounds[:6]]
        bounds += [alg.with_scalar(q, rng.choice((0.0, -0.0)))
                   for q in bounds[:6]]
        resources += [alg.with_scalar(q, -0.0) for q in resources[:2]]
        for k in (1, 2, rng.randrange(3, 40)):
            cands = sorted((rng.randrange(len(resources)),
                            rng.randrange(len(bounds))) for _ in range(k))
            arcs = [resources[a] for a, _ in cands]
            ends = [bounds[s] for _, s in cands]
            assert repr(alg.from_array(alg.to_array(arcs))) == repr(arcs)
            combined = alg.combine_array(alg.to_array(arcs),
                                         alg.to_array(ends))
            want = [alg.combine(a, b) for a, b in zip(arcs, ends)]
            assert repr(alg.from_array(combined)) == repr(want)
            scalars, tops = alg.candidate_keys(combined)
            assert scalars.tolist() == [alg.scalar(q) for q in want]
            assert tops.tolist() == [alg.is_top(q) for q in want]
            cuts = sorted(rng.sample(range(1, k), rng.randrange(k)))
            starts = np.array([0] + cuts)
            met = alg.from_array(alg.meet_runs(combined, starts))
            assert repr(met) == repr([
                reference_meet_of_combines(alg, resources, bounds,
                                           cands[a:b])
                for a, b in zip([0] + cuts, cuts + [k])])


def _scan_agrees(alg, q, bounds, states):
    """The ordered scan over ``states`` sorted by floor returns the
    reference's float over ``states`` as given."""
    floors = alg.floors(bounds)
    ordered = sorted(states, key=floors.__getitem__)
    got = alg.completion_cost(q, bounds, ordered, True)
    want = ResourceAlgebra.completion_cost(alg, q, bounds, states)
    assert repr(got) == repr(want), (q, states)
    return want


def test_ordered_scan_matches_reference_after_update_bounds():
    # update_bounds sorts each vertex's states by floor under the round's
    # duals; the search's early-stopping keys must equal the reference over
    # the build order for every label the search could push
    rng = random.Random(47)
    for trial in range(40):
        g = random_pairing_dag(rng)
        base = small_pairing_algebra()
        sg = build_state_graph(g, base, rng.choice((2, 3, 50)))
        built = [list(states) for states in sg.states_of]
        for _ in range(3):
            alg = small_pairing_algebra(rng) if trial % 2 else PairingAlgebra(
                4, 480, rng.random(), rng.random(),
                mu=-rng.uniform(0, 50), nu=-rng.uniform(0, 50))
            z = [dyadic(rng) for _ in g.arcs]
            update_bounds(sg, z, alg)
            assert sg.ordered_for is alg
            floors = alg.floors(sg.bounds)
            for v in g.kept:
                states = sg.states_of[v]
                assert sorted(states) == sorted(built[v])
                assert [floors[s] for s in states] == sorted(
                    floors[s] for s in states)
                for _ in range(5):
                    q = random_resource(rng)
                    if rng.random() < 0.5:
                        q = _off_grid(rng, q)
                    got = alg.completion_cost(q, sg.bounds, states, True)
                    want = ResourceAlgebra.completion_cost(
                        alg, q, sg.bounds, built[v])
                    assert repr(got) == repr(want)


def test_ordered_scan_with_limit():
    # a key of at most the limit is the reference's float, bit for bit;
    # above it, the scan may stop early but returns a value above it
    rng = random.Random(59)
    for _ in range(400):
        alg = PairingAlgebra(4, 480, rng.random(), rng.random(),
                             mu=-rng.uniform(0, 50), nu=-rng.uniform(0, 50))
        bounds = [random_resource(rng) for _ in range(30)]
        bounds += [_off_grid(rng, q) for q in bounds[:15]]
        q = random_resource(rng)
        if rng.random() < 0.5:
            q = _off_grid(rng, q)
        states = rng.sample(range(len(bounds)), rng.randrange(0, 25))
        floors = alg.floors(bounds)
        ordered = sorted(states, key=floors.__getitem__)
        want = ResourceAlgebra.completion_cost(alg, q, bounds, states)
        for limit in (want, math.nextafter(want, -math.inf), want + 1.0,
                      want - 1.0, -math.inf, math.inf,
                      rng.uniform(-100.0, 100.0)):
            got = alg.completion_cost(q, bounds, ordered, True, limit)
            if want <= limit:
                assert repr(got) == repr(want), (q, states, limit)
            else:
                assert got > limit, (q, states, limit)


def test_ordered_scan_edge_cases():
    alg = _alg(mu=-3.0, nu=-2.0)
    ok = one_core(1, 60)
    # duals that reverse the build order: z falls along the list, so the
    # floor order is the list reversed and the cheapest state comes last
    bounds = [_q(ok, z=10.0 - i, rests=1) for i in range(8)]
    assert _scan_agrees(alg, _q(ok), bounds, range(8)) == \
        alg.cost(alg.combine(_q(ok), bounds[7]))
    # a BOT label against a TOP bound has a finite cost, and the TOP bound
    # with the lowest floor must not be skipped
    bounds = [_q(TOP, z=-5.0), _q(ok, z=4.0), _q(TOP, z=9.0)]
    got = _scan_agrees(alg, _q(BOT, z=1.0), bounds, range(3))
    assert got == alg.cost(alg.combine(_q(BOT, z=1.0), bounds[0]))
    assert math.isfinite(got)
    # floors within the margin of the best: states an ulp or a rounding
    # apart, where only the extra terms (long duties, nights) differ
    rng = random.Random(53)
    for _ in range(200):
        alg = PairingAlgebra(4, 480, rng.random(), rng.random(),
                             mu=-rng.uniform(0, 5), nu=-rng.uniform(0, 5))
        z0 = rng.uniform(-100.0, 100.0)
        bounds = []
        for _ in range(12):
            z = z0
            for _ in range(rng.randrange(0, 3)):
                z = math.nextafter(z, rng.choice((-math.inf, math.inf)))
            core = rng.choice((ok, multi_core(1, 60, 4, 60, 0), BOT, TOP))
            bounds.append(_q(core, z=z, nights=rng.randrange(0, 4),
                             rests=rng.randrange(0, 2)))
        q = _q(rng.choice((ok, BOT)), z=rng.uniform(-100.0, 100.0),
               rests=rng.randrange(0, 3))
        _scan_agrees(alg, q, bounds, range(len(bounds)))
