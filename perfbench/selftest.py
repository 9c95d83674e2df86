"""Show that every output check rejects a deliberately corrupted output.

    python3 perfbench/selftest.py

Solves a few small weeks, confirms that the real outputs pass, then breaks
one property at a time and expects ``CheckFailed``. Exits 1 if any
corruption goes unnoticed. Takes about 10 s.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import (  # noqa: E402  (after the path set-up)
    CHECKS,
    CheckFailed,
    check_cover_optimum,
    check_cut_rejected,
    check_fleet_minimum,
    check_no_cover,
    check_pairings,
    check_routes,
    check_shorts_flown,
)
from workloads import CUT_RULES, CUT_WEEK, Call  # noqa: E402


def variant(inst, **changes):
    """The instance with some rule or airport fields changed."""
    from crewroute import instance_from_dict, instance_to_dict

    d = instance_to_dict(inst)
    for key, value in changes.items():
        if key == "airports":
            for a in d["airports"]:
                a.update(value(a))
        else:
            d["rules"][key] = value
    return instance_from_dict(d)


def edit(obj, fn):
    out = copy.deepcopy(obj)
    fn(out)
    return out


def with_pairing(res, fn):
    """Copy of an integrated result whose first pairing is passed to fn."""
    out = copy.deepcopy(res)
    ps = out.pairing.pairings
    ps[0] = fn(ps[0])
    return out


def cases():
    from crewroute import generate_instance
    from crewroute.integrated import solve_integrated
    from crewroute.pairing import solve_crew_pairing
    from crewroute.routing import solve_routing

    route_inst = generate_instance(6, 2, 40, 4, 7)
    route = Call("route", "route", route_inst, None, fleet=route_inst.rules.n_a)
    r = solve_routing(route_inst)
    yield "route output", lambda: CHECKS["route"](route, r), False
    n = r.n_aircraft
    long_route = max(range(len(r.routes)), key=lambda i: len(r.routes[i].legs))

    def swap(x):
        legs = x.routes[long_route].legs
        legs[0], legs[1] = legs[1], legs[0]

    yield ("route: leg dropped", lambda: check_routes(
        route_inst, edit(r, lambda x: x.routes[long_route].legs.pop()).routes,
        n), True)
    yield ("route: legs out of order", lambda: check_routes(
        route_inst, edit(r, swap).routes, n), True)
    yield ("route: turn below the airport minimum", lambda: check_routes(
        variant(route_inst, airports=lambda a: {"min_airplane_turn": 600}),
        r.routes, n), True)
    yield ("route: maintenance interval exceeded", lambda: check_routes(
        variant(route_inst, T=1), r.routes, n), True)
    yield ("route: week span misreported", lambda: check_routes(
        route_inst, edit(r, lambda x: setattr(
            x.routes[0], "week_span", x.routes[0].week_span + 1)).routes,
        n + 1), True)
    yield ("route: aircraft count misreported", lambda: check_routes(
        route_inst, r.routes, n + 1), True)
    yield ("route: fleet exceeded", lambda: check_routes(
        route_inst, r.routes, n, fleet=n - 1), True)
    yield ("route: fleet minimum not minimal", lambda: check_fleet_minimum(
        route_inst, n + 1), True)
    yield ("route: limit status", lambda: CHECKS["route"](
        route, edit(r, lambda x: setattr(x, "status", "limit"))), True)

    price_inst = generate_instance(6, 2, 40, 4, 7)
    price = Call("price", "pair", price_inst, None, rounds=2)
    p = solve_crew_pairing(price_inst, max_rounds=2)
    yield "pricing output", lambda: CHECKS["pair"](price, p), False
    yield ("pricing: ended before its cap", lambda: CHECKS["pair"](
        price, edit(p, lambda x: setattr(x, "status", "optimal"))), True)
    yield ("pricing: round count", lambda: CHECKS["pair"](
        price, edit(p, lambda x: setattr(x, "iterations", 1))), True)
    yield ("pricing: master LP value rose", lambda: CHECKS["pair"](
        price, edit(p, lambda x: x.stats["lp_values"].__setitem__(
            1, x.stats["lp_values"][0] * 1.001 + 1.0))), True)
    yield ("pricing: a round added no column", lambda: CHECKS["pair"](
        price, edit(p, lambda x: x.stats.__setitem__(
            "columns_priced", 1))), True)

    opt_inst = generate_instance(**CUT_WEEK, seed=0, rules_overrides=CUT_RULES)
    opt = Call("optimal", "integrated", opt_inst, None)
    o = solve_integrated(opt_inst, gamma=1.0)
    yield "integrated optimal output", lambda: CHECKS["integrated"](opt, o), False
    pairs, obj = o.pairing.pairings, o.objective
    with_short = next(i for i, q in enumerate(pairs) if q.shorts)
    multi_leg = next(i for i, q in enumerate(pairs)
                     if any(len(d) > 1 for d in q.duties))
    assert any(q.nights for q in pairs)

    def replaced(i, **changes):
        out = list(pairs)
        out[i] = dataclasses.replace(out[i], **changes)
        return out

    def swapped_duty(q):
        d = next(j for j, d in enumerate(q.duties) if len(d) > 1)
        duty = list(q.duties[d])
        duty[0], duty[1] = duty[1], duty[0]
        duties = list(q.duties)
        duties[d] = tuple(duty)
        return dataclasses.replace(
            q, duties=tuple(duties),
            legs=tuple(leg for t in duties for leg in t))

    yield ("pairing: cost misreported", lambda: check_pairings(
        opt_inst, replaced(0, cost=pairs[0].cost + 1), obj + 1), True)
    yield ("pairing: objective not the sum of costs", lambda: check_pairings(
        opt_inst, pairs, obj + 1), True)
    yield ("pairing: leg left uncovered", lambda: check_pairings(
        opt_inst, pairs[1:], obj - pairs[0].cost), True)
    yield ("pairing: not based at both ends", lambda: check_pairings(
        variant(opt_inst, airports=lambda a: {"is_base": a["code"] == "A03"}),
        pairs, obj), True)
    yield ("pairing: illegal crew connection", lambda: check_pairings(
        opt_inst, [swapped_duty(q) if i == multi_leg else q
                   for i, q in enumerate(pairs)], obj), True)
    yield ("pairing: too many legs in a duty", lambda: check_pairings(
        variant(opt_inst, max_legs_per_duty=1, reduced_rest_max_legs=1),
        pairs, obj), True)
    yield ("pairing: flying limit exceeded", lambda: check_pairings(
        variant(opt_inst, F_table=[{"from_hour": 0, "to_hour": 24,
                                    "limit_minutes": 60}]),
        pairs, obj), True)
    yield ("pairing: too many days", lambda: check_pairings(
        variant(opt_inst, max_pairing_days=1), pairs, obj), True)
    yield ("pairing: short connection unreported", lambda: check_pairings(
        opt_inst, replaced(with_short, shorts=()), obj), True)
    yield ("routes: short connection not flown", lambda: check_shorts_flown(
        [dataclasses.replace(rt, legs=list(reversed(rt.legs)))
         for rt in o.routing.routes], pairs), True)
    yield ("pairing: HiGHS optimum differs", lambda: check_cover_optimum(
        opt_inst, o.cuts, obj + 1), True)

    cut_inst = generate_instance(**CUT_WEEK, seed=5, rules_overrides=CUT_RULES)
    cut = Call("proof", "integrated", cut_inst, None)
    c = solve_integrated(cut_inst, gamma=1.0)
    yield "integrated infeasible output", lambda: CHECKS["integrated"](cut, c), False
    flown = frozenset(k for q in pairs for k in q.shorts)
    yield ("proof: last cut dropped", lambda: check_no_cover(
        cut_inst, c.cuts[:-1]), True)
    yield ("proof: rejected set is flyable", lambda: check_cut_rejected(
        opt_inst, flown), True)
    yield ("proof: status without a proof", lambda: CHECKS["integrated"](
        cut, edit(c, lambda x: setattr(x, "provably_optimal", False))), True)
    yield ("proof: iterations misreported", lambda: CHECKS["integrated"](
        cut, edit(c, lambda x: setattr(x, "iterations", x.iterations + 1))),
        True)


def main() -> int:
    bad = 0
    for label, run, corrupted in cases():
        try:
            run()
            ok = not corrupted
            why = "passes" if ok else "NOT REJECTED"
        except CheckFailed as exc:
            ok = corrupted
            why = f"rejected: {exc}" if ok else f"WRONGLY REJECTED: {exc}"
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {label}: {why}")
    print(f"{bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
