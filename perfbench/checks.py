"""Independent checks of solver outputs.

Routes and pairings are replayed from the raw leg times and the rule set,
with no solver code. The fleet minimum, every rejected cut set and every
gamma=1 proof are cross-checked with HiGHS (``scipy.optimize.milp``) on
models built here. No check compares against a stored copy of an output.
"""

from __future__ import annotations

import math

import numpy as np

WEEK = 7 * 24 * 60
DAY = 24 * 60
TOL = 1e-6


class CheckFailed(Exception):
    """A solver output broke a property every correct output has."""


def need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _gap(arr: int, dep: int) -> int:
    return (dep - arr) % WEEK


def _midnights(arr: int, gap: int) -> int:
    return (arr + gap) // DAY - arr // DAY


def _min_turn(inst, airport: str) -> int:
    return max(inst.rules.short_band[0],
               inst.airport(airport).min_airplane_turn)


def _flying_limit(rules, dep_time: int) -> int:
    hour = (dep_time % DAY) // 60
    for band in rules.F_table:
        if band.from_hour <= hour < band.to_hour:
            return band.limit_minutes
    return max(band.limit_minutes for band in rules.F_table)


# ---------------------------------------------------------------------------
# Routing


def check_routes(inst, routes, n_aircraft, fleet=None) -> None:
    """Replay routes (``.legs`` cycles, ``.week_span``) from raw leg times."""
    legs = {l.id: l for l in inst.legs}
    flown = sorted(leg for r in routes for leg in r.legs)
    need(flown == sorted(legs), "routes do not fly every leg exactly once")
    total = 0
    for r in routes:
        cycle = list(r.legs)
        minutes = 0
        nights = []  # (midnights, at a base) after each leg of the cycle
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            la, lb = legs[a], legs[b]
            need(la.arr_airport == lb.dep_airport,
                 f"route breaks between legs {a} and {b}")
            gap = _gap(la.arr_time, lb.dep_time)
            need(gap >= _min_turn(inst, la.arr_airport),
                 f"turn {a}->{b} of {gap} min is below the airport minimum")
            minutes += la.arr_time - la.dep_time + gap
            nights.append((_midnights(la.arr_time, gap),
                           inst.airport(la.arr_airport).is_base))
        need(minutes % WEEK == 0 and minutes // WEEK == r.week_span,
             f"route {cycle} lasts {minutes} min, not {r.week_span} weeks")
        total += r.week_span
        base_nights = [i for i, (m, base) in enumerate(nights) if m and base]
        need(bool(base_nights), f"route {cycle} never rests at a base")
        days, start = 1, base_nights[0]
        for j in range(1, len(nights) + 1):
            m, base = nights[(start + j) % len(nights)]
            if m == 0:
                continue
            days = 1 if base else days + m
            need(days <= inst.rules.T,
                 f"route {cycle} goes {days} days without a base night")
    need(total == n_aircraft,
         f"week spans sum to {total}, but {n_aircraft} aircraft reported")
    if fleet is not None:
        need(total <= fleet, f"{total} aircraft exceed the fleet of {fleet}")


def _routing_milp(inst, forced=(), budget=None):
    """Arc-flow routing MIP over (leg, days since a base night), via HiGHS.

    Each arc weighs its tail's flight plus ground time in weeks, so a cycle
    weighs the number of aircraft it needs. Returns the scipy result.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    legs = sorted(inst.legs, key=lambda l: l.id)
    t_max = inst.rules.T
    vertex = {(l.id, k): i for i, (l, k) in enumerate(
        (l, k) for l in legs for k in range(1, t_max + 1))}
    tails, heads, weight, pair = [], [], [], []
    for la in legs:
        base = inst.airport(la.arr_airport).is_base
        for lb in legs:
            if lb.id == la.id or lb.dep_airport != la.arr_airport:
                continue
            gap = _gap(la.arr_time, lb.dep_time)
            if gap < _min_turn(inst, la.arr_airport):
                continue
            m = _midnights(la.arr_time, gap)
            for k in range(1, t_max + 1):
                k2 = k if m == 0 else (1 if base else k + m)
                if k2 > t_max:
                    continue
                tails.append(vertex[(la.id, k)])
                heads.append(vertex[(lb.id, k2)])
                weight.append((la.arr_time - la.dep_time + gap) / WEEK)
                pair.append((la.id, lb.id))
    n = len(pair)
    idx = np.arange(n)
    nv = len(vertex)
    flow = coo_matrix((np.r_[np.ones(n), -np.ones(n)],
                       (np.r_[heads, tails], np.r_[idx, idx])), shape=(nv, n))
    leg_row = {l.id: i for i, l in enumerate(legs)}
    cover = coo_matrix((np.ones(n), ([leg_row[b] for _, b in pair], idx)),
                       shape=(len(legs), n))
    cons = [LinearConstraint(flow, 0, 0), LinearConstraint(cover, 1, 1)]
    for key in forced:
        row = np.array([1.0 if p == tuple(key) else 0.0 for p in pair])
        cons.append(LinearConstraint(row, 1, np.inf))
    if budget is not None:
        cons.append(LinearConstraint(np.array(weight), -np.inf, budget + TOL))
    return milp(np.array(weight), constraints=cons, integrality=np.ones(n),
                bounds=Bounds(0, 1))


def check_fleet_minimum(inst, n_aircraft, budget=None) -> None:
    res = _routing_milp(inst, budget=budget)
    need(res.status == 0, f"HiGHS found no routing ({res.message})")
    best = round(res.fun)
    need(best == n_aircraft,
         f"HiGHS needs {best} aircraft, the solver reported {n_aircraft}")


def check_cut_rejected(inst, conns) -> None:
    """Routing with every connection of a rejected set forced is infeasible."""
    res = _routing_milp(inst, forced=sorted(conns), budget=inst.rules.n_a)
    need(res.status == 2,
         f"HiGHS can fly the rejected set {sorted(conns)} ({res.message})")


# ---------------------------------------------------------------------------
# Pairings


def check_pairings(inst, pairings, objective) -> None:
    """Replay pairings (``legs``, ``duties``, ``cost``, ``shorts``)."""
    rules = inst.rules
    legs = {l.id: l for l in inst.legs}
    t_air, t_crew = rules.short_band
    w = rules.weights
    covered = sorted(leg for p in pairings for leg in p.legs)
    need(covered == sorted(legs), "pairings do not cover every leg exactly once")
    n_long = balance = 0.0
    for p in pairings:
        need([leg for d in p.duties for leg in d] == list(p.legs),
             f"pairing {p.legs}: duties do not list its legs")
        need(inst.airport(legs[p.legs[0]].dep_airport).is_base
             and inst.airport(legs[p.legs[-1]].arr_airport).is_base,
             f"pairing {p.legs} does not start and end at a base")
        nights = fly = long_duties = 0
        shorts = []
        for d, duty in enumerate(p.duties):
            counter = 1
            first = legs[duty[0]]
            if d:
                prev = legs[p.duties[d - 1][-1]]
                gap = _gap(prev.arr_time, first.dep_time)
                m = _midnights(prev.arr_time, gap)
                need(prev.arr_airport == first.dep_airport and m >= 1
                     and gap >= _min_turn(inst, prev.arr_airport),
                     f"pairing {p.legs}: no night rest before leg {first.id}")
                nights += m
                if gap < rules.reduced_rest_threshold:
                    counter += rules.max_legs_per_duty - rules.reduced_rest_max_legs
            duty_fly = first.arr_time - first.dep_time
            for a, b in zip(duty, duty[1:]):
                la, lb = legs[a], legs[b]
                gap = _gap(la.arr_time, lb.dep_time)
                crew_change = max(t_crew,
                                  inst.airport(la.arr_airport).min_crew_change)
                need(la.arr_airport == lb.dep_airport
                     and _midnights(la.arr_time, gap) == 0
                     and gap >= _min_turn(inst, la.arr_airport)
                     and (gap < t_crew or gap >= crew_change),
                     f"pairing {p.legs}: crew cannot connect {a}->{b}")
                if gap < t_crew:
                    shorts.append((a, b))
                counter += 1
                duty_fly += lb.arr_time - lb.dep_time
            need(counter <= rules.max_legs_per_duty,
                 f"pairing {p.legs}: duty {duty} has too many legs")
            need(duty_fly <= _flying_limit(rules, first.dep_time),
                 f"pairing {p.legs}: duty {duty} flies too long")
            long_duties += counter > 3
            fly += duty_fly
        need(nights + 1 <= rules.max_pairing_days,
             f"pairing {p.legs} spans more than {rules.max_pairing_days} days")
        cost = w.w_pairing + w.w_fly * fly + w.w_hotel * nights
        need(abs(cost - p.cost) <= TOL * max(1.0, cost),
             f"pairing {p.legs} costs {cost}, reported {p.cost}")
        need(sorted(shorts) == sorted(tuple(s) for s in p.shorts),
             f"pairing {p.legs}: short connections misreported")
        n_long += nights >= 3
        balance += ((1 - rules.beta) * long_duties
                    - rules.beta * (len(p.duties) - long_duties))
    need(n_long <= rules.alpha * len(pairings) + TOL,
         "too many long pairings")
    need(balance <= TOL, "long duties outweigh short ones")
    total = sum(p.cost for p in pairings)
    need(abs(total - objective) <= TOL * max(1.0, total),
         f"objective {objective} is not the sum of pairing costs {total}")


def check_shorts_flown(routes, pairings) -> None:
    succ = {}
    for r in routes:
        for a, b in zip(r.legs, list(r.legs[1:]) + [r.legs[0]]):
            succ[a] = b
    for p in pairings:
        for a, b in p.shorts:
            need(succ.get(a) == b,
                 f"pairing {p.legs} uses short connection {a}->{b}, "
                 "which no route flies")


def crew_cover_milp(inst, cuts):
    """Set partition over every legal pairing (the oracle's enumeration)."""
    from crewroute.instance import build_connections
    from crewroute.oracles import enumerate_pairings
    from scipy.optimize import Bounds, LinearConstraint, milp

    rules = inst.rules
    pairings = enumerate_pairings(inst, build_connections(inst))
    leg_row = {l.id: i for i, l in enumerate(sorted(inst.legs,
                                                     key=lambda l: l.id))}
    n = len(pairings)
    cover = np.zeros((len(leg_row), n))
    for j, p in enumerate(pairings):
        for leg in p.legs:
            cover[leg_row[leg], j] = 1.0
    side = np.array([
        [float(p.is_long) - rules.alpha for p in pairings],
        [(1 - rules.beta) * p.n_long_duties - rules.beta * p.n_short_duties
         for p in pairings],
    ] + [[float(len(set(p.shorts) & set(c.conns))) for p in pairings]
         for c in cuts])
    rhs = np.array([0.0, 0.0] + [c.rhs for c in cuts])
    cons = [LinearConstraint(cover, 1, 1), LinearConstraint(side, -np.inf, rhs)]
    return milp(np.array([p.cost for p in pairings]), constraints=cons,
                integrality=np.ones(n), bounds=Bounds(0, 1))


def check_no_cover(inst, cuts) -> None:
    res = crew_cover_milp(inst, cuts)
    need(res.status == 2,
         f"HiGHS finds a crew cover under all {len(cuts)} cuts "
         f"({res.message})")


def check_cover_optimum(inst, cuts, objective) -> None:
    res = crew_cover_milp(inst, cuts)
    need(res.status == 0, f"HiGHS finds no crew cover ({res.message})")
    need(abs(res.fun - objective) <= TOL * max(1.0, abs(res.fun)),
         f"HiGHS crew optimum {res.fun} differs from {objective}")


# ---------------------------------------------------------------------------
# Per-call checks


def check_route_call(call, res) -> None:
    need(res.status == "optimal", f"{call.name} ended {res.status}")
    check_routes(call.inst, res.routes, res.n_aircraft, call.fleet)
    check_fleet_minimum(call.inst, res.n_aircraft, call.fleet)


def check_pair_call(call, res) -> None:
    """A capped pricing run: it ends on its round cap, and the master LP value
    never rises. Column generation stops on the first round that adds no
    column, so ending on the cap means every round added one."""
    st = res.stats
    need(res.status == "limit" and res.truncated,
         f"{call.name} ended {res.status}, not on its round cap")
    need(res.iterations == st["pricing_rounds"] == call.rounds,
         f"{call.name} ran {res.iterations} rounds, cap {call.rounds}")
    lp = st["lp_values"]
    need(len(lp) == call.rounds, f"{call.name}: {len(lp)} LP values")
    need(all(b <= a + TOL * max(1.0, abs(a)) for a, b in zip(lp, lp[1:])),
         f"{call.name}: master LP value rose: {lp}")
    need(st["columns_priced"] >= call.rounds,
         f"{call.name}: {st['columns_priced']} columns in "
         f"{call.rounds} rounds")


def check_integrated_call(call, res) -> None:
    inst = call.inst
    need(res.provably_optimal and res.status in ("optimal", "infeasible"),
         f"{call.name} ended {res.status} without a gamma=1 proof")
    need(res.iterations == len(res.cuts) + 1,
         f"{call.name}: {res.iterations} iterations for {len(res.cuts)} cuts")
    for cut in res.cuts:
        need(math.isclose(cut.rhs, len(cut.conns) - 1),
             f"{call.name}: cut rhs {cut.rhs} is not |S|-1")
        check_cut_rejected(inst, cut.conns)
    if res.status == "optimal":
        check_pairings(inst, res.pairing.pairings, res.objective)
        ar = res.routing
        check_routes(inst, ar.routes, ar.n_aircraft, inst.rules.n_a)
        check_shorts_flown(ar.routes, res.pairing.pairings)
        check_cover_optimum(inst, res.cuts, res.objective)
    elif res.routing is not None:
        # Routing refused a crew plan that uses no short connection.
        need(not res.routing.feasible, f"{call.name}: feasible routing")
        check_cut_rejected(inst, ())
    else:
        check_no_cover(inst, res.cuts)


CHECKS = {"route": check_route_call, "pair": check_pair_call,
          "integrated": check_integrated_call}
