"""Shared builders: hand instances, random DAGs, random resources, oracles.

Random costs are dyadic rationals (multiples of 1/256) so float addition is
exact and algebraic identities can be asserted with ==.
"""

from __future__ import annotations

import random

import pytest

from crewroute.generate import generate_instance
from crewroute.instance import DAY_MINUTES, Instance, instance_from_dict
from crewroute.pairing.algebra import (
    BOT,
    TOP,
    PairingAlgebra,
    multi_core,
    one_core,
)
from crewroute.rcsp import RcspGraph


def minutes(day: int, hh: int, mm: int = 0) -> int:
    return day * DAY_MINUTES + hh * 60 + mm


def dyadic(rng: random.Random, lo: int = -2048, hi: int = 2048) -> float:
    return rng.randrange(lo, hi + 1) / 256.0


# ---------------------------------------------------------------------------
# instance builders

def airport(code: str, base: bool = False, turn: int = 30, crew: int = 45) -> dict:
    return {
        "code": code,
        "is_base": base,
        "min_airplane_turn": turn,
        "min_crew_change": crew,
    }


def leg(lid: int, dep: str, arr: str, dep_time: int, arr_time: int) -> dict:
    return {
        "id": lid,
        "dep_airport": dep,
        "arr_airport": arr,
        "dep_time": dep_time,
        "arr_time": arr_time,
    }


def rules_dict(**overrides) -> dict:
    r = {
        "T": 3,
        "n_a": 3,
        "max_legs_per_duty": 4,
        "reduced_rest_max_legs": 3,
        "reduced_rest_threshold": 600,
        "F_table": [
            {"from_hour": 0, "to_hour": 12, "limit_minutes": 540},
            {"from_hour": 12, "to_hour": 24, "limit_minutes": 480},
        ],
        "short_band": [30, 45],
        "alpha": 0.5,
        "beta": 0.5,
        "gamma": 0.9,
        "kappa": "auto",
        "max_pairing_days": 4,
        "weights": {"w_fly": 1.0, "w_hotel": 30.0, "w_pairing": 120.0},
    }
    r.update(overrides)
    return r


def make_instance(airports: list[dict], legs: list[dict],
                  name: str = "test", **rules_overrides) -> Instance:
    return instance_from_dict({
        "name": name,
        "airports": airports,
        "legs": legs,
        "rules": rules_dict(**rules_overrides),
    })


@pytest.fixture
def toy2() -> Instance:
    """One out-and-back rotation from the single base."""
    return make_instance(
        [airport("CDG", base=True), airport("NCE")],
        [
            leg(0, "CDG", "NCE", minutes(0, 8), minutes(0, 9, 30)),
            leg(1, "NCE", "CDG", minutes(0, 11), minutes(0, 12, 30)),
        ],
        n_a=1,
    )


@pytest.fixture
def uncoverable() -> Instance:
    """No leg touches the base, so no pairing can cover anything."""
    return make_instance(
        [airport("AAA", base=True), airport("BBB"), airport("CCC")],
        [
            leg(0, "BBB", "CCC", 300, 400),
            leg(1, "CCC", "BBB", 500, 600),
        ],
        n_a=1,
    )


@pytest.fixture
def overcut() -> Instance:
    """Both crew covers of these four legs need a short connection.

    The unique crew partition is {[0, 2], [3, 1]}; both pairings sit on a
    ground time inside the short band. One aircraft cannot fly this week at
    all, even with nothing forced: routing its four legs takes two. The
    integrated loop proves it infeasible in one iteration at any gamma.
    """
    return make_instance(
        [airport("AAA", base=True), airport("BBB", turn=30, crew=45)],
        [
            leg(0, "AAA", "BBB", 300, 400),
            leg(3, "AAA", "BBB", 310, 410),
            leg(2, "BBB", "AAA", 435, 535),
            leg(1, "BBB", "AAA", 442, 542),
        ],
        n_a=1,
    )


@pytest.fixture(scope="module")
def looping_week() -> Instance:
    """A 24-leg week (seed 5, 2-day maintenance interval) whose fleet can fly
    it, but not with the short connections crew pairing keeps choosing: the
    gamma = 1 loop adds five cuts before the crew side proves it infeasible,
    and gamma = 0.5 over-cuts in three iterations."""
    return generate_instance(n_airports=4, n_bases=2, n_legs=24, n_aircraft=3,
                             seed=5, rules_overrides={"T": 2})


# ---------------------------------------------------------------------------
# random pairing resources

def random_core(rng: random.Random) -> tuple:
    r = rng.random()
    if r < 0.05:
        return BOT
    if r < 0.10:
        return TOP
    if r < 0.55:
        return one_core(rng.randrange(0, 6), rng.randrange(0, 700, 10))
    return multi_core(
        rng.randrange(0, 6), rng.randrange(0, 700, 10),
        rng.randrange(0, 6), rng.randrange(0, 700, 10),
        rng.randrange(0, 3),
    )


def random_resource(rng: random.Random) -> tuple:
    return (
        random_core(rng),
        dyadic(rng),
        rng.randrange(0, 5),
        rng.randrange(0, 5),
    )


def worsen(rng: random.Random, q: tuple) -> tuple:
    """A resource >= q in the pairing order (rests move down, rest move up)."""
    core = q[0]
    if core[0] in (1, 2) and rng.random() < 0.8:
        core = core[:1] + tuple(c + rng.randrange(0, 3) for c in core[1:])
    elif rng.random() < 0.5:
        core = TOP
    return (
        core,
        q[1] + rng.randrange(0, 257) / 256.0,
        q[2] + rng.randrange(0, 2),
        max(0, q[3] - rng.randrange(0, 2)),
    )


def small_pairing_algebra(rng: random.Random | None = None) -> PairingAlgebra:
    if rng is None:
        return PairingAlgebra(4, 480, 0.5, 0.5)
    return PairingAlgebra(4, 480, 0.5, 0.5, mu=-dyadic(rng, 0, 512),
                          nu=-dyadic(rng, 0, 512))


# ---------------------------------------------------------------------------
# random DAGs for the path engine

def random_additive_dag(rng: random.Random, capacity: int,
                        max_v: int = 10, max_a: int = 25) -> RcspGraph:
    n = rng.randrange(4, max_v + 1)
    arcs, resources = [], []
    n_arcs = rng.randrange(n, max_a + 1)
    for _ in range(n_arcs):
        u = rng.randrange(0, n - 1)
        v = rng.randrange(u + 1, n)
        arcs.append((u, v))
        resources.append((dyadic(rng, -512, 1024), rng.randrange(0, 4)))
    if rng.random() < 0.9:
        mid = rng.randrange(1, n - 1)
        arcs += [(0, mid), (mid, n - 1)]
        resources += [(dyadic(rng, 0, 256), 0), (dyadic(rng, 0, 256), 0)]
    return RcspGraph(n, arcs, 0, n - 1, resources)


def random_arc_resource(rng: random.Random) -> tuple:
    """Resource shaped like a single pricing arc, with a dyadic cost."""
    if rng.random() < 0.65:
        f = rng.randrange(30, 200, 5)
        return (one_core(rng.randrange(1, 3), f), dyadic(rng), 0, 0)
    f = rng.randrange(30, 200, 5)
    nights = rng.randrange(1, 3)
    return (multi_core(0, 0, 1, f, 0), dyadic(rng), nights, 1)


def random_pairing_dag(rng: random.Random, max_v: int = 10,
                       max_a: int = 25) -> RcspGraph:
    n = rng.randrange(4, max_v + 1)
    arcs, resources = [], []
    n_arcs = rng.randrange(n, max_a + 1)
    for _ in range(n_arcs):
        u = rng.randrange(0, n - 1)
        v = rng.randrange(u + 1, n)
        arcs.append((u, v))
        resources.append(random_arc_resource(rng))
    return RcspGraph(n, arcs, 0, n - 1, resources)


def all_suffix_resources(graph: RcspGraph, algebra, start: int) -> list:
    """Resources of every start-to-dest path, by plain DFS."""
    found = []

    def dfs(v, q):
        if v == graph.dest:
            found.append(q)
            return
        for aid in graph.out[v]:
            dfs(graph.arcs[aid][1],
                algebra.combine(q, graph.resources[aid]))

    dfs(start, algebra.neutral)
    return found


# ---------------------------------------------------------------------------
# algebra law checks, shared by the unit suite and the acceptance gate

def check_laws(algebra, q1, q2, q3) -> None:
    e = algebra.neutral
    assert algebra.combine(algebra.combine(q1, q2), q3) \
        == algebra.combine(q1, algebra.combine(q2, q3))
    assert algebra.combine(e, q1) == q1
    assert algebra.combine(q1, e) == q1

    assert algebra.leq(q1, q1)
    if algebra.leq(q1, q2) and algebra.leq(q2, q1):
        assert q1 == q2
    if algebra.leq(q1, q2) and algebra.leq(q2, q3):
        assert algebra.leq(q1, q3)

    m, j = algebra.meet(q1, q2), algebra.join(q1, q2)
    assert m == algebra.meet(q2, q1)
    assert j == algebra.join(q2, q1)
    assert algebra.leq(m, q1) and algebra.leq(m, q2)
    assert algebra.leq(q1, j) and algebra.leq(q2, j)
    assert algebra.leq(q1, q2) == (m == q1) == (j == q2)
    assert algebra.meet(q1, j) == q1
    assert algebra.join(q1, m) == q1
    if algebra.leq(q3, q1) and algebra.leq(q3, q2):
        assert algebra.leq(q3, m)
    if algebra.leq(q1, q3) and algebra.leq(q2, q3):
        assert algebra.leq(j, q3)


def check_monotone(algebra, q1, q2, q3) -> None:
    """Order compatibility along q1 <= q2; caller guarantees the premise."""
    assert algebra.leq(q1, q2)
    assert algebra.leq(algebra.combine(q3, q1), algebra.combine(q3, q2))
    assert algebra.leq(algebra.combine(q1, q3), algebra.combine(q2, q3))
    assert algebra.cost(q1) <= algebra.cost(q2)
    if algebra.infeasible(q1):
        assert algebra.infeasible(q2)
