"""Deterministic synthetic instance generator.

Instances are built aircraft-first so that both sides of the problem are
feasible by construction: every aircraft flies closed weekly tours of
out-and-back leg pairs from its home base (with occasional one-night
excursions when maintenance allows), and every day chain splits into
two-leg duties at day-crew gaps, so a crew cover with only short duties
always exists. Short connections appear inside leg pairs on purpose to
make the integrated problem non trivial.

Legs are placed in units of two (a same-day pair, or an overnight
excursion with its next-morning return), so the produced count is the
target rounded up to even, minus any units that did not fit in the week.
"""

from __future__ import annotations

import random

from .instance import (
    DAY_MINUTES,
    Instance,
    InstanceValidationError,
    instance_from_dict,
)

# Day-chain scheduling windows, minutes from the day's midnight.
_EARLIEST_DEP = 300
_LATEST_ARR = 1410
_LEG_MIN, _LEG_MAX = 45, 180

_DEFAULT_RULES = {
    "T": 3,
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


def generate_instance(
    n_airports: int,
    n_bases: int,
    n_legs: int,
    n_aircraft: int,
    seed: int,
    rules_overrides: dict | None = None,
) -> Instance:
    """Build a random instance; identical arguments give identical output.

    The produced leg count is within 20 percent of ``n_legs``. Raises
    ``InstanceValidationError`` for inconsistent counts.
    """
    if n_airports < 2:
        raise InstanceValidationError("generator: need at least 2 airports")
    if n_bases < 1 or n_bases > n_airports:
        raise InstanceValidationError(
            f"generator: need 1 <= bases <= airports, got {n_bases}/{n_airports}"
        )
    if n_legs < 2:
        raise InstanceValidationError("generator: need at least 2 legs")
    if n_aircraft < 1:
        raise InstanceValidationError("generator: need at least 1 aircraft")

    rules = {**_DEFAULT_RULES, "n_a": n_aircraft}
    if rules_overrides:
        rules.update(rules_overrides)
    t_air, t_crew = rules["short_band"]

    rng = random.Random(seed)
    airports = []
    for i in range(n_airports):
        is_base = i < n_bases
        # Some outstations demand a longer crew change than t_crew, which
        # turns a few incidental gaps into airplane-only connections.
        crew_change = t_crew if is_base or i % 2 == 0 else t_crew + 15
        airports.append(
            {
                "code": f"A{i:02d}",
                "is_base": is_base,
                "min_airplane_turn": t_air,
                "min_crew_change": crew_change,
            }
        )
    base_codes = [a["code"] for a in airports if a["is_base"]]
    out_codes = [a["code"] for a in airports if not a["is_base"]]

    def crew_gap_at(code: str) -> int:
        ap = next(a for a in airports if a["code"] == code)
        lo = max(t_crew, ap["min_crew_change"])
        return rng.randint(lo, lo + 90)

    def pair_gap_at(code: str) -> int:
        # Within-pair turn: short connection 60 percent of the time, never
        # in the airplane-only band (the returning crew must be able to
        # stay with the aircraft or hand over cleanly).
        if rng.random() < 0.6:
            return rng.randint(t_air, t_crew - 1)
        return crew_gap_at(code)

    legs: list[dict] = []
    homes = [base_codes[a % len(base_codes)] for a in range(n_aircraft)]
    away: list[str | None] = [None] * n_aircraft

    def emit(day: int, start: int, dep: str, arr: str, dur: int) -> int:
        legs.append(
            {
                "dep_airport": dep,
                "arr_airport": arr,
                "dep_time": day * DAY_MINUTES + start,
                "arr_time": day * DAY_MINUTES + start + dur,
            }
        )
        return start + dur

    # Two legs per unit; units that do not fit a slot spill to later ones.
    remaining = max(1, (n_legs + 1) // 2)
    can_excurse = rules["T"] >= 2 and bool(out_codes)
    for day in range(7):
        for a in range(n_aircraft):
            cur = rng.randint(_EARLIEST_DEP, _EARLIEST_DEP + 120)
            here = homes[a]
            if away[a] is not None:
                dur = rng.randint(_LEG_MIN, _LEG_MAX)
                cur = emit(day, cur, away[a], homes[a], dur)
                away[a] = None
            if remaining <= 0:
                continue
            slots_left = (7 - day) * n_aircraft - a
            want = -(-remaining // slots_left)
            if rng.random() < 0.3:
                want += 1
            want = min(want, remaining, 3)
            placed = 0
            while placed < want:
                if (day < 6 and can_excurse and away[a] is None
                        and rng.random() < 0.2):
                    dest = rng.choice(out_codes)
                    gap = crew_gap_at(here)
                    dur = rng.randint(_LEG_MIN, _LEG_MAX)
                    if cur + gap + dur <= _LATEST_ARR:
                        cur = emit(day, cur + gap, here, dest, dur)
                        away[a] = dest
                        placed += 1
                        remaining -= 1
                        break
                dest = rng.choice([c["code"] for c in airports
                                   if c["code"] != here])
                gap1 = crew_gap_at(here)
                d1 = rng.randint(_LEG_MIN, _LEG_MAX)
                gap2 = pair_gap_at(dest)
                d2 = rng.randint(_LEG_MIN, _LEG_MAX)
                if cur + gap1 + d1 + gap2 + d2 > _LATEST_ARR:
                    break
                cur = emit(day, cur + gap1, here, dest, d1)
                cur = emit(day, cur + gap2, dest, here, d2)
                placed += 1
                remaining -= 1

    legs.sort(key=lambda l: (l["dep_time"], l["dep_airport"], l["arr_airport"]))
    for i, leg in enumerate(legs):
        leg["id"] = i

    count = len(legs)
    if not 0.8 * n_legs <= count <= 1.2 * n_legs + 1:
        raise InstanceValidationError(
            f"generator: produced {count} legs for target {n_legs}; "
            "adjust aircraft or legs"
        )

    data = {
        "name": f"gen-a{n_airports}b{n_bases}l{n_legs}f{n_aircraft}s{seed}",
        "airports": airports,
        "legs": legs,
        "rules": rules,
    }
    return instance_from_dict(data)
