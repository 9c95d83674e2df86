"""Instance schema, validation, connection classification, generator."""

from __future__ import annotations

import copy
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import airport, leg, make_instance, minutes, rules_dict
from crewroute.generate import generate_instance
from crewroute.instance import (
    DAY_MINUTES,
    WEEK_MINUTES,
    ConnectionKind,
    InstanceError,
    InstanceFormatError,
    InstanceValidationError,
    build_connections,
    classify_connection,
    cyclic_gap,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    midnights_in_gap,
    save_instance,
)


def test_toy2_loads(toy2):
    assert len(toy2.legs) == 2
    assert [a.code for a in toy2.bases] == ["CDG"]
    assert toy2.rules.T == 3
    assert toy2.rules.F_max == 540
    assert toy2.legs[0].flying_minutes == 90


def test_arrival_must_follow_departure():
    with pytest.raises(InstanceValidationError, match="arrival not after departure"):
        make_instance([airport("AAA", base=True), airport("BBB")],
                      [leg(0, "AAA", "BBB", 500, 500)])


def test_unknown_key_rejected():
    bad = leg(0, "AAA", "BBB", 100, 200)
    bad["color"] = "blue"
    with pytest.raises(InstanceFormatError, match="unknown key"):
        make_instance([airport("AAA", base=True), airport("BBB")], [bad])


def test_missing_key_rejected():
    bad = leg(0, "AAA", "BBB", 100, 200)
    del bad["arr_time"]
    with pytest.raises(InstanceFormatError):
        make_instance([airport("AAA", base=True), airport("BBB")], [bad])


def test_midnight_crossing_leg_rejected():
    with pytest.raises(InstanceValidationError, match="crosses midnight"):
        make_instance([airport("AAA", base=True), airport("BBB")],
                      [leg(0, "AAA", "BBB", minutes(0, 23), minutes(1, 1))])


def test_landing_exactly_at_midnight_allowed():
    inst = make_instance([airport("AAA", base=True), airport("BBB")],
                         [leg(0, "AAA", "BBB", minutes(0, 23), minutes(1, 0))])
    assert inst.legs[0].arr_time == DAY_MINUTES


def test_duplicate_leg_id_rejected():
    with pytest.raises(InstanceValidationError, match="duplicate"):
        make_instance([airport("AAA", base=True), airport("BBB")],
                      [leg(0, "AAA", "BBB", 100, 200),
                       leg(0, "BBB", "AAA", 300, 400)])


def test_at_least_one_base_required():
    with pytest.raises(InstanceValidationError, match="base"):
        make_instance([airport("AAA"), airport("BBB")],
                      [leg(0, "AAA", "BBB", 100, 200)])


def test_flying_limit_bands():
    inst = make_instance([airport("AAA", base=True), airport("BBB")],
                         [leg(0, "AAA", "BBB", 100, 200)])
    assert inst.rules.flying_limit(minutes(0, 8)) == 540
    assert inst.rules.flying_limit(minutes(0, 12)) == 480
    assert inst.rules.flying_limit(minutes(3, 14)) == 480
    assert inst.rules.reduced_rest_extra == 1


# ---------------------------------------------------------------------------
# connection classification


def _two_legs(a1: int, d2: int):
    l1 = leg(0, "AAA", "BBB", a1 - 60, a1)
    l2 = leg(1, "BBB", "AAA", d2, d2 + 60)
    inst = make_instance([airport("AAA", base=True), airport("BBB")],
                         [l1, l2])
    return inst.legs[0], inst.legs[1], inst.airport("BBB"), inst.rules


def test_gap_below_airplane_turn_is_no_connection():
    l1, l2, ap, rules = _two_legs(600, 620)
    assert classify_connection(l1, l2, ap, rules) is None


def test_short_connection_band():
    # turn 30 <= gap 40 < t_crew 45 on the same day
    l1, l2, ap, rules = _two_legs(600, 640)
    conn = classify_connection(l1, l2, ap, rules)
    assert conn.kind is ConnectionKind.SHORT
    assert conn.ground_minutes == 40
    assert conn.midnights_crossed == 0
    assert not conn.is_reduced_rest
    assert conn.key == (0, 1)


def test_airplane_only_band():
    airports = [airport("AAA", base=True), airport("BBB", turn=30, crew=90)]
    inst = make_instance(airports, [leg(0, "AAA", "BBB", 540, 600),
                                    leg(1, "BBB", "AAA", 660, 720)])
    conn = classify_connection(inst.legs[0], inst.legs[1],
                               inst.airport("BBB"), inst.rules)
    # gap 60: at t_crew 45 but below the airport's 90 crew change minimum
    assert conn.kind is ConnectionKind.AIRPLANE_ONLY


def test_day_crew_band():
    l1, l2, ap, rules = _two_legs(600, 690)
    conn = classify_connection(l1, l2, ap, rules)
    assert conn.kind is ConnectionKind.DAY_CREW


def test_night_connection_reduced_rest():
    # 22:00 arrival, 07:00 next-day departure: gap 540 < threshold 600
    l1, l2, ap, rules = _two_legs(minutes(0, 22), minutes(1, 7))
    conn = classify_connection(l1, l2, ap, rules)
    assert conn.kind is ConnectionKind.NIGHT_CREW
    assert conn.midnights_crossed == 1
    assert conn.is_reduced_rest


def test_night_connection_full_rest():
    l1, l2, ap, rules = _two_legs(minutes(0, 20), minutes(1, 8))
    conn = classify_connection(l1, l2, ap, rules)
    assert conn.kind is ConnectionKind.NIGHT_CREW
    assert conn.ground_minutes == 720
    assert not conn.is_reduced_rest


def test_weekend_wraparound_gap():
    # Sunday 23:00 arrival to Monday 01:00 departure wraps the week
    assert cyclic_gap(minutes(6, 23), minutes(0, 1)) == 120
    assert midnights_in_gap(minutes(6, 23), 120) == 1


def test_self_connection_rejected():
    l1, l2, ap, rules = _two_legs(600, 690)
    assert classify_connection(l1, l1, ap, rules) is None


def test_build_connections_toy(toy2):
    conns = build_connections(toy2)
    keys = {c.key for c in conns}
    # NCE turnaround plus the week-wrapping overnight back at CDG
    assert (0, 1) in keys
    by_key = {c.key: c for c in conns}
    assert by_key[(0, 1)].kind is ConnectionKind.DAY_CREW
    assert by_key[(0, 1)].ground_minutes == 90
    for c in conns:
        assert 0 <= c.ground_minutes < WEEK_MINUTES
        assert c.kind is not ConnectionKind.NIGHT_CREW or c.midnights_crossed >= 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, WEEK_MINUTES - 1), st.integers(0, WEEK_MINUTES - 1))
def test_cyclic_gap_properties(arr, dep):
    gap = cyclic_gap(arr, dep)
    assert 0 <= gap < WEEK_MINUTES
    assert (arr + gap) % WEEK_MINUTES == dep
    mids = midnights_in_gap(arr, gap)
    assert 0 <= mids <= 7


def test_classification_matches_rederivation():
    rng = random.Random(7)
    airports = [airport("AAA", base=True),
                airport("BBB", turn=25, crew=50), airport("CCC")]
    legs = []
    for i in range(30):
        dep = rng.randrange(0, 6) * DAY_MINUTES + rng.randrange(0, 1320)
        legs.append(leg(i, *rng.sample(["AAA", "BBB", "CCC"], 2),
                        dep, dep + rng.randrange(40, 119)))
    inst = make_instance(airports, legs)
    conns = build_connections(inst)
    seen = {c.key for c in conns}
    assert len(seen) == len(conns)
    by_id = {l.id: l for l in inst.legs}
    for c in conns:
        l1, l2 = by_id[c.from_leg], by_id[c.to_leg]
        assert l1.arr_airport == l2.dep_airport
        gap = cyclic_gap(l1.arr_time, l2.dep_time)
        assert gap == c.ground_minutes
        ap = inst.airport(l1.arr_airport)
        assert gap >= max(inst.rules.short_band[0], ap.min_airplane_turn)
        if c.kind is ConnectionKind.SHORT:
            assert c.midnights_crossed == 0
            assert gap < inst.rules.short_band[1]


# ---------------------------------------------------------------------------
# JSON round trip and the generator


def test_round_trip_bytes(toy2, tmp_path):
    text = dumps_instance(toy2)
    again = load_instance("toy2.json", text=text)
    assert dumps_instance(again) == text
    path = tmp_path / "inst.json"
    save_instance(toy2, str(path))
    assert dumps_instance(load_instance(str(path))) == text


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"name\": 3}")
    with pytest.raises(InstanceError):
        load_instance(str(path))


@pytest.mark.parametrize("path", [("weights", "w_fly"), ("weights", "w_hotel"),
                                  ("weights", "w_pairing"), ("alpha",),
                                  ("beta",), ("gamma",)])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400])
def test_load_rejects_non_finite_numbers(toy2, path, value):
    data = json.loads(dumps_instance(toy2))
    obj = data["rules"]
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    text = json.dumps(data)  # writes Infinity / NaN, which json.loads reads
    with pytest.raises(InstanceFormatError,
                       match=f"'{path[-1]}' must be a finite number"):
        load_instance("bad.json", text=text)


def test_generator_deterministic():
    a = generate_instance(n_airports=5, n_bases=2, n_legs=20,
                          n_aircraft=3, seed=42)
    b = generate_instance(n_airports=5, n_bases=2, n_legs=20,
                          n_aircraft=3, seed=42)
    assert dumps_instance(a) == dumps_instance(b)
    c = generate_instance(n_airports=5, n_bases=2, n_legs=20,
                          n_aircraft=3, seed=43)
    assert dumps_instance(c) != dumps_instance(a)


def test_generator_leg_count_tolerance():
    for seed in range(5):
        inst = generate_instance(n_airports=6, n_bases=2, n_legs=40,
                                 n_aircraft=4, seed=seed)
        assert 32 <= len(inst.legs) <= 48
        assert inst.rules.n_a == 4
        assert len(inst.bases) == 2
        # generated instances pass their own validation on reload
        text = dumps_instance(inst)
        assert dumps_instance(instance_from_dict(json.loads(text))) == text


def test_generator_rejects_excess_bases():
    with pytest.raises(ValueError):
        generate_instance(n_airports=2, n_bases=3, n_legs=10,
                          n_aircraft=2, seed=0)


def test_generator_scales_connections():
    inst = generate_instance(n_airports=10, n_bases=3, n_legs=152,
                             n_aircraft=8, seed=1)
    n = len(build_connections(inst))
    # a week of 152 legs should produce connections in the low thousands
    assert 200 <= n <= 21000


def test_generator_rules_overrides():
    inst = generate_instance(n_airports=4, n_bases=1, n_legs=12, n_aircraft=2,
                             seed=3, rules_overrides={"T": 5, "gamma": 1.0})
    assert inst.rules.T == 5
    assert inst.rules.gamma == 1.0


# ---------------------------------------------------------------------------
# exact format error messages, one corrupted field at a time

_DROP = object()

# (path into the toy2 file, value written there or _DROP, exact message)
_PINNED_ERRORS = [
    ((), [], "instance: expected an object"),
    (("color",), 1, "instance: unknown key 'color'"),
    (("rules",), _DROP, "instance: missing key 'rules'"),
    (("name",), 3, "instance: 'name' must be a string"),
    (("airports",), {}, "instance: 'airports' must be a list"),
    (("legs",), "legs", "instance: 'legs' must be a list"),
    (("airports", 0), 3, "airports[0]: expected an object"),
    (("airports", 0, "color"), 1, "airports[0]: unknown key 'color'"),
    (("airports", 1, "min_crew_change"), _DROP,
     "airports[1]: missing key 'min_crew_change'"),
    (("airports", 0, "code"), 3, "airports[0]: 'code' must be a string"),
    (("airports", 1, "is_base"), 0, "airports[1]: 'is_base' must be a boolean"),
    (("airports", 0, "min_airplane_turn"), "30",
     "airports[0]: 'min_airplane_turn' must be an integer"),
    (("airports", 1, "min_crew_change"), 45.0,
     "airports[1]: 'min_crew_change' must be an integer"),
    (("legs", 0), [], "legs[0]: expected an object"),
    (("legs", 1, "color"), 1, "legs[1]: unknown key 'color'"),
    (("legs", 1, "arr_time"), _DROP, "legs[1]: missing key 'arr_time'"),
    (("legs", 0, "id"), "0", "legs[0]: 'id' must be an integer"),
    (("legs", 0, "dep_airport"), 5, "legs[0]: 'dep_airport' must be a string"),
    (("legs", 1, "arr_airport"), None,
     "legs[1]: 'arr_airport' must be a string"),
    (("legs", 0, "dep_time"), 480.5, "legs[0]: 'dep_time' must be an integer"),
    (("legs", 1, "arr_time"), True, "legs[1]: 'arr_time' must be an integer"),
    (("rules",), 3, "rules: expected an object"),
    (("rules", "color"), 1, "rules: unknown key 'color'"),
    (("rules", "weights"), _DROP, "rules: missing key 'weights'"),
    (("rules", "T"), 3.0, "rules: 'T' must be an integer"),
    (("rules", "n_a"), "1", "rules: 'n_a' must be an integer"),
    (("rules", "max_legs_per_duty"), None,
     "rules: 'max_legs_per_duty' must be an integer"),
    (("rules", "reduced_rest_max_legs"), True,
     "rules: 'reduced_rest_max_legs' must be an integer"),
    (("rules", "reduced_rest_threshold"), 600.0,
     "rules: 'reduced_rest_threshold' must be an integer"),
    (("rules", "max_pairing_days"), "4",
     "rules: 'max_pairing_days' must be an integer"),
    (("rules", "alpha"), "0.5", "rules: 'alpha' must be a number"),
    (("rules", "beta"), True, "rules: 'beta' must be a number"),
    (("rules", "gamma"), None, "rules: 'gamma' must be a number"),
    (("rules", "kappa"), "many", "rules: 'kappa' must be an integer or \"auto\""),
    (("rules", "kappa"), 2.5, "rules: 'kappa' must be an integer or \"auto\""),
    (("rules", "kappa"), False, "rules: 'kappa' must be an integer or \"auto\""),
    (("rules", "F_table"), "bands", "rules: 'F_table' must be a non-empty list"),
    (("rules", "F_table"), [], "rules: 'F_table' must be a non-empty list"),
    (("rules", "F_table", 0), 3, "rules.F_table[0]: expected an object"),
    (("rules", "F_table", 0, "color"), 1,
     "rules.F_table[0]: unknown key 'color'"),
    (("rules", "F_table", 1, "limit_minutes"), _DROP,
     "rules.F_table[1]: missing key 'limit_minutes'"),
    (("rules", "F_table", 0, "from_hour"), "0",
     "rules.F_table[0]: 'from_hour' must be an integer"),
    (("rules", "F_table", 1, "to_hour"), 24.0,
     "rules.F_table[1]: 'to_hour' must be an integer"),
    (("rules", "F_table", 0, "limit_minutes"), None,
     "rules.F_table[0]: 'limit_minutes' must be an integer"),
    (("rules", "short_band"), [30], "rules: 'short_band' must be a pair of integers"),
    (("rules", "short_band"), "30,45",
     "rules: 'short_band' must be a pair of integers"),
    (("rules", "short_band"), [30, 45.0],
     "rules: 'short_band' must be a pair of integers"),
    (("rules", "short_band"), [True, 45],
     "rules: 'short_band' must be a pair of integers"),
    (("rules", "weights"), [], "rules.weights: expected an object"),
    (("rules", "weights", "color"), 1, "rules.weights: unknown key 'color'"),
    (("rules", "weights", "w_pairing"), _DROP,
     "rules.weights: missing key 'w_pairing'"),
    (("rules", "weights", "w_fly"), "1", "rules.weights: 'w_fly' must be a number"),
    (("rules", "weights", "w_hotel"), True,
     "rules.weights: 'w_hotel' must be a number"),
    (("rules", "weights", "w_pairing"), None,
     "rules.weights: 'w_pairing' must be a number"),
    (("rules", "alpha"), math.inf, "rules: 'alpha' must be a finite number"),
    (("rules", "weights", "w_hotel"), math.nan,
     "rules.weights: 'w_hotel' must be a finite number"),
    (("rules", "gamma"), 10**400, "rules: 'gamma' must be a finite number"),
]


def _corrupted(data: dict, path: tuple, value):
    if not path:
        return value
    out = copy.deepcopy(data)
    obj = out
    for key in path[:-1]:
        obj = obj[key]
    if value is _DROP:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value
    return out


def test_format_errors_are_pinned(toy2):
    data = json.loads(dumps_instance(toy2))
    wrong = []
    for path, value, message in _PINNED_ERRORS:
        try:
            instance_from_dict(_corrupted(data, path, value))
        except InstanceFormatError as exc:
            if str(exc) != message:
                wrong.append((path, str(exc), message))
        else:
            wrong.append((path, "no error", message))
    assert wrong == []


def _plain_json(value) -> bool:
    if isinstance(value, dict):
        return all(isinstance(k, str) and _plain_json(v)
                   for k, v in value.items())
    if isinstance(value, list):
        return all(_plain_json(v) for v in value)
    return isinstance(value, (str, int, float, bool))


def test_instance_to_dict_round_trips(toy2):
    weeks = [generate_instance(n_airports=5, n_bases=2, n_legs=30,
                               n_aircraft=3, seed=seed) for seed in (0, 3, 11)]
    for inst in [toy2] + weeks:
        d = instance_to_dict(inst)
        assert _plain_json(d)
        assert instance_from_dict(d) == inst
