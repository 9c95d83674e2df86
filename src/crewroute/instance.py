"""Problem data model: airports, flight legs, rule parameters, connections.

All times are minutes since the week origin (Monday 00:00) in [0, 10080).
The schedule is cyclic with period one week, so gaps between events are
measured modulo 10080 and a leg never crosses midnight (crews and airplanes
sleep, desk-sized instances follow the same convention as the real ones).

The module owns three operations:

* ``load_instance`` / ``save_instance``: strict JSON round trip. The
  dataclasses below are the file format: each record is an object with
  exactly its class's fields, and tuples are lists. Unknown keys are
  rejected, validation names the first violated invariant, and
  ``save(load(x))`` is byte identical for canonical files.
* ``build_connections``: enumerate and classify every feasible connection
  between ordered leg pairs (airplane-only, short, day-crew, night-crew).
* ``generate_instance`` lives in :mod:`crewroute.generate` and is re-exported
  from the package root.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, fields, is_dataclass

WEEK_MINUTES = 7 * 24 * 60
DAY_MINUTES = 24 * 60


class InstanceError(ValueError):
    """Base class for instance loading and validation failures."""


class InstanceFormatError(InstanceError):
    """Malformed file: not JSON, wrong types, unknown or missing keys."""


class InstanceValidationError(InstanceError):
    """Well-formed file whose content violates a model invariant."""


@dataclass(frozen=True)
class Airport:
    code: str
    is_base: bool
    min_airplane_turn: int
    min_crew_change: int


@dataclass(frozen=True)
class FlightLeg:
    id: int
    dep_airport: str
    arr_airport: str
    dep_time: int
    arr_time: int

    @property
    def flying_minutes(self) -> int:
        return self.arr_time - self.dep_time

    @property
    def dep_day(self) -> int:
        return self.dep_time // DAY_MINUTES


@dataclass(frozen=True)
class FlyingLimitBand:
    """Maximum duty flying time for duties starting in [from_hour, to_hour)."""

    from_hour: int
    to_hour: int
    limit_minutes: int


@dataclass(frozen=True)
class CostWeights:
    w_fly: float
    w_hotel: float
    w_pairing: float


@dataclass(frozen=True)
class RulesConfig:
    """Rule parameters shared by routing, pairing and the integrated solver."""

    T: int
    n_a: int
    max_legs_per_duty: int
    reduced_rest_max_legs: int
    reduced_rest_threshold: int
    F_table: tuple[FlyingLimitBand, ...]
    short_band: tuple[int, int]
    alpha: float
    beta: float
    gamma: float
    kappa: int | str
    max_pairing_days: int
    weights: CostWeights

    @property
    def F_max(self) -> int:
        return max(band.limit_minutes for band in self.F_table)

    def flying_limit(self, dep_time: int) -> int:
        """Duty flying limit for a duty whose first leg departs at dep_time.

        Hours not covered by any band fall back to F_max (no tightening).
        """
        hour = (dep_time % DAY_MINUTES) // 60
        for band in self.F_table:
            if band.from_hour <= hour < band.to_hour:
                return band.limit_minutes
        return self.F_max

    @property
    def reduced_rest_extra(self) -> int:
        # Legs "pre-spent" in a duty that follows a reduced rest; with the
        # default 4/3 rule this is 1, so the first leg counts double and the
        # adjusted counter starts at 2.
        return self.max_legs_per_duty - self.reduced_rest_max_legs


@dataclass(frozen=True)
class Instance:
    name: str
    airports: tuple[Airport, ...]
    legs: tuple[FlightLeg, ...]
    rules: RulesConfig

    @functools.cached_property
    def _airport_index(self) -> dict[str, Airport]:
        return {a.code: a for a in self.airports}

    def airport(self, code: str) -> Airport:
        return self._airport_index[code]

    @functools.cached_property
    def _leg_index(self) -> dict[int, FlightLeg]:
        return {l.id: l for l in self.legs}

    def leg(self, leg_id: int) -> FlightLeg:
        return self._leg_index[leg_id]

    @property
    def bases(self) -> tuple[Airport, ...]:
        return tuple(a for a in self.airports if a.is_base)


class ConnectionKind(enum.Enum):
    AIRPLANE_ONLY = "airplane-only"
    SHORT = "short"
    DAY_CREW = "day-crew"
    NIGHT_CREW = "night-crew"


@dataclass(frozen=True)
class Connection:
    """A feasible (from_leg, to_leg) link at the shared airport.

    ``ground_minutes`` is the cyclic gap (dep' - arr) mod 10080, and
    ``midnights_crossed`` counts day boundaries inside that gap. A connection
    is identified by its leg pair throughout the package.
    """

    from_leg: int
    to_leg: int
    kind: ConnectionKind
    ground_minutes: int
    midnights_crossed: int
    is_reduced_rest: bool

    @property
    def key(self) -> tuple[int, int]:
        return (self.from_leg, self.to_leg)


def cyclic_gap(arr_time: int, dep_time: int) -> int:
    return (dep_time - arr_time) % WEEK_MINUTES


def midnights_in_gap(arr_time: int, gap: int) -> int:
    # Day boundaries strictly after arrival up to and including departure.
    return (arr_time + gap) // DAY_MINUTES - arr_time // DAY_MINUTES


def classify_connection(
    leg1: FlightLeg, leg2: FlightLeg, airport: Airport, rules: RulesConfig
) -> Connection | None:
    """Classify the link leg1 -> leg2, or None when no airplane can make it.

    The short band (t_air, t_crew) interacts with the airport minima: the
    connection exists iff the gap covers both t_air and the airport's
    airplane turn time; same-day gaps below t_crew are short (crew stays
    with the aircraft), gaps in [t_crew, min_crew_change) serve airplanes
    only, and anything at or above both crew thresholds is a day-crew
    connection. Crossing a midnight makes it a night-crew connection,
    flagged reduced rest when the gap is below the threshold.
    """
    if leg1.arr_airport != leg2.dep_airport:
        return None
    if leg1.id == leg2.id:
        return None
    t_air, t_crew = rules.short_band
    gap = cyclic_gap(leg1.arr_time, leg2.dep_time)
    if gap < max(t_air, airport.min_airplane_turn):
        return None
    midnights = midnights_in_gap(leg1.arr_time, gap)
    if midnights == 0:
        if gap < t_crew:
            kind = ConnectionKind.SHORT
        elif gap < max(t_crew, airport.min_crew_change):
            kind = ConnectionKind.AIRPLANE_ONLY
        else:
            kind = ConnectionKind.DAY_CREW
        return Connection(leg1.id, leg2.id, kind, gap, 0, False)
    reduced = gap < rules.reduced_rest_threshold
    return Connection(
        leg1.id, leg2.id, ConnectionKind.NIGHT_CREW, gap, midnights, reduced
    )


def build_connections(inst: Instance) -> list[Connection]:
    """All feasible connections, ordered by (from_leg, to_leg)."""
    out: list[Connection] = []
    legs = sorted(inst.legs, key=lambda l: l.id)
    for leg1 in legs:
        airport = inst.airport(leg1.arr_airport)
        for leg2 in legs:
            conn = classify_connection(leg1, leg2, airport, inst.rules)
            if conn is not None:
                out.append(conn)
    return out


# ---------------------------------------------------------------------------
# JSON round trip


def _require_keys(obj: dict, cls: type, where: str) -> None:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected an object")
    keys = {f.name for f in fields(cls)}
    unknown = obj.keys() - keys
    if unknown:
        raise InstanceFormatError(f"{where}: unknown key '{sorted(unknown)[0]}'")
    missing = keys - obj.keys()
    if missing:
        raise InstanceFormatError(f"{where}: missing key '{sorted(missing)[0]}'")


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise InstanceValidationError(message)


def _int_in(obj: dict, key: str, where: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise InstanceFormatError(f"{where}: '{key}' must be an integer")
    return v


def _num_in(obj: dict, key: str, where: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InstanceFormatError(f"{where}: '{key}' must be a number")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise InstanceFormatError(f"{where}: '{key}' must be a finite number")
    return x


def _str_in(obj: dict, key: str, where: str) -> str:
    v = obj[key]
    if not isinstance(v, str):
        raise InstanceFormatError(f"{where}: '{key}' must be a string")
    return v


def _bool_in(obj: dict, key: str, where: str) -> bool:
    v = obj[key]
    if not isinstance(v, bool):
        raise InstanceFormatError(f"{where}: '{key}' must be a boolean")
    return v


# Keyed by annotation text, since annotations are postponed in this module.
_READERS = {"int": _int_in, "float": _num_in, "str": _str_in, "bool": _bool_in}


def _record(cls: type, obj: dict, where: str, **done):
    """Read a ``cls`` record; each field not in ``done`` by its type's reader."""
    _require_keys(obj, cls, where)
    for f in fields(cls):
        if f.name not in done:
            done[f.name] = _READERS[f.type](obj, f.name, where)
    return cls(**done)


def instance_from_dict(data: dict) -> Instance:
    _require_keys(data, Instance, "instance")
    name = _str_in(data, "name", "instance")

    if not isinstance(data["airports"], list):
        raise InstanceFormatError("instance: 'airports' must be a list")
    airports = [
        _record(Airport, a, f"airports[{i}]")
        for i, a in enumerate(data["airports"])
    ]
    codes = [a.code for a in airports]
    _check(len(set(codes)) == len(codes), "airports: duplicate code")
    _check(len(airports) > 0, "airports: at least one airport required")
    for a in airports:
        _check(a.min_airplane_turn >= 0, f"airport {a.code}: negative turn time")
        _check(a.min_crew_change >= 0, f"airport {a.code}: negative crew change time")

    if not isinstance(data["legs"], list):
        raise InstanceFormatError("instance: 'legs' must be a list")
    legs = [
        _record(FlightLeg, l, f"legs[{i}]")
        for i, l in enumerate(data["legs"])
    ]
    code_set = set(codes)
    ids = [l.id for l in legs]
    _check(len(set(ids)) == len(ids), "legs: duplicate id")
    for l in legs:
        _check(l.dep_airport in code_set, f"leg {l.id}: unknown airport '{l.dep_airport}'")
        _check(l.arr_airport in code_set, f"leg {l.id}: unknown airport '{l.arr_airport}'")
        _check(l.dep_airport != l.arr_airport, f"leg {l.id}: departs and arrives at '{l.dep_airport}'")
        _check(0 <= l.dep_time < WEEK_MINUTES, f"leg {l.id}: dep_time out of [0, {WEEK_MINUTES})")
        _check(0 <= l.arr_time < WEEK_MINUTES, f"leg {l.id}: arr_time out of [0, {WEEK_MINUTES})")
        _check(l.arr_time > l.dep_time, f"leg {l.id}: arrival not after departure")
        _check(
            l.dep_time // DAY_MINUTES == l.arr_time // DAY_MINUTES
            or l.arr_time % DAY_MINUTES == 0,
            f"leg {l.id}: leg crosses midnight",
        )

    r = data["rules"]
    _require_keys(r, RulesConfig, "rules")
    if not isinstance(r["F_table"], list) or not r["F_table"]:
        raise InstanceFormatError("rules: 'F_table' must be a non-empty list")
    bands = [
        _record(FlyingLimitBand, b, f"rules.F_table[{i}]")
        for i, b in enumerate(r["F_table"])
    ]
    for b in bands:
        _check(0 <= b.from_hour < b.to_hour <= 24, "rules: F_table band hours must satisfy 0 <= from < to <= 24")
        _check(b.limit_minutes > 0, "rules: F_table limit must be positive")
    for b1, b2 in zip(bands, bands[1:]):
        _check(b1.to_hour <= b2.from_hour, "rules: F_table bands overlap or are unsorted")

    sb = r["short_band"]
    if not isinstance(sb, list) or len(sb) != 2 or any(isinstance(v, bool) or not isinstance(v, int) for v in sb):
        raise InstanceFormatError("rules: 'short_band' must be a pair of integers")
    weights = _record(CostWeights, r["weights"], "rules.weights")
    kappa = r["kappa"]
    if kappa != "auto" and (isinstance(kappa, bool) or not isinstance(kappa, int)):
        raise InstanceFormatError("rules: 'kappa' must be an integer or \"auto\"")

    rules = _record(
        RulesConfig, r, "rules", F_table=tuple(bands),
        short_band=(sb[0], sb[1]), kappa=kappa, weights=weights,
    )
    _check(rules.T >= 1, "rules: T must be at least 1")
    _check(rules.n_a >= 0, "rules: n_a must be nonnegative")
    _check(rules.max_legs_per_duty >= 1, "rules: max_legs_per_duty must be at least 1")
    _check(
        1 <= rules.reduced_rest_max_legs <= rules.max_legs_per_duty,
        "rules: reduced_rest_max_legs must be in [1, max_legs_per_duty]",
    )
    _check(rules.reduced_rest_threshold >= 0, "rules: reduced_rest_threshold must be nonnegative")
    _check(0 <= rules.short_band[0] <= rules.short_band[1], "rules: short_band must satisfy 0 <= t_air <= t_crew")
    _check(0.0 <= rules.alpha <= 1.0, "rules: alpha must be in [0, 1]")
    _check(0.0 <= rules.beta <= 1.0, "rules: beta must be in [0, 1]")
    _check(0.0 < rules.gamma <= 1.0, "rules: gamma must be in (0, 1]")
    _check(rules.kappa == "auto" or rules.kappa >= 1, "rules: kappa must be at least 1")
    _check(1 <= rules.max_pairing_days <= 7, "rules: max_pairing_days must be in [1, 7]")
    _check(weights.w_fly >= 0 and weights.w_hotel >= 0 and weights.w_pairing >= 0, "rules: weights must be nonnegative")

    inst = Instance(
        name=name,
        airports=tuple(airports),
        legs=tuple(sorted(legs, key=lambda l: l.id)),
        rules=rules,
    )
    _check(len(inst.bases) >= 1, "airports: at least one base required")
    return inst


def instance_to_dict(inst: Instance) -> dict:
    """The JSON object of an instance: records become objects, tuples lists."""
    return _plain(inst)


def _plain(value):
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def dumps_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"


def load_instance(path: str, text: str | None = None) -> Instance:
    """Load an instance from a JSON file (or from text when given)."""
    if text is None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"instance: not valid JSON ({exc})") from exc
    return instance_from_dict(data)


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))
