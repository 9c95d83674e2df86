"""Problem data model: airports, flight legs, rule parameters, connections.

All times are minutes since the week origin (Monday 00:00) in [0, 10080).
The schedule is cyclic with period one week, so gaps between events are
measured modulo 10080 and a leg never crosses midnight (crews and airplanes
sleep, desk-sized instances follow the same convention as the real ones).

The module owns three operations:

* ``load_instance`` / ``save_instance``: strict JSON round trip. Unknown keys
  are rejected, validation names the first violated invariant, and
  ``save(load(x))`` is byte identical for canonical files.
* ``build_connections``: enumerate and classify every feasible connection
  between ordered leg pairs (airplane-only, short, day-crew, night-crew).
* ``generate_instance`` lives in :mod:`crewroute.generate` and is re-exported
  from the package root.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

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
    _airport_index: dict[str, Airport] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_airport_index", {a.code: a for a in self.airports}
        )

    def airport(self, code: str) -> Airport:
        return self._airport_index[code]

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

_AIRPORT_KEYS = {"code", "is_base", "min_airplane_turn", "min_crew_change"}
_LEG_KEYS = {"id", "dep_airport", "arr_airport", "dep_time", "arr_time"}
_BAND_KEYS = {"from_hour", "to_hour", "limit_minutes"}
_WEIGHT_KEYS = {"w_fly", "w_hotel", "w_pairing"}
_RULES_KEYS = {
    "T",
    "n_a",
    "max_legs_per_duty",
    "reduced_rest_max_legs",
    "reduced_rest_threshold",
    "F_table",
    "short_band",
    "alpha",
    "beta",
    "gamma",
    "kappa",
    "max_pairing_days",
    "weights",
}
_TOP_KEYS = {"name", "airports", "legs", "rules"}


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected an object")
    unknown = set(obj) - keys
    if unknown:
        raise InstanceFormatError(f"{where}: unknown key '{sorted(unknown)[0]}'")
    missing = keys - set(obj)
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


def instance_from_dict(data: dict) -> Instance:
    _require_keys(data, _TOP_KEYS, "instance")
    if not isinstance(data["name"], str):
        raise InstanceFormatError("instance: 'name' must be a string")

    airports = []
    if not isinstance(data["airports"], list):
        raise InstanceFormatError("instance: 'airports' must be a list")
    for i, a in enumerate(data["airports"]):
        where = f"airports[{i}]"
        _require_keys(a, _AIRPORT_KEYS, where)
        if not isinstance(a["code"], str):
            raise InstanceFormatError(f"{where}: 'code' must be a string")
        if not isinstance(a["is_base"], bool):
            raise InstanceFormatError(f"{where}: 'is_base' must be a boolean")
        airports.append(
            Airport(
                code=a["code"],
                is_base=a["is_base"],
                min_airplane_turn=_int_in(a, "min_airplane_turn", where),
                min_crew_change=_int_in(a, "min_crew_change", where),
            )
        )
    codes = [a.code for a in airports]
    _check(len(set(codes)) == len(codes), "airports: duplicate code")
    _check(len(airports) > 0, "airports: at least one airport required")
    for a in airports:
        _check(a.min_airplane_turn >= 0, f"airport {a.code}: negative turn time")
        _check(a.min_crew_change >= 0, f"airport {a.code}: negative crew change time")

    legs = []
    if not isinstance(data["legs"], list):
        raise InstanceFormatError("instance: 'legs' must be a list")
    code_set = set(codes)
    for i, l in enumerate(data["legs"]):
        where = f"legs[{i}]"
        _require_keys(l, _LEG_KEYS, where)
        for key in ("dep_airport", "arr_airport"):
            if not isinstance(l[key], str):
                raise InstanceFormatError(f"{where}: '{key}' must be a string")
        legs.append(
            FlightLeg(
                id=_int_in(l, "id", where),
                dep_airport=l["dep_airport"],
                arr_airport=l["arr_airport"],
                dep_time=_int_in(l, "dep_time", where),
                arr_time=_int_in(l, "arr_time", where),
            )
        )
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
    _require_keys(r, _RULES_KEYS, "rules")
    bands = []
    if not isinstance(r["F_table"], list) or not r["F_table"]:
        raise InstanceFormatError("rules: 'F_table' must be a non-empty list")
    for i, b in enumerate(r["F_table"]):
        where = f"rules.F_table[{i}]"
        _require_keys(b, _BAND_KEYS, where)
        bands.append(
            FlyingLimitBand(
                from_hour=_int_in(b, "from_hour", where),
                to_hour=_int_in(b, "to_hour", where),
                limit_minutes=_int_in(b, "limit_minutes", where),
            )
        )
    for b in bands:
        _check(0 <= b.from_hour < b.to_hour <= 24, "rules: F_table band hours must satisfy 0 <= from < to <= 24")
        _check(b.limit_minutes > 0, "rules: F_table limit must be positive")
    for b1, b2 in zip(bands, bands[1:]):
        _check(b1.to_hour <= b2.from_hour, "rules: F_table bands overlap or are unsorted")

    sb = r["short_band"]
    if not isinstance(sb, list) or len(sb) != 2 or any(isinstance(v, bool) or not isinstance(v, int) for v in sb):
        raise InstanceFormatError("rules: 'short_band' must be a pair of integers")
    _require_keys(r["weights"], _WEIGHT_KEYS, "rules.weights")
    weights = CostWeights(
        w_fly=_num_in(r["weights"], "w_fly", "rules.weights"),
        w_hotel=_num_in(r["weights"], "w_hotel", "rules.weights"),
        w_pairing=_num_in(r["weights"], "w_pairing", "rules.weights"),
    )
    kappa = r["kappa"]
    if kappa != "auto" and (isinstance(kappa, bool) or not isinstance(kappa, int)):
        raise InstanceFormatError("rules: 'kappa' must be an integer or \"auto\"")

    rules = RulesConfig(
        T=_int_in(r, "T", "rules"),
        n_a=_int_in(r, "n_a", "rules"),
        max_legs_per_duty=_int_in(r, "max_legs_per_duty", "rules"),
        reduced_rest_max_legs=_int_in(r, "reduced_rest_max_legs", "rules"),
        reduced_rest_threshold=_int_in(r, "reduced_rest_threshold", "rules"),
        F_table=tuple(bands),
        short_band=(sb[0], sb[1]),
        alpha=_num_in(r, "alpha", "rules"),
        beta=_num_in(r, "beta", "rules"),
        gamma=_num_in(r, "gamma", "rules"),
        kappa=kappa,
        max_pairing_days=_int_in(r, "max_pairing_days", "rules"),
        weights=weights,
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
        name=data["name"],
        airports=tuple(airports),
        legs=tuple(sorted(legs, key=lambda l: l.id)),
        rules=rules,
    )
    _check(len(inst.bases) >= 1, "airports: at least one base required")
    return inst


def instance_to_dict(inst: Instance) -> dict:
    return {
        "name": inst.name,
        "airports": [
            {
                "code": a.code,
                "is_base": a.is_base,
                "min_airplane_turn": a.min_airplane_turn,
                "min_crew_change": a.min_crew_change,
            }
            for a in inst.airports
        ],
        "legs": [
            {
                "id": l.id,
                "dep_airport": l.dep_airport,
                "arr_airport": l.arr_airport,
                "dep_time": l.dep_time,
                "arr_time": l.arr_time,
            }
            for l in inst.legs
        ],
        "rules": {
            "T": inst.rules.T,
            "n_a": inst.rules.n_a,
            "max_legs_per_duty": inst.rules.max_legs_per_duty,
            "reduced_rest_max_legs": inst.rules.reduced_rest_max_legs,
            "reduced_rest_threshold": inst.rules.reduced_rest_threshold,
            "F_table": [
                {
                    "from_hour": b.from_hour,
                    "to_hour": b.to_hour,
                    "limit_minutes": b.limit_minutes,
                }
                for b in inst.rules.F_table
            ],
            "short_band": list(inst.rules.short_band),
            "alpha": inst.rules.alpha,
            "beta": inst.rules.beta,
            "gamma": inst.rules.gamma,
            "kappa": inst.rules.kappa,
            "max_pairing_days": inst.rules.max_pairing_days,
            "weights": {
                "w_fly": inst.rules.weights.w_fly,
                "w_hotel": inst.rules.weights.w_hotel,
                "w_pairing": inst.rules.weights.w_pairing,
            },
        },
    }


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
