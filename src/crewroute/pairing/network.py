"""Pricing networks for crew pairings.

Pairings may start on any weekday and span up to ``max_pairing_days``
consecutive days, wrapping over the week boundary. Each of the 7 windows
covers that many consecutive days; a window's network holds one vertex per
leg departing inside it plus an origin and a destination. Arcs:

* origin -> leg for legs departing a crew base (opens the first duty),
* leg -> leg for every crew-compatible connection that runs forward in
  window-local time (short and day-crew gaps extend the open duty, night
  gaps close it and open the next one after the rest),
* leg -> destination for legs arriving at a crew base.

Every rule-feasible pairing appears in at least the window anchored at its
first departure day, and any origin-destination path decodes to a feasible
pairing, so pricing over the 7 windows with cross-window deduplication is
exact. Only the ``z`` of an arc resource depends on the current duals: it
is the arc's dual-free ``z`` minus the cover dual of the leg the arc enters
(``WindowNetwork.arc_legs``) and, on an arc that flies a short connection
(``arc_shorts``), minus that connection's dual in the short-connection cut
rows. A window network is acyclic, so a path flies each connection at most
once, and its ``z`` pays every cut row once per cut connection it flies.
Topology, state graphs and the rest of each arc resource are built once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..instance import (
    DAY_MINUTES,
    WEEK_MINUTES,
    Connection,
    ConnectionKind,
    Instance,
)
from ..rcsp import RcspGraph
from .algebra import (
    LONG_DUTY_LEGS,
    LONG_PAIRING_NIGHTS,
    PairingAlgebra,
    multi_core,
    one_core,
)


@dataclass(frozen=True)
class PairingColumn:
    """A priced pairing decoded into master-row coefficients."""

    legs: tuple[int, ...]
    cost: float
    nights: int
    duties: tuple[tuple[int, ...], ...]
    n_long_duties: int
    shorts: tuple[tuple[int, int], ...]

    @property
    def n_duties(self) -> int:
        return len(self.duties)

    @property
    def n_short_duties(self) -> int:
        return self.n_duties - self.n_long_duties

    @property
    def is_long(self) -> bool:
        return self.nights >= LONG_PAIRING_NIGHTS


@dataclass
class WindowNetwork:
    """One window's graph. ``arc_info`` tags each arc; ``arc_legs`` holds
    the leg it enters, whose cover dual its ``z`` pays, None on arcs into
    the destination."""

    window: int
    graph: RcspGraph
    leg_of_vertex: list[int]
    arc_info: list[tuple]
    arc_legs: list[int | None]


def _local(t: int, window: int) -> int:
    return (t - window * DAY_MINUTES) % WEEK_MINUTES


def build_pricing_networks(
    inst: Instance, connections: list[Connection]
) -> list[WindowNetwork]:
    """One network per weekday window, topology only (resources unset)."""
    legs = {l.id: l for l in inst.legs}
    crew_conns = [
        c for c in connections
        if c.kind in (ConnectionKind.SHORT, ConnectionKind.DAY_CREW,
                      ConnectionKind.NIGHT_CREW)
    ]
    nets = []
    for w in range(7):
        days = {(w + i) % 7 for i in range(inst.rules.max_pairing_days)}
        member = sorted(l.id for l in inst.legs if l.dep_day in days)
        vid = {leg_id: i for i, leg_id in enumerate(member)}
        origin, dest = len(member), len(member) + 1

        arcs: list[tuple[int, int]] = []
        info: list[tuple] = []
        entered: list[int | None] = []
        for leg_id in member:
            leg = legs[leg_id]
            if inst.airport(leg.dep_airport).is_base:
                arcs.append((origin, vid[leg_id]))
                info.append(("o", leg_id))
                entered.append(leg_id)
        for c in crew_conns:
            if c.from_leg not in vid or c.to_leg not in vid:
                continue
            l1, l2 = legs[c.from_leg], legs[c.to_leg]
            if _local(l1.arr_time, w) + c.ground_minutes != _local(l2.dep_time, w):
                continue
            kind = "night" if c.kind == ConnectionKind.NIGHT_CREW else "day"
            arcs.append((vid[c.from_leg], vid[c.to_leg]))
            info.append((kind, c))
            entered.append(c.to_leg)
        for leg_id in member:
            leg = legs[leg_id]
            if inst.airport(leg.arr_airport).is_base:
                arcs.append((vid[leg_id], dest))
                info.append(("d", leg_id))
                entered.append(None)

        graph = RcspGraph(
            n_vertices=len(member) + 2,
            arcs=arcs,
            origin=origin,
            dest=dest,
            resources=[None] * len(arcs),
        )
        nets.append(WindowNetwork(w, graph, member, info, entered))
    return nets


def arc_resources(
    net: WindowNetwork,
    inst: Instance,
    algebra: PairingAlgebra,
    leg_duals: dict[int, float],
):
    """Arc resource list for the given leg cover duals."""
    legs = {l.id: l for l in inst.legs}
    rules = inst.rules
    w = rules.weights
    f_max = rules.F_max

    out = []
    for tag in net.arc_info:
        kind = tag[0]
        if kind == "o":
            leg = legs[tag[1]]
            f = leg.flying_minutes
            pad = f_max - rules.flying_limit(leg.dep_time)
            z = w.w_pairing + w.w_fly * f - leg_duals.get(leg.id, 0.0)
            out.append((one_core(1, f + pad), z, 0, 0))
        elif kind == "d":
            out.append(algebra.neutral)
        else:
            c: Connection = tag[1]
            leg = legs[c.to_leg]
            f = leg.flying_minutes
            if kind == "day":
                z = w.w_fly * f - leg_duals.get(leg.id, 0.0)
                out.append((one_core(1, f), z, 0, 0))
            else:
                extra = rules.reduced_rest_extra if c.is_reduced_rest else 0
                pad = f_max - rules.flying_limit(leg.dep_time)
                z = (w.w_fly * f + w.w_hotel * c.midnights_crossed
                     - leg_duals.get(leg.id, 0.0))
                core = multi_core(0, 0, 1 + extra, f + pad, 0)
                out.append((core, z, c.midnights_crossed, 1))
    return out


def path_legs(net: WindowNetwork, arc_path: tuple[int, ...]) -> tuple[int, ...]:
    """The legs an origin-destination arc path flies, in order: the
    ``legs`` of its decoded pairing, read without decoding it."""
    legs = (net.arc_legs[aid] for aid in arc_path)
    return tuple(leg for leg in legs if leg is not None)


def arc_shorts(net: WindowNetwork) -> list[tuple[int, tuple[int, int]]]:
    """``(arc, connection key)`` for each arc that flies a short connection,
    the connections ``decode_pairing`` records in ``shorts``."""
    return [(aid, tag[1].key) for aid, tag in enumerate(net.arc_info)
            if tag[0] == "day" and tag[1].kind == ConnectionKind.SHORT]


def decode_pairing(
    net: WindowNetwork, inst: Instance, arc_path: tuple[int, ...]
) -> PairingColumn:
    """Rebuild the pairing behind an origin-destination arc path.

    Duty counters are recomputed from the connection structure rather than
    read off the path resource, so this doubles as an independent check of
    the algebra arithmetic at the column level.
    """
    rules = inst.rules
    w = rules.weights

    legs = path_legs(net, arc_path)
    duties: list[list[int]] = []
    counters: list[int] = []
    nights = 0
    shorts: list[tuple[int, int]] = []
    for aid in arc_path:
        tag = net.arc_info[aid]
        kind = tag[0]
        if kind == "o":
            duties.append([tag[1]])
            counters.append(1)
        elif kind == "day":
            c: Connection = tag[1]
            duties[-1].append(c.to_leg)
            counters[-1] += 1
            if c.kind == ConnectionKind.SHORT:
                shorts.append(c.key)
        elif kind == "night":
            c = tag[1]
            nights += c.midnights_crossed
            extra = rules.reduced_rest_extra if c.is_reduced_rest else 0
            duties.append([c.to_leg])
            counters.append(1 + extra)
    fly_total = sum(inst.leg(i).flying_minutes for i in legs)
    cost = w.w_pairing + w.w_fly * fly_total + w.w_hotel * nights
    n_long = sum(1 for k in counters if k > LONG_DUTY_LEGS)
    return PairingColumn(
        legs=legs,
        cost=cost,
        nights=nights,
        duties=tuple(tuple(d) for d in duties),
        n_long_duties=n_long,
        shorts=tuple(shorts),
    )
