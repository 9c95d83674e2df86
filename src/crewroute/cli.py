"""Command line interface.

Reports are JSON with sorted keys and no timing fields, so the same command
on the same input produces byte-identical output; per-layer wall-clock time
comes from ``perfbench/run.py --trace 1``, which times the solver from
outside. Exit codes: 0 solved, 1 input or validation error (single
"crewroute: error:" line on stderr), 2 proven infeasible, 3 a node, path or
iteration limit was hit.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import oracles
from .generate import generate_instance
from .instance import (
    ConnectionKind,
    build_connections,
    instance_to_dict,
    load_instance,
)
from .integrated import solve_integrated
from .pairing import solve_crew_pairing
from .rcsp import resolve_kappa
from .routing import minimize_aircraft, solve_routing

_EXIT_BY_STATUS = {"optimal": 0, "feasible": 0, "infeasible": 2, "limit": 3}


def _emit(obj: dict, output: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_kappa(value: str) -> int:
    try:
        return resolve_kappa(value if value == "auto" else int(value))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "kappa must be an integer of at least 1 or 'auto'")


def _parse_limit(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError("limit must be a non-negative integer")
    return n


def _parse_conn(value: str) -> tuple[int, int]:
    try:
        a, b = value.split(",")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError("connection must look like FROM,TO")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    p.add_argument("--limit-nodes", type=_parse_limit, default=200_000,
                   help="branch and bound node limit")


def _add_pricing(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--limit-paths", type=_parse_limit, default=200_000,
                   help="path cap for the enumeration phase")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crewroute",
        description="Aircraft routing and crew pairing over a cyclic week.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random feasible instance")
    g.add_argument("--airports", type=int, default=4)
    g.add_argument("--bases", type=int, default=1)
    g.add_argument("--legs", type=int, required=True)
    g.add_argument("--aircraft", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", help="write the instance here instead of stdout")

    r = sub.add_parser("route", help="maintenance-feasible aircraft routing")
    r.add_argument("instance")
    r.add_argument("--force", action="append", type=_parse_conn, default=[],
                   metavar="FROM,TO", help="connection the aircraft must fly")
    r.add_argument("--budget", type=_parse_limit, default=None,
                   help="fleet size (default: instance value)")
    r.add_argument("--minimize", action="store_true",
                   help="drop the budget row and minimize aircraft")
    _add_common(r)

    c = sub.add_parser("pair", help="crew pairing by column generation")
    c.add_argument("instance")
    c.add_argument("--kappa", type=_parse_kappa, default=None,
                   help="bound states per vertex ('auto' is 1)")
    _add_pricing(c)

    i = sub.add_parser("integrated", help="pairing consistent with routing")
    i.add_argument("instance")
    i.add_argument("--kappa", type=_parse_kappa, default=None)
    i.add_argument("--gamma", type=float, default=None,
                   help="cut depth in (0, 1]; 1 keeps the loop exact")
    i.add_argument("--iteration-limit", type=_parse_limit, default=100)
    _add_pricing(i)

    o = sub.add_parser("oracle", help="brute-force reference on small instances")
    o.add_argument("instance")
    o.add_argument("problem", choices=["pairing", "routing", "integrated"])
    o.add_argument("--output")

    s = sub.add_parser("report", help="summarize an instance file")
    s.add_argument("instance")
    s.add_argument("--output")

    return ap


def _cmd_generate(args) -> int:
    inst = generate_instance(
        n_airports=args.airports, n_bases=args.bases, n_legs=args.legs,
        n_aircraft=args.aircraft, seed=args.seed,
    )
    _emit(instance_to_dict(inst), args.output)
    return 0


def _cmd_route(args) -> int:
    inst = load_instance(args.instance)
    if args.minimize:
        res = minimize_aircraft(inst, node_limit=args.limit_nodes)
    else:
        res = solve_routing(inst, forced=args.force, budget=args.budget,
                            node_limit=args.limit_nodes)
    _emit(res.as_dict(), args.output)
    return _EXIT_BY_STATUS[res.status]


def _cmd_pair(args) -> int:
    inst = load_instance(args.instance)
    res = solve_crew_pairing(
        inst, kappa=args.kappa, path_limit=args.limit_paths,
        node_limit=args.limit_nodes,
    )
    _emit(res.as_dict(), args.output)
    return _EXIT_BY_STATUS[res.status]


def _cmd_integrated(args) -> int:
    inst = load_instance(args.instance)
    res = solve_integrated(
        inst, gamma=args.gamma, iteration_limit=args.iteration_limit,
        kappa=args.kappa, path_limit=args.limit_paths,
        node_limit=args.limit_nodes,
    )
    _emit(res.as_dict(), args.output)
    return _EXIT_BY_STATUS[res.status]


def _cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    conns = build_connections(inst)
    if args.problem == "pairing":
        status, objective, chosen = oracles.crew_pairing_brute_force(inst, conns)
        _emit({
            "problem": "pairing", "status": status,
            "objective": objective if status == "optimal" else None,
            "pairings": [list(p.legs) for p in chosen or []],
        }, args.output)
        return _EXIT_BY_STATUS[status]
    if args.problem == "routing":
        res = oracles.routing_brute_force(inst)
        status = "optimal" if res.feasible else "infeasible"
        _emit({
            "problem": "routing", "status": status,
            "min_aircraft": res.min_aircraft,
            "routes": [list(r) for r in res.routes or []],
        }, args.output)
        return _EXIT_BY_STATUS[status]
    status, objective = oracles.integrated_brute_force(inst, conns)
    _emit({
        "problem": "integrated", "status": status,
        "objective": objective if status == "optimal" else None,
    }, args.output)
    return _EXIT_BY_STATUS[status]


def _cmd_report(args) -> int:
    inst = load_instance(args.instance)
    conns = build_connections(inst)
    kinds = {kind.value: 0 for kind in ConnectionKind}
    for c in conns:
        kinds[c.kind.value] += 1
    _emit({
        "name": inst.name,
        "airports": len(inst.airports),
        "bases": sorted(a.code for a in inst.bases),
        "legs": len(inst.legs),
        "fleet": inst.rules.n_a,
        "maintenance_interval_days": inst.rules.T,
        "connections": kinds,
        "total_flying_minutes": sum(l.flying_minutes for l in inst.legs),
    }, args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "route" and args.minimize and (
            args.force or args.budget is not None):
        # minimize_aircraft takes no forced connections and no budget
        parser.error("route: argument --minimize: not allowed with "
                     "--force or --budget")
    handlers = {
        "generate": _cmd_generate,
        "route": _cmd_route,
        "pair": _cmd_pair,
        "integrated": _cmd_integrated,
        "oracle": _cmd_oracle,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except oracles.OracleLimitError as exc:
        print(f"crewroute: error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        # ValueError covers InstanceError, JSON decode errors and bad
        # solver arguments such as forcing a connection that is not there
        print(f"crewroute: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
