"""Per-layer tracing from outside the program.

Hooks replace layer functions at the call sites where their callers import
them, so the program itself is unchanged. Each call records a span (name,
start, end, parent) and a few counts read off the returned object; a
layer's self time is its span time minus the time of the spans it caused.
A hook whose target no longer exists is skipped, and the metrics that read
it are reported as absent. The untraced run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


def _lp(sol):
    return {"pivots": sol.iterations}


def _mip(res):
    return {"nodes": res.nodes}


def _search(out):
    st = out[-1]
    return {"paths": st.paths_enumerated, "cut_dom": st.cut_dom,
            "cut_low": st.cut_low}


def _pairing(res):
    st = res.stats
    return {"rounds": st["pricing_rounds"],
            "priced": st["columns_priced"],
            "completion": st["columns_completion"]}


# (module, attribute, span name, counts read off the returned object)
HOOKS = (
    ("crewroute.routing", "build_connections", "instance.connections", None),
    ("crewroute.pairing.colgen", "build_connections", "instance.connections", None),
    ("crewroute.integrated", "build_connections", "instance.connections", None),
    ("crewroute.routing", "build_routing_graph", "routing.graph", None),
    ("crewroute.routing", "build_ar_model", "routing.model",
     lambda out: {"vars": out[0].n_vars}),
    ("crewroute.routing", "solve_mip", "routing.mip", _mip),
    ("crewroute.milp.branch_bound", "solve_lp", "milp.node_lp", _lp),
    ("crewroute.pairing.colgen", "solve_lp", "pairing.master_lp", _lp),
    ("crewroute.pairing.colgen", "solve_mip", "pairing.master_mip", _mip),
    ("crewroute.pairing.colgen", "build_pricing_networks", "pairing.network", None),
    ("crewroute.pairing.colgen", "arc_resources", "pairing.arc_resources", None),
    ("crewroute.pairing.colgen", "decode_pairing", "pairing.decode", None),
    ("crewroute.pairing.colgen", "build_state_graph", "rcsp.state_graph", None),
    ("crewroute.pairing.colgen", "update_bounds", "rcsp.bounds", None),
    ("crewroute.pairing.colgen", "solve", "rcsp.search", _search),
    ("crewroute.pairing.colgen", "enumerate_within", "rcsp.enumerate", _search),
    ("crewroute.integrated", "solve_crew_pairing", "integrated.pairing", _pairing),
    ("crewroute.integrated", "solve_routing", "integrated.routing", None),
)

# Root spans the benchmark opens around its own solve calls, by call kind.
ROOT_COUNTS = {
    "pair": _pairing,
    "integrated": lambda res: {"iterations": res.iterations},
}

LP = ("milp.node_lp", "pairing.master_lp")
MIP = ("routing.mip", "pairing.master_mip")
PAIRING = ("bench.pair", "integrated.pairing")
SEARCH = ("rcsp.search", "rcsp.enumerate")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()

    def call(self, name: str, fn, counts=None, *args, **kwargs):
        sid = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else None,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(sid)
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if span.parent is not None:
                self.spans[span.parent].child_s += span.end - span.start
        if counts is not None:
            span.counts = counts(out)
        return out

    def install(self) -> None:
        for module, attr, name, counts in HOOKS:
            try:
                mod = importlib.import_module(module)
                target = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue

            @functools.wraps(target)
            def hooked(*args, _fn=target, _name=name, _counts=counts,
                       **kwargs):
                return self.call(_name, _fn, _counts, *args, **kwargs)

            setattr(mod, attr, hooked)
            self._installed.append((mod, attr, target))

    def uninstall(self) -> None:
        for mod, attr, target in reversed(self._installed):
            setattr(mod, attr, target)
        self._installed.clear()


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict, list[str]]:
    """Per-pass layer metrics from the spans, and the names found absent."""
    spans = tracer.spans

    def of(names):
        return [s for s in spans if s.name in names]

    def self_ms(*names):
        return sum(s.self_s for s in of(names)) * 1000.0 / passes

    def total_ms(*names):
        return sum(s.end - s.start for s in of(names)) * 1000.0 / passes

    def calls(*names):
        return len(of(names)) / passes

    def count(key, *names):
        return sum(s.counts.get(key, 0) for s in of(names)) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    def after_first_rounds():
        by_parent: dict = {}
        for s in of(("integrated.pairing",)):
            by_parent.setdefault(s.parent, []).append(s.counts["rounds"])
        return sum(sum(r[1:]) for r in by_parent.values()) / passes

    table = {
        "instance.connections_ms": (("instance.connections",),
                                    lambda: self_ms("instance.connections")),
        "routing.graph_ms": (("routing.graph",),
                             lambda: self_ms("routing.graph")),
        "routing.model_ms": (("routing.model",),
                             lambda: self_ms("routing.model")),
        "routing.model_vars": (("routing.model",),
                               lambda: count("vars", "routing.model")),
        "milp.lp_ms": (LP, lambda: self_ms(*LP)),
        "milp.bb_ms": (MIP, lambda: self_ms(*MIP)),
        "milp.lp_calls": (LP, lambda: calls(*LP)),
        "milp.pivots": (LP, lambda: count("pivots", *LP)),
        "milp.nodes": (MIP, lambda: count("nodes", *MIP)),
        "pairing.network_ms": (("pairing.network",),
                               lambda: self_ms("pairing.network")),
        "pairing.arc_resources_ms": (("pairing.arc_resources",),
                                     lambda: self_ms("pairing.arc_resources")),
        "pairing.master_lp_ms": (("pairing.master_lp",),
                                 lambda: total_ms("pairing.master_lp")),
        "pairing.master_mip_ms": (("pairing.master_mip",),
                                  lambda: total_ms("pairing.master_mip")),
        "pairing.decode_ms": (("pairing.decode",),
                              lambda: self_ms("pairing.decode")),
        "pairing.cg_rounds": (PAIRING, lambda: count("rounds", *PAIRING)),
        "pairing.columns_priced": (PAIRING,
                                   lambda: count("priced", *PAIRING)),
        "pairing.columns_completion": (PAIRING,
                                       lambda: count("completion", *PAIRING)),
        "pairing.column_yield": (PAIRING + ("rcsp.search",), lambda: ratio(
            count("priced", *PAIRING), calls("rcsp.search"))),
        "rcsp.state_graph_ms": (("rcsp.state_graph",),
                                lambda: self_ms("rcsp.state_graph")),
        "rcsp.bounds_ms": (("rcsp.bounds",), lambda: self_ms("rcsp.bounds")),
        "rcsp.search_ms": (("rcsp.search",), lambda: self_ms("rcsp.search")),
        "rcsp.enumerate_ms": (("rcsp.enumerate",),
                              lambda: self_ms("rcsp.enumerate")),
        "rcsp.paths": (SEARCH, lambda: count("paths", *SEARCH)),
        "rcsp.cut_dom": (SEARCH, lambda: count("cut_dom", *SEARCH)),
        "rcsp.cut_low": (SEARCH, lambda: count("cut_low", *SEARCH)),
        "rcsp.paths_per_solve": (("rcsp.search",), lambda: ratio(
            count("paths", "rcsp.search"), calls("rcsp.search"))),
        "integrated.iterations": ((), lambda: count("iterations",
                                                    "bench.integrated")),
        "integrated.pairing_ms": (("integrated.pairing",),
                                  lambda: total_ms("integrated.pairing")),
        "integrated.routing_ms": (("integrated.routing",),
                                  lambda: total_ms("integrated.routing")),
        "integrated.cg_rounds_after_first": (("integrated.pairing",),
                                             after_first_rounds),
    }
    out, absent = {}, []
    for metric, (needs, value) in table.items():
        if tracer.absent.intersection(needs):
            absent.append(metric)
        else:
            out[metric] = value()
    return out, absent
