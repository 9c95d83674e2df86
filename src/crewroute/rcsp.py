"""Resource constrained shortest paths over a lattice ordered monoid.

A resource algebra supplies an associative ``combine`` with neutral element,
a lattice partial order (``leq``, ``meet``, ``join``) compatible with
``combine``, a non-decreasing scalar ``cost`` and a non-decreasing
infeasibility flag ``infeasible``. The solver enumerates partial paths from
the origin, keyed by the best completion estimate obtainable from a set of
suffix bounds per vertex, and discards paths by dominance (Dom) and by
bound-based pruning (Low). Bounds come from a state graph: each vertex
carries up to ``kappa`` states, each state aggregating a cluster of
(out-arc, successor-state) candidates, and a backward DP over states yields
one sound suffix bound per state. With exact algebras the returned minimum
is independent of which tests are enabled; the tests only change how much
work is discarded along the way.

Resources split into a fixed structure and one scalar, the only component
that moves between pricing rounds. ``combine`` adds scalars and ``meet``
takes their minimum, component by component, so the structure of every
state bound is fixed when the state graph is built, and a round refreshes
the bounds with a scalar min-plus DP (``update_bounds``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass


class ResourceAlgebra:
    """Interface for lattice ordered monoid resources.

    Laws (checked by the property suite): combine is associative with
    ``neutral`` as two-sided identity; leq is a partial order under which
    meet/join are greatest lower / least upper bounds; combine is monotone
    in both arguments; cost and infeasible are non-decreasing.
    """

    def combine(self, q1, q2):
        raise NotImplementedError

    @property
    def neutral(self):
        raise NotImplementedError

    def leq(self, q1, q2) -> bool:
        raise NotImplementedError

    def meet(self, q1, q2):
        raise NotImplementedError

    def join(self, q1, q2):
        raise NotImplementedError

    def cost(self, q) -> float:
        raise NotImplementedError

    def infeasible(self, q) -> bool:
        raise NotImplementedError

    # The structure/scalar split. combine adds scalars, meet takes their
    # minimum, and the structure of a combine or meet depends on the
    # structures alone. Without duals, cost(q) is scalar(q) unless is_top(q);
    # is_top(meet(q1, q2)) holds exactly when both is_top(q1) and is_top(q2).

    def scalar(self, q) -> float:
        raise NotImplementedError

    def with_scalar(self, q, s):
        """q with its scalar replaced by s."""
        raise NotImplementedError

    def is_top(self, q) -> bool:
        """True when the structure alone makes the cost +inf."""
        raise NotImplementedError


class AdditiveCapacityAlgebra(ResourceAlgebra):
    """Plain (cost, load) resources: componentwise sums, capacity on load."""

    def __init__(self, capacity: float):
        self.capacity = capacity

    def combine(self, q1, q2):
        return (q1[0] + q2[0], q1[1] + q2[1])

    @property
    def neutral(self):
        return (0.0, 0)

    def leq(self, q1, q2) -> bool:
        return q1[0] <= q2[0] and q1[1] <= q2[1]

    def meet(self, q1, q2):
        return (min(q1[0], q2[0]), min(q1[1], q2[1]))

    def join(self, q1, q2):
        return (max(q1[0], q2[0]), max(q1[1], q2[1]))

    def cost(self, q) -> float:
        return q[0]

    def infeasible(self, q) -> bool:
        return q[1] > self.capacity

    def scalar(self, q) -> float:
        return q[0]

    def with_scalar(self, q, s):
        return (s, q[1])

    def is_top(self, q) -> bool:
        return False


def resolve_kappa(kappa: int | str, n_vertices: int) -> int:
    """Apply the size-based default when kappa is 'auto'."""
    if kappa != "auto":
        return int(kappa)
    if n_vertices < 100:
        return 1
    if n_vertices < 300:
        return 50
    if n_vertices < 1500:
        return 150
    return 250


class RcspGraph:
    """Acyclic digraph with opaque arc resources, pruned to o-d vertices.

    Topology is immutable. ``resources`` holds one resource per arc; a
    pricing round rebinds it to resources that keep each arc's structure
    and change its scalar.
    """

    def __init__(self, n_vertices, arcs, origin, dest, resources):
        if origin == dest:
            raise ValueError("origin and destination must differ")
        if not (0 <= origin < n_vertices and 0 <= dest < n_vertices):
            raise ValueError("origin or destination out of range")
        if len(resources) != len(arcs):
            raise ValueError("resource list length mismatch")
        self.n_vertices = n_vertices
        self.arcs = [(int(u), int(v)) for u, v in arcs]
        for u, v in self.arcs:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError("arc endpoint out of range")
        self.origin = origin
        self.dest = dest
        self.resources = list(resources)

        succ: list[list[int]] = [[] for _ in range(n_vertices)]
        pred: list[list[int]] = [[] for _ in range(n_vertices)]
        for u, v in self.arcs:
            succ[u].append(v)
            pred[v].append(u)
        order = self._topo_sort(succ)
        if order is None:
            raise ValueError("graph has a directed cycle")

        fwd = self._reach(self.origin, succ)
        bwd = self._reach(self.dest, pred)
        self.kept = fwd & bwd
        self.out: list[list[int]] = [[] for _ in range(n_vertices)]
        for aid, (u, v) in enumerate(self.arcs):
            if u in self.kept and v in self.kept:
                self.out[u].append(aid)
        self.topo_order = [v for v in order if v in self.kept]

    @staticmethod
    def _topo_sort(succ):
        n = len(succ)
        indeg = [0] * n
        for u in range(n):
            for v in succ[u]:
                indeg[v] += 1
        queue = [v for v in range(n) if indeg[v] == 0]
        order = []
        while queue:
            v = queue.pop()
            order.append(v)
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return order if len(order) == n else None

    @staticmethod
    def _reach(start, adj):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen


@dataclass
class StateGraph:
    """The pricing state of one graph: its vertex-state expansion and the
    suffix bounds the search prunes with.

    Every (out-arc, successor-state) candidate of a vertex belongs to
    exactly one of its at most ``kappa`` states, so following a path through
    the state graph is deterministic once the state of the next vertex is
    known, which is what makes the backward DP bounds sound.

    States are numbered in reverse topological order of their vertices, so
    every state arc leads to a lower-numbered state and the bound DPs run
    over the states by number. ``bounds`` holds one suffix bound per state.
    Their structures are fixed at build time; ``update_bounds`` rewrites
    their scalars in place.
    """

    graph: RcspGraph
    kappa: int
    states_of: list[list[int]]
    state_arcs: list[list[tuple[int, int]]]
    bounds: list

    def at(self, vertex: int) -> list:
        """The bounds of the vertex's states."""
        return [self.bounds[s] for s in self.states_of[vertex]]


def _cluster_candidates(ests, algebra, kappa):
    """Group candidate indices into <= kappa clusters, merging neighbours in
    cost order with the smallest bound degradation first.

    Costs are dual-free. A cluster's cost is +inf when every member is top
    and its minimum member scalar otherwise, which is the cost of the meet
    of its members without duals."""
    n = len(ests)
    if n <= kappa:
        return [[i] for i in range(n)]
    scalars = [algebra.scalar(b) for b in ests]
    tops = [algebra.is_top(b) for b in ests]
    costs = [math.inf if t else x for x, t in zip(scalars, tops)]
    order = sorted(range(n), key=lambda i: (costs[i], i))
    members = [[i] for i in order]
    low = [scalars[i] for i in order]
    top = [tops[i] for i in order]
    cost = [costs[i] for i in order]
    left = list(range(-1, n - 1))
    right = list(range(1, n + 1))
    right[-1] = -1
    alive = [True] * n
    version = [0] * n

    def loss(a, b):
        """Bound degradation of merging clusters a and b: the lower of their
        costs minus the cost of the merged cluster."""
        ca, cb = cost[a], cost[b]
        lo = ca if ca <= cb else cb
        if top[a] and top[b]:
            cm = math.inf
        else:
            la, lb = low[a], low[b]
            cm = la if la <= lb else lb
        if lo == math.inf:
            return 0.0 if cm == math.inf else math.inf
        if cm == -math.inf:
            return math.inf
        return lo - cm

    heap = []
    seq = 0
    for i in range(n - 1):
        heapq.heappush(heap, (loss(i, i + 1), seq, i, i + 1, 0, 0))
        seq += 1

    remaining = n
    while remaining > kappa:
        _, _, i, j, vi, vj = heapq.heappop(heap)
        if not (alive[i] and alive[j]) or version[i] != vi or version[j] != vj:
            continue
        members[i].extend(members[j])
        if low[j] < low[i]:
            low[i] = low[j]
        top[i] = top[i] and top[j]
        cost[i] = math.inf if top[i] else low[i]
        alive[j] = False
        version[i] += 1
        right[i] = right[j]
        if right[j] >= 0:
            left[right[j]] = i
        remaining -= 1
        for nb in (left[i], right[i]):
            if nb >= 0 and alive[nb]:
                a, b = (nb, i) if nb < i else (i, nb)
                heapq.heappush(
                    heap, (loss(a, b), seq, a, b, version[a], version[b]))
                seq += 1

    return [sorted(members[i]) for i in range(n) if alive[i]]


def build_state_graph(graph: RcspGraph, algebra, kappa: int | str) -> StateGraph:
    """Build the per-vertex state expansion and its bounds for the graph's
    arc resources; ``update_bounds`` refreshes the scalars afterwards."""
    kap = resolve_kappa(kappa, len(graph.kept))
    if kap < 1:
        raise ValueError("kappa must be at least 1")
    states_of: list[list[int]] = [[] for _ in range(graph.n_vertices)]
    state_arcs: list[list[tuple[int, int]]] = []
    est: list = []

    def new_state(v, arcs, bound):
        states_of[v].append(len(state_arcs))
        state_arcs.append(arcs)
        est.append(bound)

    if graph.dest in graph.kept:
        new_state(graph.dest, [], algebra.neutral)
    for v in reversed(graph.topo_order):
        if v == graph.dest:
            continue
        cand_arcs: list[tuple[int, int]] = []
        cand_est: list = []
        for aid in graph.out[v]:
            head = graph.arcs[aid][1]
            for sid in states_of[head]:
                cand_arcs.append((aid, sid))
                cand_est.append(algebra.combine(graph.resources[aid], est[sid]))
        clusters = _cluster_candidates(cand_est, algebra, kap)
        for cluster in clusters:
            bound = cand_est[cluster[0]]
            for idx in cluster[1:]:
                bound = algebra.meet(bound, cand_est[idx])
            new_state(v, [cand_arcs[i] for i in cluster], bound)

    return StateGraph(
        graph=graph,
        kappa=kap,
        states_of=states_of,
        state_arcs=state_arcs,
        bounds=est,
    )


def compute_bounds(sg: StateGraph, algebra) -> list:
    """Backward DP over states with the graph's current arc resources.

    The full-resource reference for ``update_bounds``; returns one bound per
    state and leaves ``sg.bounds`` as it is."""
    resources = sg.graph.resources
    values = [None] * len(sg.state_arcs)
    for sid, arcs in enumerate(sg.state_arcs):
        if not arcs:
            values[sid] = algebra.neutral
            continue
        acc = None
        for aid, nxt in arcs:
            q = algebra.combine(resources[aid], values[nxt])
            acc = q if acc is None else algebra.meet(acc, q)
        values[sid] = acc
    return values


def update_bounds(sg: StateGraph, arc_scalar, algebra) -> None:
    """Refresh the state bounds for new arc scalars.

    ``arc_scalar[aid]`` is the new scalar of arc ``aid``; the arc structures
    must be those the state graph was built with. A min-plus DP over the
    state arcs, in the order ``compute_bounds`` meets them, recomputes each
    bound's scalar, so every bound equals ``compute_bounds`` on the new
    resources bit for bit. The bounds are rewritten in place.
    """
    bounds = sg.bounds
    scalars = [0.0] * len(sg.state_arcs)
    for sid, arcs in enumerate(sg.state_arcs):
        if not arcs:
            scalars[sid] = algebra.scalar(bounds[sid])
            continue
        best = math.inf
        for aid, nxt in arcs:
            x = arc_scalar[aid] + scalars[nxt]
            if x < best:
                best = x
        scalars[sid] = best
        bounds[sid] = algebra.with_scalar(bounds[sid], best)


class PartialPath:
    __slots__ = ("vertex", "resource", "parent", "arc_id")

    def __init__(self, vertex, resource, parent, arc_id):
        self.vertex = vertex
        self.resource = resource
        self.parent = parent
        self.arc_id = arc_id

    def arc_path(self) -> tuple[int, ...]:
        arcs = []
        node = self
        while node.parent is not None:
            arcs.append(node.arc_id)
            node = node.parent
        return tuple(reversed(arcs))


@dataclass
class SolveStats:
    paths_enumerated: int = 0
    cut_dom: int = 0
    cut_low: int = 0
    truncated: bool = False


def _key_of(q, vertex, algebra, sg: StateGraph) -> float:
    bounds = sg.bounds
    best = math.inf
    for s in sg.states_of[vertex]:
        qb = algebra.combine(q, bounds[s])
        if not algebra.infeasible(qb):
            c = algebra.cost(qb)
            if c < best:
                best = c
    return best


def solve(
    sg: StateGraph,
    algebra,
    tests: tuple[str, ...] = ("dom", "low"),
    initial_ub: float = math.inf,
):
    """Minimum-cost feasible o-d path. Returns (cost, arc path, stats).

    Cost is +inf with a None path when no feasible path exists. Enabling or
    disabling tests changes the statistics, never the returned optimum.

    initial_ub acts as an incumbent: paths costing initial_ub or more are
    not wanted, so the search may discard any label whose completion bound
    already reaches it. With a finite initial_ub the returned path is the
    optimum whenever the optimum costs less than initial_ub, and (inf, None)
    otherwise.
    """
    graph = sg.graph
    stats = SolveStats()
    use_dom = "dom" in tests
    use_low = "low" in tests
    ub = initial_ub
    best: PartialPath | None = None

    if graph.origin not in graph.kept:
        return math.inf, None, stats

    root = PartialPath(graph.origin, algebra.neutral, None, None)
    seq = 0
    heap = [(_key_of(root.resource, graph.origin, algebra, sg), seq, root)]
    nondom: dict[int, list] = {}

    while heap:
        key, _, lab = heapq.heappop(heap)
        stats.paths_enumerated += 1
        v = lab.vertex
        if v == graph.dest:
            q = lab.resource
            if not algebra.infeasible(q) and algebra.cost(q) < ub:
                ub = algebra.cost(q)
                best = lab
            continue
        # Cheap test first: the completion bound was computed at push time
        # and sits in the popped key, while dominance scans a front.
        if use_low and not key <= ub:
            stats.cut_low += 1
            continue
        if use_dom:
            front = nondom.setdefault(v, [])
            if any(algebra.leq(q2, lab.resource) for q2 in front):
                stats.cut_dom += 1
                continue
            front[:] = [q2 for q2 in front if not algebra.leq(lab.resource, q2)]
            front.append(lab.resource)
        for aid in graph.out[v]:
            head = graph.arcs[aid][1]
            q2 = algebra.combine(lab.resource, graph.resources[aid])
            if head != graph.dest and algebra.infeasible(q2):
                continue
            seq += 1
            child = PartialPath(head, q2, lab, aid)
            heapq.heappush(
                heap, (_key_of(q2, head, algebra, sg), seq, child)
            )

    if best is None:
        return math.inf, None, stats
    return ub, best.arc_path(), stats


def enumerate_within(
    sg: StateGraph,
    algebra,
    c_ub: float,
    path_limit: int = 200_000,
):
    """All feasible o-d paths with cost <= c_ub (dominance disabled).

    Returns (entries, stats) where entries are (arc path, resource, cost)
    and stats.truncated reports a hit of ``path_limit`` (not an error).
    """
    graph = sg.graph
    stats = SolveStats()
    found: list[tuple[tuple[int, ...], object, float]] = []
    if graph.origin not in graph.kept:
        return found, stats

    root = PartialPath(graph.origin, algebra.neutral, None, None)
    seq = 0
    heap = [(_key_of(root.resource, graph.origin, algebra, sg), seq, root)]
    while heap:
        key, _, lab = heapq.heappop(heap)
        stats.paths_enumerated += 1
        v = lab.vertex
        if v == graph.dest:
            q = lab.resource
            if not algebra.infeasible(q) and algebra.cost(q) <= c_ub:
                found.append((lab.arc_path(), q, algebra.cost(q)))
                if len(found) >= path_limit:
                    stats.truncated = True
                    break
            continue
        if not key <= c_ub:
            stats.cut_low += 1
            continue
        for aid in graph.out[v]:
            head = graph.arcs[aid][1]
            q2 = algebra.combine(lab.resource, graph.resources[aid])
            if head != graph.dest and algebra.infeasible(q2):
                continue
            seq += 1
            child = PartialPath(head, q2, lab, aid)
            heapq.heappush(
                heap, (_key_of(q2, head, algebra, sg), seq, child)
            )
    return found, stats


def brute_force_oracle(graph: RcspGraph, algebra, max_paths: int = 1_000_000):
    """DFS over every o-d path, no pruning beyond the path counter guard.

    Returns (min cost, best arc path or None, list of (path, cost) for all
    feasible paths).
    """
    feasible: list[tuple[tuple[int, ...], float]] = []
    best_cost, best_path = math.inf, None
    count = 0

    def dfs(v, q, arcs):
        nonlocal best_cost, best_path, count
        if v == graph.dest:
            count += 1
            if count > max_paths:
                raise RuntimeError("oracle path guard exceeded")
            if not algebra.infeasible(q):
                c = algebra.cost(q)
                feasible.append((tuple(arcs), c))
                if c < best_cost:
                    best_cost, best_path = c, tuple(arcs)
            return
        for aid in graph.out[v]:
            arcs.append(aid)
            dfs(graph.arcs[aid][1], algebra.combine(q, graph.resources[aid]), arcs)
            arcs.pop()

    if graph.origin in graph.kept:
        dfs(graph.origin, algebra.neutral, [])
    return best_cost, best_path, feasible
