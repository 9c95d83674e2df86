"""Resource constrained shortest paths over a lattice ordered monoid.

A resource algebra supplies an associative ``combine`` with neutral element,
a lattice partial order (``leq``, ``meet``, ``join``) compatible with
``combine``, a non-decreasing scalar ``cost`` and a non-decreasing
infeasibility flag ``infeasible``. The solver enumerates partial paths from
the origin, keyed by the best completion estimate obtainable from a set of
suffix bounds per vertex, and discards paths by dominance (Dom) and by
bound-based pruning (Low). One best-first loop runs in two modes: ``solve``
lowers its bound to each better path it finds, and ``enumerate_within``
keeps a fixed threshold and collects every path within it, as gap
completion needs. Bounds come from a state graph: each vertex carries up
to ``kappa`` states, each state aggregating a cluster of
(out-arc, successor-state) candidates, and a backward DP over states yields
one sound suffix bound per state. With exact algebras the returned minimum
is independent of which tests are enabled; the tests only change how much
work is discarded along the way.

Resources split into a fixed structure and one scalar, the only component
that moves between pricing rounds. ``combine`` adds scalars and ``meet``
takes their minimum, component by component, so the structure of every
state bound is fixed when the state graph is built, and a round reprices
the arcs and refreshes the bounds with a scalar min-plus DP
(``update_bounds``).

The build clusters a vertex's candidates on their scalar and top flag
alone and bounds each cluster by the meet of its members' combines. A
vertex holds hundreds of candidates at kappa 50, so this runs on numpy
arrays, a batch of vertices at a time (``combine_array``,
``candidate_keys``, ``meet_runs``). A vertex with at most kappa
candidates, and every vertex at kappa 1, stays on tuples: each of its
states is bounded by the left fold of ``meet`` over its members' combines
that ``compute_bounds`` runs. The search stays a fused loop over tuples:
a vertex holds a few dozen states, too few for numpy's per-call
overhead. Each round ``update_bounds`` also sorts every vertex's states
by a floor of the new bounds (``floors``), a part of any completion's
cost that the bound alone fixes, so the search can key a label by
scanning the states in floor order and stop at the first floor too high
to beat its bound.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np


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

    def completion_cost(self, q, bounds, states, ordered=False,
                        limit=math.inf) -> float:
        """The search key of a label: the least cost of a feasible
        ``combine(q, bounds[s])`` over ``s`` in ``states``, +inf if none.

        ``ordered`` says that ``states`` are in ``floors`` order, which lets
        a scan stop early. Only a key of at most ``limit`` must be exact;
        above it any value above ``limit`` will do, which lets a scan stop
        earlier still. The reference scans them all; an algebra may
        override it with a fused loop that returns the same float bit for
        bit up to ``limit``."""
        best = math.inf
        for s in states:
            qb = self.combine(q, bounds[s])
            if not self.infeasible(qb):
                c = self.cost(qb)
                if c < best:
                    best = c
        return best

    def floors(self, bounds) -> list[float]:
        """One float per bound, the key that ``update_bounds`` sorts each
        vertex's states by before an ordered ``completion_cost``. The
        reference floor is 0 for every bound, which keeps the build order."""
        return [0.0] * len(bounds)

    # The state-graph build clusters (out-arc, successor-state) candidates
    # on the scalar and top flag of combine(resources[a], bounds[s]) and
    # bounds each cluster by the meet of its members' combines. At kappa
    # above 1 it clusters on arrays: a resource is a column of floats, one
    # row per component, and each kernel takes many columns.

    def to_array(self, qs) -> np.ndarray:
        """The resources ``qs`` as a float array, one column each."""
        raise NotImplementedError

    def from_array(self, arr) -> list:
        """The resources of the columns of ``arr``, as ``to_array`` took
        them."""
        raise NotImplementedError

    def combine_array(self, arr1, arr2) -> np.ndarray:
        """``combine`` of the columns of ``arr1`` and ``arr2``, pairwise."""
        raise NotImplementedError

    def candidate_keys(self, arr):
        """The scalars and the top flags of the columns, as a float and a
        bool array."""
        raise NotImplementedError

    def meet_runs(self, arr, starts) -> np.ndarray:
        """One column per run ``starts[j]:starts[j + 1]`` of the columns
        (the last run ends at the last column): ``meet`` folded from the
        left over the run, float for float."""
        raise NotImplementedError


def fold_min(x, starts):
    """``np.minimum.reduceat(x, starts)`` signed as a left fold of ``min``
    signs it: a zero minimum takes the sign of the first zero of its run,
    where numpy's may take the last."""
    m = np.minimum.reduceat(x, starts)
    zero = np.flatnonzero(m == 0)
    if zero.size:
        at = np.flatnonzero(x == 0)
        m[zero] = x[at[np.searchsorted(at, starts[zero])]]
    return m


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

    def to_array(self, qs) -> np.ndarray:
        return np.array(qs, dtype=np.float64).reshape(-1, 2).T

    def from_array(self, arr) -> list:
        # a load comes back as an int when it is whole, as integer loads
        # went in
        return [(c, int(l) if l.is_integer() else l)
                for c, l in zip(arr[0].tolist(), arr[1].tolist())]

    def combine_array(self, arr1, arr2) -> np.ndarray:
        return arr1 + arr2

    def candidate_keys(self, arr):
        return arr[0], np.zeros(arr.shape[1], dtype=bool)

    def meet_runs(self, arr, starts) -> np.ndarray:
        return np.stack((fold_min(arr[0], starts), fold_min(arr[1], starts)))


def resolve_kappa(kappa: int | str, n_vertices: int) -> int:
    """Apply the size-based default when kappa is 'auto'.

    Any other value must be an integer of at least 1; a bool or a float is
    a ValueError, never truncated."""
    if kappa != "auto":
        if isinstance(kappa, bool) or not isinstance(kappa, int):
            raise ValueError(f"kappa must be an integer or 'auto', "
                             f"not {kappa!r}")
        if kappa < 1:
            raise ValueError(f"kappa must be at least 1, not {kappa}")
        return kappa
    if n_vertices < 100:
        return 1
    if n_vertices < 300:
        return 50
    if n_vertices < 1500:
        return 150
    return 250


class RcspGraph:
    """Acyclic digraph with opaque arc resources, pruned to o-d vertices.

    Topology is immutable. ``resources`` holds one resource per arc;
    ``update_bounds`` rebinds it to resources that keep each arc's
    structure and change its scalar.
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

    ``states_of`` lists each vertex's states in build order until the first
    ``update_bounds``, which sorts every list by the algebra's ``floors`` of
    the new bounds each round and records that algebra in ``ordered_for``.
    The search passes ``ordered=True`` to ``completion_cost`` only under
    that same algebra.
    """

    graph: RcspGraph
    kappa: int
    states_of: list[list[int]]
    state_arcs: list[list[tuple[int, int]]]
    bounds: list
    ordered_for: object = None

    def at(self, vertex: int) -> list:
        """The bounds of the vertex's states."""
        return [self.bounds[s] for s in self.states_of[vertex]]


def _cluster_runs(xs, lo, hi, first_top, kappa):
    """The starts of the kappa runs that one vertex's candidates, at
    positions ``lo:hi`` of the cost order, cluster into; ``hi - lo`` is
    above kappa, which is at least 2.

    ``xs`` holds the candidates' scalars in cost order and ``first_top``
    the position of the vertex's first top candidate (``hi`` if none).
    Costs are dual-free and scalars finite (instance validation rejects
    non-finite weights). A cluster's cost is +inf when every member is top
    and its minimum member scalar otherwise, the cost of the meet of its
    members without duals. Cost order puts the non-top candidates first,
    by scalar, and the top ones last, so merging two non-top or two top
    neighbours loses nothing. Only a non-top cluster followed by a top
    cluster with a lower minimum scalar loses, the difference of the two
    minima. Least loss first, ties in the order the neighbour pairs arose,
    is therefore a series of left-to-right passes that merge every pair
    of neighbours but that one, skipping past both clusters of each
    merge, until kappa clusters remain. From three clusters on some pair
    loses nothing, so the lossy pair is never merged above kappa 1.

    Merges only join neighbours, so every cluster is a run of the cost
    order, kept as the position where it starts, and the top candidates
    come last, so a cluster is top exactly when it starts at or after
    ``first_top``. The only pair that can lose is then the last non-top
    cluster and the first top one, and a pass is a few slices."""
    starts = np.arange(lo, hi)
    while len(starts) > kappa:
        m = len(starts)
        merges = m - kappa
        # b is the first top cluster. A pass pairs clusters (0, 1), (2, 3),
        # ...; when (b - 1, b) is one of its pairs and loses, cluster b - 1
        # stays alone and the pairs go on from b.
        b = m if first_top == hi else int(np.searchsorted(starts, first_top))
        alone = -1
        if 0 < b < m and b % 2 == 1 and b // 2 < merges:
            end = starts[b + 1] if b + 1 < m else hi
            if xs[starts[b]:end].min() < xs[starts[b - 1]]:
                alone = b - 1
        if alone < 0:
            k = min(merges, m // 2)
            starts = np.concatenate((starts[0:2 * k:2], starts[2 * k:]))
        else:
            k = min(merges - alone // 2, (m - b) // 2)
            starts = np.concatenate((starts[0:alone:2], starts[alone:b],
                                     starts[b:b + 2 * k:2],
                                     starts[b + 2 * k:]))
    return starts


def _cluster(scalars, tops, sizes, kappa):
    """Cluster the candidates of several vertices, each into kappa runs of
    its cost order (see ``_cluster_runs``).

    The candidates are given vertex by vertex, ``sizes[i]`` of them for
    vertex i, each size above kappa, which is at least 2; ``scalars`` and
    ``tops`` hold their scalars and top flags. Returns ``members``, the
    candidate indices cluster by cluster and ascending within each, and
    the array of the positions in ``members`` where each cluster starts.
    """
    n = len(scalars)
    sizes = np.asarray(sizes)
    ends = np.cumsum(sizes)
    # Cost order per vertex: non-top by scalar, then top, ties by index.
    # Dense ranks of the keys make it a stable sort of small integers.
    key = np.where(tops, np.inf, scalars)
    by_key = np.argsort(key)
    rank = np.empty(n, dtype=_index_type(n))
    rank[by_key[0]] = 0
    rank[by_key[1:]] = np.cumsum(key[by_key[1:]] != key[by_key[:-1]])
    group = np.repeat(np.arange(len(sizes), dtype=_index_type(len(sizes))),
                      sizes)
    order = np.lexsort((rank, group))
    xs = scalars[order]
    first_tops = ends - np.add.reduceat(tops, ends - sizes, dtype=np.intp)
    starts = np.concatenate([
        _cluster_runs(xs, lo, hi, ft, kappa)
        for lo, hi, ft in zip((ends - sizes).tolist(), ends.tolist(),
                              first_tops.tolist())])
    # each candidate's cluster; a stable sort by it lists the members of
    # each cluster in index order
    label = np.empty(n, dtype=_index_type(len(starts)))
    label[order] = np.repeat(np.arange(len(starts), dtype=label.dtype),
                             np.diff(starts, append=n))
    return np.argsort(label, kind="stable"), starts


def _index_type(n):
    """The integer type that holds 0..n, 16 bits when it can, where numpy
    sorts stably by radix."""
    return np.int16 if n <= np.iinfo(np.int16).max else np.intp


def _plan(graph: RcspGraph, kap: int):
    """Number the states and batch the vertices, before any bound is formed.

    A vertex with more than kap candidates is clustered (at kap > 1) or
    gets one state (at kap 1); any other vertex gets one state per
    candidate. Its states take the next ids in reverse topological order,
    the destination's first. A vertex's batch is the most clustered
    vertices on any of its paths to the destination, itself not counted,
    so a clustered vertex needs the bounds of earlier batches only, and of
    the other vertices of its own batch. Returns the lists ``first``
    (each vertex's first state id), ``count`` (its number of states),
    ``n_cands``, ``clustered`` and ``batches`` (each in reverse
    topological order)."""
    n = graph.n_vertices
    first, count, n_cands, depth = [0] * n, [0] * n, [0] * n, [0] * n
    clustered = [False] * n
    batches: list[list[int]] = [[]]
    n_states = 0
    for v in reversed(graph.topo_order):
        c = d = 0
        for aid in graph.out[v]:
            u = graph.arcs[aid][1]
            c += count[u]
            if depth[u] + clustered[u] > d:
                d = depth[u] + clustered[u]
        if v == graph.dest:
            k = 1
        elif c <= kap or kap == 1:
            k = min(c, kap)
        else:
            k = kap
            clustered[v] = True
        first[v], count[v], n_cands[v], depth[v] = n_states, k, c, d
        n_states += k
        if d == len(batches):
            batches.append([])
        batches[d].append(v)
    return first, count, n_cands, clustered, batches


# The most candidates the build combines in one array step, a few hundred
# KB per array; a vertex with more is a step of its own.
_STEP_CANDIDATES = 4096


def _parts(group, n_cands):
    """The vertices of ``group`` in order, in runs of at most
    ``_STEP_CANDIDATES`` candidates but for a vertex with more."""
    part, size = [], 0
    for v in group:
        if part and size + n_cands[v] > _STEP_CANDIDATES:
            yield part
            part, size = [], 0
        part.append(v)
        size += n_cands[v]
    yield part


def _fold(algebra, resources, bounds, arcs):
    """The bound of a state with the state arcs ``arcs``: ``neutral`` when
    there are none, otherwise ``meet`` folded from the left over
    ``combine(resources[a], bounds[s])`` for the ``(a, s)`` in ``arcs``."""
    if not arcs:
        return algebra.neutral
    acc = None
    for a, s in arcs:
        q = algebra.combine(resources[a], bounds[s])
        acc = q if acc is None else algebra.meet(acc, q)
    return acc


def build_state_graph(graph: RcspGraph, algebra, kappa: int | str) -> StateGraph:
    """Build the per-vertex state expansion and its bounds for the graph's
    arc resources; ``update_bounds`` refreshes the scalars afterwards.

    A vertex with at most kappa candidates gets one state per candidate,
    and at kappa 1 a vertex with more gets one state for them all; each
    such state is bounded on tuples by the fold that ``compute_bounds``
    runs (``_fold``). The other vertices are clustered on arrays, a batch
    of them at once (see ``_plan``): their candidates are combined by
    ``algebra.combine_array``, keyed by ``algebra.candidate_keys``,
    clustered by ``_cluster`` and bounded by ``algebra.meet_runs``, in
    steps of at most ``_STEP_CANDIDATES`` candidates (see ``_parts``).
    Without a clustered vertex no array is built."""
    kap = resolve_kappa(kappa, len(graph.kept))
    resources, arcs, out = graph.resources, graph.arcs, graph.out
    first, count, n_cands, clustered, batches = _plan(graph, kap)
    n_states = sum(count)
    ids = list(range(n_states))
    states_of = [ids[f:f + c] for f, c in zip(first, count)]
    state_arcs: list = [None] * n_states
    est: list = [None] * n_states
    table = None
    if any(clustered):
        # one column per arc and per state bound
        arc_table = algebra.to_array(resources)
        table = np.empty((arc_table.shape[0], n_states))
        # the ids as the Python ints that the graph and states_of hold,
        # for the state arcs to share rather than convert anew
        kept = [aid for aids in out for aid in aids]
        arc_ints = np.empty(len(arcs), dtype=object)
        arc_ints[kept] = np.array(kept, dtype=object)
        state_ints = np.array(ids, dtype=object)

    for batch in batches:
        made: list[int] = []
        group = []
        for v in batch:
            if clustered[v]:
                group.append(v)
                continue
            cands = [(aid, sid) for aid in out[v]
                     for sid in states_of[arcs[aid][1]]]
            runs = [cands] if count[v] == 1 else [[c] for c in cands]
            for sid, run in enumerate(runs, first[v]):
                state_arcs[sid] = run
                est[sid] = _fold(algebra, resources, est, run)
                made.append(sid)
        if table is None:
            continue
        if made:
            table[:, made] = algebra.to_array([est[s] for s in made])
        if not group:
            continue
        for part in _parts(group, n_cands):
            # every candidate of the part: each out-arc with each successor
            # state, whose ids are a run
            arc_of, head_first, head_count = [], [], []
            for v in part:
                for aid in out[v]:
                    u = arcs[aid][1]
                    arc_of.append(aid)
                    head_first.append(first[u])
                    head_count.append(count[u])
            head_count = np.array(head_count)
            aid = np.repeat(arc_of, head_count)
            sid = np.arange(len(aid)) + np.repeat(
                np.array(head_first) - (np.cumsum(head_count) - head_count),
                head_count)
            combined = algebra.combine_array(arc_table.take(aid, axis=1),
                                             table.take(sid, axis=1))
            scalars, tops = algebra.candidate_keys(combined)
            members, starts = _cluster(scalars, tops,
                                       [n_cands[v] for v in part], kap)
            combined = combined.take(members, axis=1)
            bounds = algebra.meet_runs(combined, starts)
            ids = np.add.outer([first[v] for v in part],
                               np.arange(kap)).ravel()
            table[:, ids] = bounds
            pairs = list(zip(arc_ints[aid[members]].tolist(),
                             state_ints[sid[members]].tolist()))
            cuts = starts.tolist() + [len(pairs)]
            runs = [pairs[a:b] for a, b in zip(cuts, cuts[1:])]
            qs = algebra.from_array(bounds)
            for j, v in enumerate(part):
                f = first[v]
                state_arcs[f:f + kap] = runs[j * kap:(j + 1) * kap]
                est[f:f + kap] = qs[j * kap:(j + 1) * kap]

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
        values[sid] = _fold(algebra, resources, values, arcs)
    return values


def update_bounds(sg: StateGraph, arc_scalar, algebra) -> None:
    """Reprice the graph's arcs and refresh the state bounds for new arc
    scalars.

    ``arc_scalar[aid]`` is the new scalar of arc ``aid``; the arc structures
    must be those the state graph was built with. The graph's ``resources``
    are rebound to the arcs with those scalars. A min-plus DP over the
    state arcs, in the order ``compute_bounds`` meets them, recomputes each
    bound's scalar, so every bound equals ``compute_bounds`` on the new
    resources bit for bit. The bounds are rewritten in place, and each
    vertex's states are then sorted by the algebra's ``floors`` of the new
    bounds (stable, so equal floors keep their order).
    """
    sg.graph.resources = list(map(algebra.with_scalar, sg.graph.resources,
                                  arc_scalar))
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
    if sg.kappa > 1:  # at kappa 1 no vertex has two states to order
        key = algebra.floors(bounds).__getitem__
        for states in sg.states_of:
            if len(states) > 1:
                states.sort(key=key)
    sg.ordered_for = algebra


@dataclass
class SolveStats:
    paths_enumerated: int = 0
    cut_dom: int = 0
    cut_low: int = 0
    truncated: bool = False


def _arc_path(label) -> tuple[int, ...]:
    """The arcs from the origin to a (vertex, resource, parent, arc) label."""
    arcs = []
    while label[2] is not None:
        arcs.append(label[3])
        label = label[2]
    return tuple(reversed(arcs))


def _search(sg: StateGraph, algebra, ub: float, found: list | None,
            use_dom: bool, use_low: bool, path_limit: int = 0):
    """The label loop of ``solve`` and ``enumerate_within``, labels popped
    by completion key, ties in push order. A label is a (vertex, resource,
    parent label, arc) tuple. Incumbent mode (``found`` is None): a cheaper
    feasible o-d label lowers ``ub``. Collect mode: each feasible o-d label
    costing at most ``ub`` goes to ``found`` until one beyond
    ``path_limit`` sets ``truncated``. Returns (ub, best label, stats).

    With Low on, a label whose key is above ``ub`` can only be popped and
    cut, as ``ub`` never rises, so the loop skips the work and counts it
    as done. It does not push such a child unless it is at the
    destination, and in incumbent mode it stops once the heap holds
    nothing else. A run that truncates pops no label keyed above ``ub``,
    so only a run that does not counts the children it skipped.
    """
    graph = sg.graph
    dest = graph.dest
    if graph.origin not in graph.kept:
        return ub, None, SolveStats()

    best = None
    paths = cut_dom = cut_low = 0
    truncated = False
    seq = 0
    ordered = sg.ordered_for is algebra
    key = algebra.completion_cost(algebra.neutral, sg.bounds,
                                  sg.states_of[graph.origin], ordered)
    heap = [(key, seq, (graph.origin, algebra.neutral, None, None))]
    nondom: dict[int, list] = {}
    skipped = 0  # children keyed above ub, never pushed

    while heap:
        if use_low and found is None and not heap[0][0] <= ub:
            # each label left would be popped, and cut by Low unless it is
            # at the destination
            paths += len(heap)
            cut_low += sum(1 for e in heap if e[2][0] != dest)
            break
        key, _, lab = heapq.heappop(heap)
        v, q, _, _ = lab
        paths += 1
        if v == dest:
            if algebra.infeasible(q):
                continue
            c = algebra.cost(q)
            if found is None:
                if c < ub:
                    ub = c
                    best = lab
            elif c <= ub:
                if len(found) >= path_limit:
                    truncated = True
                    break
                found.append((_arc_path(lab), q, c))
            continue
        # Cheap test first: the completion bound was computed at push time
        # and sits in the popped key, while dominance scans a front.
        if use_low and not key <= ub:
            cut_low += 1
            continue
        if use_dom:
            front = nondom.setdefault(v, [])
            if any(algebra.leq(q2, q) for q2 in front):
                cut_dom += 1
                continue
            front[:] = [q2 for q2 in front if not algebra.leq(q, q2)]
            front.append(q)
        limit = ub if use_low else math.inf
        for aid in graph.out[v]:
            head = graph.arcs[aid][1]
            q2 = algebra.combine(q, graph.resources[aid])
            if head != dest and algebra.infeasible(q2):
                continue
            child_key = algebra.completion_cost(q2, sg.bounds,
                                                sg.states_of[head], ordered,
                                                limit)
            if not child_key <= limit and head != dest:
                skipped += 1
                continue
            seq += 1
            heapq.heappush(heap, (child_key, seq, (head, q2, lab, aid)))

    if not truncated:
        paths += skipped
        cut_low += skipped
    return ub, best, SolveStats(paths, cut_dom, cut_low, truncated)


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
    ub, best, stats = _search(sg, algebra, initial_ub, None,
                              "dom" in tests, "low" in tests)
    if best is None:
        return math.inf, None, stats
    return ub, _arc_path(best), stats


def enumerate_within(
    sg: StateGraph,
    algebra,
    c_ub: float,
    path_limit: int = 200_000,
):
    """All feasible o-d paths with cost <= c_ub (dominance disabled).

    Returns (entries, stats) where entries are (arc path, resource, cost) in
    the order the search reaches them. When more than ``path_limit`` paths
    are within c_ub, entries holds the first ``path_limit`` of them and
    stats.truncated is set (not an error).
    """
    found: list[tuple[tuple[int, ...], object, float]] = []
    _, _, stats = _search(sg, algebra, c_ub, found, False, True, path_limit)
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
