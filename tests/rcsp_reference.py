"""List-based references for the state-graph build and the label loop.

``reference_build`` is the state-graph build on Python lists, a combine
per candidate for its clustering keys and a left fold of meets of combines
(``reference_meet_of_combines``) for its cluster bounds: the oracle of the
array build. ``reference_search`` is the label loop that pushes every child
and pops every label, the oracle of the loop that skips the labels keyed
above its bound. Both must agree with ``crewroute.rcsp`` field for field
and counter for counter.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left

from crewroute.rcsp import SolveStats, StateGraph, resolve_kappa


def reference_keys(algebra, resources, bounds, cands):
    """The scalars and the top flags of ``combine(resources[a],
    bounds[s])`` for the ``(a, s)`` in ``cands``, as two lists."""
    scalars, tops = [], []
    for a, s in cands:
        q = algebra.combine(resources[a], bounds[s])
        scalars.append(algebra.scalar(q))
        tops.append(algebra.is_top(q))
    return scalars, tops


def reference_clusters(scalars, tops, kappa):
    """The clusters of one vertex's candidates as lists of candidate
    indices, ascending within each: the passes of ``rcsp._cluster_runs``
    on Python lists, the cost order from ``sorted``."""
    n = len(scalars)
    if n <= kappa:
        return [[i] for i in range(n)]
    if kappa == 1:
        # may need the lossy merge, which a pass never makes
        return [list(range(n))]
    keys = [math.inf if t else x for x, t in zip(scalars, tops)]
    order = sorted(range(n), key=keys.__getitem__)  # stable: ties by index
    first_top = n - sum(tops)
    starts = list(range(n))
    while len(starts) > kappa:
        m = len(starts)
        merges = m - kappa
        # b is the first top cluster. A pass pairs clusters (0, 1), (2, 3),
        # ...; when (b - 1, b) is one of its pairs and loses, cluster b - 1
        # stays alone and the pairs go on from b.
        b = bisect_left(starts, first_top)
        alone = -1
        if 0 < b < m and b % 2 == 1 and b // 2 < merges:
            end = starts[b + 1] if b + 1 < m else n
            low_top = min(scalars[i] for i in order[starts[b]:end])
            if low_top < scalars[order[starts[b - 1]]]:
                alone = b - 1
        if alone < 0:
            k = min(merges, m // 2)
            starts = starts[0:2 * k:2] + starts[2 * k:]
        else:
            k = min(merges - alone // 2, (m - b) // 2)
            starts = (starts[0:alone:2] + [starts[alone]]
                      + starts[b:b + 2 * k:2] + starts[b + 2 * k:])
    ends = starts[1:] + [n]
    return [sorted(order[a:e]) for a, e in zip(starts, ends)]


def reference_meet_of_combines(algebra, resources, bounds, cands):
    """``meet`` folded from the left over ``combine(resources[a],
    bounds[s])`` for the ``(a, s)`` in ``cands``, which is not empty."""
    acc = None
    for a, s in cands:
        q = algebra.combine(resources[a], bounds[s])
        acc = q if acc is None else algebra.meet(acc, q)
    return acc


def reference_build(graph, algebra, kappa) -> StateGraph:
    """``build_state_graph`` on lists: each vertex in reverse topological
    order, its candidates keyed and clustered by ``reference_keys`` and
    ``reference_clusters``, and each cluster bounded by
    ``reference_meet_of_combines``."""
    kap = resolve_kappa(kappa, len(graph.kept))
    resources = graph.resources
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
        cands = [(aid, sid) for aid in graph.out[v]
                 for sid in states_of[graph.arcs[aid][1]]]
        if len(cands) <= kap:
            for aid, sid in cands:
                new_state(v, [(aid, sid)],
                          algebra.combine(resources[aid], est[sid]))
            continue
        if kap == 1:
            clusters = [cands]
        else:
            scalars, tops = reference_keys(algebra, resources, est, cands)
            clusters = [[cands[i] for i in run]
                        for run in reference_clusters(scalars, tops, kap)]
        for arcs in clusters:
            new_state(v, arcs, reference_meet_of_combines(
                algebra, resources, est, arcs))

    return StateGraph(
        graph=graph,
        kappa=kap,
        states_of=states_of,
        state_arcs=state_arcs,
        bounds=est,
    )


def reference_arc_path(label) -> tuple[int, ...]:
    """The arcs from the origin to a (vertex, resource, parent, arc)
    label of ``reference_search``."""
    arcs = []
    node = label
    while node[2] is not None:
        arcs.append(node[3])
        node = node[2]
    return tuple(reversed(arcs))


def reference_search(sg, algebra, ub, found, use_dom, use_low,
                     path_limit=0):
    """``rcsp._search`` as it pushed and popped every label: the label loop
    of ``solve`` and ``enumerate_within``, labels popped by completion key,
    ties in push order. A label is a (vertex, resource, parent label, arc)
    tuple. Incumbent mode (``found`` is None): a cheaper feasible o-d label
    lowers ``ub``. Collect mode: each feasible o-d label costing at most
    ``ub`` goes to ``found`` until one beyond ``path_limit`` sets
    ``truncated``. Returns (ub, best label, stats).
    """
    graph = sg.graph
    stats = SolveStats()
    best = None

    if graph.origin not in graph.kept:
        return ub, None, stats

    root = (graph.origin, algebra.neutral, None, None)
    seq = 0
    ordered = sg.ordered_for is algebra
    key = algebra.completion_cost(root[1], sg.bounds,
                                  sg.states_of[graph.origin], ordered)
    heap = [(key, seq, root)]
    nondom: dict[int, list] = {}

    while heap:
        key, _, lab = heapq.heappop(heap)
        stats.paths_enumerated += 1
        v, q, _, _ = lab
        if v == graph.dest:
            if algebra.infeasible(q):
                continue
            c = algebra.cost(q)
            if found is None:
                if c < ub:
                    ub = c
                    best = lab
            elif c <= ub:
                if len(found) >= path_limit:
                    stats.truncated = True
                    break
                found.append((reference_arc_path(lab), q, c))
            continue
        # Cheap test first: the completion bound was computed at push time
        # and sits in the popped key, while dominance scans a front.
        if use_low and not key <= ub:
            stats.cut_low += 1
            continue
        if use_dom:
            front = nondom.setdefault(v, [])
            if any(algebra.leq(q2, q) for q2 in front):
                stats.cut_dom += 1
                continue
            front[:] = [q2 for q2 in front if not algebra.leq(q, q2)]
            front.append(q)
        for aid in graph.out[v]:
            head = graph.arcs[aid][1]
            q2 = algebra.combine(q, graph.resources[aid])
            if head != graph.dest and algebra.infeasible(q2):
                continue
            seq += 1
            child = (head, q2, lab, aid)
            child_key = algebra.completion_cost(q2, sg.bounds,
                                                sg.states_of[head], ordered)
            heapq.heappush(heap, (child_key, seq, child))

    return ub, best, stats
