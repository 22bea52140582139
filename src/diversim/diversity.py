"""Diversity configurations: which implementation runs on which node.

A configuration, an ``int16`` array indexed by node id, assigns every node an
implementation index of its program.
An edge is defective when both endpoints run the same program with the same
implementation; only same-program edges (inter-computer links) can be
defective. Three initial assignment algorithms are provided: uniform random,
greedy local flipping, and a degree-priority heuristic with a
first-improvement switching phase.

Flipping and switching sweep nodes in ascending id, the degree-priority
pre-assignment in degree rank; each node sees the implementations its
earlier neighbors took. All three run a sweep one dependency level at a time
(``_levels``): the nodes of a level are counted, decided and updated together
with array operations, and the result is the node-by-node one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import CommGraph, ImplementationPool, derived, gather_neighbors

#: full sweeps after which ``color_flipping`` stops short of a fixed point
MAX_FLIP_SWEEPS = 50


@dataclass(frozen=True)
class ColoringReport:
    defective_edges: int
    per_program: tuple[int, ...]
    sweeps: int


def count_defective_edges(graph: CommGraph, inst: np.ndarray) -> ColoringReport:
    e = graph.sp_edges
    bad = inst[e[:, 0]] == inst[e[:, 1]]
    per = np.bincount(graph.program[e[bad, 0]], minlength=graph.hbar)
    return ColoringReport(int(bad.sum()), tuple(int(c) for c in per), 0)


def random_coloring(graph: CommGraph, pool: ImplementationPool, rng: np.random.Generator) -> np.ndarray:
    """Uniform independent implementation per node."""
    return rng.integers(0, pool.x, size=graph.n_nodes, dtype=np.int16)


def color_flipping(
    graph: CommGraph,
    pool: ImplementationPool,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ColoringReport]:
    """Greedy repair of a random start.

    Sweeps nodes in ascending id; a node flips to the implementation with
    strictly fewest defective incident edges (ties to the lowest index).
    Stops at a fixed point or after ``MAX_FLIP_SWEEPS`` full sweeps. Each
    sweep runs one dependency level at a time (see ``_levels``); a graph's
    levels are built once per x, for as long as the graph lives.
    """
    inst = random_coloring(graph, pool, rng)
    levels = derived(graph, ("flip levels", pool.x),
                     lambda: _levels(graph, np.arange(graph.n_nodes), pool.x))
    sweeps = _sweep(inst, levels, pool.x, _fewest, MAX_FLIP_SWEEPS)
    base = count_defective_edges(graph, inst)
    return inst, ColoringReport(base.defective_edges, base.per_program, sweeps)


def degree_priority_assignment(
    graph: CommGraph,
    pool: ImplementationPool,
) -> tuple[np.ndarray, ColoringReport]:
    """Deterministic degree-priority heuristic.

    Programs are processed one at a time, applications first, then the OS.
    Within a program, nodes are ranked by full-graph degree descending (ties
    by id) and pre-assigned implementations round-robin. A pre-assignment
    survives unless it conflicts with an already-colored neighbor; then the
    lowest implementation causing no conflict wins; failing that, the
    implementation with fewest conflicts, preferring the one carried by the
    lowest-(degree, id) colored neighbor, then the lowest index. Afterwards a
    switching pass walks the program's nodes in ascending id and takes the
    first implementation (in index order) that strictly lowers that node's
    defective-edge count, repeating until a fixed point. The report's
    ``sweeps`` sums the switching passes over the programs.
    """
    x = pool.x
    inst = np.full(graph.n_nodes, -1, dtype=np.int16)
    total_sweeps = 0
    for prog in range(graph.hbar):
        members = np.flatnonzero(graph.program == prog)
        if members.size == 0:
            continue
        _preassign(graph, inst, members[np.lexsort((members, -graph.degree[members]))], x)
        total_sweeps += _switching(graph, inst, members, x)
    base = count_defective_edges(graph, inst)
    return inst, ColoringReport(base.defective_edges, base.per_program, total_sweeps)


def _preassign(graph: CommGraph, inst: np.ndarray, ordered: np.ndarray, x: int) -> None:
    """Pre-assign the uncolored (-1) program ``ordered``, given in degree
    rank, by the rules of ``degree_priority_assignment``. They read only the
    neighbors ranked earlier, so the rank-order levels of ``_levels`` give
    the node-by-node result."""
    pre = np.zeros(graph.n_nodes, dtype=np.int16)
    pre[ordered] = np.arange(ordered.size) % x
    alone = ordered[graph.sp_indptr[ordered + 1] == graph.sp_indptr[ordered]]
    inst[alone] = pre[alone]
    for v, slot, key, nbr in _levels(graph, ordered, x):
        # neighbors ranked later are on later levels and still hold -1
        colored = inst[nbr] >= 0
        key, nbr = key[colored], nbr[colored]
        counts = np.bincount(key + inst[nbr], minlength=v.size * x)
        keep = counts[slot + pre[v]] == 0
        counts = counts.reshape(v.size, x)
        fewest = counts.min(axis=1)
        pick = (counts == fewest[:, None]).argmax(axis=1)
        tied = fewest > 0
        if tied.any():
            row = key // x
            by_rank = np.lexsort((nbr, graph.degree[nbr], row))
            first = by_rank[np.diff(row[by_rank], prepend=-1) != 0]
            lowest = np.zeros(v.size, dtype=np.int64)
            lowest[row[first]] = inst[nbr[first]]
            tied &= counts[np.arange(v.size), lowest] == fewest
            pick = np.where(tied, lowest, pick)
        inst[v] = np.where(keep, pre[v], pick)


def _switching(graph: CommGraph, inst: np.ndarray, members: np.ndarray, x: int) -> int:
    """First-improvement single-node switches until a fixed point.

    Every accepted switch strictly lowers the program's defective-edge count,
    so termination is guaranteed. Sweeps run one dependency level at a time
    (see ``_levels``).
    """
    return _sweep(inst, _levels(graph, members, x), x, lambda counts, cur: cur)


def _fewest(counts: np.ndarray, cur: np.ndarray) -> np.ndarray:
    # the first count below fewest + 1 is the lowest-index fewest; the cap at
    # the node's own count lets it move only on a strict improvement
    return np.minimum(cur, counts.min(axis=1) + 1)


def _sweep(inst: np.ndarray, levels: tuple, x: int, bound, limit: int | None = None) -> int:
    """Ascending-id sweeps over the nodes of ``levels`` (see ``_levels``)
    until one changes nothing or ``limit`` sweeps are made; returns the
    sweeps made.

    A node whose same-program neighbors run each implementation ``counts``
    times, ``cur`` of them its own, switches to the first implementation
    counted below ``bound(counts, cur)``, if any is.
    """
    sweeps = 0
    while limit is None or sweeps < limit:
        changed = False
        for v, slot, key, nbr in levels:
            counts = np.bincount(key + inst[nbr], minlength=slot.size * x)
            cur = counts[slot + inst[v]]
            counts = counts.reshape(slot.size, x)
            below = counts < bound(counts, cur)[:, None]
            if below.any():
                take = below.any(axis=1)
                inst[v[take]] = below[take].argmax(axis=1)
                changed = True
        sweeps += 1
        if not changed:
            break
    return sweeps


def _levels(graph: CommGraph, nodes: np.ndarray, x: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The dependency levels of a sweep over ``nodes``, given in sweep order.

    ``nodes`` holds whole programs. A node with no same-program neighbor
    never sees another node and is left out; one with no same-program
    neighbor earlier in the sweep is on level 0, any other one level above
    the highest level of its earlier neighbors. So no two nodes of a level
    are neighbors, a node's earlier neighbors are all on earlier levels and
    its later ones on later levels: processing the levels in turn, each at
    once, shows every node what the node-by-node sweep shows it (Anderson &
    Saad's level scheduling of a sparse triangular solve; Jones & Plassmann's
    parallel greedy coloring in a priority order).

    Returns, level by level, its nodes ``v`` and the keys of a ``(v.size, x)``
    count table: ``slot[j]`` is the flat offset of ``v[j]``'s row and
    ``key[i]`` that of the row of the node whose neighbor is ``nbr[i]``.
    """
    indptr, indices = graph.sp_indptr, graph.sp_indices
    nodes = nodes[indptr[nodes + 1] > indptr[nodes]]
    # peel in the sweep-order numbering of the swept nodes; gathered node by
    # node, each node's later neighbors form one block
    local = np.full(graph.n_nodes, -1, dtype=np.int64)
    local[nodes] = np.arange(nodes.size)
    high = local[gather_neighbors(indptr, indices, nodes)]
    low = np.arange(nodes.size).repeat(indptr[nodes + 1] - indptr[nodes])
    later = high > low
    high = high[later]
    up_count = np.bincount(low[later], minlength=nodes.size)
    up_end = up_count.cumsum()
    # waiting: a node's earlier neighbors not yet on a level, -1 once placed
    waiting = np.bincount(high, minlength=nodes.size)
    fronts = []
    frontier = (waiting == 0).nonzero()[0]
    while frontier.size:
        fronts.append(frontier)
        waiting[frontier] = -1
        count = up_count[frontier]
        ends = count.cumsum()
        pos = (up_end[frontier] - ends).repeat(count) + np.arange(ends[-1])
        waiting -= np.bincount(high[pos], minlength=nodes.size)
        frontier = (waiting == 0).nonzero()[0]

    if not fronts:
        return ()
    sizes = [f.size for f in fronts]
    swept = nodes[np.concatenate(fronts)]
    deg = indptr[swept + 1] - indptr[swept]
    node_ends = np.cumsum(sizes)
    slot = (np.arange(swept.size) - (node_ends - sizes).repeat(sizes)) * x
    key = slot.repeat(deg)
    nbr = gather_neighbors(indptr, indices, swept)
    node_ends, edge_ends = node_ends.tolist(), deg.cumsum()[node_ends - 1].tolist()
    return tuple(
        (swept[a:b], slot[a:b], key[c:d], nbr[c:d])
        for a, b, c, d in zip([0] + node_ends, node_ends, [0] + edge_ends, edge_ends)
    )
