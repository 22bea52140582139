"""Diversity configurations: which implementation runs on which node.

A configuration, an ``int16`` array indexed by node id, assigns every node an
implementation index of its program.
An edge is defective when both endpoints run the same program with the same
implementation; only same-program edges (inter-computer links) can be
defective. Three initial assignment algorithms are provided: uniform random,
greedy local flipping, and a degree-priority heuristic with a
first-improvement switching phase.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .netmodel import CommGraph, ImplementationPool

logger = logging.getLogger(__name__)

#: full sweeps after which ``color_flipping`` stops short of a fixed point
MAX_FLIP_SWEEPS = 50


@dataclass(frozen=True)
class ColoringReport:
    defective_edges: int
    per_program: tuple[int, ...]
    sweeps: int


def count_defective_edges(graph: CommGraph, inst: np.ndarray) -> ColoringReport:
    e = graph.sp_edges
    if len(e) == 0:
        return ColoringReport(0, tuple(0 for _ in range(graph.hbar)), 0)
    bad = inst[e[:, 0]] == inst[e[:, 1]]
    per = np.bincount(graph.program[e[bad, 0]], minlength=graph.hbar)
    return ColoringReport(int(bad.sum()), tuple(int(c) for c in per), 0)


def random_coloring(graph: CommGraph, pool: ImplementationPool, rng: np.random.Generator) -> np.ndarray:
    """Uniform independent implementation per node."""
    return rng.integers(0, pool.x, size=graph.n_nodes, dtype=np.int16)


def _local_counts(graph: CommGraph, inst: np.ndarray, v: int, x: int) -> np.ndarray:
    # uncolored neighbors (sentinel -1) do not constrain the choice
    nbrs = graph.same_program_neighbors(v)
    colors = inst[nbrs]
    colors = colors[colors >= 0]
    if colors.size == 0:
        return np.zeros(x, dtype=np.int64)
    return np.bincount(colors, minlength=x)


def color_flipping(
    graph: CommGraph,
    pool: ImplementationPool,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ColoringReport]:
    """Greedy repair of a random start.

    Sweeps nodes in ascending id; a node flips to the implementation with
    strictly fewest defective incident edges (ties to the lowest index).
    Stops at a fixed point or after ``MAX_FLIP_SWEEPS`` full sweeps.
    """
    inst = random_coloring(graph, pool, rng)
    sweeps = 0
    for _ in range(MAX_FLIP_SWEEPS):
        changed = False
        for v in range(graph.n_nodes):
            counts = _local_counts(graph, inst, v, pool.x)
            best = int(np.argmin(counts))
            if counts[best] < counts[inst[v]]:
                inst[v] = best
                changed = True
        sweeps += 1
        if not changed:
            break
    base = count_defective_edges(graph, inst)
    return inst, ColoringReport(base.defective_edges, base.per_program, sweeps)


def degree_priority_assignment(
    graph: CommGraph,
    pool: ImplementationPool,
) -> tuple[np.ndarray, ColoringReport]:
    """Deterministic degree-priority heuristic.

    Programs are processed one at a time, applications first, then the OS.
    Within a program, nodes are ordered by full-graph degree descending (ties
    by id) and pre-assigned implementations round-robin. A pre-assignment
    survives unless it conflicts with an already-colored neighbor; then the
    lowest implementation causing no conflict wins; failing that, the
    implementation with fewest conflicts, preferring the one carried by the
    lowest-degree colored neighbor, then the lowest index. Afterwards a
    switching pass walks the program's nodes in ascending id and takes the
    first implementation (in index order) that strictly lowers that node's
    defective-edge count, repeating until a fixed point.
    """
    x = pool.x
    inst = np.full(graph.n_nodes, -1, dtype=np.int16)
    total_sweeps = 0
    order_of_programs = list(range(graph.hbar - 1)) + [graph.os_program]
    for prog in order_of_programs:
        members = np.flatnonzero(graph.program == prog)
        if members.size == 0:
            continue
        rank = np.lexsort((members, -graph.degree[members]))
        ordered = members[rank]
        for pos, v in enumerate(ordered):
            pre = pos % x
            counts = _local_counts(graph, inst, int(v), x)
            # uncolored neighbors hold -1 and are not counted
            if counts[pre] == 0:
                inst[v] = pre
                continue
            clean = np.flatnonzero(counts == 0)
            if clean.size:
                inst[v] = clean[0]
                continue
            cands = np.flatnonzero(counts == counts.min())
            nbrs = graph.same_program_neighbors(int(v))
            colored = nbrs[inst[nbrs] >= 0]
            pick = int(cands[0])
            if colored.size:
                low = colored[np.lexsort((colored, graph.degree[colored]))[0]]
                if inst[low] in cands:
                    pick = int(inst[low])
            inst[v] = pick
        total_sweeps += _switching(graph, inst, members, x)
    base = count_defective_edges(graph, inst)
    return inst, ColoringReport(base.defective_edges, base.per_program, total_sweeps)


def _switching(graph: CommGraph, inst: np.ndarray, members: np.ndarray, x: int) -> int:
    """First-improvement single-node switches until a fixed point.

    Every accepted switch strictly lowers the program's defective-edge count,
    so termination is guaranteed.
    """
    sweeps = 0
    while True:
        changed = False
        for v in np.sort(members):
            counts = _local_counts(graph, inst, int(v), x)
            cur = counts[inst[v]]
            if cur == 0:
                continue
            for c in range(x):
                if c != inst[v] and counts[c] < cur:
                    inst[v] = c
                    changed = True
                    break
        sweeps += 1
        if not changed:
            return sweeps
