"""Scalar reference model of the simulation, for differential tests.

``agent_decide`` is the attacker's per-phase decision for one agent, worked
out node by node against an ``ExploitCatalog``, the catalog's targets as
sets. ``ReferenceRun`` builds a whole step on it with plain Python loops:
defender plan, detection and redeployment, the agents' phase passes, OS
spread and the computer-level frame. It keeps every agent explicitly, each
advancing along ``PHASE_AFTER`` after it acts, where the engine derives the
phase from the step the agent's node was compromised. It starts from the
t=0 state of ``diversim.engine.init_run`` and draws from the same
``rng.Purpose`` substreams, in the same order and sizes, as the engine, so
the two must agree state for state and trace row for trace row.

``color_flipping``, ``switching`` and ``degree_priority_assignment`` are the
colorings of ``diversim.diversity`` written node by node. The two sweeps go in
ascending id, each node seeing the colors its lower-id neighbors took earlier
in the same sweep; the degree-priority pre-assignment goes in degree rank,
each node seeing the colors of the neighbors ranked before it. Neighbors come
from ``same_program_neighbors``, a slice of the graph's same-program CSR.

``ReferenceGraph`` is the communication graph of ``diversim.netmodel`` built
computer by computer from the layers ``canonical_layer`` reads, and ``frame``
the computer-level counts of a state read computer by computer.
``lexsort_csr`` is the adjacency of ``diversim.netmodel._csr`` ordered by
``np.lexsort``.

``preferential_attachment`` is the growth process of
``diversim.netmodel._preferential_attachment`` drawn node by node, one scalar
``rng.integers`` call per entry drawn.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from diversim.defense import Strategy
from diversim.diversity import (
    MAX_FLIP_SWEEPS,
    ColoringReport,
    count_defective_edges,
    random_coloring,
)
from diversim.engine import init_run
from diversim.netmodel import COMPROMISED, INVULNERABLE, VULNERABLE, vulnerable_count
from diversim.rng import Purpose, substream


class AttackPhase(IntEnum):
    """An agent's phases; the engine derives them from the compromise step."""

    INSTALL = 0
    DISCOVERY = 1
    PRIVILEGE_ESCALATION = 2
    LATERAL_MOVEMENT = 3
    DAMAGE = 4


# after acting, an agent advances along this table; the loop excludes INSTALL
PHASE_AFTER = (
    AttackPhase.DISCOVERY,
    AttackPhase.PRIVILEGE_ESCALATION,
    AttackPhase.LATERAL_MOVEMENT,
    AttackPhase.DAMAGE,
    AttackPhase.DISCOVERY,
)


@dataclass(frozen=True)
class ExploitCatalog:
    """Targets drawn for one run, as sets.

    ``privilege_escalation`` holds OS implementation indices;
    ``lateral`` holds (application program, implementation) pairs.
    """

    privilege_escalation: frozenset[int]
    lateral: frozenset[tuple[int, int]]

    @classmethod
    def from_masks(cls, privesc: np.ndarray, lateral: np.ndarray) -> "ExploitCatalog":
        """The sets of ``diversim.threat.build_exploit_catalog``'s two masks."""
        return cls(
            frozenset(int(i) for i in np.flatnonzero(privesc)),
            frozenset((int(p), int(i)) for p, i in zip(*np.nonzero(lateral))),
        )


@dataclass
class AttackAgent:
    host: int
    phase: AttackPhase
    spawned_at: int


@dataclass(frozen=True)
class AttackAction:
    """One agent's move: ``kind`` is install/observe/compromise/damage;
    ``targets`` lists affected nodes (observed or to-compromise)."""

    kind: str
    targets: tuple[int, ...] = ()


def neighbors(graph, node: int) -> np.ndarray:
    """The node's neighbors in the graph's CSR adjacency, ascending."""
    return graph.indices[graph.indptr[node]:graph.indptr[node + 1]]


def matches(knowledge, node: int, installed) -> bool:
    """Whether the attacker's record of ``node`` still names its installed
    implementation; a node never observed is recorded as -1."""
    return int(knowledge.impl[node]) == int(installed[node])


def agent_decide(agent, knowledge, catalog, graph, config_installed, state) -> AttackAction:
    """Deterministic action for the agent's current phase.

    Discovery observes the host and all neighbors. Privilege escalation
    targets the local OS when the host is an application, the OS is
    state-vulnerable, and its implementation is a catalog target. Lateral
    movement targets every known, state-vulnerable neighbor whose recorded
    implementation still matches and is a catalog target. Install and damage
    change no node state.
    """
    host = agent.host
    if agent.phase == AttackPhase.INSTALL:
        return AttackAction("install", (host,))
    if agent.phase == AttackPhase.DISCOVERY:
        nbrs = neighbors(graph, host)
        return AttackAction("observe", (host, *(int(w) for w in nbrs)))
    if agent.phase == AttackPhase.PRIVILEGE_ESCALATION:
        if graph.program[host] == graph.os_program:
            return AttackAction("compromise")
        osn = int(graph.os_of_computer[graph.computer[host]])
        if state[osn] == VULNERABLE and int(config_installed[osn]) in catalog.privilege_escalation:
            return AttackAction("compromise", (osn,))
        return AttackAction("compromise")
    if agent.phase == AttackPhase.LATERAL_MOVEMENT:
        hits = []
        for w in neighbors(graph, host):
            w = int(w)
            if state[w] != VULNERABLE:
                continue
            if not matches(knowledge, w, config_installed):
                continue
            if (int(graph.program[w]), int(config_installed[w])) in catalog.lateral:
                hits.append(w)
        return AttackAction("compromise", tuple(hits))
    return AttackAction("damage", (host,))


@dataclass
class Knowledge:
    """The attacker's recorded implementation per node, -1 if never observed."""

    impl: list[int]

    def observe(self, nodes, installed) -> None:
        for v in nodes:
            self.impl[v] = installed[v]


def vulnerable_table(scenario, run_index: int) -> list[list[bool]]:
    """Vulnerable implementations per program, drawn as the engine draws them."""
    rng = substream(scenario.seed, run_index, Purpose.VULNERABILITY)
    x = scenario.pool.x
    k = vulnerable_count(scenario.q, x)
    table = []
    for _ in range(scenario.pool.hbar):
        row = [False] * x
        for i in rng.permutation(x)[:k]:
            row[int(i)] = True
        table.append(row)
    return table


class ReferenceRun:
    """One run, stepped node by node.

    ``rows`` holds one (cc, vc, ic, oc, new_compromised) tuple per recorded
    step, counts as in ``engine.Trace``.
    """

    def __init__(self, scenario, run_index: int, graph):
        rs = init_run(scenario, run_index, graph=graph)
        self.scenario = scenario
        self.graph = graph
        self.vulnerable = vulnerable_table(scenario, run_index)
        self.installed = [int(i) for i in rs.installed]
        self.state = [int(s) for s in rs.state]
        self.knowledge = Knowledge([int(i) for i in rs.knowledge.impl])
        self.catalog = ExploitCatalog.from_masks(rs.privesc_mask, rs.lateral_mask)
        self.agents = {
            int(v): AttackAgent(int(v), AttackPhase.INSTALL, 0)
            for v in np.flatnonzero(rs.state == COMPROMISED)
        }
        self.rng_detector = substream(scenario.seed, run_index, Purpose.DETECTOR)
        self.rng_redeploy = substream(scenario.seed, run_index, Purpose.REDEPLOY)
        self.rng_proactive = substream(scenario.seed, run_index, Purpose.PROACTIVE_SAMPLE)
        footholds = sum(1 for s in self.state if s == COMPROMISED)
        self.rows = [(*self._frame(), 0.0, footholds)]

    def step(self, t: int) -> None:
        if self.scenario.defender_first:
            oc = self._defend(t)
            new = self._attack(t)
        else:
            new = self._attack(t)
            oc = self._defend(t)
        self.rows.append((*self._frame(), oc, new))

    # --- defender ---------------------------------------------------------------

    def _sample(self) -> set[int]:
        n = self.graph.n_nodes
        k = math.ceil(self.scenario.defender.eta1 * n)
        return {int(v) for v in self.rng_proactive.choice(n, size=k, replace=False)}

    def _detect(self) -> set[int]:
        spec = self.scenario.defender
        u = self.rng_detector.random(self.graph.n_nodes)
        flagged = set()
        for v, s in enumerate(self.state):
            p = 1.0 - spec.fnr if s == COMPROMISED else spec.fpr
            if u[v] < p:
                flagged.add(v)
        return flagged

    def _plan(self, t: int) -> list[int]:
        spec = self.scenario.defender
        s = spec.strategy
        if s in (Strategy.MONOCULTURE, Strategy.STATIC):
            return []
        if s is Strategy.REACTIVE_ADAPTIVE:
            return sorted(self._detect())
        if t % spec.period != 0:
            return []
        if s is Strategy.PROACTIVE:
            return sorted(self._sample())
        flagged = self._detect()
        if spec.eta1 is not None:
            flagged |= self._sample()
        return sorted(flagged)

    def _defend(self, t: int) -> float:
        nodes = self._plan(t)
        if not nodes:
            return 0.0
        x = self.scenario.pool.x
        draws = self.rng_redeploy.integers(0, x - 1, size=len(nodes)) if x > 1 else None
        for k, v in enumerate(nodes):
            if draws is not None:
                r = int(draws[k])
                # uniform over the other implementations: skip the current one
                self.installed[v] = r + 1 if r >= self.installed[v] else r
            program = int(self.graph.program[v])
            vulnerable = self.vulnerable[program][self.installed[v]]
            self.state[v] = VULNERABLE if vulnerable else INVULNERABLE
            self.agents.pop(v, None)
        return len(nodes) / self.graph.n_nodes

    # --- attacker ---------------------------------------------------------------

    def _compromise(self, v: int, newly: list[int]) -> None:
        self.state[v] = COMPROMISED
        self.knowledge.impl[v] = self.installed[v]
        newly.append(v)

    def _attack(self, t: int) -> int:
        g = self.graph
        acting = [self.agents[h] for h in sorted(self.agents)]
        newly: list[int] = []
        for phase in AttackPhase:
            for agent in acting:
                if agent.phase != phase:
                    continue
                act = agent_decide(agent, self.knowledge, self.catalog, g, self.installed, self.state)
                if act.kind == "observe":
                    self.knowledge.observe(act.targets, self.installed)
                elif act.kind == "compromise":
                    for v in act.targets:
                        self._compromise(v, newly)
        for agent in acting:
            agent.phase = AttackPhase(int(PHASE_AFTER[agent.phase]))
        for v in range(g.n_nodes):
            osn = int(g.os_of_computer[g.computer[v]])
            if g.is_app[v] and self.state[v] != COMPROMISED and self.state[osn] == COMPROMISED:
                self._compromise(v, newly)
        for v in newly:
            self.agents[v] = AttackAgent(v, AttackPhase.INSTALL, t)
        return len(newly)

    # --- frame ------------------------------------------------------------------

    def _frame(self) -> tuple[int, int, int]:
        return frame(self.graph, self.state)


def frame(graph, state) -> tuple[int, int, int]:
    """Computers with a compromised node, computers with a vulnerable node
    and none compromised, and the rest, read computer by computer from the
    nodes ``computer`` assigns each."""
    nodes = [[] for _ in range(graph.n_computers)]
    for v, c in enumerate(graph.computer):
        nodes[int(c)].append(int(state[v]))
    cc = vc = 0
    for states in nodes:
        if COMPROMISED in states:
            cc += 1
        elif VULNERABLE in states:
            vc += 1
    return cc, vc, graph.n_computers - cc - vc


# --- colorings ----------------------------------------------------------------

def same_program_neighbors(graph, v: int) -> np.ndarray:
    """The node's neighbors in the graph's same-program CSR adjacency, ascending."""
    return graph.sp_indices[graph.sp_indptr[v]:graph.sp_indptr[v + 1]]


def local_counts(graph, inst, v: int, x: int) -> list[int]:
    """Same-program neighbors of ``v`` per implementation; -1 is uncolored."""
    counts = [0] * x
    for w in same_program_neighbors(graph, v):
        if inst[w] >= 0:
            counts[int(inst[w])] += 1
    return counts


def color_flipping(graph, pool, rng):
    """Random start, then ascending-id sweeps: a node flips to the
    implementation with strictly fewest same-colored neighbors (ties to the
    lowest index), until a sweep changes nothing or ``MAX_FLIP_SWEEPS``."""
    inst = random_coloring(graph, pool, rng)
    sweeps = 0
    for _ in range(MAX_FLIP_SWEEPS):
        changed = False
        for v in range(graph.n_nodes):
            counts = local_counts(graph, inst, v, pool.x)
            best = counts.index(min(counts))
            if counts[best] < counts[inst[v]]:
                inst[v] = best
                changed = True
        sweeps += 1
        if not changed:
            break
    base = count_defective_edges(graph, inst)
    return inst, ColoringReport(base.defective_edges, base.per_program, sweeps)


def switching(graph, inst, members, x: int) -> int:
    """Ascending-id sweeps over ``members``: a node takes the first
    implementation with strictly fewer same-colored neighbors than its own,
    until a sweep changes nothing. Returns the sweeps made."""
    sweeps = 0
    while True:
        changed = False
        for v in sorted(int(m) for m in members):
            counts = local_counts(graph, inst, v, x)
            cur = counts[inst[v]]
            for c in range(x):
                if counts[c] < cur:
                    inst[v] = c
                    changed = True
                    break
        sweeps += 1
        if not changed:
            return sweeps


def degree_priority_assignment(graph, pool):
    """Program by program: the nodes in degree rank (degree descending, ties
    by id) are colored one after another, then ``switching`` runs over the
    program; the report's ``sweeps`` sums the switching sweeps.

    The node at rank ``pos`` keeps ``pos % x`` unless a colored neighbor runs
    it; else it takes the first implementation no colored neighbor runs;
    else the implementation of its lowest-(degree, id) colored neighbor if
    the fewest colored neighbors run it, or else the first one the fewest
    run. Uncolored neighbors hold -1.
    """
    x = pool.x
    inst = np.full(graph.n_nodes, -1, dtype=np.int16)
    sweeps = 0
    for prog in range(graph.hbar):
        members = [v for v in range(graph.n_nodes) if graph.program[v] == prog]
        if not members:
            continue
        ranked = sorted(members, key=lambda v: (-int(graph.degree[v]), v))
        for pos, v in enumerate(ranked):
            counts = local_counts(graph, inst, v, x)
            if counts[pos % x] == 0:
                inst[v] = pos % x
            elif 0 in counts:
                inst[v] = counts.index(0)
            else:
                fewest = min(counts)
                colored = [int(w) for w in same_program_neighbors(graph, v) if inst[w] >= 0]
                low = min(colored, key=lambda w: (int(graph.degree[w]), w))
                inst[v] = inst[low] if counts[inst[low]] == fewest else counts.index(fewest)
        sweeps += switching(graph, inst, members, x)
    base = count_defective_edges(graph, inst)
    return inst, ColoringReport(base.defective_edges, base.per_program, sweeps)


# --- communication graph --------------------------------------------------------

def canonical_layer(edges, participants=None) -> tuple[list[tuple[int, int]], list[int]]:
    """A layer's links, each once with the lower id first and self-links
    dropped, in ascending order; and its members, ascending. Members default
    to the ids the links name."""
    seen = set()
    for u, w in edges:
        u, w = int(u), int(w)
        if u != w:
            seen.add((u, w) if u < w else (w, u))
    links = sorted(seen)
    if participants is None:
        members = {u for e in links for u in e}
    else:
        members = {int(u) for u in participants}
    return links, sorted(members)


def _csr(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    adjacency = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    indptr = [0]
    indices = []
    for nbrs in adjacency:
        indices.extend(sorted(nbrs))
        indptr.append(len(indices))
    return np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int64)


def lexsort_csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency of an (E, 2) link array: both directions of every link,
    ordered by source, then target."""
    if len(edges) == 0:
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst


class ReferenceGraph:
    """``diversim.netmodel.CommGraph`` built computer by computer and link by
    link, from ``canonical_layer`` outputs; inputs must be valid.

    Computers come in ascending user id; a computer's nodes are its
    applications in program order, then its OS node. Every application
    links to its computer's OS and to every other local application, and a
    layer-j link joins the two users' layer-j applications.
    """

    def __init__(self, layers, users=None):
        member_sets = [set(members) for _, members in layers]
        if users is None:
            users = sorted(set().union(*member_sets))
        else:
            users = sorted({int(u) for u in users})
        index = {u: c for c, u in enumerate(users)}
        self.n_computers = len(users)
        self.hbar = len(layers) + 1
        self.os_program = self.hbar - 1

        program, computer = [], []
        app_node = [[-1] * len(layers) for _ in users]
        os_of_computer = []
        for c, u in enumerate(users):
            for j, members in enumerate(member_sets):
                if u in members:
                    app_node[c][j] = len(program)
                    program.append(j)
                    computer.append(c)
            os_of_computer.append(len(program))
            program.append(self.os_program)
            computer.append(c)
        self.n_nodes = len(program)
        self.program = np.asarray(program, dtype=np.int16)
        self.computer = np.asarray(computer, dtype=np.int64)
        self.os_of_computer = np.asarray(os_of_computer, dtype=np.int64)
        self.is_app = np.asarray([p != self.os_program for p in program], dtype=bool)
        # a program the computer lacks takes the computer's OS node
        slot_node = [[] for _ in range(self.hbar)]
        for c in range(len(users)):
            for j in range(len(layers)):
                a = app_node[c][j]
                slot_node[j].append(a if a >= 0 else os_of_computer[c])
            slot_node[-1].append(os_of_computer[c])
        self.slot_node = np.asarray(slot_node, dtype=np.int64).reshape(self.hbar, len(users))

        edges = set()
        for c in range(len(users)):
            local = [a for a in app_node[c] if a >= 0]
            for i, a in enumerate(local):
                edges.add((a, os_of_computer[c]))
                for b in local[i + 1:]:
                    edges.add((a, b))
        for j, (links, _) in enumerate(layers):
            for u, w in links:
                a, b = app_node[index[u]][j], app_node[index[w]][j]
                edges.add((a, b) if a < b else (b, a))
        ordered = sorted(edges)
        same = [(a, b) for a, b in ordered if program[a] == program[b]]
        self.edges = np.asarray(ordered, dtype=np.int64).reshape(-1, 2)
        self.sp_edges = np.asarray(same, dtype=np.int64).reshape(-1, 2)
        self.indptr, self.indices = _csr(self.n_nodes, ordered)
        self.sp_indptr, self.sp_indices = _csr(self.n_nodes, same)
        self.degree = np.diff(self.indptr)


# --- synthetic networks ---------------------------------------------------------

def preferential_attachment(n: int, m: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    # classic growth process: each new node links to m distinct targets drawn
    # from a list holding one entry per incident edge
    edges: list[tuple[int, int]] = []
    repeated: list[int] = []
    targets = list(range(m))
    for v in range(m, n):
        for t in targets:
            edges.append((t, v))
        repeated.extend(targets)
        repeated.extend([v] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(len(repeated)))])
        targets = sorted(chosen)
    return edges
