"""Discrete-time attack-defense loop and Monte Carlo driver.

Each step runs, in order: the defender plans and redeploys; the agents on
compromised nodes act; OS compromise propagates to the local applications;
the trace records the computer-level outcome. A documented toggle moves the
defender after the attacker.

Every compromised node hosts one agent, and the run keeps no agent of its
own: an agent's phase follows from ``since``, the step its node was last
compromised. At step t it installs when t - since is 1, and from then on
(t - since) mod 4 of 2, 3, 0 and 1 gives discovery, privilege escalation,
lateral movement and damage. So an agent on a node compromised in step t
first acts at t+1, and redeploying a node ends its agent because the node
is no longer compromised; a node compromised again starts over at install.
A run whose defender never acts is not stepped: each node falls at its
4/3/0 distance from the footholds, 4 steps after a neighbor if vulnerable and
in the lateral catalog, 3 after one of its applications for a vulnerable OS
in the privesc catalog, 0 after its OS (1 if that OS is a t=0 foothold).

Agents act phase-major: all discoveries, then privilege escalations, then
lateral movements (installs and damage change nothing), hosts in ascending
id within a pass and effects applied between passes. The three acting sets
are fixed before any pass, so nodes falling in a step do not act in it. This
is a deterministic linearization of concurrently acting agents; pass effects
are idempotent, so within a pass the host order cannot change the outcome.
Escalation marks each computer with an escalating agent once and attacks
its OS (``os_of_computer``); an OS agent's OS is itself, compromised already.

State lives in flat numpy arrays indexed by node id, and a step is a
handful of vectorized operations with no loop over agents. Discovery and
lateral movement find their targets from whichever side is cheaper: they
push from the acting agents' adjacency lists, or, when those lists hold
more entries than there are nodes and than the lists of the nodes that can
still be hit, pull from the latter. A push marks the nodes on those lists
and tests each marked node once. Either way a step costs about the
smaller of the two, not the agents' whole adjacency. Once a frame shows no
compromised computer, no agent is left and no later step can compromise a
node, so ``step`` skips the attack substep from then on. Only the attack
substep, which writes each fall as it lands and records the step's falls
in one ``_mark_compromised`` call, and ``redeploy`` write ``state``, so a
step in which neither changes a node repeats the previous frame. The OS
spread runs only when due (a run's first attack substep, a step where an
OS fell, a redeploy since the previous attack substep); at any other step
every application of a compromised OS is compromised already. The
computer-level frame and the OS spread read the graph's slot table
(``slot_node``, one node per program and computer): the frame reduces the
gathered states over programs, and the spread gathers only the computers
whose OS is compromised. At about 1.7k nodes a step's cost is its numpy
calls, not its data, so the hot path makes few, cheap ones: index arrays from
``m.nonzero()[0]`` in place of boolean masks, boolean marks in place of sorts.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import defense as _defense_mod
from .defense import DefenderSpec, InitialAlgo, Strategy
from .diversity import color_flipping, degree_priority_assignment, random_coloring
from .netmodel import (
    COMPROMISED,
    INVULNERABLE,
    VULNERABLE,
    CommGraph,
    ConfigError,
    ImplementationPool,
    assign_vulnerabilities,
    build_graph,
    check_network_seed,
    derived,
    gather_neighbors,
    generate_synthetic_network,
    load_network_files,
    program_offsets,
    sorted_unique,
)
from .rng import DrawAhead, Purpose, substream
from .threat import (
    AttackerKnowledge,
    AttackerSpec,
    CatalogError,
    build_exploit_catalog,
    initial_compromise,
    max_catalog,
)


# --- network sources ----------------------------------------------------------

@dataclass(frozen=True)
class SyntheticNetwork:
    n_layer1: int
    n_layer2: int
    overlap_fraction: float
    attachment_degree: int
    seed: int

    def __post_init__(self) -> None:
        check_network_seed(self.seed)


@dataclass(frozen=True)
class NetworkFiles:
    layer_paths: tuple[str, ...]
    users_path: str | None = None


@dataclass(frozen=True, eq=False)
class PrebuiltNetwork:
    graph: CommGraph


def resolve_graph(network, memo: dict | None = None) -> CommGraph:
    """The graph of a network source; with a ``memo`` (one per command, see
    ``sweeps._run_cells``), the graph it already holds for an equal source.
    The memo maps network sources to graphs and holds nothing else."""
    if memo is not None and network in memo:
        return memo[network]
    if isinstance(network, PrebuiltNetwork):
        return network.graph
    if isinstance(network, NetworkFiles):
        layers, users = load_network_files(network.layer_paths, network.users_path)
    elif isinstance(network, SyntheticNetwork):
        layers, users = generate_synthetic_network(
            network.n_layer1,
            network.n_layer2,
            network.overlap_fraction,
            network.attachment_degree,
            network.seed,
        ), None
    else:
        raise TypeError(f"unknown network source {type(network).__name__}")
    graph = build_graph(layers, users)
    if memo is not None:
        memo[network] = graph
    return graph


# --- scenario -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything one simulation needs; immutable and picklable."""

    network: SyntheticNetwork | NetworkFiles | PrebuiltNetwork
    pool: ImplementationPool
    q: float
    attacker: AttackerSpec
    defender: DefenderSpec
    t_max: int = 500
    runs: int = 100
    seed: int = 0
    defender_first: bool = True

    def __post_init__(self) -> None:
        if self.t_max < 0:
            raise ConfigError("t_max must be >= 0")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0.0 <= self.q <= 1.0:
            raise ConfigError("q outside [0, 1]")
        if self.defender.strategy is Strategy.MONOCULTURE and self.pool.x != 1:
            raise _defense_mod.SpecError("monoculture requires a single implementation (x=1)")
        max_m3, max_m4 = max_catalog(self.pool, self.q)
        if self.attacker.m3 > max_m3:
            raise CatalogError(f"m3={self.attacker.m3} exceeds {max_m3} vulnerable OS implementations")
        if self.attacker.m4 > max_m4:
            raise CatalogError(
                f"m4={self.attacker.m4} exceeds {max_m4} vulnerable application implementations"
            )


# --- traces -------------------------------------------------------------------

@dataclass(eq=False)
class Trace:
    """Per-step computer-level outcome of one run.

    Fractions are stored as exact integer counts over ``n_computers``; the
    float properties divide on access.
    """

    n_computers: int
    cc_count: np.ndarray
    vc_count: np.ndarray
    ic_count: np.ndarray
    oc: np.ndarray
    new_compromised: np.ndarray

    @property
    def cc(self) -> np.ndarray:
        return self.cc_count / self.n_computers

    @property
    def vc(self) -> np.ndarray:
        return self.vc_count / self.n_computers

    @property
    def ic(self) -> np.ndarray:
        return self.ic_count / self.n_computers

    @classmethod
    def zeros(cls, n_computers: int, rows: int) -> "Trace":
        counts = (np.zeros(rows, dtype=np.int64) for _ in range(3))
        return cls(n_computers, *counts, np.zeros(rows), np.zeros(rows, dtype=np.int64))


@dataclass(eq=False)
class MeanTrace:
    """Element-wise ensemble mean over runs."""

    cc: np.ndarray
    vc: np.ndarray
    ic: np.ndarray
    oc: np.ndarray
    new_compromised: np.ndarray


# --- run state ----------------------------------------------------------------

@dataclass(eq=False)
class RunState:
    """What a step reads and writes; ``trace`` has one row per step,
    filled up to the current one."""

    scenario: Scenario
    graph: CommGraph
    offset: np.ndarray  # program * x per node, a node's row in flat (hbar * x,) tables
    codes: np.ndarray  # VULNERABLE or INVULNERABLE per implementation, a flat (hbar * x,) table
    installed: np.ndarray
    state: np.ndarray
    privesc_mask: np.ndarray
    lateral_mask: np.ndarray
    knowledge: AttackerKnowledge
    since: np.ndarray
    rng_detector: np.random.Generator
    # drawn ahead in blocks: the per-call values in order; only the generator's
    # end state, which nothing reads, runs ahead
    rng_redeploy: DrawAhead
    rng_proactive: np.random.Generator
    trace: Trace
    spread_due: bool = True  # no step yet, or a redeploy since the last attack substep


def _initial_config(scenario: Scenario, graph: CommGraph, run_index: int) -> np.ndarray:
    algo, pool = scenario.defender.initial_algo, scenario.pool
    if algo is InitialAlgo.DEGREE_PRIORITY:  # deterministic given graph and pool
        coloring = derived(graph, ("degree priority", pool), lambda: degree_priority_assignment(graph, pool)[0])
        return coloring.copy()
    rng = substream(scenario.seed, run_index, Purpose.COLORING)
    if algo is InitialAlgo.RANDOM:
        return random_coloring(graph, pool, rng)
    return color_flipping(graph, pool, rng)[0]


def init_run(scenario: Scenario, run_index: int, graph: CommGraph | None = None) -> RunState:
    """Build the run state at t=0, including the t=0 trace row."""
    if graph is None:
        graph = resolve_graph(scenario.network)
    if graph.hbar != scenario.pool.hbar:
        raise ConfigError(
            f"pool has {scenario.pool.hbar} programs but the network implies {graph.hbar}"
        )
    pool = scenario.pool
    vulnerable = assign_vulnerabilities(
        pool, scenario.q, substream(scenario.seed, run_index, Purpose.VULNERABILITY)
    )
    installed = _initial_config(scenario, graph, run_index)
    privesc_mask, lateral_mask = build_exploit_catalog(
        pool,
        vulnerable,
        scenario.attacker.m3,
        scenario.attacker.m4,
        substream(scenario.seed, run_index, Purpose.CATALOG),
    )
    offset = program_offsets(graph, pool.x)
    codes = np.where(vulnerable, VULNERABLE, INVULNERABLE).astype(np.int8).ravel()
    state = codes[offset + installed]
    nodes = scenario.attacker.initial_nodes
    if nodes is not None:
        ini = sorted_unique(np.asarray(nodes, dtype=np.int64))
        if ini.size < len(nodes) or ini.size and (ini[0] < 0 or ini[-1] >= graph.n_nodes):
            raise ConfigError(f"initial_nodes must be distinct node ids in [0, {graph.n_nodes})")
    else:
        ini = initial_compromise(
            graph,
            installed,
            lateral_mask,
            vulnerable,
            scenario.attacker.initial_compromise_size,
            substream(scenario.seed, run_index, Purpose.INITIAL_COMPROMISE),
        )
    rs = RunState(
        scenario=scenario,
        graph=graph,
        offset=offset,
        codes=codes,
        installed=installed,
        state=state,
        privesc_mask=privesc_mask,
        lateral_mask=lateral_mask,
        knowledge=AttackerKnowledge.empty(graph.n_nodes),
        # entries are read only while compromised
        since=np.zeros(graph.n_nodes, dtype=np.int32),
        rng_detector=substream(scenario.seed, run_index, Purpose.DETECTOR),
        rng_redeploy=DrawAhead(substream(scenario.seed, run_index, Purpose.REDEPLOY), pool.x - 1),
        rng_proactive=substream(scenario.seed, run_index, Purpose.PROACTIVE_SAMPLE),
        trace=Trace.zeros(graph.n_computers, scenario.t_max + 1),
    )
    state[ini] = COMPROMISED
    _mark_compromised(rs, ini, 0)
    _record_frame(rs, 0)
    return rs


def _mark_compromised(rs: RunState, nodes: np.ndarray, t: int) -> None:
    """Record the distinct ``nodes`` that fell at step t, compromised in ``state`` already."""
    if not nodes.size:
        return
    rs.since[nodes] = t
    rs.trace.new_compromised[t] += nodes.size
    # the attacker controls these nodes now; its information on them is current
    rs.knowledge.observe(nodes, rs.installed)


def _reached(
    g: CommGraph, sources: np.ndarray, admits: Callable[[np.ndarray | slice], np.ndarray]
) -> np.ndarray:
    """The distinct nodes ``v``, ascending, with ``admits(v)`` and a neighbor
    in ``sources`` (distinct node ids). ``admits`` takes node ids, or
    ``slice(None)`` for every node.

    Push marks the nodes on the sources' lists and keeps the admitted ones,
    so ``admits`` sees each reached node once, in ascending order. Pull
    scans every node for the admitted ones and keeps those whose own list
    holds a source; it runs only when the sources' entries outnumber both
    that scan and the admitted nodes' entries (direction-optimizing BFS,
    Beamer, Asanovic & Patterson, SC 2012).
    """
    mark = np.zeros(g.n_nodes, dtype=bool)
    entries = g.degree[sources].sum()
    if entries > g.n_nodes:
        # reduceat cannot reduce an empty segment
        cand = (admits(slice(None)) & (g.degree > 0)).nonzero()[0]
        deg = g.degree[cand]
        if entries > deg.sum():
            mark[sources] = True
            hit = mark[gather_neighbors(g.indptr, g.indices, cand)]
            return cand[np.logical_or.reduceat(hit, deg.cumsum() - deg).nonzero()[0]] if cand.size else cand
    mark[gather_neighbors(g.indptr, g.indices, sources)] = True
    reached = mark.nonzero()[0]
    return reached[admits(reached).nonzero()[0]]


def _attack_substep(rs: RunState, t: int) -> None:
    g, state = rs.graph, rs.state
    spread, rs.spread_due = rs.spread_due, False
    hosts = (state == COMPROMISED).nonzero()[0]
    fell = [hosts[:0]]  # the step's falls, each written to state as it lands
    age = (t - rs.since[hosts]) & 3
    discovering, escalating, moving = (hosts[(age == phase).nonzero()[0]] for phase in (2, 3, 0))
    if discovering.size:
        # a host's own entry is current: it was observed when the host was
        # compromised, and a redeployed host is no longer compromised
        def stale(v: np.ndarray | slice) -> np.ndarray:
            return rs.knowledge.impl[v] != rs.installed[v]

        rs.knowledge.observe(_reached(g, discovering, stale), rs.installed)
    if escalating.size:
        up = np.zeros(g.n_computers, dtype=bool)
        up[g.computer[escalating]] = True
        os_targets = g.os_of_computer[up.nonzero()[0]]
        hit = (state[os_targets] == VULNERABLE) & rs.privesc_mask[rs.installed[os_targets]]
        fell.append(os_targets[hit.nonzero()[0]])
        state[fell[-1]] = COMPROMISED
        spread = spread or fell[-1].size > 0
    if moving.size:
        def exploitable(v: np.ndarray | slice) -> np.ndarray:
            inst = rs.installed[v]
            return (
                (state[v] == VULNERABLE)
                & (rs.knowledge.impl[v] == inst)
                & rs.lateral_mask.ravel()[rs.offset[v] + inst]
            )

        fell.append(_reached(g, moving, exploitable))
        state[fell[-1]] = COMPROMISED
    if spread:
        # a compromised OS takes all of its applications down in the same step;
        # the OS node padding a computer's missing slots is compromised itself
        apps = g.slot_node[:-1, (state[g.os_of_computer] == COMPROMISED).nonzero()[0]].ravel()
        fell.append(apps[(state[apps] != COMPROMISED).nonzero()[0]])
        state[fell[-1]] = COMPROMISED
    _mark_compromised(rs, np.concatenate(fell), t)


def _defense_substep(rs: RunState, t: int) -> bool:
    """Plan and redeploy step t; returns whether a redeployed node changed state."""
    spec = rs.scenario.defender
    nodes = _defense_mod.plan(spec, t, rs.state, rs.graph, rs.rng_detector, rs.rng_proactive)
    if not nodes.size:
        return False
    before = rs.state[nodes]
    rs.trace.oc[t] = _defense_mod.redeploy(
        rs.graph, rs.scenario.pool, rs.codes, rs.installed, rs.state, nodes, rs.rng_redeploy
    )
    rs.spread_due = True  # a redeployed application of a compromised OS falls again
    return bool((rs.state[nodes] != before).any())


def _record_frame(rs: RunState, t: int) -> None:
    slots = rs.state[rs.graph.slot_node]
    tr = rs.trace
    cc = np.count_nonzero(np.logical_or.reduce(slots == COMPROMISED))
    # a computer with any node not invulnerable is compromised or vulnerable
    vc = np.count_nonzero(np.logical_or.reduce(slots != INVULNERABLE)) - cc
    tr.cc_count[t], tr.vc_count[t], tr.ic_count[t] = cc, vc, tr.n_computers - cc - vc


def step(rs: RunState, t: int) -> None:
    """Advance one time step, filling trace row t. Only the attack substep
    (every write counted in ``new_compromised[t]``) and ``redeploy`` write
    ``state``, the frame's one input, so a step in which neither changed a
    node repeats row t-1."""
    changed = rs.scenario.defender_first and _defense_substep(rs, t)
    # every node is in the frame, so a frame with no compromised computer
    # leaves no agent, and redeploy compromises nothing: the attack has died
    if rs.trace.cc_count[t - 1]:
        _attack_substep(rs, t)
    if not rs.scenario.defender_first:
        changed = _defense_substep(rs, t)
    if changed or rs.trace.new_compromised[t]:
        _record_frame(rs, t)
    else:
        for counts in (rs.trace.cc_count, rs.trace.vc_count, rs.trace.ic_count):
            counts[t] = counts[t - 1]


def _fall(rs: RunState) -> None:
    """Solve a passive run's fall steps bucket by bucket in increasing step
    (Dial, CACM 12(11), 1969) and write ``trace`` and ``state`` from them;
    ``since`` and ``knowledge`` stay at t=0."""
    g, tr, t_max = rs.graph, rs.trace, rs.scenario.t_max
    # an OS's only neighbors are its applications, its privesc sources
    exploitable = (rs.state == VULNERABLE) & np.where(
        g.is_app, rs.lateral_mask.ravel()[rs.offset + rs.installed], rs.privesc_mask[rs.installed])
    delay = np.where(exploitable, np.where(g.is_app, 4, 3), t_max + 1)
    fall = np.where(rs.state == COMPROMISED, 0, t_max + 1)  # t_max + 1: never
    t = 0
    while t <= t_max:
        # an OS takes its applications down at once, a t=0 foothold at t=1
        apps = g.slot_node[:-1, fall[g.os_of_computer] == t].ravel()
        apps = apps[fall[apps] > t]
        fall[apps] = max(t, 1)
        hit = gather_neighbors(g.indptr, g.indices, np.flatnonzero(fall == t))
        fall[hit] = np.minimum(fall[hit], t + delay[hit])
        t = fall[fall > t].min(initial=t_max + 1)
    fallen = fall <= t_max
    rs.state[fallen] = COMPROMISED
    tr.new_compromised[:] = np.bincount(fall[fallen], minlength=t_max + 1)
    first = fall[g.slot_node].min(axis=0)  # each computer's earliest fall
    tr.cc_count[:] = np.bincount(first[first <= t_max], minlength=t_max + 1).cumsum()
    tr.ic_count[:] = tr.ic_count[0]
    tr.vc_count[:] = tr.n_computers - tr.ic_count - tr.cc_count


def _finish(rs: RunState) -> RunState:
    """Take a run from t=0 to t_max: solve a passive one, step any other."""
    if rs.scenario.defender.acts:
        for t in range(1, rs.scenario.t_max + 1):
            step(rs, t)
    else:
        _fall(rs)
    return rs


def run(scenario: Scenario, run_index: int, graph: CommGraph | None = None) -> Trace:
    """Execute one seeded run and return its trace."""
    return _finish(init_run(scenario, run_index, graph=graph)).trace


# --- Monte Carlo --------------------------------------------------------------

_worker_memo: dict = {}  # a worker process's copy of its command's memo


def _adopt(memo: dict) -> None:
    _worker_memo.update(memo)


def _run_chunk(scenario: Scenario, indices: list[int]) -> list[Trace]:
    """The traces of runs ``indices``, in a worker: its graph comes from the
    memo the worker adopted, or from one ``resolve_graph`` of its own for a
    network it missed, so results never depend on when or how it started."""
    graph = resolve_graph(scenario.network, _worker_memo)
    return [run(scenario, i, graph=graph) for i in indices]


def mean_of(traces: Sequence[Trace]) -> MeanTrace:
    n = traces[0].n_computers
    cc = np.stack([tr.cc_count for tr in traces]) / n
    vc = np.stack([tr.vc_count for tr in traces]) / n
    ic = np.stack([tr.ic_count for tr in traces]) / n
    oc = np.stack([tr.oc for tr in traces])
    new = np.stack([tr.new_compromised for tr in traces]).astype(np.float64)
    return MeanTrace(
        cc=cc.mean(axis=0),
        vc=vc.mean(axis=0),
        ic=ic.mean(axis=0),
        oc=oc.mean(axis=0),
        new_compromised=new.mean(axis=0),
    )


def worker_pool(jobs: int, runs: int, memo: dict) -> ProcessPoolExecutor | None:
    """A pool of ``min(jobs, runs) - 1`` worker processes, or None if that is
    0: the caller runs one of ``monte_carlo``'s chunks. Each worker adopts
    ``memo``, the command's graphs, as it starts at the first submit: a
    forked one inherits the memo and the colorings made so far, a spawned
    one unpickles the memo once and colors its graphs itself."""
    workers = min(jobs, runs) - 1
    if workers < 1:
        return None
    return ProcessPoolExecutor(max_workers=workers, initializer=_adopt, initargs=(memo,))


def monte_carlo(
    scenario: Scenario,
    jobs: int = 1,
    collect: bool = False,
    pool: ProcessPoolExecutor | None = None,
    memo: dict | None = None,
) -> MeanTrace | tuple[MeanTrace, list[Trace]]:
    """Run the ensemble and average it, on one ``resolve_graph`` of its network,
    shared through ``memo`` if one is given. Each process colors a graph by
    degree priority once per pool, for as long as the graph lives.

    The runs are split into ``min(jobs, runs)`` chunks in run-index order:
    chunk 0 runs in-process, the rest as (scenario, run indices) on ``pool``,
    or on a ``worker_pool`` this call opens and shuts down. Traces depend
    only on (scenario, seed, run index) and are averaged in run-index order,
    so the result is identical at every ``jobs``, pool and start method.
    """
    memo = {} if memo is None else memo
    graph = resolve_graph(scenario.network, memo)
    if scenario.defender.initial_algo is InitialAlgo.DEGREE_PRIORITY:
        _initial_config(scenario, graph, 0)  # colors the graph before the first submit forks a worker
    chunks = np.array_split(np.arange(scenario.runs), max(jobs, 1))
    first, *rest = (c.tolist() for c in chunks if c.size)
    own = worker_pool(jobs, scenario.runs, memo) if pool is None else None
    with own or nullcontext():
        futures = [(pool or own).submit(_run_chunk, scenario, c) for c in rest]
        traces = [run(scenario, i, graph=graph) for i in first]
        traces += [tr for f in futures for tr in f.result()]
    mean = mean_of(traces)
    return (mean, traces) if collect else mean


def write_snapshot(rs: RunState, path: str | Path) -> None:
    """Per-node debugging snapshot: id, program, installed impl, state."""
    rows = zip(rs.graph.program.tolist(), rs.installed.tolist(), rs.state.tolist())
    with open(path, "w") as fh:
        fh.write("id,program,impl,state\n")
        fh.writelines(f"{v},{p},{i},{s}\n" for v, (p, i, s) in enumerate(rows))


def final_snapshot(
    scenario: Scenario, run_index: int, path: str | Path, graph: CommGraph | None = None
) -> None:
    """Re-execute one run and write its final state snapshot."""
    write_snapshot(_finish(init_run(scenario, run_index, graph=graph)), path)
