"""Differential test: the vectorized engine against the scalar reference stepper.

On small random graphs the engine's run state must equal the stepper's after
every step, and the rows of that stepped run and of ``run`` (which solves a
passive-defender run without stepping it) must equal the stepper's. The
engine keeps no agents, so the state check derives them: one on every
compromised node, in the phase that the steps since the node fell give. A
fixed example has redeployed nodes compromised again. A reactive ensemble
whose runs each refill their drawn-ahead redeploy choices more than once is
checked the same way against the stepper, which draws them one call per step.

Discovery and lateral movement find their targets with ``engine._reached``,
which either pushes from the agents' adjacency lists or pulls from the
admitted nodes' lists. The helper is checked on its own against neighbor
sets in both directions, and a fixed dense example makes the differential
test take both directions for both phases.
"""
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diversim import (
    AttackerSpec,
    DefenderSpec,
    ImplementationPool,
    InitialAlgo,
    Layer,
    PrebuiltNetwork,
    Scenario,
    Strategy,
    build_graph,
    generate_synthetic_network,
    monte_carlo,
    run,
)
from diversim import engine
from diversim.netmodel import COMPROMISED, vulnerable_count
from diversim.rng import DrawAhead

from conftest import stepped
from reference import AttackPhase, ReferenceRun, _csr, neighbors


@dataclass(frozen=True)
class Case:
    """Everything but the strategy and the defender order of one scenario."""

    n_users: int
    edges0: tuple
    members1: tuple
    edges1: tuple
    x: int
    q: float
    m3: int
    m4: int
    ini_comp: int
    algo: InitialAlgo
    eta1: float
    eta2: float
    fpr: float
    fnr: float
    hybrid_union: bool
    t_max: int
    seed: int
    run_index: int
    initial_nodes: tuple | None = None


def descending(hi: int):
    """Integers in [0, hi] whose simplest draw is ``hi``: a rich scenario
    first, the degenerate ones still reachable."""
    return st.integers(0, hi).map(lambda i: hi - i)


@st.composite
def cases(draw):
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # layer 0 always chains every user, so attacks can travel
    extra = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    edges0 = sorted(set(extra) | {(i, i + 1) for i in range(n - 1)})
    members1 = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    inner = [(i, j) for i, j in pairs if i in members1 and j in members1]
    edges1 = draw(st.lists(st.sampled_from(inner), max_size=6, unique=True)) if inner else []
    return Case(
        n_users=n,
        edges0=tuple(edges0),
        members1=tuple(sorted(members1)),
        edges1=tuple(edges1),
        x=draw(st.sampled_from([2, 3, 4, 1])),
        q=draw(st.sampled_from([1.0, 0.5, 0.25, 0.0])),
        m3=draw(descending(4)),
        m4=draw(descending(8)),
        ini_comp=draw(descending(3)),
        algo=draw(st.sampled_from(list(InitialAlgo))),
        eta1=draw(st.sampled_from([0.2, 0.5, 1.0])),
        eta2=draw(st.sampled_from([0.25, 0.5, 1.0])),
        fpr=draw(st.sampled_from([0.1, 0.0, 0.3])),
        fnr=draw(st.sampled_from([0.2, 0.0, 0.5])),
        hybrid_union=draw(st.booleans()),
        t_max=draw(descending(24)),
        seed=draw(st.integers(0, 1000)),
        run_index=draw(st.integers(0, 3)),
    )


def scenario_of(case: Case, strategy: Strategy, defender_first: bool) -> Scenario:
    layers = [Layer.from_edges(case.edges0, participants=range(case.n_users))]
    if case.members1:
        layers.append(Layer.from_edges(case.edges1, participants=case.members1))
    graph = build_graph(layers)
    x = 1 if strategy is Strategy.MONOCULTURE else case.x
    pool = ImplementationPool(hbar=graph.hbar, x=x)
    k = vulnerable_count(case.q, x)
    knobs = {
        Strategy.PROACTIVE: dict(eta1=case.eta1, eta2=case.eta2),
        Strategy.REACTIVE_ADAPTIVE: dict(fpr=case.fpr, fnr=case.fnr),
        Strategy.HYBRID: dict(eta2=case.eta2, fpr=case.fpr, fnr=case.fnr,
                              eta1=case.eta1 if case.hybrid_union else None),
    }.get(strategy, {})
    return Scenario(
        network=PrebuiltNetwork(graph),
        pool=pool,
        q=case.q,
        attacker=AttackerSpec(m3=min(case.m3, k), m4=min(case.m4, (pool.hbar - 1) * k),
                              initial_compromise_size=case.ini_comp,
                              initial_nodes=case.initial_nodes),
        defender=DefenderSpec(strategy, initial_algo=case.algo, **knobs),
        t_max=case.t_max,
        runs=1,
        seed=case.seed,
        defender_first=defender_first,
    )


def rows_of(trace) -> list[tuple]:
    return list(zip(
        trace.cc_count.tolist(),
        trace.vc_count.tolist(),
        trace.ic_count.tolist(),
        trace.oc.tolist(),
        trace.new_compromised.tolist(),
    ))


# the phase an agent acts in, by the steps since its node fell: install in
# the first, then this cycle, indexed by that count mod 4
CYCLE = (AttackPhase.LATERAL_MOVEMENT, AttackPhase.DAMAGE, AttackPhase.DISCOVERY,
         AttackPhase.PRIVILEGE_ESCALATION)


def next_phase(age: int) -> AttackPhase:
    return AttackPhase.INSTALL if age == 1 else CYCLE[age % 4]


def assert_same_state(rs, ref: ReferenceRun, t: int) -> None:
    assert rs.state.tolist() == ref.state, t
    assert rs.installed.tolist() == ref.installed, t
    assert rs.knowledge.impl.tolist() == ref.knowledge.impl, t
    alive = np.flatnonzero(rs.state == COMPROMISED).tolist()
    assert alive == sorted(ref.agents), t
    assert [next_phase(t + 1 - int(rs.since[v])) for v in alive] == [
        ref.agents[v].phase for v in alive], t


# a fixed two-layer case at the edges the random draws may miss: one
# implementation, no vulnerable implementation, an empty catalog
EDGE_CASE = Case(
    n_users=5, edges0=((0, 1), (1, 2), (2, 3), (3, 4)), members1=(1, 2, 4),
    edges1=((1, 2), (2, 4)), x=1, q=0.0, m3=0, m4=0, ini_comp=2,
    algo=InitialAlgo.DEGREE_PRIORITY, eta1=0.5, eta2=0.5, fpr=0.1, fnr=0.2,
    hybrid_union=True, t_max=12, seed=3, run_index=1,
)


# every user linked to every other: three agents' lists outnumber the nodes,
# so both phases pull once the admitted nodes are few, and push before
DENSE_CASE = Case(
    n_users=7, edges0=tuple((i, j) for i in range(7) for j in range(i + 1, 7)), members1=(),
    edges1=(), x=2, q=1.0, m3=4, m4=8, ini_comp=3, algo=InitialAlgo.DEGREE_PRIORITY,
    eta1=0.2, eta2=0.25, fpr=0.1, fnr=0.2, hybrid_union=False, t_max=24, seed=5, run_index=0,
)

# footholds on computer 1's OS, whose two applications fall at t=1, and on
# computer 4's first application
OS_FOOTHOLD_CASE = replace(EDGE_CASE, x=3, q=1.0, m3=4, m4=8, initial_nodes=(4, 10))


@pytest.mark.parametrize("defender_first", [True, False])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
@given(case=cases())
@example(case=EDGE_CASE)
@example(case=replace(EDGE_CASE, x=3, q=1.0))
@example(case=DENSE_CASE)
# a detector that misses most compromises lets agents act, while every acting
# strategy redeploys compromised nodes that fall again and restart at install
@example(case=replace(DENSE_CASE, fnr=0.8))
@example(case=OS_FOOTHOLD_CASE)
# horizons that cut the attack off mid-spread
@example(case=replace(OS_FOOTHOLD_CASE, t_max=1))
@example(case=replace(OS_FOOTHOLD_CASE, t_max=2))
@example(case=replace(DENSE_CASE, initial_nodes=()))
@settings(max_examples=25, derandomize=True, deadline=None)
def test_engine_matches_reference_stepper(strategy, defender_first, case):
    scn = scenario_of(case, strategy, defender_first)
    graph = scn.network.graph
    ref = ReferenceRun(scn, case.run_index, graph)

    def check(rs, t):
        if t:
            ref.step(t)
        assert_same_state(rs, ref, t)
        # every node that fell at t is counted in row t; acting after the
        # attacker, the defender may clean a node that fell in the same step
        fell = np.count_nonzero((rs.since == t) & (rs.state == COMPROMISED))
        new = rs.trace.new_compromised[t]
        assert (fell == new if defender_first else fell <= new), t

    traced = stepped(scn, case.run_index, graph=graph, watch=check).trace
    assert len(ref.rows) == scn.t_max + 1
    assert rows_of(traced) == ref.rows
    plain = run(scn, case.run_index, graph=graph)
    assert rows_of(plain) == ref.rows


# --- push and pull ------------------------------------------------------------------

@contextmanager
def directions():
    """Counts, per admission rule name, the ``engine._reached`` calls that
    pushed (gathered the sources' lists) and those that pulled."""
    taken = Counter()
    call = {}
    reached, gather = engine._reached, engine.gather_neighbors

    def logged_reached(g, sources, admits):
        call.update(sources=sources, rule=admits.__name__)
        return reached(g, sources, admits)

    def logged_gather(indptr, indices, hosts):
        if call:
            taken[call["rule"], "push" if hosts is call["sources"] else "pull"] += 1
            call.clear()
        return gather(indptr, indices, hosts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_reached", logged_reached)
        mp.setattr(engine, "gather_neighbors", logged_gather)
        yield taken


@pytest.mark.parametrize("strategy", [Strategy.STATIC, Strategy.PROACTIVE], ids=lambda s: s.value)
def test_dense_example_pushes_and_pulls_in_both_phases(strategy):
    scn = scenario_of(DENSE_CASE, strategy, True)
    with directions() as taken:
        stepped(scn, DENSE_CASE.run_index, graph=scn.network.graph)
    assert set(taken) == {(rule, way) for rule in ("stale", "exploitable")
                              for way in ("push", "pull")}


@st.composite
def reach_inputs(draw, pull: bool):
    """A small graph with some isolated nodes, source nodes and an admission
    mask. A pull needs many sources and few admitted nodes, a push the
    opposite, so the coins lean that way."""
    def flips(k, true_in_four):
        coin = st.sampled_from([True] * true_in_four + [False] * (4 - true_in_four))
        return draw(st.lists(coin, min_size=k, max_size=k))

    linked = draw(st.integers(1, 10))
    n = linked + draw(st.integers(0, 3))
    ids = draw(st.permutations(range(n)))
    pairs = [(ids[i], ids[j]) for i in range(linked) for j in range(i + 1, linked)]
    edges = [p for p, keep in zip(pairs, flips(len(pairs), 2)) if keep]
    sources = [v for v, keep in enumerate(flips(n, 3 if pull else 1)) if keep]
    return n, edges, sources, flips(n, 1 if pull else 2)


@pytest.mark.parametrize("direction", ["push", "pull"])
@given(data=st.data())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_reached_matches_neighbor_sets(direction, data):
    n, edges, sources, admitted = data.draw(reach_inputs(pull=direction == "pull"))
    indptr, indices = _csr(n, edges)
    g = SimpleNamespace(n_nodes=n, indptr=indptr, indices=indices, degree=np.diff(indptr))
    mask = np.asarray(admitted, dtype=bool)

    def admits(v):
        return mask[v]

    with directions() as taken:
        got = engine._reached(g, np.asarray(sources, dtype=np.int64), admits)
    want = sorted({int(w) for v in sources for w in neighbors(g, v) if admitted[w]})
    assert got.tolist() == want
    assume(taken == Counter({("admits", direction): 1}))


# --- across a refill of the redeploy draws ------------------------------------------

@pytest.mark.parametrize("defender_first", [True, False], ids=["defender-first", "attacker-first"])
def test_reactive_ensemble_matches_reference_across_redeploy_refills(defender_first):
    """Each run takes its redeploy choices from blocks drawn ahead; the
    reference draws one ``integers`` call per redeploying step. A detector
    that misses most compromises keeps agents acting while every run draws
    more than two blocks."""
    graph = build_graph(generate_synthetic_network(30, 25, 0.5, 3, seed=1))
    pool = ImplementationPool(hbar=graph.hbar, x=4)
    scn = Scenario(
        network=PrebuiltNetwork(graph),
        pool=pool,
        q=0.5,
        attacker=AttackerSpec(m3=2, m4=4, initial_compromise_size=3),
        defender=DefenderSpec(Strategy.REACTIVE_ADAPTIVE, fpr=0.3, fnr=0.9),
        t_max=500,
        runs=3,
        defender_first=defender_first,
    )
    _, traces = monte_carlo(scn, collect=True)
    for i in range(scn.runs):
        ref = ReferenceRun(scn, i, graph)

        def check(rs, t):
            if t:
                ref.step(t)
            assert_same_state(rs, ref, t)
            assert rows_of(rs.trace)[t] == ref.rows[t], t

        stepped(scn, i, graph=graph, watch=check)
        assert rows_of(traces[i]) == ref.rows
        assert round(traces[i].oc.sum() * graph.n_nodes) > 2 * DrawAhead.BLOCK
