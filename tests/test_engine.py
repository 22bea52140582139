"""Simulation loop: scheduling oracle, determinism, invariants, ensembles."""
import gc
import io
import itertools
import pickle
from concurrent.futures import Future
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diversim import (
    AttackerSpec,
    CatalogError,
    ConfigError,
    DefenderSpec,
    ImplementationPool,
    InitialAlgo,
    Layer,
    NetworkFiles,
    PrebuiltNetwork,
    Scenario,
    SpecError,
    Strategy,
    SyntheticNetwork,
    build_graph,
    generate_synthetic_network,
    mean_of,
    monte_carlo,
    run,
    write_id_file,
)
from diversim import defense, engine, netmodel, sweeps
from diversim.engine import Trace, final_snapshot, init_run, resolve_graph
from diversim.netmodel import COMPROMISED, INVULNERABLE, VULNERABLE, CommGraph
from diversim.threat import AttackerKnowledge

import reference
from conftest import make_scenario, stepped


def path_scenario(**kw):
    """Three computers in a line; attacker starts on the first app."""
    g = build_graph([Layer.from_edges([(0, 1), (1, 2)])])
    pool = ImplementationPool(hbar=2, x=1)
    kw.setdefault("attacker", AttackerSpec(m3=1, m4=1, initial_compromise_size=1,
                                           initial_nodes=(0,)))
    kw.setdefault("pool", pool)
    kw.setdefault("t_max", 12)
    kw.setdefault("runs", 1)
    return make_scenario(g, **kw)


# --- hand-derived schedule oracle --------------------------------------------------

def test_path_schedule_matches_hand_derivation():
    """Agent pipeline on the 3-computer path.

    The foothold app acts install(1), discovery(2), escalation(3),
    lateral(4): its OS falls at t=3, the middle app at t=4. The middle
    app's agent repeats the pattern four steps later, and the last OS falls
    at t=11.
    """
    first = {}

    def watch(rs, t):
        for v in np.flatnonzero(rs.state == COMPROMISED):
            first.setdefault(int(v), t)

    scn = path_scenario()
    trace = stepped(scn, watch=watch).trace
    assert first == {0: 0, 1: 3, 2: 4, 3: 7, 4: 8, 5: 11}
    want_cc = [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3]
    assert trace.cc_count.tolist() == want_cc
    assert trace.new_compromised.tolist() == [1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 0]


def test_os_compromise_pulls_down_local_apps_same_step():
    g = build_graph([Layer.from_edges([(0, 1)], participants=[0, 1]),
                     Layer.from_edges([], participants=[0, 1])])
    # start on computer 0's OS; both its apps must fall in the first step
    osn = 2
    scn = make_scenario(
        g,
        pool=ImplementationPool(hbar=3, x=1),
        attacker=AttackerSpec(m3=1, m4=2, initial_compromise_size=1, initial_nodes=(osn,)),
        t_max=1,
        runs=1,
    )
    states = {}

    def watch(rs, t):
        states[t] = rs.state.copy()

    stepped(scn, watch=watch)
    assert states[0][osn] == COMPROMISED
    assert states[1][0] == COMPROMISED and states[1][1] == COMPROMISED


# --- trace bookkeeping ---------------------------------------------------------------

def test_zero_horizon_gives_single_row():
    scn = path_scenario(t_max=0)
    trace = run(scn, 0)
    assert trace.cc_count.size == 1
    assert trace.cc_count.tolist() == [1]
    assert trace.new_compromised.tolist() == [1]


def test_frame_counts_partition_computers():
    scn = path_scenario()
    trace = run(scn, 0)
    total = trace.cc_count + trace.vc_count + trace.ic_count
    assert (total == 3).all()


@st.composite
def graph_states(draw):
    """One to three layers over up to eight users, a user belonging to any
    non-empty subset of them (so computers may lack applications), and a
    random state per node."""
    n_users = draw(st.integers(1, 8))
    n_layers = draw(st.integers(1, 3))
    apps = [draw(st.sets(st.integers(0, n_layers - 1), min_size=1)) for _ in range(n_users)]
    layers = [Layer.from_edges([], participants=[u for u in range(n_users) if j in apps[u]])
              for j in range(n_layers)]
    g = build_graph([layer for layer in layers if layer.participants.size])
    states = st.sampled_from([VULNERABLE, COMPROMISED, INVULNERABLE])
    state = draw(st.lists(states, min_size=g.n_nodes, max_size=g.n_nodes))
    return g, np.asarray(state, dtype=np.int8)


@given(graph_states())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_frame_matches_the_computer_by_computer_counts(case):
    g, state = case
    rs = SimpleNamespace(graph=g, state=state, trace=Trace.zeros(g.n_computers, 2))
    engine._record_frame(rs, 1)
    tr = rs.trace
    assert (tr.cc_count[1], tr.vc_count[1], tr.ic_count[1]) == reference.frame(g, state)


def test_trace_row_zero_counts_foothold():
    scn = path_scenario()
    trace = run(scn, 0)
    assert trace.new_compromised[0] == 1
    assert trace.oc[0] == 0.0


def test_operational_cost_of_every_step_redeploy():
    g = build_graph([Layer.from_edges([(i, i + 1) for i in range(4)])])
    scn = make_scenario(
        g,
        defender=DefenderSpec(Strategy.PROACTIVE, eta1=0.5, eta2=1.0),
        t_max=6,
        runs=1,
    )
    trace = run(scn, 0)
    import math
    want = math.ceil(0.5 * g.n_nodes) / g.n_nodes
    assert trace.oc[0] == 0.0
    assert np.allclose(trace.oc[1:], want)


def test_static_compromise_monotone():
    scn = path_scenario()
    masks = []

    def watch(rs, t):
        masks.append(rs.state == COMPROMISED)

    stepped(scn, watch=watch)
    for prev, cur in zip(masks, masks[1:]):
        assert (prev <= cur).all()


def test_passive_run_is_solved_without_a_step(monkeypatch, tmp_path):
    # a passive run takes no step, and its trace and final snapshot are those
    # of the same run stepped to t_max
    cases = [
        # the last OS falls at t=11
        path_scenario(t_max=40),
        # no exploits: the foothold discovers its neighbor but cannot move
        path_scenario(attacker=AttackerSpec(0, 0, 1, initial_nodes=(0,)), t_max=20),
        # no foothold: nothing ever falls
        path_scenario(attacker=AttackerSpec(1, 1, 0), t_max=20),
    ]
    calls = []
    step = engine.step
    monkeypatch.setattr(engine, "step", lambda rs, t: calls.append(t) or step(rs, t))
    for scn in cases:
        calls.clear()
        plain = run(scn, 0)
        final_snapshot(scn, 0, tmp_path / "solved.csv")
        assert calls == []
        full = stepped(scn)
        assert len(calls) == scn.t_max
        for name in ("cc_count", "vc_count", "ic_count", "oc", "new_compromised"):
            assert np.array_equal(getattr(plain, name), getattr(full.trace, name)), name
        engine.write_snapshot(full, tmp_path / "stepped.csv")
        assert (tmp_path / "solved.csv").read_bytes() == (tmp_path / "stepped.csv").read_bytes()


@pytest.mark.parametrize("defender_first", [True, False], ids=["defender-first", "attacker-first"])
def test_attack_substep_runs_only_after_a_frame_with_a_compromised_computer(
    monkeypatch, defender_first
):
    g = build_graph(generate_synthetic_network(30, 25, 0.5, 3, seed=1))
    scn = make_scenario(
        g,
        pool=ImplementationPool(hbar=g.hbar, x=4),
        attacker=AttackerSpec(m3=4, m4=4, initial_compromise_size=3),
        defender=DefenderSpec(Strategy.REACTIVE_ADAPTIVE, fpr=0.1, fnr=0.8),
        defender_first=defender_first,
        t_max=40,
        runs=1,
    )
    calls = []
    attack = engine._attack_substep
    monkeypatch.setattr(engine, "_attack_substep", lambda rs, t: calls.append(t) or attack(rs, t))
    trace = run(scn, 0)
    assert calls == [t for t in range(1, scn.t_max + 1) if trace.cc_count[t - 1] > 0]
    # the attack spread before it died, and the steps after its death were skipped
    assert trace.new_compromised[1:].any()
    assert len(calls) < scn.t_max


@pytest.mark.parametrize("defender_first", [True, False], ids=["defender-first", "attacker-first"])
@pytest.mark.parametrize("defender", [
    DefenderSpec(Strategy.PROACTIVE, eta1=0.3, eta2=0.5),
    DefenderSpec(Strategy.REACTIVE_ADAPTIVE, fpr=0.1, fnr=0.2),
], ids=["proactive", "reactive"])
def test_an_acting_ensemble_keeps_the_calls_the_benchmark_tracer_reads(
    monkeypatch, defender, defender_first
):
    """perfbench's tracer wraps these functions by name and reconciles its
    counts with the traces: an acting ensemble makes ``runs * t_max``
    ``step`` and ``runs`` ``init_run`` calls, ``redeploy`` gets the
    redeployed ids as its sixth positional argument, and ``observe``
    returns its fresh count as a Python int."""
    g = build_graph(generate_synthetic_network(30, 25, 0.5, 3, seed=1))
    scn = make_scenario(
        g,
        pool=ImplementationPool(hbar=g.hbar, x=4),
        attacker=AttackerSpec(m3=2, m4=4, initial_compromise_size=3),
        defender=defender,
        defender_first=defender_first,
        t_max=30,
        runs=3,
    )
    calls = {"step": 0, "init_run": 0}
    redeployed, fresh = [], []
    redeploy_, observe_ = defense.redeploy, AttackerKnowledge.observe

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def redeploy(*args, **kwargs):
        redeployed.append(args[5].copy())
        return redeploy_(*args, **kwargs)

    def observe(*args, **kwargs):
        fresh.append(observe_(*args, **kwargs))
        return fresh[-1]

    monkeypatch.setattr(engine, "step", counted("step", engine.step))
    monkeypatch.setattr(engine, "init_run", counted("init_run", engine.init_run))
    monkeypatch.setattr(defense, "redeploy", redeploy)
    monkeypatch.setattr(AttackerKnowledge, "observe", observe)
    _, traces = monte_carlo(scn, collect=True)
    assert calls == {"step": scn.runs * scn.t_max, "init_run": scn.runs}
    # each call's ids are the run's redeployed nodes at the step it fills
    oc = [v for tr in traces for v in tr.oc if v]
    assert [len(nodes) for nodes in redeployed] == [round(v * g.n_nodes) for v in oc]
    assert all(np.array_equal(nodes, np.unique(nodes)) for nodes in redeployed)
    assert redeployed and fresh
    assert all(type(n) is int for n in fresh)


FRAME_CASES = {
    # the attack dies, and later redeploys among all-vulnerable
    # implementations keep every node VULNERABLE: rows are copied
    "reactive-q1": (1.0, 4, DefenderSpec(Strategy.REACTIVE_ADAPTIVE, fpr=0.1, fnr=0.8)),
    # redeploys flip nodes between VULNERABLE and INVULNERABLE with no
    # compromise: rows are recomputed
    "reactive-q0.5": (0.5, 2, DefenderSpec(Strategy.REACTIVE_ADAPTIVE, fpr=0.1, fnr=0.8)),
    # the steps between period instants redeploy nothing
    "hybrid": (0.5, 2, DefenderSpec(Strategy.HYBRID, eta2=0.2, fpr=0.1, fnr=0.5)),
}


@pytest.mark.parametrize("defender_first", [True, False], ids=["defender-first", "attacker-first"])
@pytest.mark.parametrize("case", FRAME_CASES)
def test_frame_is_recorded_exactly_when_a_node_changed_state(monkeypatch, case, defender_first):
    g = build_graph(generate_synthetic_network(30, 25, 0.5, 3, seed=1))
    q, exploits, defender = FRAME_CASES[case]
    scn = make_scenario(
        g,
        pool=ImplementationPool(hbar=g.hbar, x=4),
        q=q,
        attacker=AttackerSpec(m3=exploits, m4=exploits, initial_compromise_size=3),
        defender=defender,
        defender_first=defender_first,
        t_max=40,
        runs=1,
    )
    recorded = []
    record = engine._record_frame
    monkeypatch.setattr(engine, "_record_frame", lambda rs, t: recorded.append(t) or record(rs, t))
    states = []
    trace = stepped(scn, watch=lambda rs, t: states.append(rs.state.copy())).trace
    changed = [t for t in range(1, scn.t_max + 1)
               if trace.new_compromised[t] or (states[t] != states[t - 1]).any()]
    assert recorded == [0] + changed
    for t, state in enumerate(states):
        assert (trace.cc_count[t], trace.vc_count[t], trace.ic_count[t]) == reference.frame(g, state)
    # each case reaches the side it is there for, after an attack that spread
    assert trace.new_compromised[1:].any()
    copied = scn.t_max - len(changed)
    after_death = [t for t in changed if not trace.cc_count[t - 1]]
    if case == "reactive-q1":
        assert copied and not after_death
    elif case == "reactive-q0.5":
        assert after_death
    else:
        assert copied and after_death


def test_push_admits_each_reached_node_once(overlap_graph):
    """A push marks the sources' lists, then asks ``admits`` about each
    reached node once, in ascending order."""
    g = overlap_graph
    for k in (1, 2, 3):
        for sources in itertools.combinations(range(g.n_nodes), k):
            sources = np.array(sources, dtype=np.int64)
            assert g.degree[sources].sum() <= g.n_nodes  # so _reached pushes
            asked = []

            def admits(v):
                asked.append(v)
                return v % 2 == 0

            got = engine._reached(g, sources, admits)
            reached = sorted({int(w) for v in sources for w in reference.neighbors(g, int(v))})
            assert [a.tolist() for a in asked] == [reached]
            assert got.tolist() == [v for v in reached if v % 2 == 0]


def test_redeployed_nodes_come_back_clean():
    """With the defender acting last, end-of-step state shows the contract."""
    g = build_graph([Layer.from_edges([(i, j) for i in range(5) for j in range(i + 1, 5)])])
    scn = make_scenario(
        g,
        pool=ImplementationPool(hbar=2, x=4),
        attacker=AttackerSpec(m3=4, m4=4, initial_compromise_size=3),
        defender=DefenderSpec(Strategy.REACTIVE_ADAPTIVE, fpr=0.2, fnr=0.0),
        defender_first=False,
        t_max=25,
        runs=1,
    )
    seen = {"checked": 0}
    prev_inst = {}

    def watch(rs, t):
        if t > 0:
            touched = np.flatnonzero(prev_inst["v"] != rs.installed)
            if touched.size:
                assert (rs.state[touched] != COMPROMISED).all()
                seen["checked"] += touched.size
        prev_inst["v"] = rs.installed.copy()

    stepped(scn, watch=watch)
    assert seen["checked"] > 0


# --- determinism ----------------------------------------------------------------------

def test_repeat_run_identical():
    scn = path_scenario()
    a = run(scn, 0)
    b = run(scn, 0)
    assert np.array_equal(a.cc_count, b.cc_count)
    assert np.array_equal(a.oc, b.oc)


def test_run_indices_differ():
    g = build_graph([Layer.from_edges([(i, i + 1) for i in range(9)])])
    scn = make_scenario(
        g,
        pool=ImplementationPool(hbar=2, x=3),
        attacker=AttackerSpec(m3=2, m4=2, initial_compromise_size=2),
        defender=DefenderSpec(Strategy.STATIC, initial_algo=InitialAlgo.RANDOM),
        t_max=15,
        runs=2,
    )
    a = run(scn, 0)
    b = run(scn, 1)
    assert not np.array_equal(a.cc_count, b.cc_count) or not np.array_equal(a.vc_count, b.vc_count)


def test_monte_carlo_job_count_invariant():
    g = build_graph([Layer.from_edges([(i, (i + 1) % 8) for i in range(8)])])
    scn = make_scenario(
        g,
        pool=ImplementationPool(hbar=2, x=3),
        attacker=AttackerSpec(m3=2, m4=3, initial_compromise_size=2),
        defender=DefenderSpec(Strategy.HYBRID, eta2=0.5, fpr=0.1, fnr=0.1),
        t_max=15,
        runs=6,
    )
    serial = monte_carlo(scn, jobs=1)
    parallel = monte_carlo(scn, jobs=3)
    for name in ("cc", "vc", "ic", "oc", "new_compromised"):
        assert np.array_equal(getattr(serial, name), getattr(parallel, name)), name


def test_monte_carlo_starts_only_the_workers_it_uses(monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(engine, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(engine, "_worker_memo", {})
    scn = path_scenario(runs=2)
    mean = monte_carlo(scn, jobs=4)
    assert started == [1]  # two chunks: one worker and this process
    assert np.array_equal(mean.cc, monte_carlo(scn, jobs=1).cc)
    one = path_scenario(runs=1)
    mean = monte_carlo(one, jobs=4)
    assert started == [1]  # one run is one chunk, run in-process
    assert np.array_equal(mean.cc, monte_carlo(one, jobs=1).cc)


class GraphSpy(pickle.Pickler):
    """Pickles as usual and records every ``CommGraph`` it meets."""

    def __init__(self, fh, seen: list):
        super().__init__(fh)
        self.seen = seen

    def persistent_id(self, obj):
        if isinstance(obj, CommGraph):
            self.seen.append(obj)
        return None


def test_no_chunk_carries_a_graph_and_a_worker_resolves_a_network_it_missed(monkeypatch):
    shipped, builds, pools = [], [], []
    build_graph = engine.build_graph
    monkeypatch.setattr(engine, "build_graph", lambda *a: builds.append(1) or build_graph(*a))

    class PicklingPool:
        """Runs each submit on a new in-process worker that starts from an
        empty memo; only the first worker runs the pool's initializer."""

        def __init__(self, max_workers, initializer, initargs):
            pools.append(self)
            self.max_workers = max_workers
            self.adopt = lambda: initializer(*pickle.loads(pickle.dumps(initargs)))
            self.builds = []

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            buf = io.BytesIO()
            GraphSpy(buf, shipped).dump((fn, args))
            monkeypatch.setattr(engine, "_worker_memo", {})
            before = len(builds)
            if not self.builds:
                self.adopt()
            fn, args = pickle.loads(buf.getvalue())
            future = Future()
            future.set_result(fn(*args))
            self.builds.append(len(builds) - before)
            return future

    monkeypatch.setattr(engine, "ProcessPoolExecutor", PicklingPool)
    scn = Scenario(
        network=SyntheticNetwork(20, 15, 0.4, 2, 5),
        pool=ImplementationPool(hbar=3, x=3),
        q=1.0,
        attacker=AttackerSpec(m3=1, m4=2, initial_compromise_size=2),
        defender=DefenderSpec(Strategy.HYBRID, eta2=0.5, fpr=0.1, fnr=0.1),
        t_max=15,
        runs=3,
    )
    _, traces = monte_carlo(scn, jobs=3, collect=True)
    assert shipped == []
    # the pool starts after the ensemble resolved its network: the adopting
    # worker builds nothing, the other builds the graph it missed once
    assert [(p.max_workers, p.builds) for p in pools] == [(2, [0, 1])]
    _, serial = monte_carlo(scn, jobs=1, collect=True)
    for got, want in zip(traces, serial, strict=True):
        for name in ("cc_count", "vc_count", "ic_count", "oc", "new_compromised"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_monte_carlo_mean_matches_manual_average():
    g = build_graph([Layer.from_edges([(0, 1), (1, 2), (2, 3)])])
    scn = make_scenario(
        g,
        pool=ImplementationPool(hbar=2, x=2),
        attacker=AttackerSpec(m3=1, m4=1, initial_compromise_size=1),
        defender=DefenderSpec(Strategy.STATIC, initial_algo=InitialAlgo.RANDOM),
        t_max=10,
        runs=4,
    )
    mean, traces = monte_carlo(scn, collect=True)
    by_hand = mean_of(traces)
    assert np.array_equal(mean.cc, by_hand.cc)
    solo = run(scn, 2, graph=resolve_graph(scn.network))
    assert np.array_equal(traces[2].cc_count, solo.cc_count)


def test_a_graph_is_colored_once_per_pool_for_as_long_as_it_lives(monkeypatch):
    colored = []
    color = engine.degree_priority_assignment
    monkeypatch.setattr(engine, "degree_priority_assignment",
                        lambda g, pool: colored.append(g) or color(g, pool))
    layers = generate_synthetic_network(30, 25, 0.5, 2, seed=4)
    graph = build_graph(layers)
    static = make_scenario(graph, t_max=15, runs=3)
    proactive = replace(static, defender=DefenderSpec(Strategy.PROACTIVE, eta1=0.5, eta2=0.5))
    monte_carlo(static)
    monte_carlo(proactive)
    assert colored == [graph]
    cached = netmodel._derived[graph][("degree priority", static.pool)]
    assert not cached.flags.writeable
    # the proactive runs redeployed their own copies of it
    assert np.array_equal(cached, color(graph, static.pool)[0])

    # a graph with equal arrays is another graph, with an entry of its own
    twin = build_graph(layers)
    monte_carlo(replace(static, network=PrebuiltNetwork(twin)))
    assert colored == [graph, twin]
    assert netmodel._derived[twin] is not netmodel._derived[graph]

    colored.clear()
    gc.collect()  # entries of graphs that earlier tests left as garbage
    entries = len(netmodel._derived)
    del graph, static, proactive
    gc.collect()
    assert len(netmodel._derived) == entries - 1 and twin in netmodel._derived


# --- scenario validation ----------------------------------------------------------------

def test_scenario_rejects_bad_shapes(path_graph):
    good = dict(
        network=PrebuiltNetwork(path_graph),
        pool=ImplementationPool(hbar=2, x=2),
        q=1.0,
        attacker=AttackerSpec(m3=1, m4=1, initial_compromise_size=1),
        defender=DefenderSpec(Strategy.STATIC),
    )
    Scenario(**good)
    with pytest.raises(ValueError):
        Scenario(**{**good, "t_max": -1})
    with pytest.raises(ValueError):
        Scenario(**{**good, "runs": 0})
    with pytest.raises(ValueError):
        Scenario(**{**good, "q": 1.5})


def test_monoculture_needs_single_impl(path_graph):
    kw = dict(
        network=PrebuiltNetwork(path_graph),
        pool=ImplementationPool(hbar=2, x=2),
        q=1.0,
        attacker=AttackerSpec(m3=1, m4=1, initial_compromise_size=1),
        defender=DefenderSpec(Strategy.MONOCULTURE),
    )
    with pytest.raises(SpecError):
        Scenario(**kw)
    Scenario(**{**kw, "pool": ImplementationPool(hbar=2, x=1)})


def test_catalog_budget_checked_against_quality(path_graph):
    kw = dict(
        network=PrebuiltNetwork(path_graph),
        pool=ImplementationPool(hbar=2, x=4),
        q=0.5,
        attacker=AttackerSpec(m3=3, m4=0, initial_compromise_size=1),
        defender=DefenderSpec(Strategy.STATIC),
    )
    with pytest.raises(CatalogError):
        Scenario(**kw)  # only 2 of 4 OS impls are vulnerable at q=0.5
    kw["attacker"] = AttackerSpec(m3=2, m4=3, initial_compromise_size=1)
    with pytest.raises(CatalogError):
        Scenario(**kw)  # single app program cannot absorb 3 exploits
    kw["attacker"] = AttackerSpec(m3=2, m4=2, initial_compromise_size=1)
    Scenario(**kw)


def test_pool_network_mismatch_caught(path_graph):
    scn = make_scenario(path_graph, pool=ImplementationPool(hbar=4, x=2),
                        attacker=AttackerSpec(m3=1, m4=3, initial_compromise_size=1))
    with pytest.raises(ValueError):
        init_run(scn, 0)


def test_pool_synthetic_network_mismatch_is_rejected_input():
    scn = Scenario(
        network=SyntheticNetwork(14, 12, 0.5, 2, 3),
        pool=ImplementationPool(hbar=4, x=2),
        q=1.0,
        attacker=AttackerSpec(m3=1, m4=3, initial_compromise_size=1),
        defender=DefenderSpec(Strategy.STATIC),
        t_max=5,
        runs=1,
    )
    with pytest.raises(ConfigError, match="network implies 3"):
        init_run(scn, 0)


@pytest.mark.parametrize("nodes", [(0, 0), (-1,), (6,)],
                         ids=["repeated", "negative", "past-the-end"])
def test_bad_initial_nodes_are_rejected_input(nodes):
    # the path scenario has six nodes
    scn = path_scenario(attacker=AttackerSpec(m3=1, m4=1, initial_compromise_size=1,
                                              initial_nodes=nodes))
    with pytest.raises(ConfigError, match=r"initial_nodes must be distinct node ids in \[0, 6\)"):
        init_run(scn, 0)


# --- network sources ---------------------------------------------------------------------

def test_resolve_graph_handles_all_sources(tmp_path):
    synth = SyntheticNetwork(n_layer1=20, n_layer2=15, overlap_fraction=0.4,
                             attachment_degree=2, seed=5)
    g1 = resolve_graph(synth)
    assert g1.hbar == 3
    p1 = tmp_path / "a.edges"
    p2 = tmp_path / "b.edges"
    write_id_file(p1, [(0, 1), (1, 2)])
    write_id_file(p2, [(0, 2)])
    g2 = resolve_graph(NetworkFiles(layer_paths=(str(p1), str(p2))))
    assert g2.hbar == 3 and g2.n_computers == 3
    g3 = resolve_graph(PrebuiltNetwork(g2))
    assert g3 is g2


def test_final_snapshot_writes_node_rows(tmp_path):
    scn = path_scenario()
    out = tmp_path / "snap.csv"
    final_snapshot(scn, 0, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "id,program,impl,state"
    assert len(lines) == 1 + 6
    # every node ended compromised on this fully covered path
    assert all(line.endswith(f",{COMPROMISED}") for line in lines[1:])


def test_trace_csv_roundtrip(tmp_path):
    scn = path_scenario(t_max=3)
    mean = monte_carlo(scn)
    out = tmp_path / "trace.csv"
    sweeps.write_trace_csv(out, mean)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,cc,vc,ic,oc,new_compromised"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(1 / 3)


def test_trace_csv_formats_run_counts_and_mean_fractions(tmp_path):
    """A run writes new_compromised as a count, an ensemble mean as a fraction."""
    scn = path_scenario(t_max=4, runs=2,
                        defender=DefenderSpec(Strategy.PROACTIVE, eta1=0.5, eta2=0.5))
    header = "t,cc,vc,ic,oc,new_compromised"
    one, mean = tmp_path / "run.csv", tmp_path / "mean.csv"
    sweeps.write_trace_csv(one, run(scn, 0))
    sweeps.write_trace_csv(mean, monte_carlo(scn))
    assert one.read_text().splitlines() == [
        header,
        "0,0.333333,0.666667,0.000000,0.000000,1",
        "1,0.333333,0.666667,0.000000,0.000000,0",
        "2,0.333333,0.666667,0.000000,0.500000,0",
        "3,0.333333,0.666667,0.000000,0.000000,1",
        "4,0.666667,0.333333,0.000000,0.500000,1",
    ]
    assert mean.read_text().splitlines() == [
        header,
        "0,0.333333,0.666667,0.000000,0.000000,1.000000",
        "1,0.333333,0.666667,0.000000,0.000000,0.000000",
        "2,0.166667,0.833333,0.000000,0.500000,0.000000",
        "3,0.166667,0.833333,0.000000,0.000000,0.500000",
        "4,0.333333,0.666667,0.000000,0.500000,0.500000",
    ]
