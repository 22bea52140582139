"""Coloring algorithms: defect counting, local searches, determinism."""
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from diversim import diversity, netmodel

from diversim import (
    ImplementationPool,
    Layer,
    build_graph,
    color_flipping,
    count_defective_edges,
    degree_priority_assignment,
    generate_synthetic_network,
    random_coloring,
)


def brute_defects(graph, installed):
    """Count defective edges straight off the full edge list."""
    bad = 0
    for a, b in graph.edges:
        if graph.program[a] == graph.program[b] and installed[a] == installed[b]:
            bad += 1
    return bad


def line_graph(n):
    return build_graph([Layer.from_edges([(i, i + 1) for i in range(n - 1)])])


def complete_graph(n):
    return build_graph([Layer.from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])])


def test_count_matches_hand_example(path_graph):
    g = path_graph
    apps = np.flatnonzero(g.is_app)
    inst = np.zeros(g.n_nodes, dtype=np.int16)
    inst[apps] = [1, 0, 1]
    assert count_defective_edges(g, inst).defective_edges == 0
    inst[apps] = [1, 1, 1]
    rep = count_defective_edges(g, inst)
    assert rep.defective_edges == 2
    assert rep.per_program == (2, 0)


def test_count_ignores_cross_program_matches(path_graph):
    # app and OS share impl index 0 on every computer; none of that is defective
    g = path_graph
    inst = np.zeros(g.n_nodes, dtype=np.int16)
    inst[g.is_app] = [0, 1, 0]
    assert count_defective_edges(g, inst).defective_edges == 0


def test_count_on_a_graph_without_same_program_edges():
    # members without links: every edge joins two programs of one computer
    g = build_graph([Layer.from_edges([], participants=[0, 1, 2]), Layer.from_edges([], participants=[1, 2])])
    assert g.sp_edges.shape == (0, 2)
    inst = np.zeros(g.n_nodes, dtype=np.int16)
    assert count_defective_edges(g, inst) == diversity.ColoringReport(0, (0,) * g.hbar, 0)


def test_per_program_counts_sum(overlap_graph):
    pool = ImplementationPool(hbar=overlap_graph.hbar, x=2)
    cfg = random_coloring(overlap_graph, pool, np.random.default_rng(0))
    rep = count_defective_edges(overlap_graph, cfg)
    assert sum(rep.per_program) == rep.defective_edges
    assert rep.defective_edges == brute_defects(overlap_graph, cfg)


def test_triangle_two_impls_reaches_optimum():
    # three mutually linked same-layer users cannot do better than one defect
    g = build_graph([Layer.from_edges([(0, 1), (1, 2), (0, 2)])])
    pool = ImplementationPool(hbar=2, x=2)
    cfg, rep = degree_priority_assignment(g, pool)
    assert rep.defective_edges == 1
    cfg, rep = color_flipping(g, pool, np.random.default_rng(1))
    assert rep.defective_edges == 1


def test_path_two_impls_reaches_zero():
    g = line_graph(3)
    pool = ImplementationPool(hbar=2, x=2)
    _, rep = degree_priority_assignment(g, pool)
    assert rep.defective_edges == 0


def test_star_hub_colored_first():
    g = build_graph([Layer.from_edges([(0, k) for k in range(1, 7)])])
    pool = ImplementationPool(hbar=2, x=2)
    cfg, rep = degree_priority_assignment(g, pool)
    assert rep.defective_edges == 0
    apps = np.flatnonzero(g.is_app)
    hub = apps[g.degree[apps].argmax()]
    leaves = [a for a in apps if a != hub]
    assert all(cfg[l] != cfg[hub] for l in leaves)


def test_degree_priority_deterministic(overlap_graph):
    pool = ImplementationPool(hbar=overlap_graph.hbar, x=3)
    a, _ = degree_priority_assignment(overlap_graph, pool)
    b, _ = degree_priority_assignment(overlap_graph, pool)
    assert np.array_equal(a, b)


def test_degree_priority_handles_multi_layer_graphs(overlap_graph):
    # partially colored neighborhoods must not break the local tallies
    pool = ImplementationPool(hbar=overlap_graph.hbar, x=2)
    cfg, rep = degree_priority_assignment(overlap_graph, pool)
    assert cfg.min() >= 0
    assert cfg.max() < 2
    assert rep.defective_edges == brute_defects(overlap_graph, cfg)


def test_flipping_improves_on_its_random_start():
    g = line_graph(8)
    pool = ImplementationPool(hbar=2, x=2)
    start = random_coloring(g, pool, np.random.default_rng(12))
    cfg, rep = color_flipping(g, pool, np.random.default_rng(12))
    assert rep.defective_edges <= count_defective_edges(g, start).defective_edges
    assert 1 <= rep.sweeps <= 50


def test_color_flipping_levels_a_graph_once_per_x(monkeypatch):
    g = build_graph(generate_synthetic_network(40, 30, 0.5, 3, seed=2))
    built = []
    levels = diversity._levels
    monkeypatch.setattr(diversity, "_levels",
                        lambda g, nodes, x: built.append(x) or levels(g, nodes, x))
    xs = (2, 10, 2)
    warm = [color_flipping(g, ImplementationPool(g.hbar, x), np.random.default_rng(9)) for x in xs]
    assert built == [2, 10]
    # shared by every later call, so no call may write into them
    cached = netmodel._derived[g][("flip levels", 2)]
    assert cached and not any(a.flags.writeable for level in cached for a in level)
    for x, (inst, rep) in zip(xs, warm):
        monkeypatch.setattr(netmodel, "_derived", weakref.WeakKeyDictionary())
        cold, cold_rep = color_flipping(g, ImplementationPool(g.hbar, x), np.random.default_rng(9))
        assert np.array_equal(inst, cold) and rep == cold_rep
    assert built == [2, 10, 2, 10, 2]


def test_single_impl_everything_defective():
    g = line_graph(4)
    pool = ImplementationPool(hbar=2, x=1)
    cfg, rep = degree_priority_assignment(g, pool)
    # one implementation forces every same-program edge defective
    assert rep.defective_edges == len(g.sp_edges) == 3
    cfg2, rep2 = color_flipping(g, pool, np.random.default_rng(0))
    assert rep2.defective_edges == 3


@st.composite
def small_two_layer(draw):
    n = draw(st.integers(3, 8))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    e1 = draw(st.sets(st.sampled_from(all_pairs), min_size=1, max_size=10))
    e2 = draw(st.sets(st.sampled_from(all_pairs), min_size=0, max_size=10))
    l1 = Layer.from_edges(e1, participants=range(n))
    l2 = Layer.from_edges(e2, participants=range(n))
    return build_graph([l1, l2])


@given(small_two_layer(), st.integers(1, 4), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_searches_count_correctly_and_terminate(graph, x, seed):
    pool = ImplementationPool(hbar=graph.hbar, x=x)
    start = random_coloring(graph, pool, np.random.default_rng(seed))
    flipped, frep = color_flipping(graph, pool, np.random.default_rng(seed))
    greedy, grep = degree_priority_assignment(graph, pool)
    assert frep.defective_edges == brute_defects(graph, flipped)
    assert grep.defective_edges == brute_defects(graph, greedy)
    assert frep.defective_edges <= brute_defects(graph, start)
    for cfg in (flipped, greedy):
        assert cfg.min() >= 0 and cfg.max() < x


@st.composite
def small_one_layer(draw):
    n = draw(st.integers(3, 7))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(all_pairs), min_size=1, max_size=12))
    return build_graph([Layer.from_edges(edges, participants=range(n))])


@given(small_one_layer(), st.integers(2, 3))
@settings(max_examples=25, deadline=None)
def test_greedy_never_beats_exhaustive_optimum(graph, x):
    pool = ImplementationPool(hbar=graph.hbar, x=x)
    apps = np.flatnonzero(graph.is_app)
    best = None
    inst = np.zeros(graph.n_nodes, dtype=np.int16)
    for combo in np.ndindex(*([x] * len(apps))):
        inst[apps] = combo
        d = brute_defects(graph, inst)
        best = d if best is None else min(best, d)
    _, rep = degree_priority_assignment(graph, pool)
    assert rep.defective_edges >= best


@st.composite
def multi_layer(draw):
    """One to three layers over up to 14 users; a layer's members may have no
    link in it, so some application nodes have no same-program neighbor."""
    n = draw(st.integers(2, 14))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        members = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        pairs = [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
        edges = draw(st.sets(st.sampled_from(pairs), max_size=40)) if pairs else set()
        layers.append(Layer.from_edges(edges, participants=members))
    return build_graph(layers)


@given(multi_layer(), st.integers(1, 5), st.integers(0, 2**31 - 1))
@example(line_graph(30), 2, 0)  # every application node is its own level
@example(line_graph(30), 3, 1)
@example(complete_graph(6), 4, 1)  # dense: the two switching rules part ways
@example(complete_graph(6), 2, 0)  # every node past the first x has a conflict
@example(complete_graph(6), 3, 0)
@example(line_graph(30), 1, 0)  # one implementation: all but the ends conflict
# a triangle with a pendant node: the lowest-degree tie-break decides
@example(build_graph([Layer.from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])]), 2, 0)
# an empty layer: a program with no nodes
@example(build_graph([Layer.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]), Layer.from_edges([])]),
         2, 0)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_colorings_match_the_node_by_node_sweeps(graph, x, seed):
    pool = ImplementationPool(hbar=graph.hbar, x=x)
    got, got_rep = color_flipping(graph, pool, np.random.default_rng(seed))
    want, want_rep = reference.color_flipping(graph, pool, np.random.default_rng(seed))
    assert got.dtype == want.dtype == np.int16
    assert np.array_equal(got, want) and got_rep == want_rep

    got, got_rep = degree_priority_assignment(graph, pool)
    want, want_rep = reference.degree_priority_assignment(graph, pool)
    assert got.dtype == want.dtype == np.int16
    assert np.array_equal(got, want) and got_rep == want_rep

    # from a random start the switching sweeps have far more to do
    start = random_coloring(graph, pool, np.random.default_rng(seed))
    for prog in range(graph.hbar):
        members = np.flatnonzero(graph.program == prog)
        got, want = start.copy(), start.copy()
        assert diversity._switching(graph, got, members, x) == reference.switching(
            graph, want, members, x
        )
        assert np.array_equal(got, want)
