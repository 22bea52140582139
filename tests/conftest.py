"""Shared fixtures: small hand-checkable networks and scenario builders."""
import numpy as np
import pytest

from diversim import (
    AttackerSpec,
    DefenderSpec,
    ImplementationPool,
    Layer,
    PrebuiltNetwork,
    Scenario,
    Strategy,
    build_graph,
)
from diversim import engine


@pytest.fixture
def overlap_graph():
    """Five users, two partially overlapping layers, 13 nodes total.

    Layer 0 spans users {1, 3, 4, 5}, layer 1 spans {1, 2, 4, 5}; users 1,
    4 and 5 own computers with two application nodes, users 2 and 3 with
    one.
    """
    layer0 = Layer.from_edges([(1, 3), (3, 4), (4, 5), (1, 5)], participants=[1, 3, 4, 5])
    layer1 = Layer.from_edges([(1, 2), (2, 4), (4, 5)], participants=[1, 2, 4, 5])
    return build_graph([layer0, layer1])


@pytest.fixture
def path_graph():
    """Three computers in a line, one layer: app-OS pairs chained by apps."""
    layer = Layer.from_edges([(0, 1), (1, 2)])
    return build_graph([layer])


def make_scenario(graph, **kw):
    """Scenario over a prebuilt graph with small defaults, overridable."""
    pool = kw.pop("pool", ImplementationPool(hbar=graph.hbar, x=3))
    attacker = kw.pop("attacker", AttackerSpec(m3=1, m4=pool.hbar - 1, initial_compromise_size=1))
    defender = kw.pop("defender", DefenderSpec(Strategy.STATIC, tau=0.5))
    defaults = dict(t_max=20, runs=3, seed=0)
    defaults.update(kw)
    return Scenario(
        network=PrebuiltNetwork(graph),
        pool=pool,
        q=defaults.pop("q", 1.0),
        attacker=attacker,
        defender=defender,
        **defaults,
    )


def stepped(scn, run_index=0, graph=None, watch=lambda rs, t: None):
    """Run ``scn`` by ``engine.step`` to ``t_max``, whatever its defender, and
    call ``watch(rs, t)`` at t=0 and after each step; returns the run state."""
    rs = engine.init_run(scn, run_index, graph=graph)
    watch(rs, 0)
    for t in range(1, scn.t_max + 1):
        engine.step(rs, t)
        watch(rs, t)
    return rs


def degrees_from_edges(n, edges):
    deg = np.zeros(n, dtype=int)
    for u, w in edges:
        deg[u] += 1
        deg[w] += 1
    return deg
