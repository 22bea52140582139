"""Exploit catalogs, attacker knowledge, and per-phase agent decisions."""
import logging

import numpy as np
import pytest

from diversim import (
    AttackerSpec,
    CatalogError,
    ImplementationPool,
    Layer,
    build_exploit_catalog,
    build_graph,
    initial_compromise,
)
from diversim.netmodel import COMPROMISED, INVULNERABLE, VULNERABLE
from diversim.threat import AttackerKnowledge, max_catalog

from reference import (
    PHASE_AFTER, AttackAgent, AttackPhase, ExploitCatalog, agent_decide, matches, neighbors,
)


def full_vuln(pool):
    return np.ones((pool.hbar, pool.x), dtype=bool)


def test_phase_cycle_skips_install():
    assert PHASE_AFTER[AttackPhase.INSTALL] == AttackPhase.DISCOVERY
    assert PHASE_AFTER[AttackPhase.DISCOVERY] == AttackPhase.PRIVILEGE_ESCALATION
    assert PHASE_AFTER[AttackPhase.PRIVILEGE_ESCALATION] == AttackPhase.LATERAL_MOVEMENT
    assert PHASE_AFTER[AttackPhase.LATERAL_MOVEMENT] == AttackPhase.DAMAGE
    assert PHASE_AFTER[AttackPhase.DAMAGE] == AttackPhase.DISCOVERY


def test_attacker_spec_validation():
    with pytest.raises(ValueError):
        AttackerSpec(m3=-1, m4=0, initial_compromise_size=1)


# --- catalog draws ---------------------------------------------------------------

def test_catalog_respects_budgets_and_split():
    pool = ImplementationPool(hbar=3, x=10)
    privesc, lateral = build_exploit_catalog(pool, full_vuln(pool), 4, 5, np.random.default_rng(0))
    assert privesc.sum() == 4
    # odd budget: the extra exploit goes to the lower program index; none to the OS
    assert lateral.sum(axis=1).tolist() == [3, 2, 0]


def test_catalog_only_targets_vulnerable():
    pool = ImplementationPool(hbar=3, x=6)
    vul = np.zeros((3, 6), dtype=bool)
    vul[:, :3] = True
    vm = vul
    privesc, lateral = build_exploit_catalog(pool, vm, 3, 6, np.random.default_rng(1))
    assert privesc[:3].all() and not privesc[3:].any()
    assert lateral[:2, :3].all() and not lateral[:, 3:].any()


def test_catalog_overdraw_rejected():
    pool = ImplementationPool(hbar=3, x=4)
    vm = np.zeros((3, 4), dtype=bool)
    with pytest.raises(CatalogError):
        build_exploit_catalog(pool, vm, 1, 0, np.random.default_rng(0))
    with pytest.raises(CatalogError):
        build_exploit_catalog(pool, full_vuln(pool), 0, 9, np.random.default_rng(0))


def test_catalog_budgets_nest_under_shared_stream():
    pool = ImplementationPool(hbar=4, x=8)
    vm = full_vuln(pool)
    small = build_exploit_catalog(pool, vm, 2, 3, np.random.default_rng(5))
    large = build_exploit_catalog(pool, vm, 5, 9, np.random.default_rng(5))
    for lo, hi in zip(small, large):
        assert (~lo | hi).all()


def test_catalog_masks():
    pool = ImplementationPool(hbar=3, x=4)
    pm, lm = build_exploit_catalog(pool, full_vuln(pool), 2, 3, np.random.default_rng(2))
    assert pm.dtype == lm.dtype == bool
    assert pm.shape == (4,) and lm.shape == (3, 4)
    cat = ExploitCatalog.from_masks(pm, lm)
    assert len(cat.privilege_escalation) == 2 and len(cat.lateral) == 3
    assert all(pm[i] for i in cat.privilege_escalation)
    assert all(lm[p, i] for p, i in cat.lateral)


def test_max_catalog_scales_with_quality():
    pool = ImplementationPool(hbar=3, x=10)
    assert max_catalog(pool, 1.0) == (10, 20)
    assert max_catalog(pool, 0.6) == (6, 12)
    assert max_catalog(pool, 0.0) == (0, 0)


# --- knowledge -------------------------------------------------------------------

def test_observe_counts_fresh_entries():
    know = AttackerKnowledge.empty(5)
    installed = np.array([2, 0, 1, 1, 0], dtype=np.int16)
    assert know.observe(np.array([0, 2]), installed) == 2
    # nothing new the second time
    assert know.observe(np.array([0, 2]), installed) == 0
    installed[2] = 3
    assert know.observe(np.array([0, 2]), installed) == 1


def test_stale_entries_stop_matching():
    know = AttackerKnowledge.empty(3)
    installed = np.array([1, 1, 1], dtype=np.int16)
    know.observe(np.array([0]), installed)
    assert matches(know, 0, installed)
    installed[0] = 2  # redeploy happened; the record is now stale
    assert not matches(know, 0, installed)
    know.observe(np.array([0]), installed)
    assert matches(know, 0, installed)
    assert not matches(know, 1, installed)


# --- agent decisions ---------------------------------------------------------------

@pytest.fixture
def decide_env(path_graph):
    """Path graph, everything impl 0, full state arrays, app 2 is the host."""
    g = path_graph
    installed = np.zeros(g.n_nodes, dtype=np.int16)
    state = np.full(g.n_nodes, VULNERABLE, dtype=np.int8)
    cat = ExploitCatalog(frozenset({0}), frozenset({(0, 0)}))
    know = AttackerKnowledge.empty(g.n_nodes)
    return g, installed, state, cat, know


def decide(g, know, cat, installed, state, host, phase):
    return agent_decide(AttackAgent(host, phase, 0), know, cat, g, installed, state)


def test_install_and_damage_touch_only_host(decide_env):
    g, installed, state, cat, know = decide_env
    act = decide(g, know, cat, installed, state, 2, AttackPhase.INSTALL)
    assert act.kind == "install" and act.targets == (2,)
    act = decide(g, know, cat, installed, state, 2, AttackPhase.DAMAGE)
    assert act.kind == "damage" and act.targets == (2,)


def test_discovery_observes_host_and_neighbors(decide_env):
    g, installed, state, cat, know = decide_env
    act = decide(g, know, cat, installed, state, 2, AttackPhase.DISCOVERY)
    assert act.kind == "observe"
    assert set(act.targets) == {2} | set(neighbors(g, 2).tolist())


def test_privilege_escalation_targets_local_os(decide_env):
    g, installed, state, cat, know = decide_env
    osn = int(g.os_of_computer[g.computer[2]])
    act = decide(g, know, cat, installed, state, 2, AttackPhase.PRIVILEGE_ESCALATION)
    assert act.kind == "compromise" and act.targets == (osn,)
    # catalog without that OS implementation: no local target
    weak = ExploitCatalog(frozenset({3}), cat.lateral)
    act = decide(g, know, weak, installed, state, 2, AttackPhase.PRIVILEGE_ESCALATION)
    assert act.targets == ()
    # already-compromised or hardened OS is not re-attacked
    state[osn] = COMPROMISED
    act = decide(g, know, cat, installed, state, 2, AttackPhase.PRIVILEGE_ESCALATION)
    assert act.targets == ()
    state[osn] = INVULNERABLE
    act = decide(g, know, cat, installed, state, 2, AttackPhase.PRIVILEGE_ESCALATION)
    assert act.targets == ()
    # an agent on the OS itself has nowhere to escalate
    act = decide(g, know, cat, installed, state, osn, AttackPhase.PRIVILEGE_ESCALATION)
    assert act.targets == ()


def test_lateral_requires_current_knowledge(decide_env):
    g, installed, state, cat, know = decide_env
    # neighbors of app 2 are its own OS plus apps 0 and 4
    act = decide(g, know, cat, installed, state, 2, AttackPhase.LATERAL_MOVEMENT)
    assert act.targets == ()  # nothing observed yet
    know.observe(np.array([0, 4]), installed)
    act = decide(g, know, cat, installed, state, 2, AttackPhase.LATERAL_MOVEMENT)
    assert set(act.targets) == {0, 4}
    # a redeploy invalidates the record even when the new impl is in catalog
    installed[0] = 1
    act = decide(g, know, cat, installed, state, 2, AttackPhase.LATERAL_MOVEMENT)
    assert set(act.targets) == {4}
    # compromised neighbors are skipped
    state[4] = COMPROMISED
    act = decide(g, know, cat, installed, state, 2, AttackPhase.LATERAL_MOVEMENT)
    assert act.targets == ()


def test_lateral_respects_catalog(decide_env):
    g, installed, state, cat, know = decide_env
    know.observe(np.arange(g.n_nodes), installed)
    bare = ExploitCatalog(cat.privilege_escalation, frozenset())
    act = decide(g, know, bare, installed, state, 2, AttackPhase.LATERAL_MOVEMENT)
    assert act.targets == ()


# --- initial compromise ---------------------------------------------------------

def test_initial_compromise_prefers_catalog_targets():
    g = build_graph([Layer.from_edges([(i, i + 1) for i in range(5)])])
    pool = ImplementationPool(hbar=2, x=2)
    installed = np.zeros(g.n_nodes, dtype=np.int16)
    apps = np.flatnonzero(g.is_app)
    installed[apps[:3]] = 1  # three apps run impl 1, the catalog target
    lateral = np.zeros((2, 2), dtype=bool)
    lateral[0, 1] = True
    ic = initial_compromise(g, installed, lateral, full_vuln(pool), 2, np.random.default_rng(0))
    assert ic.size == 2
    assert set(ic.tolist()) <= set(apps[:3].tolist())


def test_initial_compromise_falls_back_to_vulnerable():
    g = build_graph([Layer.from_edges([(0, 1), (1, 2)])])
    pool = ImplementationPool(hbar=2, x=2)
    installed = np.zeros(g.n_nodes, dtype=np.int16)
    lateral = np.zeros((2, 2), dtype=bool)
    lateral[0, 1] = True  # nobody runs impl 1
    ic = initial_compromise(g, installed, lateral, full_vuln(pool), 2, np.random.default_rng(0))
    assert ic.size == 2
    assert all(g.is_app[n] for n in ic)


def test_initial_compromise_reports_shortfall(caplog):
    g = build_graph([Layer.from_edges([(0, 1)])])
    installed = np.zeros(g.n_nodes, dtype=np.int16)
    vm = np.zeros((2, 1), dtype=bool)
    with caplog.at_level(logging.INFO, logger="diversim.threat"):
        ic = initial_compromise(g, installed, vm, vm, 5, np.random.default_rng(0))
    assert ic.size == 0
    # nothing is vulnerable, so the shortfall is structural: INFO, not WARNING
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.INFO, "initial compromise short by 5 nodes")
    ]


def test_initial_compromise_size_zero():
    g = build_graph([Layer.from_edges([(0, 1)])])
    pool = ImplementationPool(hbar=2, x=1)
    installed = np.zeros(g.n_nodes, dtype=np.int16)
    lateral = full_vuln(pool)
    ic = initial_compromise(g, installed, lateral, full_vuln(pool), 0, np.random.default_rng(0))
    assert ic.size == 0
