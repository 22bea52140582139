"""Attacker model: exploit catalog, per-node agents, and knowledge.

The attacker owns a fixed catalog: ``m3`` privilege-escalation exploits
against OS implementations, ``m4`` lateral-movement exploits against
application implementations, plus four fixed capabilities (remote access,
local and remote discovery, damage) that every attacker has. The catalog is
drawn once at run start as two boolean masks: an (x,) mask of the OS
implementations it escalates on and an (hbar, x) mask of the (program,
implementation) pairs it moves laterally onto. There is no online exploit
acquisition.

Every compromised node hosts one agent cycling through attack phases. An
agent first installs, then loops discovery, privilege escalation, lateral
movement, damage, one phase per step; ``engine`` derives each agent's phase
from the step its node was last compromised and carries out the phases.
Decisions are deterministic given state and knowledge; all randomness enters
through the catalog draw and the initial compromise.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .netmodel import CommGraph, ConfigError, ImplementationPool, vulnerable_count

logger = logging.getLogger(__name__)


class CatalogError(ConfigError):
    """Attacker sizes negative or above the vulnerable supply, or q_fraction outside [0, 1]."""


@dataclass(frozen=True)
class AttackerSpec:
    """Attacker parameters for a scenario.

    ``initial_nodes`` overrides the sampled initial compromise with an
    explicit set of distinct node ids, which ``engine.init_run`` checks
    against the graph; useful for oracle runs and coupled comparisons. It is
    kept as a tuple of ints, so that the spec hashes.

    ``scale_with_q`` and ``q_fraction`` are how a q sweep moves the attacker
    (``sweeps.cell_at``): round(q_fraction * x * q) exploits per program, or
    m3 and m4 unchanged when ``scale_with_q`` is false; a run ignores them.
    """

    m3: int
    m4: int
    initial_compromise_size: int
    initial_nodes: tuple[int, ...] | None = None
    scale_with_q: bool = True
    q_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.m3 < 0 or self.m4 < 0 or self.initial_compromise_size < 0:
            raise CatalogError("attacker sizes must be non-negative")
        if not 0.0 <= self.q_fraction <= 1.0:
            raise CatalogError("attacker.q_fraction outside [0, 1]")
        if self.initial_nodes is not None:
            object.__setattr__(self, "initial_nodes", tuple(map(int, self.initial_nodes)))


def max_catalog(pool: ImplementationPool, q: float) -> tuple[int, int]:
    """Largest feasible (m3, m4) for a pool at quality q."""
    k = vulnerable_count(q, pool.x)
    return k, k * (pool.hbar - 1)


def build_exploit_catalog(
    pool: ImplementationPool,
    vulnerable: np.ndarray,
    m3: int,
    m4: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw catalog targets uniformly among vulnerable implementations
    (``vulnerable`` is the (hbar, x) table of ``assign_vulnerabilities``).

    Returns the privilege-escalation mask, (x,) over OS implementations, and
    the lateral mask, (hbar, x), whose OS row stays empty. ``m4`` is split as
    evenly as possible across the application kinds, with the remainder
    going to lower program indices. Draws are permutation prefixes, so a
    larger budget from a shared stream extends a smaller one.
    """
    n_apps = pool.hbar - 1
    os_vul = np.flatnonzero(vulnerable[pool.os_program])
    if m3 > os_vul.size:
        raise CatalogError(f"m3={m3} exceeds {os_vul.size} vulnerable OS implementations")
    privesc = np.zeros(pool.x, dtype=bool)
    privesc[rng.permutation(os_vul)[:m3]] = True
    base, rem = divmod(m4, n_apps)
    lateral = np.zeros((pool.hbar, pool.x), dtype=bool)
    for p in range(n_apps):
        share = base + (1 if p < rem else 0)
        app_vul = np.flatnonzero(vulnerable[p])
        if share > app_vul.size:
            raise CatalogError(
                f"program {p} share {share} exceeds {app_vul.size} vulnerable implementations"
            )
        lateral[p, rng.permutation(app_vul)[:share]] = True
    return privesc, lateral


@dataclass(eq=False)
class AttackerKnowledge:
    """What the attacker has observed: the implementation recorded per node,
    -1 where the node was never observed.

    Entries are overwritten by newer observations; a redeployed node keeps
    its stale entry until re-discovered, so attacks against it fail
    harmlessly on the implementation mismatch. Compromised nodes' own
    entries are always current.
    """

    impl: np.ndarray

    @classmethod
    def empty(cls, n_nodes: int) -> "AttackerKnowledge":
        return cls(np.full(n_nodes, -1, dtype=np.int16))

    def observe(self, nodes: np.ndarray, installed: np.ndarray) -> int:
        """Record observations; returns how many entries gained information,
        exactly when ``nodes`` are distinct (a repeated stale node counts
        once per occurrence)."""
        # installed implementations are never negative, so an unobserved
        # entry always counts as fresh
        inst = installed[nodes]
        fresh = int(np.count_nonzero(self.impl[nodes] != inst))
        self.impl[nodes] = inst
        return fresh


def initial_compromise(
    graph: CommGraph,
    config_installed: np.ndarray,
    lateral: np.ndarray,
    vulnerable: np.ndarray,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample the attacker's foothold: the chosen node ids, ascending.

    Primary pool: application nodes whose installed implementation is a
    lateral catalog target (``lateral`` is the catalog's (hbar, x) mask). If
    that pool is too small, fall back to any vulnerable application nodes;
    any remaining shortfall is logged, not fatal.
    """
    apps = np.flatnonzero(graph.is_app)
    primary = apps[lateral[graph.program[apps], config_installed[apps]]]
    take = min(size, primary.size)
    chosen = rng.permutation(primary)[:take] if take else np.empty(0, dtype=np.int64)
    if take < size:
        fallback = apps[vulnerable[graph.program[apps], config_installed[apps]]]
        extra_pool = np.setdiff1d(fallback, chosen, assume_unique=False)
        more = min(size - take, extra_pool.size)
        if more:
            chosen = np.concatenate([chosen, rng.permutation(extra_pool)[:more]])
        shortfall = size - take - more
        if shortfall:
            # an empty attack surface makes the shortfall structural, not odd
            level = logging.INFO if not vulnerable.any() else logging.WARNING
            logger.log(level, "initial compromise short by %d nodes", shortfall)
    return np.sort(chosen).astype(np.int64)
