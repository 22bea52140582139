"""Defender model: strategies, detection, and redeployment.

Five strategies share one planning interface. Monoculture and Static never
act after the initial assignment. Proactive redeploys a random sample of
ceil(eta1 * |V|) nodes every round(1/eta2) steps. ReactiveAdaptive runs the
detector every step and redeploys whatever it flags. Hybrid runs the
detector only at the period instants, a detection-gated periodic cleanup;
setting ``hybrid_union`` additionally redeploys a proactive sample at those
instants.

A redeployment replaces the node's implementation with a uniformly chosen
different one (with a single implementation, the same one is reinstalled).
The node comes back vulnerable or invulnerable according to the new
implementation, never compromised, and any agent on it is destroyed.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .netmodel import (
    COMPROMISED,
    INVULNERABLE,
    VULNERABLE,
    CommGraph,
    ImplementationPool,
)

logger = logging.getLogger(__name__)


class Strategy(Enum):
    MONOCULTURE = "monoculture"
    STATIC = "static"
    PROACTIVE = "proactive"
    REACTIVE_ADAPTIVE = "reactive"
    HYBRID = "hybrid"


class InitialAlgo(Enum):
    RANDOM = "random"
    COLOR_FLIP = "color_flip"
    DEGREE_PRIORITY = "degree_priority"


class SpecError(ValueError):
    """Strategy and parameter combination violates the compatibility table."""


@dataclass(frozen=True)
class Detector:
    """Per-node detector: flags a compromised node with probability 1 - fnr
    and a non-compromised node with probability fpr."""

    fpr: float
    fnr: float


@dataclass(frozen=True)
class DefenderSpec:
    """Defender parameters; unused knobs must stay None per strategy.

    monoculture/static: no knobs. proactive: eta1, eta2. reactive: fpr, fnr.
    hybrid: eta2, fpr, fnr (eta1 only with hybrid_union).
    """

    strategy: Strategy
    tau: float = 1.0 / 3.0
    eta1: float | None = None
    eta2: float | None = None
    fpr: float | None = None
    fnr: float | None = None
    initial_algo: InitialAlgo = InitialAlgo.DEGREE_PRIORITY
    hybrid_union: bool = False

    def __post_init__(self) -> None:
        s = self.strategy
        want_eta1 = s is Strategy.PROACTIVE or (s is Strategy.HYBRID and self.hybrid_union)
        want_eta2 = s in (Strategy.PROACTIVE, Strategy.HYBRID)
        want_rates = s in (Strategy.REACTIVE_ADAPTIVE, Strategy.HYBRID)
        for name, value, wanted in (
            ("eta1", self.eta1, want_eta1),
            ("eta2", self.eta2, want_eta2),
            ("fpr", self.fpr, want_rates),
            ("fnr", self.fnr, want_rates),
        ):
            if wanted and value is None:
                raise SpecError(f"{s.value} requires {name}")
            if not wanted and value is not None:
                raise SpecError(f"{s.value} must leave {name} unset")
        if self.hybrid_union and s is not Strategy.HYBRID:
            raise SpecError("hybrid_union applies to the hybrid strategy only")
        if self.eta1 is not None and not 0.0 < self.eta1 <= 1.0:
            raise SpecError("eta1 outside (0, 1]")
        if self.eta2 is not None and not 0.0 < self.eta2 <= 1.0:
            raise SpecError("eta2 outside (0, 1]")
        for name, value in (("fpr", self.fpr), ("fnr", self.fnr)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise SpecError(f"{name} outside [0, 1]")
        if not 0.0 <= self.tau <= 1.0:
            raise SpecError("tau outside [0, 1]")

    @property
    def period(self) -> int | None:
        if self.eta2 is None:
            return None
        return max(1, int(round(1.0 / self.eta2)))

    @property
    def detector(self) -> Detector | None:
        if self.fpr is None:
            return None
        return Detector(self.fpr, self.fnr)


def detect(state: np.ndarray, detector: Detector, rng: np.random.Generator) -> np.ndarray:
    """Flagged node ids, ascending."""
    u = rng.random(state.shape[0])
    comp = state == COMPROMISED
    flagged = np.where(comp, u < 1.0 - detector.fnr, u < detector.fpr)
    return np.flatnonzero(flagged)


def plan(
    spec: DefenderSpec,
    t: int,
    state: np.ndarray,
    graph: CommGraph,
    rng_detect: np.random.Generator,
    rng_sample: np.random.Generator,
) -> np.ndarray:
    """Node set to redeploy at step t (possibly empty)."""
    empty = np.empty(0, dtype=np.int64)
    s = spec.strategy
    if s in (Strategy.MONOCULTURE, Strategy.STATIC):
        return empty
    if s is Strategy.PROACTIVE:
        if t % spec.period != 0:
            return empty
        k = math.ceil(spec.eta1 * graph.n_nodes)
        return np.sort(rng_sample.choice(graph.n_nodes, size=k, replace=False))
    if s is Strategy.REACTIVE_ADAPTIVE:
        return detect(state, spec.detector, rng_detect)
    # hybrid: detection gated by the period
    if t % spec.period != 0:
        return empty
    flagged = detect(state, spec.detector, rng_detect)
    if spec.hybrid_union:
        k = math.ceil(spec.eta1 * graph.n_nodes)
        sample = rng_sample.choice(graph.n_nodes, size=k, replace=False)
        flagged = np.union1d(flagged, sample)
    return flagged


def redeploy(
    graph: CommGraph,
    pool: ImplementationPool,
    vulnerable: np.ndarray,
    installed: np.ndarray,
    state: np.ndarray,
    nodes: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Replace implementations on ``nodes``; returns (installed', state', oc).

    The new implementation is uniform over the program's other
    implementations; x == 1 reinstalls the same one. ``vulnerable`` is the
    (hbar, x) table of vulnerable implementations. A redeployed node is
    never compromised afterwards.
    """
    new_inst = installed.copy()
    new_state = state.copy()
    if nodes.size:
        if pool.x > 1:
            r = rng.integers(0, pool.x - 1, size=nodes.size)
            r = r + (r >= installed[nodes])
            new_inst[nodes] = r.astype(installed.dtype)
        new_state[nodes] = np.where(
            vulnerable[graph.program[nodes], new_inst[nodes]],
            VULNERABLE,
            INVULNERABLE,
        )
    oc = nodes.size / graph.n_nodes
    return new_inst, new_state, oc


def defense_investment(pool: ImplementationPool) -> int:
    """Diversity budget: programs times implementations."""
    return pool.hbar * pool.x
