"""Defender model: strategies, detection, and redeployment.

A strategy is its knobs, and ``KNOBS`` is the one statement of which knobs
each strategy takes. Monoculture and static take none and never act after
the initial assignment. Proactive redeploys a random sample of
ceil(eta1 * |V|) nodes every round(1/eta2) steps. Reactive runs the
detector (rates fpr, fnr) every step and redeploys whatever it flags.
Hybrid runs the detector only at the period instants, a detection-gated
periodic cleanup; a hybrid with ``eta1`` set also draws the proactive
sample there and redeploys the union. ``plan`` reads only the knobs: a
defender with a period acts at its multiples only, runs the detector when
it has ``fpr`` and draws the sample when it has ``eta1``.

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
    CommGraph,
    ConfigError,
    ImplementationPool,
    program_offsets,
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


class SpecError(ConfigError):
    """Strategy and parameter combination violates ``KNOBS`` or a knob range."""


#: the knobs each strategy requires, then the knobs it may also take
KNOBS: dict[Strategy, tuple[tuple[str, ...], tuple[str, ...]]] = {
    Strategy.MONOCULTURE: ((), ()),
    Strategy.STATIC: ((), ()),
    Strategy.PROACTIVE: (("eta1", "eta2"), ()),
    Strategy.REACTIVE_ADAPTIVE: (("fpr", "fnr"), ()),
    Strategy.HYBRID: (("eta2", "fpr", "fnr"), ("eta1",)),
}
KNOB_NAMES = ("eta1", "eta2", "fpr", "fnr")


@dataclass(frozen=True)
class DefenderSpec:
    """Defender parameters; a knob its strategy does not take (``KNOBS``)
    must stay None."""

    strategy: Strategy
    tau: float = 1.0 / 3.0
    eta1: float | None = None
    eta2: float | None = None
    fpr: float | None = None
    fnr: float | None = None
    initial_algo: InitialAlgo = InitialAlgo.DEGREE_PRIORITY

    def __post_init__(self) -> None:
        s = self.strategy
        required, optional = KNOBS[s]
        for name in KNOB_NAMES:
            value = getattr(self, name)
            if value is None and name in required:
                raise SpecError(f"{s.value} requires {name}")
            if value is not None and name not in required + optional:
                raise SpecError(f"{s.value} must leave {name} unset")
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
    def acts(self) -> bool:
        """Whether ``plan`` can ever pick a node: a detector or a sample."""
        return self.fpr is not None or self.eta1 is not None


def detect(state: np.ndarray, fpr: float, fnr: float, rng: np.random.Generator) -> np.ndarray:
    """Flagged node ids, ascending: a compromised node is flagged with
    probability 1 - fnr, any other node with probability fpr."""
    u = rng.random(state.shape[0])
    flagged = u < fpr
    compromised = (state == COMPROMISED).nonzero()[0]
    flagged[compromised] = u[compromised] < 1.0 - fnr
    return flagged.nonzero()[0]


def plan(
    spec: DefenderSpec,
    t: int,
    state: np.ndarray,
    graph: CommGraph,
    rng_detect: np.random.Generator,
    rng_sample: np.random.Generator,
) -> np.ndarray:
    """Node set to redeploy at step t (possibly empty), ascending."""
    nodes = np.empty(0, dtype=np.int64)
    period = spec.period
    if period is not None and t % period:
        return nodes
    if spec.fpr is not None:
        nodes = detect(state, spec.fpr, spec.fnr, rng_detect)
    if spec.eta1 is not None:
        k = math.ceil(spec.eta1 * graph.n_nodes)
        mark = np.zeros(graph.n_nodes, dtype=bool)
        mark[nodes] = True
        mark[rng_sample.choice(graph.n_nodes, size=k, replace=False)] = True
        nodes = mark.nonzero()[0]
    return nodes


def redeploy(
    graph: CommGraph,
    pool: ImplementationPool,
    codes: np.ndarray,
    installed: np.ndarray,
    state: np.ndarray,
    nodes: np.ndarray,
    rng: np.random.Generator,
) -> float:
    """Replace implementations on ``nodes`` (distinct ids) in place, in
    ``installed`` and ``state``; returns oc, the redeployed share of nodes.

    The new implementation is uniform over the program's other
    implementations; x == 1 reinstalls the same one. ``codes`` is the run's
    flat (hbar * x,) int8 table of the state, VULNERABLE or INVULNERABLE,
    each (program, implementation) gives. A redeployed node is never
    compromised afterwards.
    """
    if nodes.size:
        inst = installed[nodes]
        if pool.x > 1:
            r = rng.integers(0, pool.x - 1, size=nodes.size)
            inst = r + (r >= inst)
            installed[nodes] = inst
        state[nodes] = codes[program_offsets(graph, pool.x)[nodes] + inst]
    return nodes.size / graph.n_nodes
