"""Security metrics over ensemble-mean traces.

Time-to-succeed (tts), attack-worst-damage (awd), and the per-run
operational cost sum (aoc) reduce a single mean trace. Attack-slowdown
(asd) compares a diversified trace against the monoculture baseline.
``first_crossing`` locates a threshold crossing along a swept grid; the
sweep-level metrics built on it, attack-extra-cost (aec) and vulnerability
tolerance (vt), live in ``sweeps``.

``None`` encodes a metric that was not achieved within the horizon.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AsdResult:
    steps: int
    censored: bool


def tts(trace, tau: float) -> int | None:
    """First step whose compromised fraction exceeds tau; None if never."""
    cc = np.asarray(trace.cc)
    hits = np.flatnonzero(cc > tau)
    return int(hits[0]) if hits.size else None


def awd(trace) -> float:
    """Worst compromised fraction over the horizon."""
    return float(np.max(np.asarray(trace.cc)))


def asd(trace_diversified, trace_monoculture, tau: float) -> AsdResult | None:
    """Slowdown of the breach relative to the monoculture baseline.

    Right-censored at the horizon when the diversified network is never
    breached; None when even the baseline is never breached.
    """
    t_base = tts(trace_monoculture, tau)
    if t_base is None:
        return None
    t_div = tts(trace_diversified, tau)
    horizon = len(trace_diversified.cc) - 1
    if t_div is None:
        return AsdResult(horizon - t_base, True)
    return AsdResult(t_div - t_base, False)


def aoc(trace) -> float:
    """Average per-step fraction of nodes redeployed (t >= 1)."""
    oc = np.asarray(trace.oc)
    horizon = len(oc) - 1
    if horizon <= 0:
        return 0.0
    return float(oc[1:].sum() / horizon)


def first_crossing(grid: Sequence[float], values: Sequence[float], tau: float):
    """First grid point whose value exceeds tau; None if none does.

    A non-monotone curve still has a well-defined first crossing; it is
    logged because it usually means the ensemble is too small.
    """
    values = np.asarray(values, dtype=float)
    if np.any(np.diff(values) < 0):
        logger.warning("curve not monotone along grid; first crossing used as-is")
    hits = np.flatnonzero(values > tau)
    return grid[int(hits[0])] if hits.size else None
