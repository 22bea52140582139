"""Seedable random substreams.

Every stochastic mechanism in a run draws from its own generator, derived
from (master seed, run index, purpose). Toggling one mechanism, say the
detector, therefore never shifts the draws seen by another, say the
vulnerability assignment. Purpose values are part of the reproducibility
contract and must never be renumbered.
"""
from __future__ import annotations

from enum import IntEnum

import numpy as np


class Purpose(IntEnum):
    VULNERABILITY = 0
    COLORING = 1
    CATALOG = 2
    INITIAL_COMPROMISE = 3
    DETECTOR = 4
    REDEPLOY = 5
    PROACTIVE_SAMPLE = 6


def substream(master_seed: int, run_index: int, purpose: Purpose) -> np.random.Generator:
    """Generator for one (run, purpose) pair, independent of all others."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(run_index, int(purpose)))
    return np.random.default_rng(seq)


class DrawAhead:
    """``rng.integers(0, high, size=k)`` for each ``take(k)``, drawn ahead at
    least ``BLOCK`` at a time as int16. A bounded draw below 2**32 reads the
    stream one 32-bit half per value whatever the call sizes (Lemire, ACM
    TOMACS 29(1), 2019, numpy's method), so the takes equal per-call draws."""

    BLOCK = 4096

    def __init__(self, rng: np.random.Generator, high: int) -> None:
        self.rng, self.high = rng, high
        self.ahead = np.empty(0, dtype=np.int16)  # drawn, not yet taken

    def take(self, k: int) -> np.ndarray:
        if k > self.ahead.size:
            fresh = self.rng.integers(0, self.high, size=max(k - self.ahead.size, self.BLOCK))
            self.ahead = np.concatenate((self.ahead, fresh.astype(np.int16)))
        out, self.ahead = self.ahead[:k], self.ahead[k:]
        return out
