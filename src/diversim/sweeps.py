"""Scenario families and parameter sweeps.

``sweep`` runs the family (one cell per defender of a scenario file) times
the Cartesian grid of the swept keys, and with no swept key it is
``diversim run``. One pass: expand every cell, so a bad grid fails before
anything runs; run each distinct simulation once, on one worker pool
(``_run_cells``); reduce each mean trace once (``cell_row``) and derive the
summary rows from those. ``cell_at`` builds every cell, the monoculture
twin included, from the scenario alone. The metrics that compare
ensembles live here: asd against the monoculture twin, vt along a q
sweep, aec along a budget sweep. Cells share the master seed, so random
substreams are coupled across cells. ``_write_csv`` writes the trace,
sweep and summary files, every value formatted by ``_fmt``.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import metrics
from .config import ConfigError, LoadedConfig
from .defense import KNOB_NAMES, DefenderSpec, InitialAlgo, Strategy
from .engine import MeanTrace, Scenario, Trace, monte_carlo, worker_pool
from .netmodel import vulnerable_count
from .threat import max_catalog

SWEEP_KEYS = (
    "tau", "q", "budget", "x",
    "m3", "m4", "ini_comp",
    "eta1", "eta2", "fpr", "fnr",
)
_INT_KEYS = {"budget", "x", "m3", "m4", "ini_comp"}
_MONOCULTURE = Strategy.MONOCULTURE.value


def variant(base: Scenario, defender: DefenderSpec) -> Scenario:
    """The base scenario under a different defender; a monoculture defender
    gets the undiversified twin, ``cell_at(base, "x", 1)``."""
    if defender.strategy is Strategy.MONOCULTURE:
        return replace(cell_at(base, "x", 1), defender=defender)
    return replace(base, defender=defender)


def monoculture_baseline(base: Scenario) -> Scenario:
    """The undiversified twin of a scenario: one implementation per program,
    attacker budget clamped to what a single implementation can absorb."""
    return variant(base, DefenderSpec(
        Strategy.MONOCULTURE, tau=base.defender.tau, initial_algo=InitialAlgo.RANDOM
    ))


def split_budget(total: int, hbar: int) -> tuple[int, int]:
    """Split a total exploit budget evenly across the programs, remainder to
    lower program indices; returns (m3, m4) with the OS share last."""
    m3 = int(total) // hbar
    return m3, int(total) - m3


def cell_at(base: Scenario, key: str, value) -> Scenario:
    """The cell of ``base`` with one sweep key set to ``value``.

    q moves the attacker by the rule on ``base.attacker``: with
    ``scale_with_q`` it holds round(q_fraction * x * q) exploits per program;
    budget is split by ``split_budget``; x leaves a monoculture member at its
    single implementation; tau and the other defender knobs move only a
    defender that has them (``defense.KNOBS``). The attacker is then clamped
    to the cell's vulnerable supply, so a grid budget beyond it saturates
    instead of failing.
    """
    pool, q, att, defender = base.pool, base.q, base.attacker, base.defender
    if key == "q":
        q = value
        if att.scale_with_q:
            per = int(round(att.q_fraction * pool.x * q))
            att = replace(att, m3=per, m4=(pool.hbar - 1) * per)
    elif key == "budget":
        m3, m4 = split_budget(value, pool.hbar)
        att = replace(att, m3=m3, m4=m4)
    elif key == "x":
        if defender.strategy is not Strategy.MONOCULTURE:
            pool = replace(pool, x=value)
    elif key in ("m3", "m4"):
        att = replace(att, **{key: value})
    elif key == "ini_comp":
        att = replace(att, initial_compromise_size=value)
    elif getattr(defender, key) is not None:
        defender = replace(defender, **{key: value})
    max_m3, max_m4 = max_catalog(pool, q)
    att = replace(att, m3=min(att.m3, max_m3), m4=min(att.m4, max_m4))
    return replace(base, pool=pool, q=q, attacker=att, defender=defender)


def run_cell(
    scenario: Scenario, jobs: int = 1, pool: ProcessPoolExecutor | None = None, memo=None
) -> MeanTrace:
    """The cell's ``monte_carlo`` mean on the command's pool and memo, once its runs end."""
    return monte_carlo(scenario, jobs=jobs, pool=pool, memo=memo)


# --- cell expansion -------------------------------------------------------------

def parse_sweep(text: str) -> tuple[str, np.ndarray]:
    """Parse one ``key=start:stop:step`` sweep flag into (key, grid)."""
    key, sep, grid_text = text.partition("=")
    key = key.strip().removeprefix("diversity.").removeprefix("attacker.").removeprefix("defender.")
    if not sep:
        raise ConfigError(f"sweep {text!r} is not key=start:stop:step")
    if key not in SWEEP_KEYS:
        raise ConfigError(f"unknown sweep key {key!r}")
    grid = parse_grid(grid_text)
    if key in _INT_KEYS and not all(float(v).is_integer() for v in grid):
        raise ConfigError(f"sweep {text!r} has a non-integral value for integer key {key!r}")
    return key, grid


def _expand(base: Scenario, swept: Sequence[tuple[str, np.ndarray]]) -> list[tuple]:
    """(value, cell) pairs over the Cartesian product of the swept grids;
    the values of several keys are joined by ';'."""
    pairs = [(None, base)]
    for key, grid in swept:
        values = [int(v) if key in _INT_KEYS else float(v) for v in grid]
        pairs = [
            (value if joined is None else f"{joined};{value}", cell_at(cell, key, value))
            for joined, cell in pairs
            for value in values
        ]
    return pairs


# --- execution and derived metrics ---------------------------------------------------

def _run_cells(cells: Sequence[Scenario], jobs: int, memo: dict) -> list[MeanTrace]:
    """The mean trace of every cell in order, from one ``run_cell`` call per
    distinct simulation: tau is read only by the reductions, and the cells of
    a family share network, t_max, runs, seed and defender order.

    Every call shares ``memo``, the command's graphs: each network is
    resolved once, and each process colors a graph once per pool while it
    lives. It also shares one pool of ``min(jobs, runs) - 1`` workers that
    adopt the memo (``engine.worker_pool``, none at 1), shut down on return
    or failure; this process runs each ensemble's first chunk.
    """
    keys = [(c.pool, c.q, c.attacker, replace(c.defender, tau=0.0)) for c in cells]
    means: dict[tuple, MeanTrace] = {}
    pool = worker_pool(jobs, cells[0].runs, memo)
    with pool or nullcontext():
        for cell, key in zip(cells, keys):
            if key not in means:
                means[key] = run_cell(cell, jobs=jobs, pool=pool, memo=memo)
    return [means[key] for key in keys]


def sweep(
    cfg: LoadedConfig, swept: Sequence[tuple[str, np.ndarray]] = (), jobs: int = 1, memo=None
) -> tuple[list[tuple], list[dict], list[tuple]]:
    """Run every cell of the family along the swept grids.

    Returns (cell, mean trace) and a sweep row per cell, and summary rows.
    With no swept key these are tts (censored as t_max), awd and aoc per
    defender, then asd at its own tau. One swept key derives asd per tau
    of a tau sweep, vt of a q sweep and aec of a budget sweep; tau and
    budget sweeps add the monoculture twin to a family without one. The
    cells' graphs are kept in ``memo`` if one is given (``resolve_graph``).
    """
    keys = [k for k, _ in swept]
    if len(set(keys)) != len(keys):
        raise ConfigError("each sweep key may appear once")
    for key in (k for k in keys if k in KNOB_NAMES):
        if all(getattr(spec, key) is None for spec in cfg.defenders):
            raise ConfigError(f"no defender of the family takes {key}")
    single = keys[0] if len(keys) == 1 else None
    specs = list(cfg.defenders)
    if single in ("tau", "budget") and not any(s.strategy is Strategy.MONOCULTURE for s in specs):
        specs.append(monoculture_baseline(cfg.scenario).defender)
    members = [(spec, _expand(variant(cfg.scenario, spec), swept)) for spec in specs]
    cells = [cell for _, pairs in members for _, cell in pairs]
    traces = _run_cells(cells, jobs, {} if memo is None else memo)
    cell_traces = iter(traces)

    rows: list[dict] = []
    summary: list[tuple] = []
    means: dict[str, MeanTrace] = {}
    crossings: dict = {}
    for spec, pairs in members:
        name = spec.strategy.value
        values, curve = [], []
        for value, cell in pairs:
            means[name] = mean = next(cell_traces)  # one trace per member in a tau sweep
            row = cell_row(cell, "+".join(keys), value, mean)
            rows.append(row)
            values.append(value)
            curve.append(row["awd"])
        if not keys:
            t = row["tts"]
            summary.append((name, spec.tau, "tts", cell.t_max if t is None else t, t is None))
            summary += [(name, spec.tau, m, row[m], False) for m in ("awd", "aoc")]
        elif single == "q":
            summary.append((name, spec.tau, "vt", _vt(values, curve, spec.tau), False))
        elif single == "budget":
            crossings[name] = metrics.first_crossing(values, curve, spec.tau)

    if not keys:
        summary += _asd_rows(specs, means)
    elif single == "tau":
        summary += _asd_rows(specs, means, [float(v) for v in swept[0][1]])
    elif single == "budget":
        summary += _aec_rows(cfg, crossings)
    return list(zip(cells, traces)), rows, summary


def _asd_rows(
    specs: Sequence[DefenderSpec], means: dict, taus: Sequence[float] | None = None
) -> list[tuple]:
    """asd of every diversified defender against the monoculture mean trace,
    at each of ``taus`` or else at the defender's own tau; a tau the
    baseline never breaches gives no row."""
    baseline = means.get(_MONOCULTURE)
    if baseline is None:
        return []
    rows = []
    for spec in specs:
        if spec.strategy is Strategy.MONOCULTURE:
            continue
        name = spec.strategy.value
        for tau in [spec.tau] if taus is None else taus:
            res = metrics.asd(means[name], baseline, tau)
            if res is not None:
                rows.append((name, tau, "asd", res.steps, res.censored))
    return rows


def _vt(qs: Sequence[float], awds: Sequence[float], tau: float) -> float:
    """Vulnerability tolerance: the largest swept q whose worst damage stays
    within tau, or 0.0 if none does."""
    return max((float(q) for q, damage in zip(qs, awds) if damage <= tau), default=0.0)


def _aec_rows(cfg: LoadedConfig, crossings: dict) -> list[tuple]:
    """Attack extra cost per diversified defender.

    The first swept budget whose worst damage exceeds tau, minus the
    monoculture twin's; reported as a count and as a fraction of the full
    catalog (programs times vulnerable implementations), and censored when
    either curve never crosses.
    """
    base_star = crossings.get(_MONOCULTURE)
    scn = cfg.scenario
    full = scn.pool.hbar * vulnerable_count(scn.q, scn.pool.x)
    rows = []
    for spec in cfg.defenders:
        name = spec.strategy.value
        if spec.strategy is Strategy.MONOCULTURE:
            continue
        star = crossings.get(name)
        if star is None or base_star is None:
            rows.append((name, spec.tau, "aec", None, True))
        else:
            count = int(star - base_star)
            rows.append((name, spec.tau, "aec", count, False))
            rows.append((name, spec.tau, "aec_fraction", count / full if full else 0.0, False))
    return rows


# --- CSV output ---------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def cell_row(scenario: Scenario, swept_key: str, swept_value, trace: MeanTrace) -> dict:
    d = scenario.defender
    t = metrics.tts(trace, d.tau)
    return {
        "strategy": d.strategy.value,
        "initial_algo": d.initial_algo.value,
        "hbar": scenario.pool.hbar,
        "x": scenario.pool.x,
        "q": scenario.q,
        "m3": scenario.attacker.m3,
        "m4": scenario.attacker.m4,
        "ini_comp": scenario.attacker.initial_compromise_size,
        "eta1": d.eta1,
        "eta2": d.eta2,
        "fpr": d.fpr,
        "fnr": d.fnr,
        "tau": d.tau,
        "t_max": scenario.t_max,
        "runs": scenario.runs,
        "seed": scenario.seed,
        "swept_key": swept_key,
        "swept_value": swept_value,
        "awd": metrics.awd(trace),
        "aoc": metrics.aoc(trace),
        "tts": t,
        "tts_censored": t is None,
    }


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def write_trace_csv(path: str | Path, trace: Trace | MeanTrace) -> None:
    """One row per step; a run's new_compromised is a count, a mean's a fraction."""
    names = ("cc", "vc", "ic", "oc", "new_compromised")
    columns = [getattr(trace, name).tolist() for name in names]
    _write_csv(path, ("t", *names), zip(range(len(columns[0])), *columns))


def write_sweep_csv(path: str | Path, rows: Sequence[dict]) -> None:
    """``cell_row`` dicts, at least one; the header is their keys."""
    _write_csv(path, rows[0], (row.values() for row in rows))


def write_summary_csv(path: str | Path, rows: Iterable[tuple]) -> None:
    """Rows of (strategy, tau, metric, value, censored)."""
    header = ("strategy", "tau", "metric", "value", "censored")
    _write_csv(path, header, ((s, float(tau), m, v, bool(c)) for s, tau, m, v, c in rows))


def parse_grid(text: str) -> np.ndarray:
    """Parse start:stop:step into an inclusive grid of at least one point."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ConfigError(f"grid {text!r} is not start:stop:step") from None
    if not np.isfinite([start, stop, step]).all():
        raise ConfigError(f"grid {text!r} is not finite")
    if step <= 0:
        raise ConfigError("grid step must be positive")
    if stop < start:
        raise ConfigError("grid stop below start")
    n = np.floor((stop - start) / step + 1e-9) + 1
    if not np.isfinite(n):
        raise ConfigError(f"grid {text!r} has a point count that is not finite")
    return np.round(start + step * np.arange(int(n)), 10)
