"""Which diversim functions the tracer wraps, and the per-layer metrics.

Layers are named after diversim's modules. Every target is a name the
program looks up at call time: a module global (``engine.step`` is called
as ``step(...)`` inside ``engine``), a module attribute (``defense.plan``
is called as ``_defense_mod.plan(...)``) or a method on its class.
"""
from __future__ import annotations

from tracer import Tracer


def _gathered(counts, args, out):
    counts["netmodel.neighbors_gathered"] += int(out.size)


def _flip_sweeps(counts, args, out):
    counts["diversity.color_flip_sweeps"] += int(out[1].sweeps)


def _observed(counts, args, out):
    counts["threat.nodes_observed"] += int(args[1].size)
    counts["threat.observed_fresh"] += int(out)


def _redeployed(counts, args, out):
    counts["defense.nodes_redeployed"] += int(args[5].size)


def _node_steps(counts, args, out):
    counts["engine.node_steps"] += int(args[0].graph.n_nodes)


def install(tr: Tracer, dv) -> None:
    """Wrap every traced function of the diversim modules in ``dv``."""
    e = dv.engine
    compromised = dv.netmodel.COMPROMISED

    def flagged(counts, args, out):
        counts["defense.flagged"] += int(out.size)
        counts["defense.flagged_compromised"] += int((args[0][out] == compromised).sum())

    tr.wrap(e, "generate_synthetic_network", "netmodel.generate")
    tr.wrap(e, "build_graph", "netmodel.build_graph")
    tr.wrap(e, "gather_neighbors", "netmodel.gather", _gathered)
    tr.wrap(e, "degree_priority_assignment", "diversity.degree_priority")
    tr.wrap(dv.diversity, "degree_priority_assignment", "diversity.degree_priority")
    tr.wrap(e, "color_flipping", "diversity.color_flip", _flip_sweeps)
    tr.wrap(dv.threat.AttackerKnowledge, "observe", "threat.observe", _observed)
    tr.wrap(e, "build_exploit_catalog", "threat.catalog")
    tr.wrap(e, "initial_compromise", "threat.initial_compromise")
    tr.wrap(dv.defense, "plan", "defense.plan")
    tr.wrap(dv.defense, "detect", "defense.detect", flagged)
    tr.wrap(dv.defense, "redeploy", "defense.redeploy", _redeployed)
    tr.wrap(e, "step", "engine.step", _node_steps)
    tr.wrap(e, "run", "engine.run")
    tr.wrap(e, "init_run", "engine.init_run")
    tr.wrap(e, "resolve_graph", "engine.resolve_graph")
    tr.wrap(e, "mean_of", "engine.mean_of")
    for owner in (e, dv.sweeps, dv.cli):
        tr.wrap(owner, "monte_carlo", "engine.monte_carlo")
    tr.wrap(e, "substream", "rng.substream")
    for fn in ("tts", "awd", "aoc", "asd", "first_crossing"):
        tr.wrap(dv.metrics, fn, f"metrics.{fn}")
    tr.wrap(dv.sweeps, "write_sweep_csv", "sweeps.write_csv")
    tr.wrap(dv.sweeps, "write_summary_csv", "sweeps.write_csv")
    tr.wrap(dv.sweeps, "run_cell", "sweeps.run_cell")
    tr.wrap(dv.cli, "load_scenario", "config.load_scenario")
    tr.wrap(dv.config, "load_scenario", "config.load_scenario")


def _ratio(num: float, den: float) -> float:
    # a layer that ran only in worker processes has no parent-side base
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, run_steps: int) -> dict[str, float]:
    """Per-layer metrics over the tracer's current totals.

    ``run_steps`` is the iteration's simulated run-steps (runs x t_max
    summed over ensembles), the base of ``engine.steps_skipped_ratio``.
    """
    c = tr.counts
    step_calls = tr.calls("engine.step")
    metric_names = [n for n in tr.totals if n.startswith("metrics.")]
    return {
        "netmodel.generate_s": tr.total_s("netmodel.generate"),
        "netmodel.build_graph_s": tr.total_s("netmodel.build_graph"),
        "netmodel.gather_calls": tr.calls("netmodel.gather"),
        "netmodel.gather_s": tr.total_s("netmodel.gather"),
        "netmodel.neighbors_gathered": c["netmodel.neighbors_gathered"],
        "diversity.degree_priority_calls": tr.calls("diversity.degree_priority"),
        "diversity.degree_priority_s": tr.total_s("diversity.degree_priority"),
        "diversity.color_flip_calls": tr.calls("diversity.color_flip"),
        "diversity.color_flip_s": tr.total_s("diversity.color_flip"),
        "diversity.color_flip_sweeps": c["diversity.color_flip_sweeps"],
        "threat.observe_calls": tr.calls("threat.observe"),
        "threat.observe_s": tr.total_s("threat.observe"),
        "threat.nodes_observed": c["threat.nodes_observed"],
        "threat.observe_fresh_ratio": _ratio(c["threat.observed_fresh"], c["threat.nodes_observed"]),
        "threat.catalog_s": tr.total_s("threat.catalog"),
        "threat.initial_compromise_s": tr.total_s("threat.initial_compromise"),
        "defense.plan_calls": tr.calls("defense.plan"),
        "defense.plan_s": tr.total_s("defense.plan"),
        "defense.detect_s": tr.total_s("defense.detect"),
        "defense.redeploy_s": tr.total_s("defense.redeploy"),
        "defense.nodes_redeployed": c["defense.nodes_redeployed"],
        "defense.detect_precision": _ratio(c["defense.flagged_compromised"], c["defense.flagged"]),
        "engine.step_calls": step_calls,
        "engine.step_self_s": tr.self_s("engine.step"),
        "engine.ns_per_node_step": _ratio(tr.totals["engine.step"][1], c["engine.node_steps"])
        if step_calls else 0.0,
        "engine.steps_skipped_ratio": 1.0 - step_calls / run_steps if step_calls else 0.0,
        "engine.resolve_graph_calls": tr.calls("engine.resolve_graph"),
        "engine.init_run_s": tr.total_s("engine.init_run"),
        "engine.mean_of_s": tr.total_s("engine.mean_of"),
        "engine.pool_wait_s": tr.self_s("engine.monte_carlo"),
        "rng.substream_calls": tr.calls("rng.substream"),
        "rng.substream_s": tr.total_s("rng.substream"),
        "metrics.reduce_s": sum(tr.self_s(n) for n in metric_names),
        "sweeps.csv_write_s": tr.total_s("sweeps.write_csv"),
        "config.load_s": tr.total_s("config.load_scenario"),
        "cli.cells": tr.calls("sweeps.run_cell"),
    }


#: metrics that count work; they must repeat exactly between iterations
COUNT_METRICS = (
    "netmodel.gather_calls",
    "netmodel.neighbors_gathered",
    "diversity.degree_priority_calls",
    "diversity.color_flip_calls",
    "diversity.color_flip_sweeps",
    "threat.observe_calls",
    "threat.nodes_observed",
    "threat.observe_fresh_ratio",
    "defense.plan_calls",
    "defense.nodes_redeployed",
    "defense.detect_precision",
    "engine.step_calls",
    "engine.steps_skipped_ratio",
    "engine.resolve_graph_calls",
    "rng.substream_calls",
    "cli.cells",
)


class EnsembleProbe:
    """Counter deltas across one ensemble, for the exact reconciliations."""

    NAMES = ("engine.step", "engine.init_run", "engine.resolve_graph")

    def __init__(self, tr: Tracer):
        self.tr = tr

    def __enter__(self):
        self.before = self._snap()
        return self

    def __exit__(self, *exc):
        after = self._snap()
        self.delta = {k: after[k] - self.before[k] for k in after}
        return False

    def _snap(self) -> dict[str, int]:
        snap = {n: self.tr.calls(n) for n in self.NAMES}
        snap["nodes_redeployed"] = self.tr.counts["defense.nodes_redeployed"]
        return snap


def reconcile(tr: Tracer, label: str, delta: dict, runs: int, t_max: int, passive: bool,
              n_nodes: int, traces) -> list[str]:
    """Exact identities between counters and one ensemble's per-run traces.

    Returns the identities that fail; an identity whose layer the tracer
    could not wrap is skipped.
    """
    problems = []
    if "defense.redeploy" in tr.wrapped:
        got = delta["nodes_redeployed"]
        # oc[t] is nodes redeployed at t over n_nodes
        want = sum(int(round(v * n_nodes)) for t in traces for v in t.oc)
        if got != want:
            problems.append(f"{label}: defense.nodes_redeployed {got} != sum round(oc*n_nodes) {want}")
    if "engine.step" in tr.wrapped:
        steps = delta["engine.step"]
        bound = runs * t_max
        if (steps > bound) if passive else (steps != bound):
            rel = "<=" if passive else "=="
            problems.append(f"{label}: engine.step_calls {steps} not {rel} runs*t_max {bound}")
    if "engine.init_run" in tr.wrapped and delta["engine.init_run"] != runs:
        problems.append(f"{label}: init_run calls {delta['engine.init_run']} != runs {runs}")
    if "engine.resolve_graph" in tr.wrapped and delta["engine.resolve_graph"] != 1:
        problems.append(f"{label}: resolve_graph calls {delta['engine.resolve_graph']} != 1")
    return problems


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_precision")):
        return "ratio"
    if name == "engine.ns_per_node_step":
        return "ns"
    return "count"
