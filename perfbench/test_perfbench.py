"""The benchmark's own checks: tracer arithmetic and exact reconciliations.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import diversim  # noqa: E402
import diversim.cli  # noqa: E402,F401
import diversim.sweeps  # noqa: E402,F401
import pytest  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_self_time_is_duration_minus_direct_children():
    ns = types.SimpleNamespace()
    ns.leaf = lambda: sum(range(1000))
    ns.inner = lambda: ns.leaf() + ns.leaf()
    ns.outer = lambda: ns.inner() + ns.leaf()
    originals = dict(vars(ns))
    tr = Tracer("unit")
    for name in ("leaf", "inner", "outer"):
        tr.wrap(ns, name, name)
    tr.enabled = True
    with tr.span("root"):
        ns.outer()
    tr.uninstall()
    assert vars(ns) == originals
    assert [tr.calls(n) for n in ("leaf", "inner", "outer", "root")] == [3, 1, 1, 1]
    by_id = {s[0]: s for s in tr.spans}
    for sid, parent, name, start, end in tr.spans:
        assert parent == 0 or by_id[parent][3] <= start <= end <= by_id[parent][4]
    (outer_id,) = [s[0] for s in tr.spans if s[2] == "outer"]
    children = sum(end - start for _, parent, _, start, end in tr.spans if parent == outer_id)
    assert tr.totals["outer"][2] == tr.totals["outer"][1] - children
    # self times of a strictly nested tree add up to the root's duration
    assert sum(t[2] for t in tr.totals.values()) == tr.totals["root"][1]


def test_disabled_tracer_records_nothing_and_missing_targets_are_noted():
    ns = types.SimpleNamespace(f=lambda x: x + 1)
    tr = Tracer("unit")
    tr.wrap(ns, "f", "f")
    tr.wrap(ns, "absent", "absent")
    assert ns.f(1) == 2 and tr.spans == []
    assert len(tr.missing) == 1 and tr.missing[0].endswith(".absent")
    assert tr.wrapped == {"f"}
    tr.uninstall()


def _small_scenario(strategy_spec, runs=3, t_max=40):
    dv = diversim
    graph = dv.engine.resolve_graph(dv.SyntheticNetwork(60, 50, 0.8, 3, 5))
    return dv.Scenario(
        network=dv.PrebuiltNetwork(graph),
        pool=dv.ImplementationPool(hbar=3, x=4),
        q=1.0,
        attacker=dv.AttackerSpec(m3=2, m4=4, initial_compromise_size=3),
        defender=strategy_spec,
        t_max=t_max,
        runs=runs,
        seed=11,
    ), graph


@pytest.mark.parametrize("spec", [
    diversim.DefenderSpec(diversim.Strategy.STATIC, tau=0.3),
    diversim.DefenderSpec(diversim.Strategy.PROACTIVE, tau=0.3, eta1=0.3, eta2=0.5),
    diversim.DefenderSpec(diversim.Strategy.REACTIVE_ADAPTIVE, tau=0.3, fpr=0.1, fnr=0.2),
    diversim.DefenderSpec(diversim.Strategy.HYBRID, tau=0.3, eta2=0.5, fpr=0.1, fnr=0.2),
], ids=lambda s: s.strategy.value)
def test_traced_ensemble_reconciles_and_reproduces_untraced(spec):
    dv = diversim
    scn, graph = _small_scenario(spec)
    _, plain = dv.engine.monte_carlo(scn, collect=True)
    tr = Tracer("unit")
    layers.install(tr, dv)
    tr.enabled = True
    try:
        with layers.EnsembleProbe(tr) as probe:
            _, traced = dv.engine.monte_carlo(scn, collect=True)
    finally:
        tr.uninstall()
    assert workloads.trace_digest(traced) == workloads.trace_digest(plain)
    assert workloads.broken_runs(traced, scn.t_max) == 0
    passive = spec.strategy is dv.Strategy.STATIC
    assert layers.reconcile(tr, "cell", probe.delta, scn.runs, scn.t_max, passive,
                            graph.n_nodes, traced) == []
    metrics = layers.layer_metrics(tr, scn.runs * scn.t_max)
    assert metrics["engine.resolve_graph_calls"] == 1
    assert metrics["rng.substream_calls"] == 6 * scn.runs
    if not passive:
        assert metrics["engine.steps_skipped_ratio"] == 0.0
        assert metrics["defense.plan_calls"] == scn.runs * scn.t_max
    assert tr.missing == []
    assert dv.engine.step.__module__ == "diversim.engine"


def test_reconcile_reports_a_miscount():
    dv = diversim
    spec = dv.DefenderSpec(dv.Strategy.REACTIVE_ADAPTIVE, tau=0.3, fpr=0.1, fnr=0.2)
    scn, graph = _small_scenario(spec)
    tr = Tracer("unit")
    layers.install(tr, dv)
    tr.enabled = True
    try:
        with layers.EnsembleProbe(tr) as probe:
            _, traces = dv.engine.monte_carlo(scn, collect=True)
    finally:
        tr.uninstall()
    delta = dict(probe.delta, nodes_redeployed=probe.delta["nodes_redeployed"] + 1)
    delta["engine.step"] -= 1
    found = layers.reconcile(tr, "cell", delta, scn.runs, scn.t_max, False, graph.n_nodes, traces)
    assert len(found) == 2


def test_differing_compares_floats_to_a_relative_tolerance():
    ref = {"a": {"awd": 0.5, "tts": 4, "traces": "x"}, "b": {"asd": [3, False]}}
    assert workloads.differing(ref, {"a": {"awd": 0.5 * (1 + 1e-14), "tts": 4, "traces": "x"},
                                     "b": {"asd": [3, False]}}) == []
    assert workloads.differing(ref, {"a": {"awd": 0.5, "tts": 5, "traces": "x"}}) == ["a", "b"]


def test_reported_metrics_match_the_benchmark_definition():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tr = Tracer("unit")
    reported = set(layers.layer_metrics(tr, 1)) | {
        "bench.untraced_run_steps_per_s", "bench.traced_run_steps_per_s",
        "bench.trace_overhead_ratio"}
    assert reported == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        if not m["name"].startswith("bench."):
            assert layers.unit_of(m["name"]) == m["unit"], m["name"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
