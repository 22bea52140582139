"""Scenario files and the command line front end."""
import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from diversim import AttackerSpec, ConfigError, InitialAlgo, Strategy, engine, load_scenario, sweeps
from diversim.cli import main
from diversim.defense import KNOBS
from diversim.engine import NetworkFiles, SyntheticNetwork, resolve_graph


BASE_YAML = """\
network:
  synthetic: {{n_layer1: 14, n_layer2: 12, overlap_fraction: 0.5, attachment_degree: 2, seed: 3}}
diversity:
  x: {x}
attacker:
  m3: 1
  m4: 2
  ini_comp: 2
defender:
  strategy: {strategy}
{extra}run:
  t_max: 10
  runs: 3
  seed: 1
"""


def write_config(tmp_path, strategy="static", x=3, extra="", name="scn.yaml"):
    path = tmp_path / name
    path.write_text(BASE_YAML.format(strategy=strategy, x=x, extra=extra))
    return path


# --- scenario files ------------------------------------------------------------------

def test_load_minimal_scenario(tmp_path):
    cfg = load_scenario(write_config(tmp_path))
    scn = cfg.scenario
    assert isinstance(scn.network, SyntheticNetwork)
    assert scn.pool.hbar == 3 and scn.pool.x == 3
    assert scn.q == 1.0
    assert scn.attacker.m3 == 1 and scn.attacker.initial_compromise_size == 2
    assert scn.defender.strategy is Strategy.STATIC
    assert scn.defender.tau == pytest.approx(1 / 3)
    assert scn.defender.initial_algo is InitialAlgo.DEGREE_PRIORITY
    assert (scn.t_max, scn.runs, scn.seed) == (10, 3, 1)
    assert scn.attacker.scale_with_q and scn.attacker.q_fraction == 0.5


def test_load_files_network(tmp_path):
    (tmp_path / "l1.edges").write_text("0 1\n1 2\n")
    (tmp_path / "l2.edges").write_text("0 2\n")
    path = tmp_path / "scn.yaml"
    path.write_text(
        "network:\n"
        f"  files: {{layers: [{tmp_path}/l1.edges, {tmp_path}/l2.edges]}}\n"
        "diversity: {x: 2, hbar: 3}\n"
        "attacker: {m3: 1, m4: 2, ini_comp: 1}\n"
        "defender: {strategy: static}\n"
    )
    cfg = load_scenario(path)
    assert isinstance(cfg.scenario.network, NetworkFiles)
    g = resolve_graph(cfg.scenario.network)
    assert g.n_computers == 3 and g.hbar == 3


def test_hbar_cross_check(tmp_path):
    path = write_config(tmp_path)
    text = path.read_text().replace("x: 3", "x: 3\n  hbar: 4")
    path.write_text(text)
    with pytest.raises(ConfigError, match="implies 3"):
        load_scenario(path)


def test_network_source_is_exclusive(tmp_path):
    path = tmp_path / "scn.yaml"
    path.write_text(
        "network:\n"
        "  synthetic: {n_layer1: 10, n_layer2: 10, overlap_fraction: 0.5}\n"
        "  files: {layers: [x.edges]}\n"
        "diversity: {x: 2}\n"
        "attacker: {m3: 1, m4: 1}\n"
        "defender: {strategy: static}\n"
    )
    with pytest.raises(ConfigError, match="exactly one"):
        load_scenario(path)


@pytest.mark.parametrize("network", [
    "synthetic: 5",
    "files: 5",
    "synthetic: [1, 2]",
    "files: {layers: [l1.edges], users: [1]}",
    "files: {layers: [l1.edges], users: true}",
    "files: {layers: [l1.edges, 3]}",
])
def test_malformed_network_section_exits_two(tmp_path, capsys, monkeypatch, network):
    # a path that is not a string is rejected, never coerced to a file name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "l1.edges").write_text("0 1\n1 2\n")
    path = tmp_path / "scn.yaml"
    path.write_text(
        f"network:\n  {network}\n"
        "diversity: {x: 2}\n"
        "attacker: {m3: 1, m4: 1}\n"
        "defender: {strategy: static}\n"
    )
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "network." in capsys.readouterr().err


def test_strategy_list_with_shared_knobs(tmp_path):
    extra = (
        "  eta1: 0.5\n"
        "  eta2: 0.2\n"
        "  fpr: 0.1\n"
        "  fnr: 0.1\n"
    )
    path = write_config(tmp_path, strategy="[static, proactive, hybrid]", extra=extra)
    cfg = load_scenario(path)
    by_name = {s.strategy: s for s in cfg.defenders}
    assert set(by_name) == {Strategy.STATIC, Strategy.PROACTIVE, Strategy.HYBRID}
    # knobs are picked per strategy from the shared pool
    assert by_name[Strategy.STATIC].eta1 is None
    assert by_name[Strategy.PROACTIVE].eta1 == 0.5
    assert by_name[Strategy.PROACTIVE].fpr is None
    assert by_name[Strategy.HYBRID].fpr == 0.1
    assert by_name[Strategy.HYBRID].eta1 is None


def test_single_strategy_rejects_foreign_knobs(tmp_path):
    path = write_config(tmp_path, strategy="static", extra="  eta1: 0.5\n")
    with pytest.raises(ConfigError, match="leave eta1 unset"):
        load_scenario(path)


def test_reactive_alias(tmp_path):
    reactive = Strategy.REACTIVE_ADAPTIVE
    names = [(n, reactive) for n in ("reactive", "reactive_adaptive", "Reactive", "REACTIVE_ADAPTIVE")]
    for name, strategy in names + [(s.value, s) for s in Strategy]:
        extra = "".join(f"  {k}: 0.1\n" for k in KNOBS[strategy][0])
        cfg = load_scenario(write_config(tmp_path, strategy=name, extra=extra))
        assert cfg.defenders[0].strategy is strategy


@pytest.mark.parametrize(
    "mutation,match",
    [
        (lambda s: s.replace("strategy: static", "strategy: fortress"), "unknown strategy"),
        (lambda s: s.replace("  x: 3", "  x: 0"), "implementation"),
        (lambda s: s.replace("m3: 1", "m3: -1"), "non-negative"),
        (lambda s: s.replace("diversity:\n  x: 3\n", ""), "diversity"),
        (lambda s: s + "telemetry: {}\n", "unknown section"),
        (lambda s: s.replace("  t_max: 10", "  t_max: 10\n  warp: 1"), "warp"),
        (lambda s: s.replace("  x: 3", "  x: 3\n  initial_algo: psychic"), "initial_algo"),
        (lambda s: s.replace("diversity:\n  x: 3\n", "diversity: 5\n"),
         "section 'diversity' must be a mapping"),
        (lambda s: s.replace("  m3: 1\n", ""), "missing key 'm3'"),
        (lambda s: s.replace("strategy: static", "tau: 0.3"), "strategy is required"),
        (lambda s: s.replace("strategy: static", "strategy: []"), "non-empty list"),
        (lambda s: s.replace("  x: 3", "  x: [3"), "cannot parse"),
        (lambda s: "- 1\n", "mapping of sections"),
    ],
)
def test_config_rejections(tmp_path, capsys, mutation, match):
    path = write_config(tmp_path)
    path.write_text(mutation(path.read_text()))
    with pytest.raises(ConfigError, match=match):
        load_scenario(path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutation",
    [
        lambda s: s.replace("  ini_comp: 2", "  ini_comp: 2\n  scale_with_q: \"false\""),
        lambda s: s.replace("  seed: 1", "  seed: 1\n  defender_first: \"false\""),
        lambda s: s.replace(
            "strategy: static",
            "strategy: hybrid\n  eta1: 0.5\n  eta2: 0.2\n  fpr: 0.1\n  fnr: 0.1\n"
            "  hybrid_union: \"false\"",
        ),
        lambda s: s.replace("  x: 3", "  x: 4.7"),
        lambda s: s.replace("  x: 3", "  x: \"3\""),
        lambda s: s.replace("  runs: 3", "  runs: true"),
    ],
    ids=["scale_with_q-string", "defender_first-string", "hybrid_union-string",
         "x-fractional", "x-string", "runs-bool"],
)
def test_scalar_keys_are_not_coerced(tmp_path, capsys, mutation):
    path = write_config(tmp_path)
    path.write_text(mutation(path.read_text()))
    with pytest.raises(ConfigError, match="invalid value"):
        load_scenario(path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "invalid value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutation",
    [
        lambda s: s.replace("  x: 3", "  x: 3\n  q: true"),
        lambda s: s.replace("strategy: static", "strategy: static\n  tau: \"0.3\""),
        lambda s: s.replace("strategy: static", "strategy: proactive\n  eta1: \"0.5\"\n  eta2: 0.2"),
        lambda s: s.replace("strategy: static", "strategy: reactive\n  fpr: true\n  fnr: 0.1"),
        lambda s: s.replace("  ini_comp: 2", "  ini_comp: 2\n  q_fraction: \"0.5\""),
    ],
    ids=["q-bool", "tau-string", "eta1-string", "fpr-bool", "q_fraction-string"],
)
def test_real_keys_take_only_numbers(tmp_path, capsys, mutation):
    path = write_config(tmp_path)
    path.write_text(mutation(path.read_text()))
    with pytest.raises(ConfigError, match="invalid value"):
        load_scenario(path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "invalid value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutation,argv",
    [
        (lambda s: s.replace("  seed: 1", "  seed: -1"), ["run"]),
        (lambda s: s.replace("seed: 3}", "seed: -1}"), ["run"]),
        (lambda s: s.replace("  ini_comp: 2", "  ini_comp: 2\n  q_fraction: -0.5"),
         ["sweep", "--sweep", "q=0:1:0.5"]),
    ],
    ids=["run-seed", "network-seed", "q_fraction-negative"],
)
def test_bad_numbers_rejected_at_load(tmp_path, capsys, mutation, argv):
    path = write_config(tmp_path)
    path.write_text(mutation(path.read_text()))
    with pytest.raises(ConfigError):
        load_scenario(path)
    assert main(argv + ["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--runs", "0"], ["--seed", "-2"]], ids=["runs-0", "seed-negative"])
def test_bad_number_flags_exit_two(tmp_path, capsys, flags):
    cfgp = write_config(tmp_path)
    assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")] + flags) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", [["run"], ["sweep", "--sweep", "q=0:1:0.5"]], ids=["run", "sweep"])
def test_jobs_below_one_exits_two(tmp_path, capsys, command, jobs):
    cfgp = write_config(tmp_path)
    argv = command + ["--config", str(cfgp), "--out", str(tmp_path / "o"), "--jobs", jobs]
    assert main(argv) == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["random", "degree_priority"])
def test_x_beyond_int16_configurations_exits_two(tmp_path, capsys, algo):
    # configurations are int16 arrays of implementation indices, so x <= 32767
    path = write_config(tmp_path, x=f"40000\n  initial_algo: {algo}")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "32767" in capsys.readouterr().err


def test_sweep_x_beyond_int16_configurations_exits_two(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    code = main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out"),
                 "--sweep", "x=40000:40000:1"])
    assert code == 2
    assert "32767" in capsys.readouterr().err


def test_hybrid_union_gives_the_hybrid_member_eta1(tmp_path):
    knobs = "  eta1: 0.5\n  eta2: 0.2\n  fpr: 0.1\n  fnr: 0.1\n"
    path = write_config(tmp_path, strategy="[proactive, hybrid]",
                        extra=knobs + "  hybrid_union: true\n")
    by_name = {s.strategy: s for s in load_scenario(path).defenders}
    assert by_name[Strategy.HYBRID].eta1 == 0.5
    path = write_config(tmp_path, strategy="hybrid",
                        extra=knobs.replace("  eta1: 0.5\n", "") + "  hybrid_union: true\n")
    with pytest.raises(ConfigError, match="hybrid requires eta1"):
        load_scenario(path)


def test_hybrid_union_without_a_hybrid_member_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, strategy="[static, proactive]",
                        extra="  eta1: 0.5\n  eta2: 0.2\n  hybrid_union: true\n")
    with pytest.raises(ConfigError, match="hybrid_union"):
        load_scenario(path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "hybrid_union" in capsys.readouterr().err


def test_integer_is_a_real(tmp_path):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("strategy: static", "strategy: static\n  tau: 1"))
    cfg = load_scenario(path)
    assert cfg.scenario.q == 1.0 and cfg.defenders[0].tau == 1.0


def test_integral_float_is_an_integer(tmp_path):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("  x: 3", "  x: 3.0"))
    assert load_scenario(path).scenario.pool.x == 3


def test_monoculture_first_in_family(tmp_path):
    cfgp = write_config(tmp_path, strategy="[monoculture, static]")
    cfg = load_scenario(cfgp)
    assert cfg.scenario.defender.strategy is Strategy.STATIC
    assert cfg.scenario.pool.x == 3
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 0
    assert ",asd," in (out / "summary.csv").read_text()


@pytest.mark.parametrize("strategy", ["monoculture", "[monoculture]"])
def test_monoculture_only_family_runs_at_one_implementation(tmp_path, strategy):
    pair_cfg = write_config(tmp_path, strategy="[monoculture, static]", x=10, name="pair.yaml")
    alone_cfg = write_config(tmp_path, strategy=strategy, x=10)
    pair, alone = tmp_path / "pair", tmp_path / "alone"
    assert main(["run", "--config", str(pair_cfg), "--out", str(pair)]) == 0
    assert main(["run", "--config", str(alone_cfg), "--out", str(alone)]) == 0
    assert (alone / "trace.csv").read_bytes() == (pair / "trace_monoculture.csv").read_bytes()


def test_infeasible_catalog_rejected(tmp_path):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("m3: 1", "m3: 9"))
    with pytest.raises(ConfigError, match="m3"):
        load_scenario(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_scenario(tmp_path / "nope.yaml")


def test_bundled_scenarios_load():
    paths = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))
    assert [p.stem for p in paths] == ["defense_cost", "quality_tolerance", "strategy_slowdown"]
    for path in paths:
        cfg = load_scenario(path)
        assert (cfg.scenario.t_max, cfg.scenario.runs, cfg.scenario.seed) == (500, 100, 7)


# --- gen-network -----------------------------------------------------------------------

def test_gen_network_writes_layers(tmp_path, capsys):
    out = tmp_path / "net"
    code = main(["gen-network", "--out", str(out), "--n1", "20", "--n2", "15",
                 "--overlap", "0.4", "--attachment", "2", "--seed", "5"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "layer1: 20 users" in printed
    assert "union: 29 users" in printed  # 20 + 15 - round(0.4 * 15)
    for name in ("layer1.edges", "layer2.edges", "users.txt"):
        assert (out / name).exists()
    g = resolve_graph(NetworkFiles(
        (str(out / "layer1.edges"), str(out / "layer2.edges")),
        str(out / "users.txt"),
    ))
    assert g.n_computers == 29


def test_gen_network_negative_seed_exits_two(tmp_path, capsys):
    code = main(["gen-network", "--out", str(tmp_path / "net"), "--n1", "20", "--n2", "15",
                 "--overlap", "0.4", "--attachment", "2", "--seed", "-1"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


# --- run -------------------------------------------------------------------------------

def test_run_single_strategy(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 0
    trace = (out / "trace.csv").read_text()
    assert trace.splitlines()[0] == "t,cc,vc,ic,oc,new_compromised"
    assert len(trace.splitlines()) == 1 + 11
    summary = (out / "summary.csv").read_text()
    assert "static," in summary and ",awd," in summary and ",aoc," in summary


def test_run_deterministic_outputs(tmp_path):
    cfgp = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfgp), "--out", str(out1)])
    main(["run", "--config", str(cfgp), "--out", str(out2), "--jobs", "2"])
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_run_seed_override_changes_trace(tmp_path):
    cfgp = write_config(tmp_path, strategy="static")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfgp), "--out", str(out1)])
    main(["run", "--config", str(cfgp), "--out", str(out2), "--seed", "99"])
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


def test_run_strategy_family_with_baseline(tmp_path):
    extra = "  fpr: 0.0\n  fnr: 0.0\n"
    cfgp = write_config(tmp_path, strategy="[static, reactive, monoculture]",
                        x=3, extra=extra)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfgp), "--out", str(out), "--snapshot"]) == 0
    for name in ("trace_static.csv", "trace_reactive.csv", "trace_monoculture.csv",
                 "snapshot_static.csv"):
        assert (out / name).exists()
    summary = (out / "summary.csv").read_text()
    assert ",asd," in summary


def test_run_snapshot_builds_the_network_once(tmp_path, monkeypatch):
    calls = []
    build_graph = engine.build_graph
    monkeypatch.setattr(engine, "build_graph", lambda *a: calls.append(a) or build_graph(*a))
    extra = "  fpr: 0.1\n  fnr: 0.1\n"
    cfgp = write_config(tmp_path, strategy="[static, reactive, monoculture]", extra=extra)
    assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "a")]) == 0
    # one graph for every member's ensemble
    assert len(calls) == 1
    assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "b"), "--snapshot"]) == 0
    # and the snapshots reuse it
    assert len(calls) == 1 + 1


# --- sweep -----------------------------------------------------------------------------

def count_network_work(monkeypatch) -> dict:
    """Calls of the functions that read, build or degree-priority color a network."""
    calls = dict.fromkeys(("load_network_files", "build_graph", "degree_priority_assignment"), 0)
    for name in calls:
        def counting(*args, _name=name, _real=getattr(engine, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(engine, name, counting)
    return calls


def files_network_config(tmp_path, strategy):
    net = tmp_path / "net"
    assert main(["gen-network", "--out", str(net), "--n1", "20", "--n2", "15",
                 "--overlap", "0.4", "--attachment", "2", "--seed", "5"]) == 0
    path = write_config(tmp_path, strategy=strategy, name="files.yaml")
    files = (f"  files: {{layers: [{net}/layer1.edges, {net}/layer2.edges], "
             f"users: {net}/users.txt}}\n")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(files if ln.lstrip().startswith("synthetic:") else ln for ln in lines))
    return path


def test_run_snapshot_colors_each_graph_once(tmp_path, monkeypatch):
    calls = count_network_work(monkeypatch)
    cfgp = write_config(tmp_path, strategy="[static, reactive]", extra="  fpr: 0.1\n  fnr: 0.1\n")
    assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "out"), "--snapshot"]) == 0
    # the snapshots reuse the sweep's graph and its coloring for both ensembles
    assert calls["build_graph"] == 1 and calls["degree_priority_assignment"] == 1


@pytest.mark.parametrize("network,strategy,grid,want", [
    # both members color the one graph by degree priority at the one x
    ("synthetic", "[static, reactive]", "q=0.5:1:0.5", (0, 1, 1)),
    # one coloring per pool: x = 2, 3, 4 and the monoculture member's x = 1
    ("synthetic", "[static, monoculture]", "x=2:4:1", (0, 1, 4)),
    ("files", "static", "q=0.5:1:0.5", (1, 1, 1)),
])
def test_sweep_builds_each_network_once_and_colors_once_per_pool(
        tmp_path, monkeypatch, network, strategy, grid, want):
    calls = count_network_work(monkeypatch)
    if network == "files":
        cfgp = files_network_config(tmp_path, strategy)
    else:
        cfgp = write_config(tmp_path, strategy=strategy, extra="  fpr: 0.1\n  fnr: 0.1\n")
    outs = {}
    for jobs in ("1", "2"):
        calls.update(dict.fromkeys(calls, 0))
        outs[jobs] = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", str(cfgp), "--out", str(outs[jobs]),
                     "--sweep", grid, "--jobs", jobs]) == 0
        assert tuple(calls.values()) == want
    for name in ("sweep.csv", "summary.csv"):
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()


def test_sweep_takes_initial_nodes_as_a_list(tmp_path, monkeypatch):
    calls = count_run_cells(monkeypatch)
    cfg = load_scenario(write_config(tmp_path))
    attacker = AttackerSpec(m3=1, m4=2, initial_compromise_size=2, initial_nodes=[1, 2, 3])
    assert attacker.initial_nodes == (1, 2, 3)
    cfg = replace(cfg, scenario=replace(cfg.scenario, attacker=attacker))
    _, rows, _ = sweeps.sweep(cfg, [sweeps.parse_sweep("tau=0.1:0.3:0.1")])
    # static and its monoculture twin, each shared by the three tau cells
    assert len(calls) == 2 and len(rows) == 6
    assert all(cell.attacker.initial_nodes == (1, 2, 3) for cell in calls)


def test_sweep_tau_adds_baseline_and_slowdown(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfgp), "--out", str(out),
                 "--sweep", "tau=0.1:0.3:0.1"]) == 0
    sweep_lines = (out / "sweep.csv").read_text().splitlines()
    # 3 taus for the configured strategy plus the implicit baseline
    assert len(sweep_lines) == 1 + 3 * 2
    assert any(",monoculture," in ln or ln.startswith("monoculture") for ln in sweep_lines[1:])
    summary = (out / "summary.csv").read_text()
    assert ",asd," in summary


def test_sweep_q_reports_tolerance(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfgp), "--out", str(out),
                 "--sweep", "q=0:1:0.5"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 3
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2
    assert summary[1].startswith("static,") and ",vt," in summary[1]


def test_sweep_budget_reports_extra_cost(tmp_path):
    # a family without monoculture gets the twin appended; a listed
    # monoculture member is the baseline itself
    for label, strategy, extra, diversified in (
        ("twin", "static", "", {"static"}),
        ("listed", "[static, reactive, monoculture]", "  fpr: 0.1\n  fnr: 0.1\n",
         {"static", "reactive"}),
    ):
        cfgp = write_config(tmp_path, strategy=strategy, extra=extra, name=f"{label}.yaml")
        out = tmp_path / label
        assert main(["sweep", "--config", str(cfgp), "--out", str(out),
                     "--sweep", "budget=0:6:2"]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        mono = [r for r in rows if r.startswith("monoculture,")]
        assert len(mono) == 4 and len(rows) == 4 * (len(diversified) + 1)
        summary = (out / "summary.csv").read_text().splitlines()[1:]
        assert ",aec," in "\n".join(summary)
        assert {r.split(",")[0] for r in summary if ",aec," in r} == diversified


def test_sweep_x_keeps_monoculture_at_one_implementation(tmp_path):
    extra = "  fpr: 0.1\n  fnr: 0.1\n"
    outs = {}
    for label, strategy in (("with", "[static, reactive, monoculture]"),
                            ("without", "[static, reactive]")):
        cfgp = write_config(tmp_path, strategy=strategy, extra=extra, name=f"{label}.yaml")
        outs[label] = tmp_path / label
        assert main(["sweep", "--config", str(cfgp), "--out", str(outs[label]),
                     "--sweep", "x=2:4:1"]) == 0
    header, *with_rows = (outs["with"] / "sweep.csv").read_text().splitlines()
    without_rows = (outs["without"] / "sweep.csv").read_text().splitlines()[1:]
    mono = [dict(zip(header.split(","), r.split(","))) for r in with_rows
            if r.startswith("monoculture,")]
    assert [(r["x"], r["swept_value"]) for r in mono] == [("1", "2"), ("1", "3"), ("1", "4")]
    assert [r for r in with_rows if not r.startswith("monoculture,")] == without_rows


def count_run_cells(monkeypatch) -> list:
    calls = []
    run_cell = sweeps.run_cell
    monkeypatch.setattr(sweeps, "run_cell",
                        lambda cell, **kw: calls.append(cell) or run_cell(cell, **kw))
    return calls


def count_pools(monkeypatch) -> list:
    """The worker count of every process pool ``engine.worker_pool`` builds."""
    started = []
    real = engine.ProcessPoolExecutor

    def counting(max_workers, **kw):
        started.append(max_workers)
        return real(max_workers=max_workers, **kw)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", counting)
    return started


@pytest.mark.parametrize("runs,pools", [("2", [1]), ("1", []), ("3", [2])])
def test_sweep_shares_one_worker_pool_across_cells(tmp_path, monkeypatch, runs, pools):
    started = count_pools(monkeypatch)
    calls = count_run_cells(monkeypatch)
    cfgp = write_config(tmp_path, strategy="[static, reactive]", extra="  fpr: 0.1\n  fnr: 0.1\n")
    outs = {}
    for jobs in ("4", "1"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", str(cfgp), "--out", str(outs[jobs]),
                     "--sweep", "q=0.5:1:0.25", "--runs", runs, "--jobs", jobs]) == 0
        assert multiprocessing.active_children() == []
    # six cells at --jobs 4 share one pool of min(4, runs) - 1 workers, this
    # process running the other chunk of each ensemble; --jobs 1 opens none
    assert len(calls) == 12
    assert started == pools
    for name in ("sweep.csv", "summary.csv"):
        assert (outs["4"] / name).read_bytes() == (outs["1"] / name).read_bytes()


def test_worker_pool_is_shut_down_after_a_failing_cell(tmp_path, monkeypatch, capsys):
    started = count_pools(monkeypatch)
    run_cell = sweeps.run_cell
    calls = []

    def fail_second(cell, **kw):
        calls.append(cell)
        mean = run_cell(cell, **kw)  # the pool's workers are up by now
        if len(calls) == 2:
            raise RuntimeError("cell failed")
        return mean

    monkeypatch.setattr(sweeps, "run_cell", fail_second)
    cfgp = write_config(tmp_path, strategy="[static, reactive]", extra="  fpr: 0.1\n  fnr: 0.1\n")
    assert main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out"),
                 "--sweep", "q=0.5:1:0.25", "--jobs", "2"]) == 3
    assert "cell failed" in capsys.readouterr().err
    assert len(calls) == 2 and started == [1]
    assert multiprocessing.active_children() == []


def test_spawned_workers_write_the_same_bytes(tmp_path, monkeypatch):
    # spawn pickles the command's memo into each worker instead of forking it;
    # it is the default start method on macOS and, from Python 3.14, on Linux
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(engine, "ProcessPoolExecutor",
                        functools.partial(ProcessPoolExecutor, mp_context=spawn))
    knobs = "  eta1: 0.5\n  eta2: 0.25\n"
    cases = [
        ("static", 3, "", "q=0.5:1:0.5"),
        # x sweeps: a spawned worker colors, or levels for color_flip, its own
        # copy of the graph once per x
        ("[static, proactive]", 3, knobs, "x=2:10:4"),
        ("[static, proactive]", "3\n  initial_algo: color_flip", knobs, "x=2:10:4"),
    ]
    for case, (strategy, x, extra, grid) in enumerate(cases):
        cfgp = write_config(tmp_path, strategy=strategy, x=x, extra=extra)
        outs = {}
        for jobs in ("3", "1"):
            outs[jobs] = tmp_path / f"case{case}-jobs{jobs}"
            assert main(["sweep", "--config", str(cfgp), "--out", str(outs[jobs]),
                         "--sweep", grid, "--jobs", jobs]) == 0
        for name in ("sweep.csv", "summary.csv"):
            assert (outs["3"] / name).read_bytes() == (outs["1"] / name).read_bytes(), case


def test_sweep_x_runs_the_monoculture_twin_once(tmp_path, monkeypatch):
    calls = count_run_cells(monkeypatch)
    cfgp = write_config(tmp_path, strategy="[static, monoculture]")
    assert main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out"),
                 "--sweep", "x=2:4:1"]) == 0
    # three static cells, one monoculture cell shared by every x value
    assert len(calls) == 4


def test_sweep_x_with_second_key_runs_each_twin_cell_once(tmp_path, monkeypatch):
    calls = count_run_cells(monkeypatch)
    cfgp = write_config(tmp_path, strategy="[static, monoculture]")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfgp), "--out", str(out),
                 "--sweep", "x=2:4:1", "--sweep", "ini_comp=1:2:1"]) == 0
    # six static cells, and the monoculture twin's two ini_comp cells shared by every x
    assert len(calls) == 8
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 12


def test_sweep_defender_knob_over_family(tmp_path, monkeypatch):
    calls = count_run_cells(monkeypatch)
    cfgp = write_config(tmp_path, strategy="[static, reactive]", extra="  fpr: 0.1\n  fnr: 0.1\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfgp), "--out", str(out),
                 "--sweep", "fpr=0:0.2:0.1"]) == 0
    # three reactive cells; static takes no fpr and keeps its one cell
    assert len(calls) == 4
    header, *lines = (out / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), ln.split(","))) for ln in lines]
    static = [r for r in rows if r["strategy"] == "static"]
    assert [r.pop("swept_value") for r in static] == ["0.000000", "0.100000", "0.200000"]
    assert static[0]["fpr"] == "" and static[0] == static[1] == static[2]
    assert [r["fpr"] for r in rows if r["strategy"] == "reactive"] == [
        "0.000000", "0.100000", "0.200000"]


FAMILY_KNOBS = "  eta1: 0.5\n  eta2: 0.25\n  fpr: 0.1\n  fnr: 0.1\n"


@pytest.mark.parametrize("argv,ensembles", [
    (["--sweep", "tau=0.1:0.5:0.2"], 5),  # one per member and one for the monoculture twin
    (["--sweep", "tau=0.1:0.5:0.2", "--sweep", "q=0.5:1:0.5"], 8),  # one per member and q
])
def test_sweep_cells_differing_only_in_tau_share_an_ensemble(tmp_path, monkeypatch, argv,
                                                             ensembles):
    calls = count_run_cells(monkeypatch)
    cfgp = write_config(tmp_path, strategy="[static, proactive, reactive, hybrid]",
                        extra=FAMILY_KNOBS)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfgp), "--out", str(out), *argv]) == 0
    assert len(calls) == ensembles
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + len(calls) * 3  # 3 tau rows each


def test_sweep_checks_every_cell_before_running_any(tmp_path, capsys, monkeypatch):
    calls = count_run_cells(monkeypatch)
    cfgp = write_config(tmp_path, strategy="[static, reactive, proactive]", extra=FAMILY_KNOBS)
    code = main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out"),
                 "--sweep", "eta2=0:0.5:0.25"])
    assert code == 2
    assert "eta2 outside" in capsys.readouterr().err
    # eta2=0 is bad only for proactive, the last member
    assert calls == []


@pytest.mark.parametrize("strategy", ["[reactive, reactive_adaptive]", "[static, static]"])
@pytest.mark.parametrize("argv", [["run"], ["sweep", "--sweep", "q=0.5:1:0.5"]])
def test_family_listing_a_strategy_twice_exits_two(tmp_path, capsys, strategy, argv):
    cfgp = write_config(tmp_path, strategy=strategy, extra="  fpr: 0.1\n  fnr: 0.1\n")
    command, *rest = argv
    code = main([command, "--config", str(cfgp), "--out", str(tmp_path / "out"), *rest])
    assert code == 2
    assert "twice" in capsys.readouterr().err


def test_sweep_knob_no_member_takes_exits_two(tmp_path, capsys):
    cfgp = write_config(tmp_path, strategy="[static, proactive]",
                        extra="  eta1: 0.5\n  eta2: 0.2\n")
    code = main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out"),
                 "--sweep", "fpr=0:0.2:0.1"])
    assert code == 2
    assert "no defender" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["x=2.5:3.5:1", "budget=0.5:2.5:1", "m3=0:1:0.5",
                                  "m4=1.5:1.5:1", "ini_comp=1:2:0.5"])
def test_sweep_integer_keys_reject_fractions(tmp_path, capsys, grid):
    cfgp = write_config(tmp_path)
    code = main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out"), "--sweep", grid])
    assert code == 2
    assert "non-integral" in capsys.readouterr().err


# the last two have finite ends and an infinite point count
@pytest.mark.parametrize("grid", ["q=0:inf:0.1", "q=-inf:1:0.1", "tau=0.1:0.3:inf",
                                  "tau=nan:0.3:0.1", "q=0:1e308:1e-308", "q=-1e308:1e308:1"])
def test_sweep_non_finite_grid_exits_two(tmp_path, capsys, grid):
    cfgp = write_config(tmp_path)
    code = main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out"), "--sweep", grid])
    assert code == 2
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["q=0:2:1", "ini_comp=-1:0:1", "m3=-1:0:1", "budget=-5:0:5"])
def test_sweep_out_of_range_grid_exits_two(tmp_path, capsys, grid):
    cfgp = write_config(tmp_path)
    code = main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out"), "--sweep", grid])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("rule", ["  q_fraction: 0.3", "  scale_with_q: false"],
                         ids=["q_fraction-0.3", "fixed-attacker"])
@pytest.mark.parametrize("key,grid", [
    ("q", "0:1:0.5"), ("budget", "0:6:3"), ("x", "2:4:2"), ("m3", "0:2:1"), ("m4", "0:4:2"),
    ("ini_comp", "1:2:1"), ("tau", "0.2:0.4:0.2"), ("eta1", "0.2:0.6:0.4"),
])
def test_sweep_cells_are_cell_at_cells(tmp_path, rule, key, grid):
    """The cell the CLI runs is ``cell_at``'s cell of the member's variant,
    whatever attacker rule the scenario file sets."""
    path = write_config(tmp_path, strategy="[static, proactive, monoculture]", x=10,
                        extra="  eta1: 0.5\n  eta2: 0.2\n")
    path.write_text(path.read_text().replace("  ini_comp: 2", "  ini_comp: 2\n" + rule))
    cfg = load_scenario(path)
    swept = sweeps.parse_sweep(f"{key}={grid}")
    values = [int(v) if key in sweeps._INT_KEYS else float(v) for v in swept[1]]
    pairs, _, _ = sweeps.sweep(cfg, [swept])
    want = [sweeps.cell_at(sweeps.variant(cfg.scenario, spec), key, v)
            for spec in cfg.defenders for v in values]

    def as_fields(cell):
        return [getattr(cell, f.name) for f in fields(cell)]

    assert [as_fields(cell) for cell, _ in pairs] == [as_fields(cell) for cell in want]


def test_sweep_multi_key_cartesian(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfgp), "--out", str(out),
                 "--sweep", "q=0.5:1:0.5", "--sweep", "ini_comp=1:2:1"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 4
    assert "q+ini_comp" in lines[1]
    assert "0.5;1" in lines[1]


def test_sweep_accepts_section_prefixes(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfgp), "--out", str(out),
                 "--sweep", "defender.tau=0.2:0.3:0.1"]) == 0


def test_sweep_rejections(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    out = tmp_path / "out"
    cases = [
        ["--sweep", "gamma=0:1:0.5"],
        ["--sweep", "tau"],
        ["--sweep", "tau=0.5:0.1:0.1"],
        ["--sweep", "q=0:1:0.5", "--sweep", "q=0:1:0.5"],
    ]
    for extra in cases:
        code = main(["sweep", "--config", str(cfgp), "--out", str(out)] + extra)
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_bad_config_exits_two(tmp_path, capsys):
    cfgp = write_config(tmp_path, strategy="fortress")
    assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    assert "unknown strategy" in capsys.readouterr().err


FILES_SCENARIO = {
    "scn.yaml": (
        "network: {files: {layers: [l1.edges, l2.edges], users: users.txt}}\n"
        "diversity: {x: 2}\n"
        "attacker: {m3: 1, m4: 2, ini_comp: 1}\n"
        "defender: {strategy: static}\n"
        "run: {t_max: 5, runs: 2}\n"
    ),
    "l1.edges": "0 1\n1 2\n",
    "l2.edges": "0 2\n",
    "users.txt": "0\n1\n2\n",
}


@pytest.mark.parametrize("edit,argv,message", [
    (("scn.yaml", "l1.edges", "gone.edges"), ["run"],
     "network file not found: gone.edges (resolved against the working directory {cwd})"),
    (("scn.yaml", "users.txt", "gone.txt"), ["run"], "network file not found: gone.txt"),
    (("l2.edges", "0 2", "0 x"), ["run"], "l2.edges:1: non-integer id in '0 x'"),
    (("l2.edges", "0 2", "0 1_0"), ["run"], "l2.edges:1: non-integer id in '0 1_0'"),
    (("users.txt", "2\n", "2\n# late\n-4\n"), ["run"], "users.txt:5: negative user id"),
    (("scn.yaml", "ini_comp: 1", "ini_comp: -1"), ["run"], "attacker sizes must be non-negative"),
    (("scn.yaml", "m3: 1", "m3: 9"), ["run"], "m3=9 exceeds 2 vulnerable OS implementations"),
    (None, ["run", "--runs", "0"], "runs must be >= 1"),
    (None, ["sweep", "--sweep", "x=0:2:1"], "each program needs at least one implementation"),
    (("scn.yaml", "l1.edges", "nets"), ["run"], "cannot read network file nets:"),
    (("l2.edges", "0 2", "0 2\xe9"), ["run"], "cannot read network file l2.edges:"),
    # the later --config wins
    (None, ["run", "--config", "nets"], "cannot read scenario file nets:"),
], ids=["missing-layer", "missing-users", "malformed-edge", "underscored-edge", "negative-user",
        "ini-comp", "m3-above-supply", "runs-0", "sweep-x-0", "layer-is-directory",
        "layer-not-utf8", "config-is-directory"])
def test_rejected_input_exits_two(tmp_path, capsys, monkeypatch, edit, argv, message):
    # network.files paths resolve against the working directory
    monkeypatch.chdir(tmp_path)
    files = dict(FILES_SCENARIO)
    if edit is not None:
        name, old, new = edit
        files[name] = files[name].replace(old, new)
    # latin-1 writes the ASCII files unchanged and a non-ASCII letter as
    # one byte that is not UTF-8
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="latin-1")
    # a directory where a file is expected
    (tmp_path / "nets").mkdir()
    assert main([argv[0], "--config", "scn.yaml", "--out", "out"] + argv[1:]) == 2
    assert f"error: {message.replace('{cwd}', str(Path.cwd()))}" in capsys.readouterr().err


def test_unwritable_out_exits_three(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    code = main(["run", "--config", str(cfgp), "--out", str(blocker / "sub")])
    assert code == 3
    assert "error:" in capsys.readouterr().err
