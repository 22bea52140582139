"""Metric reductions and sweep helpers, mostly on synthetic traces."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diversim import (
    AttackerSpec,
    ConfigError,
    DefenderSpec,
    ImplementationPool,
    InitialAlgo,
    Layer,
    LoadedConfig,
    Strategy,
    aoc,
    asd,
    awd,
    build_graph,
    first_crossing,
    tts,
)
from diversim import sweeps
from diversim.netmodel import COMPROMISED
from diversim.threat import build_exploit_catalog

from conftest import make_scenario, stepped


class FakeTrace:
    def __init__(self, cc, oc=None):
        self.cc = np.asarray(cc, dtype=float)
        self.oc = np.asarray(oc if oc is not None else np.zeros_like(self.cc))


# --- closed-form reductions -------------------------------------------------------

def test_tts_first_strict_crossing():
    assert tts(FakeTrace([0.1, 0.2, 0.4, 0.9]), 1 / 3) == 2
    assert tts(FakeTrace([0.5, 0.2]), 1 / 3) == 0
    assert tts(FakeTrace([0.1, 0.2]), 1 / 3) is None
    # touching the threshold is not a breach
    assert tts(FakeTrace([1 / 3, 1 / 3]), 1 / 3) is None


def test_awd_is_peak_damage():
    assert awd(FakeTrace([0.0, 0.4, 0.1])) == pytest.approx(0.4)
    assert awd(FakeTrace([0.0])) == 0.0


def test_asd_difference_and_censoring():
    mono = FakeTrace([0.0, 0.5, 0.6, 0.6, 0.6, 0.6])
    div = FakeTrace([0.0, 0.0, 0.0, 0.0, 0.5, 0.6])
    r = asd(div, mono, 1 / 3)
    assert (r.steps, r.censored) == (3, False)
    never = FakeTrace([0.0] * 6)
    r = asd(never, mono, 1 / 3)
    assert (r.steps, r.censored) == (4, True)  # horizon 5 minus baseline 1
    assert asd(div, never, 1 / 3) is None


def test_aoc_averages_over_acting_steps():
    tr = FakeTrace([0] * 4, oc=[0.0, 0.5, 0.25, 0.25])
    assert aoc(tr) == pytest.approx(1.0 / 3)
    assert aoc(FakeTrace([0.0], oc=[0.0])) == 0.0


def test_first_crossing_on_grid(caplog):
    grid = [1, 2, 3]
    assert first_crossing(grid, [0.1, 0.5, 0.6], 1 / 3) == 2
    assert first_crossing(grid, [0.1, 0.2, 0.3], 1 / 3) is None
    with caplog.at_level("WARNING"):
        assert first_crossing(grid, [0.5, 0.1, 0.6], 0.33) == 1
    assert "not monotone" in caplog.text


# --- sweep helpers -------------------------------------------------------------------

def test_parse_grid_inclusive():
    assert sweeps.parse_grid("0:1:0.25").tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert sweeps.parse_grid("0.05:0.45:0.05").tolist() == pytest.approx(
        [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    )
    assert sweeps.parse_grid("3:3:1").tolist() == [3.0]


@pytest.mark.parametrize("text", ["1:2", "0:1:0", "1:0:0.5", "a:b:c"])
def test_parse_grid_rejects(text):
    with pytest.raises(ValueError):
        sweeps.parse_grid(text)


@pytest.mark.parametrize("text", ["1:2", "0:1:0", "1:0:0.5", "a:b:c", "0:inf:1"])
def test_parse_grid_raises_config_error(text):
    with pytest.raises(ConfigError):
        sweeps.parse_grid(text)


def test_split_budget_remainder_to_applications():
    # OS gets the last share: 19 over 3 programs -> apps 7+6, OS 6
    assert sweeps.split_budget(19, 3) == (6, 13)
    assert sweeps.split_budget(6, 3) == (2, 4)
    assert sweeps.split_budget(0, 3) == (0, 0)


def small_base(defender=None, x=4):
    g = build_graph([Layer.from_edges([(i, j) for i in range(5) for j in range(i + 1, 5)])])
    return make_scenario(
        g,
        pool=ImplementationPool(hbar=2, x=x),
        attacker=AttackerSpec(m3=2, m4=2, initial_compromise_size=1),
        defender=defender or DefenderSpec(Strategy.STATIC, initial_algo=InitialAlgo.RANDOM),
        t_max=25,
        runs=8,
    )


def test_cell_at_budget_clamps_to_supply():
    base = small_base()
    cells = [sweeps.cell_at(base, "budget", total) for total in (0, 4, 40)]
    assert (cells[0].attacker.m3, cells[0].attacker.m4) == (0, 0)
    assert (cells[1].attacker.m3, cells[1].attacker.m4) == (2, 2)
    # beyond the supply the budget saturates at x vulnerable impls per program
    assert (cells[2].attacker.m3, cells[2].attacker.m4) == (4, 4)


def test_cell_at_q_scales_attacker():
    base = small_base()
    cells = [sweeps.cell_at(base, "q", q) for q in (0.0, 0.5, 1.0)]
    assert [(c.attacker.m3, c.attacker.m4) for c in cells] == [(0, 0), (1, 1), (2, 2)]
    assert [c.q for c in cells] == [0.0, 0.5, 1.0]
    fixed_rule = replace(base, attacker=replace(base.attacker, scale_with_q=False))
    fixed = [sweeps.cell_at(fixed_rule, "q", q) for q in (0.25, 1.0)]
    assert (fixed[0].attacker.m3, fixed[0].attacker.m4) == (1, 1)  # clamped at q=0.25
    assert (fixed[1].attacker.m3, fixed[1].attacker.m4) == (2, 2)


def test_cell_at_moves_one_group_of_fields():
    base = small_base()

    def swept(cell):
        return cell.pool, cell.q, cell.attacker, cell.defender

    assert sweeps.cell_at(base, "m4", 9).attacker == AttackerSpec(2, 4, 1)  # clamped to x
    assert sweeps.cell_at(base, "ini_comp", 3).attacker == AttackerSpec(2, 2, 3)
    assert swept(sweeps.cell_at(base, "x", 2)) == swept(replace(base, pool=ImplementationPool(2, 2)))
    assert sweeps.cell_at(base, "tau", 0.2).defender.tau == 0.2
    # a knob the static defender lacks, and x of the monoculture twin, leave the cell as it is
    assert swept(sweeps.cell_at(base, "fpr", 0.1)) == swept(base)
    mono = sweeps.monoculture_baseline(base)
    assert swept(sweeps.cell_at(mono, "x", 3)) == swept(mono)


def test_split_budget_is_the_per_program_even_split():
    for hbar in range(2, 9):
        pool = ImplementationPool(hbar=hbar, x=40)
        vulnerable = np.ones((hbar, pool.x), dtype=bool)
        for total in range(40):
            base, rem = divmod(total, hbar)
            shares = [base + (1 if p < rem else 0) for p in range(hbar)]
            m3, m4 = sweeps.split_budget(total, hbar)
            assert (m3, m4) == (shares[-1], sum(shares[:-1]))
            privesc, lateral = build_exploit_catalog(
                pool, vulnerable, m3, m4, np.random.default_rng(0)
            )
            assert privesc.sum() == m3
            assert lateral.sum(axis=1).tolist() == shares[:-1] + [0]


@given(st.integers(1, 40), st.integers(2, 8), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_scaled_q_cell_is_never_clamped(x, hbar, q, q_fraction):
    graph = build_graph([Layer.from_edges([(0, 1)])] * (hbar - 1))
    base = make_scenario(graph, pool=ImplementationPool(hbar=hbar, x=x),
                         attacker=AttackerSpec(m3=0, m4=0, initial_compromise_size=1,
                                               q_fraction=q_fraction))
    cell = sweeps.cell_at(base, "q", q)
    per = int(round(q_fraction * x * q))
    assert (cell.q, cell.attacker.m3, cell.attacker.m4) == (q, per, (hbar - 1) * per)


def test_monoculture_baseline_shrinks_pool_and_budget():
    base = small_base()
    mono = sweeps.monoculture_baseline(base)
    assert mono.pool.x == 1
    assert mono.defender.strategy is Strategy.MONOCULTURE
    assert mono.defender.tau == base.defender.tau
    assert (mono.attacker.m3, mono.attacker.m4) == (1, 1)
    assert mono.seed == base.seed


def test_variant_swaps_defender_only():
    base = small_base()
    spec = DefenderSpec(Strategy.REACTIVE_ADAPTIVE, fpr=0.1, fnr=0.1)
    v = sweeps.variant(base, spec)
    assert v.defender is spec
    assert v.pool is base.pool and v.attacker is base.attacker


def test_cell_row_and_csv(tmp_path):
    base = small_base()
    trace = sweeps.run_cell(base)
    row = sweeps.cell_row(base, "q", 1.0, trace)
    assert row["tau"] == base.defender.tau == pytest.approx(1 / 3)
    assert row["strategy"] == "static"
    assert row["x"] == 4 and row["m3"] == 2
    assert row["swept_key"] == "q"
    assert isinstance(row["awd"], float)
    out = tmp_path / "sweep.csv"
    sweeps.write_sweep_csv(out, [row])
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == list(row)
    assert len(lines) == 2
    # unset knobs serialize as empty fields
    cols = dict(zip(row, lines[1].split(",")))
    assert cols["eta1"] == "" and cols["fpr"] == ""
    assert cols["tts_censored"] in ("true", "false")


def test_summary_csv_format(tmp_path):
    out = tmp_path / "summary.csv"
    sweeps.write_summary_csv(out, [("static", 1 / 3, "tts", 8, False),
                                   ("reactive", 1 / 3, "tts", None, True)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "strategy,tau,metric,value,censored"
    assert lines[1].startswith("static,0.333333,tts,8,false")
    assert lines[2] == "reactive,0.333333,tts,,true"


# --- end-to-end metric behavior on small ensembles -------------------------------------

def test_vt_reactive_dominates_static():
    specs = (
        DefenderSpec(Strategy.STATIC, tau=0.45, initial_algo=InitialAlgo.RANDOM),
        DefenderSpec(Strategy.REACTIVE_ADAPTIVE, tau=0.45, fpr=0.0, fnr=0.0),
    )
    cfg = LoadedConfig(small_base(), specs)
    _, _, summary = sweeps.sweep(cfg, [("q", np.array([0.0, 0.5, 1.0]))])
    out = {name: value for name, _, metric, value, _ in summary if metric == "vt"}
    assert out["reactive"] >= out["static"]
    assert out["reactive"] == 1.0  # a perfect detector contains everything


def test_coupled_budgets_nest_compromise_sets():
    """Same seed, larger catalog: the compromised set can only grow."""
    g = build_graph([Layer.from_edges([(i, i + 1) for i in range(7)] + [(0, 4)])])
    small_att = AttackerSpec(m3=1, m4=2, initial_compromise_size=2, initial_nodes=(0, 4))
    big_att = AttackerSpec(m3=2, m4=4, initial_compromise_size=2, initial_nodes=(0, 4))
    masks = {}
    for label, att in (("small", small_att), ("big", big_att)):
        scn = make_scenario(
            g,
            pool=ImplementationPool(hbar=2, x=4),
            attacker=att,
            defender=DefenderSpec(Strategy.STATIC, initial_algo=InitialAlgo.RANDOM),
            t_max=30,
            runs=1,
            seed=5,
        )
        rows = []
        stepped(scn, watch=lambda rs, t: rows.append(rs.state == COMPROMISED))
        masks[label] = rows
    for small_m, big_m in zip(masks["small"], masks["big"]):
        assert (small_m <= big_m).all()
