"""End-to-end acceptance checks.

Cheap property checks come first; the last three tests run the reference
cells at full ensemble size (100 runs, 500 steps, ~600 computers) and
dominate the suite's runtime. The slowdown and tolerance cells are the
bundled scenario files, run through ``sweeps.sweep`` as ``diversim sweep``
runs them.
"""
import hashlib
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diversim import (
    AttackerSpec,
    DefenderSpec,
    ImplementationPool,
    InitialAlgo,
    Scenario,
    Strategy,
    SyntheticNetwork,
    build_graph,
    color_flipping,
    count_defective_edges,
    degree_priority_assignment,
    load_scenario,
    monte_carlo,
    random_coloring,
    run,
    sweeps,
)
from diversim.defense import detect
from diversim.metrics import asd, aoc
from diversim.netmodel import COMPROMISED, Layer

from conftest import make_scenario, stepped

JOBS = 4
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def random_graph(rng, users_lo=6, users_hi=12):
    users = int(rng.integers(users_lo, users_hi))
    pairs = rng.integers(0, users, size=(2 * users, 2))
    edges = [(int(a), int(b)) for a, b in pairs if a != b]
    if not edges:
        edges = [(0, 1)]
    return build_graph([Layer.from_edges(edges)])


def random_defender(rng):
    choice = int(rng.integers(0, 4))
    if choice == 0:
        return DefenderSpec(Strategy.STATIC, tau=0.5)
    if choice == 1:
        return DefenderSpec(Strategy.PROACTIVE, tau=0.5,
                            eta1=float(rng.uniform(0.2, 1.0)),
                            eta2=float(rng.uniform(0.2, 1.0)))
    if choice == 2:
        return DefenderSpec(Strategy.REACTIVE_ADAPTIVE, tau=0.5,
                            fpr=float(rng.uniform(0, 0.3)),
                            fnr=float(rng.uniform(0, 0.3)))
    return DefenderSpec(Strategy.HYBRID, tau=0.5,
                        eta2=float(rng.uniform(0.2, 1.0)),
                        fpr=float(rng.uniform(0, 0.3)),
                        fnr=float(rng.uniform(0, 0.3)))


# 1. computer-level fractions partition the network at every step


def test_frame_partition_is_exact():
    rng = np.random.default_rng(11)
    for trial in range(12):
        g = random_graph(rng)
        scn = make_scenario(
            g,
            pool=ImplementationPool(hbar=g.hbar, x=3),
            attacker=AttackerSpec(m3=1, m4=g.hbar - 1, initial_compromise_size=2),
            defender=random_defender(rng),
            t_max=15,
            runs=2,
            seed=trial,
        )
        for k in range(scn.runs):
            tr = run(scn, k)
            counts = tr.cc_count + tr.vc_count + tr.ic_count
            assert (counts == tr.n_computers).all()
            assert np.allclose(tr.cc + tr.vc + tr.ic, 1.0, rtol=0, atol=1e-12)
        mean = monte_carlo(scn)
        assert np.allclose(mean.cc + mean.vc + mean.ic, 1.0, rtol=0, atol=1e-12)


# 2. redeploys cure, and without a cure path compromise never recedes


def test_redeployed_nodes_are_never_compromised():
    rng = np.random.default_rng(23)
    touched_total = 0
    for trial in range(9):
        g = random_graph(rng)
        scn = make_scenario(
            g,
            pool=ImplementationPool(hbar=g.hbar, x=4),
            attacker=AttackerSpec(m3=2, m4=g.hbar - 1, initial_compromise_size=2),
            defender=random_defender(rng.spawn(1)[0]) if trial % 3 else
            DefenderSpec(Strategy.REACTIVE_ADAPTIVE, tau=0.5, fpr=0.2, fnr=0.0),
            defender_first=False,
            t_max=20,
            runs=1,
            seed=trial,
        )
        if scn.defender.strategy is Strategy.STATIC:
            continue
        prev = {}

        def watch(rs, t):
            if t > 0:
                moved = np.flatnonzero(prev["inst"] != rs.installed)
                assert (rs.state[moved] != COMPROMISED).all()
                prev["n"] += moved.size
            prev["inst"] = rs.installed.copy()

        prev["n"] = 0
        stepped(scn, watch=watch)
        touched_total += prev["n"]
    assert touched_total > 0


def test_compromise_monotone_without_cures():
    rng = np.random.default_rng(31)
    for trial in range(10):
        g = random_graph(rng)
        x = 1 if trial % 2 else 3
        strategy = Strategy.MONOCULTURE if x == 1 else Strategy.STATIC
        scn = make_scenario(
            g,
            pool=ImplementationPool(hbar=g.hbar, x=x),
            attacker=AttackerSpec(m3=1, m4=g.hbar - 1, initial_compromise_size=2),
            defender=DefenderSpec(strategy, tau=0.5),
            t_max=15,
            runs=1,
            seed=trial,
        )
        masks = []
        stepped(scn, watch=lambda rs, t: masks.append(rs.state == COMPROMISED))
        for a, b in zip(masks, masks[1:]):
            assert not np.any(a & ~b)


# 3. bit-level determinism across processes and across worker counts

_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from diversim import (AttackerSpec, DefenderSpec, ImplementationPool, Scenario,
                      Strategy, SyntheticNetwork, monte_carlo)

scn = Scenario(
    network=SyntheticNetwork(60, 50, 0.5, 2, 3),
    pool=ImplementationPool(hbar=3, x=4),
    q=1.0,
    attacker=AttackerSpec(m3=2, m4=4, initial_compromise_size=3),
    defender=DefenderSpec(Strategy.REACTIVE_ADAPTIVE, tau=1 / 3, fpr=0.1, fnr=0.1),
    t_max=40,
    runs=5,
    seed=11,
)
tr = monte_carlo(scn)
h = hashlib.sha256()
for arr in (tr.cc, tr.vc, tr.ic, tr.oc, tr.new_compromised):
    h.update(np.ascontiguousarray(arr).tobytes())
print(h.hexdigest())
"""


def test_determinism_across_processes():
    outs = [
        subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT],
                       capture_output=True, text=True, check=True).stdout.strip()
        for _ in range(2)
    ]
    assert outs[0] == outs[1] and len(outs[0]) == 64


def test_determinism_across_jobs(tmp_path):
    scn = Scenario(
        network=SyntheticNetwork(50, 40, 0.5, 2, 5),
        pool=ImplementationPool(hbar=3, x=3),
        q=1.0,
        attacker=AttackerSpec(m3=1, m4=2, initial_compromise_size=2),
        defender=DefenderSpec(Strategy.PROACTIVE, tau=1 / 3, eta1=0.5, eta2=0.5),
        t_max=30,
        runs=6,
        seed=4,
    )
    paths = []
    for jobs in (1, 3):
        tr = monte_carlo(scn, jobs=jobs)
        p = tmp_path / f"jobs{jobs}.csv"
        sweeps.write_trace_csv(p, tr)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    a = run(scn, 2)
    b = run(scn, 2)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    sweeps.write_trace_csv(pa, a)
    sweeps.write_trace_csv(pb, b)
    assert pa.read_bytes() == pb.read_bytes()


# 4. hand-derived schedule on the three-computer path


def test_path_schedule_oracle():
    g = build_graph([Layer.from_edges([(0, 1), (1, 2)])])
    scn = make_scenario(
        g,
        pool=ImplementationPool(hbar=2, x=1),
        attacker=AttackerSpec(m3=1, m4=1, initial_compromise_size=1,
                              initial_nodes=(0,)),
        t_max=12,
        runs=1,
    )
    first = {}

    def watch(rs, t):
        for v in np.flatnonzero(rs.state == COMPROMISED):
            first.setdefault(int(v), t)

    tr = stepped(scn, watch=watch).trace
    assert first == {0: 0, 1: 3, 2: 4, 3: 7, 4: 8, 5: 11}
    assert first[2] == 4  # second computer's app
    assert tr.cc_count.tolist() == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3]
    assert tr.new_compromised.tolist() == [1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 0]


# 5. defect counting against exhaustive enumeration; searches never lose
#    to their own random start


def test_coloring_against_brute_force():
    rng = np.random.default_rng(47)
    for trial in range(8):
        users = int(rng.integers(3, 5))
        pairs = rng.integers(0, users, size=(users + 2, 2))
        edges = [(int(a), int(b)) for a, b in pairs if a != b] or [(0, 1)]
        g = build_graph([Layer.from_edges(edges)])
        x = 3 if g.n_nodes <= 7 else 2
        pool = ImplementationPool(hbar=g.hbar, x=x)
        assert max(np.bincount(g.program)) <= 8

        sp = g.sp_edges
        best = None
        for combo in itertools.product(range(x), repeat=g.n_nodes):
            inst = np.array(combo, dtype=np.int16)
            manual = int(sum(1 for a, b in sp if inst[a] == inst[b]))
            assert count_defective_edges(g, inst).defective_edges == manual
            best = manual if best is None else min(best, manual)

        start = count_defective_edges(g, random_coloring(g, pool, np.random.default_rng(trial)))
        _, dp = degree_priority_assignment(g, pool)
        _, cf = color_flipping(g, pool, np.random.default_rng(trial))
        assert best <= dp.defective_edges <= start.defective_edges
        assert best <= cf.defective_edges <= start.defective_edges
        assert 1 <= cf.sweeps <= 50


# 9. periodic redeployment cost has a closed form


@pytest.mark.parametrize("eta1,eta2,expected", [(0.5, 0.5, 0.25), (0.9, 0.2, 0.18)])
def test_redeploy_cost_closed_form(eta1, eta2, expected):
    g = build_graph([Layer.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])])
    assert g.n_nodes == 10
    scn = make_scenario(
        g,
        pool=ImplementationPool(hbar=2, x=4),
        q=0.0,
        attacker=AttackerSpec(m3=0, m4=0, initial_compromise_size=0),
        defender=DefenderSpec(Strategy.PROACTIVE, tau=1 / 3, eta1=eta1, eta2=eta2),
        t_max=100,
        runs=1,
    )
    tr = run(scn, 0)
    assert aoc(tr) == pytest.approx(expected, abs=1e-6)


# 10. detector calibration at scale


def test_detector_calibration():
    n = 200_000
    state = np.zeros(n, dtype=np.int8)
    state[: n // 2] = COMPROMISED
    flags = detect(state, 0.1, 0.1, np.random.default_rng(5))
    hit = np.zeros(n, dtype=bool)
    hit[flags] = True
    assert abs(hit[: n // 2].mean() - 0.9) <= 0.01
    assert abs(hit[n // 2 :].mean() - 0.1) <= 0.01


# 11. a larger exploit catalog never shrinks the compromised set


def test_catalog_growth_never_shrinks_compromise():
    rng = np.random.default_rng(2026)
    pairs = 0
    while pairs < 100:
        g = random_graph(rng, 8, 16)
        x = int(rng.integers(2, 5))
        pool = ImplementationPool(hbar=g.hbar, x=x)
        q = float(rng.choice([0.5, 0.75, 1.0]))
        k = round(q * x)
        if k == 0:
            continue
        m3_hi = int(rng.integers(0, k + 1))
        m4_hi = int(rng.integers(0, k * (g.hbar - 1) + 1))
        m3_lo = int(rng.integers(0, m3_hi + 1))
        m4_lo = int(rng.integers(0, m4_hi + 1))
        foothold = tuple(int(v) for v in rng.choice(g.n_nodes, 2, replace=False))

        def masks_for(m3, m4):
            scn = make_scenario(
                g,
                pool=pool,
                q=q,
                attacker=AttackerSpec(m3=m3, m4=m4, initial_compromise_size=2,
                                      initial_nodes=foothold),
                defender=DefenderSpec(Strategy.STATIC, tau=0.5),
                t_max=20,
                runs=1,
                seed=7,
            )
            out = {"steps": [], "pe": None, "lat": None}

            def watch(rs, t):
                out["steps"].append(rs.state == COMPROMISED)
                if t == 0:
                    out["pe"] = rs.privesc_mask.copy()
                    out["lat"] = rs.lateral_mask.copy()

            stepped(scn, pairs, watch=watch)
            return out

        small = masks_for(m3_lo, m4_lo)
        large = masks_for(m3_hi, m4_hi)
        assert not np.any(small["pe"] & ~large["pe"])
        assert not np.any(small["lat"] & ~large["lat"])
        for a, b in zip(small["steps"], large["steps"]):
            assert not np.any(a & ~b)
        pairs += 1


# 6. strategy ordering by attack slowdown on the reference cell


def test_slowdown_ordering_reference_cell():
    # the one-point tau grid at the scenario's own tau adds the monoculture
    # twin and the asd rows, as `diversim sweep` does
    cfg = load_scenario(SCENARIOS / "strategy_slowdown.yaml")
    tau = np.array([cfg.scenario.defender.tau])
    _, _, summary = sweeps.sweep(cfg, [("tau", tau)], jobs=JOBS)
    gaps, censored = {}, {}
    for name, _, metric, steps, cens in summary:
        if metric == "asd":
            gaps[Strategy(name)], censored[Strategy(name)] = steps, cens
    re_, hy = gaps[Strategy.REACTIVE_ADAPTIVE], gaps[Strategy.HYBRID]
    pr, st = gaps[Strategy.PROACTIVE], gaps[Strategy.STATIC]
    assert re_ > hy > pr
    assert re_ >= 1.3 * hy
    assert abs(pr - st) <= 0.2 * max(pr, st)
    assert censored[Strategy.REACTIVE_ADAPTIVE]


# 7. degree-priority coloring beats a random start network-wide


def test_initial_coloring_effect_reference_cell():
    base = Scenario(
        network=SyntheticNetwork(545, 530, 0.887, 4, 7),
        pool=ImplementationPool(hbar=3, x=10),
        q=1.0,
        attacker=AttackerSpec(m3=3, m4=6, initial_compromise_size=10),
        defender=DefenderSpec(Strategy.STATIC, tau=1 / 3),
        t_max=500,
        runs=100,
        seed=7,
    )
    randomized = Scenario(
        network=base.network, pool=base.pool, q=base.q, attacker=base.attacker,
        defender=DefenderSpec(Strategy.STATIC, tau=1 / 3,
                              initial_algo=InitialAlgo.RANDOM),
        t_max=base.t_max, runs=base.runs, seed=base.seed,
    )
    mono = monte_carlo(sweeps.monoculture_baseline(base), jobs=JOBS)
    tr_dp = monte_carlo(base, jobs=JOBS)
    tr_rc = monte_carlo(randomized, jobs=JOBS)
    taus = np.arange(0.05, 0.4501, 0.05)
    dp_gaps, rc_gaps = [], []
    for tau in taus:
        res_dp = asd(tr_dp, mono, float(tau))
        res_rc = asd(tr_rc, mono, float(tau))
        assert res_dp is not None and res_rc is not None
        dp_gaps.append(res_dp.steps)
        rc_gaps.append(res_rc.steps)
    assert np.mean(dp_gaps) >= 1.3 * np.mean(rc_gaps)


# 8. tolerance ordering as implementation quality degrades; worst damage
#    grows with the vulnerable fraction


def test_quality_tolerance_reference_cell():
    cfg = load_scenario(SCENARIOS / "quality_tolerance.yaml")
    _, rows, summary = sweeps.sweep(cfg, [("q", sweeps.parse_grid("0:1:0.1"))], jobs=JOBS)
    tolerated = {Strategy(s): vt for s, _, metric, vt, _ in summary if metric == "vt"}
    for spec in cfg.defenders:
        curve = [row["awd"] for row in rows if row["strategy"] == spec.strategy.value]
        # rising within one grid step of noise: any two points at least two
        # steps apart may dip by no more than half a percent of the network
        for i in range(len(curve)):
            for j in range(i + 2, len(curve)):
                assert curve[j] >= curve[i] - 0.005
    assert (
        tolerated[Strategy.REACTIVE_ADAPTIVE]
        >= tolerated[Strategy.HYBRID]
        > tolerated[Strategy.PROACTIVE]
        >= tolerated[Strategy.STATIC]
    )
