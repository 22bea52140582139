"""Defender specs, detection, planning cadence, redeployment."""
import numpy as np
import pytest

from diversim import (
    DefenderSpec,
    ImplementationPool,
    InitialAlgo,
    Layer,
    SpecError,
    Strategy,
    build_graph,
)
from diversim.netmodel import COMPROMISED, INVULNERABLE, VULNERABLE
from diversim.defense import KNOBS, detect, plan, redeploy
from diversim.rng import DrawAhead


# --- knob validation -------------------------------------------------------------

def test_bare_strategies_take_no_knobs():
    DefenderSpec(Strategy.STATIC)
    DefenderSpec(Strategy.MONOCULTURE, tau=0.2)
    with pytest.raises(SpecError):
        DefenderSpec(Strategy.STATIC, eta1=0.5)
    with pytest.raises(SpecError):
        DefenderSpec(Strategy.MONOCULTURE, fpr=0.1)


def test_proactive_requires_both_rates():
    DefenderSpec(Strategy.PROACTIVE, eta1=0.5, eta2=0.2)
    with pytest.raises(SpecError):
        DefenderSpec(Strategy.PROACTIVE, eta1=0.5)
    with pytest.raises(SpecError):
        DefenderSpec(Strategy.PROACTIVE, eta1=0.5, eta2=0.2, fpr=0.1, fnr=0.1)


def test_reactive_requires_detector_rates():
    DefenderSpec(Strategy.REACTIVE_ADAPTIVE, fpr=0.1, fnr=0.1)
    with pytest.raises(SpecError):
        DefenderSpec(Strategy.REACTIVE_ADAPTIVE, fpr=0.1)
    with pytest.raises(SpecError):
        DefenderSpec(Strategy.REACTIVE_ADAPTIVE, fpr=0.1, fnr=0.1, eta2=0.2)


def test_hybrid_knob_combinations():
    DefenderSpec(Strategy.HYBRID, eta2=0.2, fpr=0.1, fnr=0.1)
    # eta1 is optional for hybrid: with it, hybrid redeploys the union
    DefenderSpec(Strategy.HYBRID, eta2=0.2, fpr=0.1, fnr=0.1, eta1=0.5)
    with pytest.raises(SpecError):
        DefenderSpec(Strategy.HYBRID, fpr=0.1, fnr=0.1, eta1=0.5)
    with pytest.raises(SpecError):
        DefenderSpec(Strategy.REACTIVE_ADAPTIVE, fpr=0.1, fnr=0.1, eta1=0.5)


@pytest.mark.parametrize(
    "kw",
    [
        dict(strategy=Strategy.PROACTIVE, eta1=0.0, eta2=0.2),
        dict(strategy=Strategy.PROACTIVE, eta1=1.1, eta2=0.2),
        dict(strategy=Strategy.PROACTIVE, eta1=0.5, eta2=0.0),
        dict(strategy=Strategy.REACTIVE_ADAPTIVE, fpr=-0.1, fnr=0.1),
        dict(strategy=Strategy.REACTIVE_ADAPTIVE, fpr=0.1, fnr=1.2),
        dict(strategy=Strategy.STATIC, tau=1.5),
    ],
)
def test_out_of_range_knobs_rejected(kw):
    with pytest.raises(SpecError):
        DefenderSpec(**kw)


def test_period_rounds_inverse_rate():
    assert DefenderSpec(Strategy.PROACTIVE, eta1=0.5, eta2=0.2).period == 5
    assert DefenderSpec(Strategy.PROACTIVE, eta1=0.5, eta2=0.5).period == 2
    assert DefenderSpec(Strategy.PROACTIVE, eta1=0.5, eta2=1.0).period == 1
    assert DefenderSpec(Strategy.PROACTIVE, eta1=0.5, eta2=0.3).period == 3
    assert DefenderSpec(Strategy.STATIC).period is None


# --- detection --------------------------------------------------------------------

def test_detect_extreme_rates():
    state = np.array([COMPROMISED, VULNERABLE, COMPROMISED, INVULNERABLE], dtype=np.int8)
    rng = np.random.default_rng(0)
    perfect = detect(state, 0.0, 0.0, rng)
    assert perfect.tolist() == [0, 2]
    blind = detect(state, 0.0, 1.0, rng)
    assert blind.size == 0
    noisy = detect(state, 1.0, 0.0, rng)
    assert noisy.tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "fpr,fnr", [(0.1, 0.2), (0.9, 0.9), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)]
)
def test_detect_matches_the_two_compare_formula(fpr, fnr):
    mixed = np.random.default_rng(3).choice(
        [VULNERABLE, COMPROMISED, INVULNERABLE], size=5000
    ).astype(np.int8)
    # an all-clean and an all-compromised state each compare on one side only
    clean = np.where(mixed == COMPROMISED, VULNERABLE, mixed).astype(np.int8)
    for state in (mixed, clean, np.full_like(mixed, COMPROMISED)):
        got = detect(state, fpr, fnr, np.random.default_rng(11))
        u = np.random.default_rng(11).random(state.size)
        want = np.flatnonzero(np.where(state == COMPROMISED, u < 1.0 - fnr, u < fpr))
        assert np.array_equal(got, want)


def test_detect_rates_converge():
    rng = np.random.default_rng(42)
    state = np.full(200_000, COMPROMISED, dtype=np.int8)
    state[100_000:] = VULNERABLE
    flagged = np.zeros(state.size, dtype=bool)
    flagged[detect(state, 0.1, 0.1, rng)] = True
    assert abs(flagged[:100_000].mean() - 0.9) < 0.01
    assert abs(flagged[100_000:].mean() - 0.1) < 0.01


# --- planning cadence ---------------------------------------------------------------

@pytest.fixture
def plan_env():
    g = build_graph([Layer.from_edges([(i, i + 1) for i in range(6)])])
    state = np.full(g.n_nodes, VULNERABLE, dtype=np.int8)
    state[:3] = COMPROMISED
    return g, state


def test_passive_strategies_never_plan(plan_env):
    g, state = plan_env
    rng = np.random.default_rng(0)
    for s in (Strategy.MONOCULTURE, Strategy.STATIC):
        for t in range(6):
            assert plan(DefenderSpec(s), t, state, g, rng, rng).size == 0


def test_only_strategies_without_knobs_never_act():
    values = dict(eta1=0.5, eta2=0.2, fpr=0.1, fnr=0.1)
    for strategy, (required, optional) in KNOBS.items():
        for knobs in (required, required + optional):
            spec = DefenderSpec(strategy, **{k: values[k] for k in knobs})
            assert spec.acts == bool(knobs)


def test_proactive_cadence_and_sample_size(plan_env):
    g, state = plan_env
    spec = DefenderSpec(Strategy.PROACTIVE, eta1=0.5, eta2=0.2)
    rng_d = np.random.default_rng(1)
    rng_s = np.random.default_rng(2)
    import math
    want = math.ceil(0.5 * g.n_nodes)  # 14 nodes -> 7
    assert want == 7
    for t in range(11):
        chosen = plan(spec, t, state, g, rng_d, rng_s)
        if t % 5 == 0:
            assert chosen.size == want
            assert np.unique(chosen).size == want
        else:
            assert chosen.size == 0


def test_reactive_plans_every_step(plan_env):
    g, state = plan_env
    spec = DefenderSpec(Strategy.REACTIVE_ADAPTIVE, fpr=0.0, fnr=0.0)
    rng = np.random.default_rng(3)
    for t in range(4):
        assert plan(spec, t, state, g, rng, rng).tolist() == [0, 1, 2]


def test_hybrid_detects_only_at_period_instants(plan_env):
    g, state = plan_env
    spec = DefenderSpec(Strategy.HYBRID, eta2=0.5, fpr=0.0, fnr=0.0)
    rng = np.random.default_rng(4)
    picks = [plan(spec, t, state, g, rng, rng).tolist() for t in range(5)]
    assert picks == [[0, 1, 2], [], [0, 1, 2], [], [0, 1, 2]]


def test_hybrid_union_adds_the_sample(plan_env):
    g, state = plan_env
    spec = DefenderSpec(Strategy.HYBRID, eta2=0.5, fpr=0.0, fnr=1.0, eta1=1.0)
    chosen = plan(spec, 0, state, g, np.random.default_rng(5), np.random.default_rng(6))
    # detector misses everything, the full-network sample still covers all
    assert chosen.tolist() == list(range(g.n_nodes))


# --- redeployment -------------------------------------------------------------------

def state_codes(vulnerable: np.ndarray) -> np.ndarray:
    """The flat (hbar * x,) table of the state each (program, implementation) gives."""
    return np.where(vulnerable, VULNERABLE, INVULNERABLE).astype(np.int8).ravel()


def test_redeploy_changes_impl_and_cures():
    g = build_graph([Layer.from_edges([(0, 1), (1, 2)])])
    pool = ImplementationPool(hbar=2, x=4)
    vuln = np.ones((2, 4), dtype=bool)
    installed = np.zeros(g.n_nodes, dtype=np.int16)
    state = np.full(g.n_nodes, COMPROMISED, dtype=np.int8)
    nodes = np.arange(g.n_nodes)
    draws = DrawAhead(np.random.default_rng(0), pool.x - 1)
    oc = redeploy(g, pool, state_codes(vuln), installed, state, nodes, draws)
    assert (installed != 0).all()  # with x > 1 the implementation always changes
    assert (state != COMPROMISED).all()
    assert oc == 1.0
    # updated in place, keeping the dtypes
    assert installed.dtype == np.int16 and state.dtype == np.int8


def test_redeploy_single_impl_reinstalls():
    g = build_graph([Layer.from_edges([(0, 1)])])
    pool = ImplementationPool(hbar=2, x=1)
    vuln = np.ones((2, 1), dtype=bool)
    installed = np.zeros(g.n_nodes, dtype=np.int16)
    state = np.full(g.n_nodes, COMPROMISED, dtype=np.int8)
    draws = DrawAhead(np.random.default_rng(0), pool.x - 1)
    redeploy(g, pool, state_codes(vuln), installed, state, np.array([0]), draws)
    assert installed[0] == 0
    assert state[0] == VULNERABLE  # cured even though the impl repeats
    assert state[1] == COMPROMISED  # nodes outside the set keep their state


def test_redeploy_state_follows_new_impl():
    g = build_graph([Layer.from_edges([(0, 1)])])
    pool = ImplementationPool(hbar=2, x=2)
    vul = np.zeros((2, 2), dtype=bool)
    vul[:, 0] = True  # impl 0 vulnerable, impl 1 hardened
    vuln = vul
    installed = np.zeros(g.n_nodes, dtype=np.int16)
    state = np.full(g.n_nodes, COMPROMISED, dtype=np.int8)
    draws = DrawAhead(np.random.default_rng(1), pool.x - 1)
    redeploy(g, pool, state_codes(vuln), installed, state, np.arange(g.n_nodes), draws)
    assert (installed == 1).all()
    assert (state == INVULNERABLE).all()
    # so many implementations that program * x overflows int16
    path = [(i, i + 1) for i in range(19)]
    g = build_graph([Layer.from_edges(path), Layer.from_edges(path)])
    pool = ImplementationPool(hbar=3, x=20_000)
    rng = np.random.default_rng(2)
    vul = rng.random((pool.hbar, pool.x)) < 0.5
    installed = rng.integers(0, pool.x, size=g.n_nodes, dtype=np.int16)
    state = np.full(g.n_nodes, COMPROMISED, dtype=np.int8)
    nodes = np.arange(g.n_nodes)
    redeploy(g, pool, state_codes(vul), installed, state, nodes, DrawAhead(rng, pool.x - 1))
    want = np.where(vul[g.program[nodes], installed[nodes]], VULNERABLE, INVULNERABLE)
    assert (state[nodes] == want).all()


def test_redeploy_empty_set_is_noop():
    g = build_graph([Layer.from_edges([(0, 1)])])
    pool = ImplementationPool(hbar=2, x=3)
    vuln = np.ones((2, 3), dtype=bool)
    installed = np.ones(g.n_nodes, dtype=np.int16)
    state = np.full(g.n_nodes, VULNERABLE, dtype=np.int8)
    oc = redeploy(
        g, pool, state_codes(vuln), installed, state, np.empty(0, dtype=np.int64),
        DrawAhead(np.random.default_rng(0), pool.x - 1),
    )
    assert (installed == 1).all()
    assert (state == VULNERABLE).all()
    assert oc == 0.0


@pytest.mark.parametrize("pending", [False, True], ids=["whole", "half-pending"])
@pytest.mark.parametrize("high", [1, 9, 19, 32766])
def test_draw_ahead_takes_what_per_call_draws_return(high, pending):
    """Blocks drawn ahead, leftovers carried over a refill, give the values
    of one ``integers(0, high, size=k)`` call per take on a twin generator,
    also when a draw before them left half a 64-bit output pending."""
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    if pending:
        rng.integers(10)
        twin.integers(10)
    draws = DrawAhead(rng, high)
    block = DrawAhead.BLOCK
    for k in (0, 1, 3, block - 1, block + 1, 2 * block + 3):
        got = draws.take(k)
        assert got.dtype == np.int16
        assert got.tolist() == twin.integers(0, high, size=k).tolist(), k
