"""Scenario files: YAML documents with network, diversity, attacker,
defender, and run sections.

The defender section may name a single strategy or a list; a list builds a
family of defenders sharing the section's knobs, each strategy taking only
the knobs ``defense.KNOBS`` gives it. ``hybrid_union: true`` hands the
family's ``eta1`` to the hybrid member, which then redeploys the union of
its detections and a proactive sample.

Example::

    network:
      synthetic: {n_layer1: 320, n_layer2: 310, overlap_fraction: 0.55,
                  attachment_degree: 4, seed: 7}
    diversity: {x: 10, q: 1.0, initial_algo: degree_priority}
    attacker: {m3: 5, m4: 10, ini_comp: 10}
    defender: {strategy: [static, proactive, reactive, hybrid],
               tau: 0.333333, eta1: 0.5, eta2: 0.2, fpr: 0.1, fnr: 0.1}
    run: {t_max: 500, runs: 100, seed: 42}
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .defense import KNOB_NAMES, KNOBS, DefenderSpec, InitialAlgo, Strategy
from .engine import NetworkFiles, Scenario, SyntheticNetwork
from .netmodel import ConfigError, ImplementationPool
from .threat import AttackerSpec


_STRATEGY_ALIASES = {s.value: s for s in Strategy} | {"reactive_adaptive": Strategy.REACTIVE_ADAPTIVE}


@dataclass(frozen=True)
class LoadedConfig:
    scenario: Scenario
    defenders: tuple[DefenderSpec, ...]


def _section(doc: dict, name: str, required: bool = True) -> dict:
    sec = doc.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"missing section {name!r}")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return dict(sec)


def _integer(value) -> int:
    # int() would truncate 4.7 to 4 and accept "4" or true
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(value)
    return int(value)


def _real(value) -> float:
    # float() would accept "0.3" and true
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(value)
    return float(value)


def _boolean(value) -> bool:
    # bool() would read the string "false" as true
    if not isinstance(value, bool):
        raise ValueError(value)
    return value


def _take(sec: dict, name: str, kind, default=None, required: bool = False):
    if name not in sec:
        if required:
            raise ConfigError(f"missing key {name!r}")
        return default
    value = sec.pop(name)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key {name!r} has invalid value {value!r}") from None


def _present(sec: dict, kinds: dict) -> dict:
    """The keys of ``kinds`` that ``sec`` sets, parsed; dataclasses default the rest."""
    return {k: _take(sec, k, kind) for k, kind in kinds.items() if k in sec}


def _reject_unknown(sec: dict, where: str) -> None:
    if sec:
        raise ConfigError(f"unknown key {sorted(sec)[0]!r} in section {where!r}")


def _network(sec: dict):
    syn = sec.pop("synthetic", None)
    files = sec.pop("files", None)
    _reject_unknown(sec, "network")
    if (syn is None) == (files is None):
        raise ConfigError("network needs exactly one of 'synthetic' or 'files'")
    name, body = ("synthetic", syn) if files is None else ("files", files)
    if not isinstance(body, dict):
        raise ConfigError(f"network.{name} must be a mapping")
    if syn is not None:
        syn = dict(syn)
        net = SyntheticNetwork(
            n_layer1=_take(syn, "n_layer1", _integer, required=True),
            n_layer2=_take(syn, "n_layer2", _integer, required=True),
            overlap_fraction=_take(syn, "overlap_fraction", _real, required=True),
            attachment_degree=_take(syn, "attachment_degree", _integer, default=3),
            seed=_take(syn, "seed", _integer, default=0),
        )
        _reject_unknown(syn, "network.synthetic")
        return net, 3
    files = dict(files)
    layers = files.pop("layers", None)
    if not isinstance(layers, list) or not layers or not all(isinstance(p, str) for p in layers):
        raise ConfigError("network.files.layers must be a non-empty list of paths")
    users = files.pop("users", None)
    if users is not None and not isinstance(users, str):
        raise ConfigError("network.files.users must be a path")
    _reject_unknown(files, "network.files")
    return NetworkFiles(tuple(layers), users), len(layers) + 1


def _defender_specs(sec: dict, shared: dict) -> tuple[DefenderSpec, ...]:
    names = sec.pop("strategy", None)
    if names is None:
        raise ConfigError("defender.strategy is required")
    single = isinstance(names, str)
    if single:
        names = [names]
    if not isinstance(names, list) or not names:
        raise ConfigError("defender.strategy must be a name or a non-empty list")
    hybrid_union = _take(sec, "hybrid_union", _boolean, default=False)
    knobs = {k: _take(sec, k, _real) for k in KNOB_NAMES if k in sec}
    _reject_unknown(sec, "defender")
    specs = []
    for name in names:
        strategy = _STRATEGY_ALIASES.get(str(name).lower())
        if strategy is None:
            raise ConfigError(f"unknown strategy {name!r}")
        if any(s.strategy is strategy for s in specs):
            raise ConfigError(f"defender.strategy lists {strategy.value} twice")
        required, optional = KNOBS[strategy]
        # hybrid's eta1 is the one optional knob; hybrid_union asks for it
        wanted = required + optional if hybrid_union else required
        if single:
            extra = set(knobs) - set(wanted)
            if extra:
                raise ConfigError(f"{strategy.value} must leave {sorted(extra)[0]} unset")
        absent = [k for k in wanted if k not in knobs]
        if absent:
            raise ConfigError(f"{strategy.value} requires {absent[0]}")
        specs.append(DefenderSpec(strategy=strategy, **shared, **{k: knobs[k] for k in wanted}))
    if hybrid_union and not any(s.strategy is Strategy.HYBRID for s in specs):
        raise ConfigError("hybrid_union needs a hybrid member in defender.strategy")
    return tuple(specs)


def load_scenario(path: str | Path) -> LoadedConfig:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("scenario file must be a mapping of sections")

    network, hbar = _network(_section(doc, "network"))

    div = _section(doc, "diversity")
    x = _take(div, "x", _integer, required=True)
    q = _take(div, "q", _real, default=1.0)
    declared_hbar = _take(div, "hbar", _integer)
    if declared_hbar is not None and declared_hbar != hbar:
        raise ConfigError(f"diversity.hbar={declared_hbar} but the network implies {hbar}")
    algo_name = _take(div, "initial_algo", str)
    _reject_unknown(div, "diversity")
    shared = {}  # DefenderSpec fields of every member that the file sets
    if algo_name is not None:
        try:
            shared["initial_algo"] = InitialAlgo(algo_name)
        except ValueError:
            raise ConfigError(f"unknown initial_algo {algo_name!r}") from None

    att = _section(doc, "attacker")
    attacker = AttackerSpec(
        m3=_take(att, "m3", _integer, required=True),
        m4=_take(att, "m4", _integer, required=True),
        initial_compromise_size=_take(att, "ini_comp", _integer, default=0),
        **_present(att, {"scale_with_q": _boolean, "q_fraction": _real}),
    )
    _reject_unknown(att, "attacker")

    dfn = _section(doc, "defender")
    shared.update(_present(dfn, {"tau": _real}))
    defenders = _defender_specs(dfn, shared)

    runsec = _section(doc, "run", required=False)
    run = _present(runsec, {"t_max": _integer, "runs": _integer, "seed": _integer,
                            "defender_first": _boolean})
    _reject_unknown(runsec, "run")

    # a monoculture defender would force x=1 on the base; sweeps.variant derives
    # its single-implementation twin from a base that keeps the configured pool
    base_defender = next(
        (d for d in defenders if d.strategy is not Strategy.MONOCULTURE),
        DefenderSpec(Strategy.STATIC, **shared),
    )
    scenario = Scenario(
        network=network,
        pool=ImplementationPool(hbar, x),
        q=q,
        attacker=attacker,
        defender=base_defender,
        **run,
    )
    unknown = set(doc) - {"network", "diversity", "attacker", "defender", "run"}
    if unknown:
        raise ConfigError(f"unknown section {sorted(unknown)[0]!r}")
    return LoadedConfig(scenario, defenders)
