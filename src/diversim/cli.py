"""Command line front end.

Three subcommands: ``gen-network`` emits synthetic two-layer edge lists;
``sweep`` runs a parameter grid through ``sweeps.sweep`` and writes per-cell
rows plus derived metric rows; ``run`` is the same call with no grid and
writes each defender's mean trace plus the metric summary. Everything lands
under ``--out``; input files are never touched. Exit codes: 0 success, 2
rejected input (the scenario file, the network files it names, options or
a sweep grid), 3 runtime failure.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import sweeps
from .config import ConfigError, LoadedConfig, load_scenario
from .engine import final_snapshot, resolve_graph
from .netmodel import generate_synthetic_network, write_id_file

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diversim",
        description="Dynamic network diversity simulator: attack traces, "
        "defense strategies, and security metrics over Monte Carlo ensembles.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-network", help="write synthetic two-layer edge lists")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--n1", type=int, default=5702, help="users in layer 1")
    gen.add_argument("--n2", type=int, default=5540, help="users in layer 2")
    gen.add_argument("--overlap", type=float, default=0.887545,
                     help="fraction of the smaller layer present in both")
    gen.add_argument("--attachment", type=int, default=3,
                     help="edges per newly attached user")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_gen_network)

    # the options run and sweep share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario file")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override run.seed")
    common.add_argument("--runs", type=int, default=None, help="override run.runs")
    common.add_argument("--jobs", type=int, default=1,
                        help="processes running simulations: this one and N-1 workers")

    run = sub.add_parser("run", parents=[common], help="run one scenario and write trace + summary")
    run.add_argument("--snapshot", action="store_true",
                     help="also write the final node states of run 0")
    run.set_defaults(func=cmd_run)

    swp = sub.add_parser("sweep", parents=[common], help="run a parameter grid and write cell rows")
    swp.add_argument("--sweep", action="append", required=True, metavar="KEY=START:STOP:STEP",
                     help=f"grid over one key ({', '.join(sweeps.SWEEP_KEYS)}); repeatable")
    swp.set_defaults(func=cmd_sweep)
    return parser


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_network(args) -> int:
    out = _outdir(args.out)
    layer1, layer2 = generate_synthetic_network(
        args.n1, args.n2, args.overlap, args.attachment, args.seed
    )
    write_id_file(out / "layer1.edges", layer1.edges, comment="synthetic layer 1")
    write_id_file(out / "layer2.edges", layer2.edges, comment="synthetic layer 2")
    users = np.union1d(layer1.participants, layer2.participants)
    write_id_file(out / "users.txt", users)
    print(f"layer1: {len(layer1.participants)} users, {len(layer1.edges)} edges")
    print(f"layer2: {len(layer2.participants)} users, {len(layer2.edges)} edges")
    print(f"union: {len(users)} users")
    return 0


def _load(args) -> LoadedConfig:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = load_scenario(args.config)
    overrides = {k: v for k, v in (("seed", args.seed), ("runs", args.runs)) if v is not None}
    return replace(cfg, scenario=replace(cfg.scenario, **overrides))


def cmd_run(args) -> int:
    cfg = _load(args)
    out = _outdir(args.out)
    memo: dict = {}  # the family's one graph; the snapshots reuse it and its colorings
    ensembles, _, summary = sweeps.sweep(cfg, jobs=args.jobs, memo=memo)
    single = len(ensembles) == 1
    graph = resolve_graph(cfg.scenario.network, memo) if args.snapshot else None
    for cell, mean in ensembles:
        suffix = "" if single else f"_{cell.defender.strategy.value}"
        sweeps.write_trace_csv(out / f"trace{suffix}.csv", mean)
        if args.snapshot:
            final_snapshot(cell, 0, out / f"snapshot{suffix}.csv", graph=graph)
    sweeps.write_summary_csv(out / "summary.csv", summary)
    logger.info("wrote %s", out / "summary.csv")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    out = _outdir(args.out)
    swept = [sweeps.parse_sweep(text) for text in args.sweep]
    _, rows, summary = sweeps.sweep(cfg, swept, jobs=args.jobs)
    sweeps.write_sweep_csv(out / "sweep.csv", rows)
    sweeps.write_summary_csv(out / "summary.csv", summary)
    logger.info("wrote %d cell rows", len(rows))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - unexpected failure
        logger.exception("unhandled failure")
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
