"""The benchmark's workloads.

Every workload is a closed loop: one caller submits one job (an ensemble,
or a whole sweep) and waits for it before submitting the next. Each runs on
a fixed reference network (synthetic, network seed 7); the workload seed
becomes the scenario's master seed, which drives every random draw of the
runs. The network stays fixed because its shape alone moves the cost of a
run by up to a quarter, which would drown the differences between commits.

A pass runs the workload's jobs once and returns the simulated run-steps it
delivered, the host seconds of each job's timed phase, the calibration
kernel's time measured just before each job, and the outputs the
correctness gate compares, keyed by ensemble label.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

import calibrate
import layers

HERE = Path(__file__).resolve().parent
TAU = 1.0 / 3.0
T_MAX = 500
NETWORK_SEED = 7


def trace_digest(traces) -> str:
    """SHA-256 over per-run traces in run order, independent of dtypes."""
    h = hashlib.sha256()
    for t in traces:
        for arr, dtype in (
            (t.cc_count, "<i8"),
            (t.vc_count, "<i8"),
            (t.ic_count, "<i8"),
            (t.oc, "<f8"),
            (t.new_compromised, "<i8"),
        ):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def broken_runs(traces, t_max: int) -> int:
    """Runs with a wrong length or a row where cc+vc+ic != n_computers."""
    return sum(
        len(t.cc_count) != t_max + 1
        or not np.array_equal(t.cc_count + t.vc_count + t.ic_count,
                              np.full(len(t.cc_count), t.n_computers))
        for t in traces
    )


def differing(expected: dict, got: dict) -> list[str]:
    """Labels whose expected values are missing from or differ in ``got``.

    Floats derived from ensemble means compare to a relative 1e-12, far
    above float64 rounding over a few hundred runs; everything else
    compares exactly.
    """
    out = []
    for label, want in expected.items():
        have = got.get(label)
        if have is None or any(k not in have or not _same(v, have[k]) for k, v in want.items()):
            out.append(label)
    return out


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@dataclass
class PassResult:
    run_steps: int = 0
    times: dict = field(default_factory=dict)
    kernel: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)


def _failure(res: PassResult, label: str, exc: BaseException) -> None:
    res.failed.add(label)
    last = traceback.format_exception_only(type(exc), exc)[-1].strip()
    res.problems.append(f"{label}: raised {last}")


class EnsembleWorkload:
    """Ensembles over one prebuilt graph, one ``monte_carlo`` call each."""

    jobs = 1

    def __init__(self, dv, seed: int, *, network: tuple, strategies: list, runs: int,
                 with_monoculture: bool):
        self.dv = dv
        self.seed = seed
        self.runs = runs
        self.network = dv.SyntheticNetwork(*network, NETWORK_SEED)
        self.pool = dv.ImplementationPool(hbar=3, x=10)
        self.strategies = strategies
        self.with_monoculture = with_monoculture
        # the benchmark's own set-up call must not count as a program call
        self._resolve_graph = dv.engine.resolve_graph
        self.graph = None

    def setup(self) -> float:
        t0 = perf_counter()
        graph = self._resolve_graph(self.network)
        self.dv.diversity.degree_priority_assignment(graph, self.pool)
        elapsed = perf_counter() - t0
        self.graph = graph
        return elapsed

    def labels(self) -> list[str]:
        mono = ["monoculture"] if self.with_monoculture else []
        return mono + [label for label, _ in self.strategies]

    def runs_of(self, label: str) -> int:
        return self.runs

    def cells_of(self, label: str) -> list[str]:
        """Ensembles whose runs fail when ``label`` mismatches."""
        return [label] if label in self.labels() else self.labels()

    def check_pass(self) -> PassResult | None:
        return None

    def _scenarios(self):
        dv = self.dv
        base = dv.Scenario(
            network=dv.PrebuiltNetwork(self.graph),
            pool=self.pool,
            q=1.0,
            attacker=dv.AttackerSpec(m3=5, m4=10, initial_compromise_size=10),
            defender=self.strategies[0][1],
            t_max=T_MAX,
            runs=self.runs,
            seed=self.seed,
        )
        if self.with_monoculture:
            yield "monoculture", dv.sweeps.monoculture_baseline(base)
        for label, spec in self.strategies:
            yield label, dv.sweeps.variant(base, spec)

    def run_pass(self, tracer=None) -> PassResult:
        dv = self.dv
        res = PassResult()
        means = {}
        for label, scn in self._scenarios():
            probe = layers.EnsembleProbe(tracer) if tracer else contextlib.nullcontext()
            span = tracer.span("bench.ensemble") if tracer else contextlib.nullcontext()
            res.kernel[label] = calibrate.seconds()
            t0 = perf_counter()
            try:
                with span, probe:
                    mean, traces = dv.engine.monte_carlo(scn, jobs=1, collect=True)
                    row = {
                        "tts": dv.metrics.tts(mean, TAU),
                        "awd": dv.metrics.awd(mean),
                        "aoc": dv.metrics.aoc(mean),
                    }
                    if "monoculture" in means:
                        slow = dv.metrics.asd(mean, means["monoculture"], TAU)
                        row["asd"] = None if slow is None else [slow.steps, slow.censored]
            except Exception as exc:  # the gate counts the ensemble as failed
                _failure(res, label, exc)
                continue
            res.times[label] = perf_counter() - t0
            res.run_steps += scn.runs * scn.t_max
            means[label] = mean
            row["traces"] = trace_digest(traces)
            res.outputs[label] = row
            bad = broken_runs(traces, scn.t_max)
            if bad:
                res.failed.add(label)
                res.problems.append(f"{label}: {bad} runs break cc+vc+ic == n_computers")
            if tracer:
                passive = scn.defender.strategy in (dv.Strategy.MONOCULTURE, dv.Strategy.STATIC)
                found = layers.reconcile(tracer, label, probe.delta, scn.runs, scn.t_max,
                                         passive, self.graph.n_nodes, traces)
                if found:
                    res.failed.add(label)
                    res.problems.extend(found)
        return res


class SweepWorkload:
    """``diversim sweep --sweep q=0:1:0.1`` through ``cli.main``, in-process."""

    grid = "0:1:0.1"

    def __init__(self, dv, seed: int, workdir: Path, *, runs: int, jobs: int):
        self.dv = dv
        self.seed = seed
        self.runs = runs
        self.jobs = jobs
        self.workdir = workdir
        doc = yaml.safe_load((HERE / "q_sweep.yaml").read_text())
        doc["run"].update(seed=seed, runs=runs)
        self.t_max = doc["run"]["t_max"]
        self.config = workdir / f"q-sweep-seed{seed}.yaml"
        self.config.write_text(yaml.safe_dump(doc, sort_keys=False))
        qs = dv.sweeps.parse_grid(self.grid)
        self._cells = [f"{s}@{q:.6f}" for s in doc["defender"]["strategy"] for q in qs]
        self._resolve_graph = dv.engine.resolve_graph

    def setup(self) -> float:
        dv = self.dv
        t0 = perf_counter()
        cfg = dv.config.load_scenario(self.config)
        graph = self._resolve_graph(cfg.scenario.network)
        dv.diversity.degree_priority_assignment(graph, cfg.scenario.pool)
        return perf_counter() - t0

    def labels(self) -> list[str]:
        return list(self._cells)

    def runs_of(self, label: str) -> int:
        return self.runs if label in self._cells else 0

    def cells_of(self, label: str) -> list[str]:
        """Cells whose runs fail when ``label`` mismatches."""
        if label in self._cells:
            return [label]
        if label.endswith(":vt"):
            strategy = label[: -len(":vt")]
            return [c for c in self._cells if c.startswith(strategy + "@")]
        return list(self._cells)

    def run_pass(self, tracer=None, jobs: int | None = None, collect: bool = False) -> PassResult:
        dv = self.dv
        jobs = self.jobs if jobs is None else jobs
        res = PassResult()
        out = self.workdir / f"q-sweep-seed{self.seed}-jobs{jobs}"
        out.mkdir(parents=True, exist_ok=True)
        for name in ("sweep.csv", "summary.csv"):
            (out / name).unlink(missing_ok=True)
        argv = ["sweep", "--config", str(self.config), "--out", str(out),
                "--sweep", f"q={self.grid}", "--jobs", str(jobs)]
        averaged: list = []  # per-run traces of every ensemble, in cli's order
        cell_seconds: list[float] = []
        kernel_seconds: list[float] = []

        def keep(inner, traces):
            averaged.append(list(traces))
            return inner(traces)

        def timed(inner, *args, **kwargs):
            # one kernel call per cell: cells are short and there are many
            kernel_seconds.append(calibrate.seconds(reps=1))
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                cell_seconds.append(perf_counter() - t0)

        keep_traces = collect or tracer is not None
        with contextlib.ExitStack() as stack:
            if keep_traces:
                stack.enter_context(_around(dv.engine, "mean_of", keep))
            stack.enter_context(_around(dv.sweeps, "run_cell", timed))
            t0 = perf_counter()
            # cli.main reports every failure as a non-zero exit code
            rc = dv.cli.main(argv)
            elapsed = perf_counter() - t0
        if rc != 0:
            res.failed.update(self._cells)
            res.problems.append(f"cli.main exited with {rc}")
            return res
        elapsed -= sum(kernel_seconds)  # the kernel is not part of the sweep
        if len(cell_seconds) == len(self._cells):
            res.times.update(zip(self._cells, cell_seconds))
            res.kernel.update(zip(self._cells, kernel_seconds))
            res.times["between-cells"] = elapsed - sum(cell_seconds)
            res.kernel["between-cells"] = statistics.median(kernel_seconds)
        else:
            res.times["sweep"] = elapsed
            res.kernel["sweep"] = calibrate.seconds()
        res.run_steps = len(self._cells) * self.runs * self.t_max
        try:
            self._read_outputs(out, res)
        except (OSError, ValueError, KeyError) as exc:
            res.failed.update(self._cells)
            res.problems.append(f"unreadable sweep output: {exc}")
            return res
        if keep_traces:
            self._add_trace_digests(averaged, res)
        if tracer:
            problems = []
            for name, want in (("engine.resolve_graph", len(self._cells)),
                               ("sweeps.run_cell", len(self._cells))):
                if name in tracer.wrapped and tracer.calls(name) != want:
                    problems.append(f"{name} calls {tracer.calls(name)} != cells {want}")
            if problems:
                res.failed.update(self._cells)
                res.problems.extend(problems)
        return res

    def _read_outputs(self, out: Path, res: PassResult) -> None:
        sweep_bytes = (out / "sweep.csv").read_bytes()
        summary_bytes = (out / "summary.csv").read_bytes()
        lines = sweep_bytes.decode().splitlines()
        rows = list(csv.DictReader(lines))
        if len(rows) != len(self._cells):
            raise ValueError(f"sweep.csv has {len(rows)} rows, expected {len(self._cells)}")
        for line, row in zip(lines[1:], rows):
            res.outputs[f"{row['strategy']}@{row['swept_value']}"] = {"row": line}
        for row in csv.DictReader(summary_bytes.decode().splitlines()):
            if row["metric"] == "vt":
                res.outputs[f"{row['strategy']}:vt"] = {"vt": float(row["value"])}
        res.outputs["files"] = {
            "sweep.csv": hashlib.sha256(sweep_bytes).hexdigest(),
            "summary.csv": hashlib.sha256(summary_bytes).hexdigest(),
        }

    def _add_trace_digests(self, seen: list, res: PassResult) -> None:
        # cli runs the cells strategy-major, in the order of sweep.csv rows
        if len(seen) != len(self._cells):
            res.failed.update(self._cells)
            res.problems.append(f"averaged {len(seen)} ensembles, expected {len(self._cells)}")
            return
        for label, traces in zip(self._cells, seen):
            res.outputs.setdefault(label, {})["traces"] = trace_digest(traces)
            bad = broken_runs(traces, self.t_max)
            if len(traces) != self.runs or bad:
                res.failed.add(label)
                res.problems.append(f"{label}: {len(traces)} runs, {bad} break cc+vc+ic")

    def check_pass(self) -> PassResult:
        """One pass at --jobs 1 that also hashes every per-run trace."""
        return self.run_pass(jobs=1, collect=True)


@contextlib.contextmanager
def _around(owner, attr: str, call):
    """Route ``owner.attr`` through ``call(inner, *args, **kwargs)`` for a while.

    The program looks the attribute up at call time, so this observes its
    calls without changing it; a missing attribute is left alone.
    """
    inner = getattr(owner, attr, None)
    if inner is None:
        yield
        return
    setattr(owner, attr, lambda *args, **kwargs: call(inner, *args, **kwargs))
    try:
        yield
    finally:
        setattr(owner, attr, inner)


def make(name: str, dv, seed: int, workdir: Path):
    S = dv.Strategy
    static = dv.DefenderSpec(S.STATIC, tau=TAU)
    proactive = dv.DefenderSpec(S.PROACTIVE, tau=TAU, eta1=0.5, eta2=0.2)
    reactive = dv.DefenderSpec(S.REACTIVE_ADAPTIVE, tau=TAU, fpr=0.1, fnr=0.1)
    hybrid = dv.DefenderSpec(S.HYBRID, tau=TAU, eta2=0.2, fpr=0.1, fnr=0.1)
    if name == "ref-dense":
        return EnsembleWorkload(
            dv, seed, network=(545, 530, 0.887, 22), runs=4, with_monoculture=True,
            strategies=[("static", static), ("proactive", proactive),
                        ("reactive", reactive), ("hybrid", hybrid)])
    if name == "paper-sparse":
        color_flip = dv.DefenderSpec(S.STATIC, tau=TAU, initial_algo=dv.InitialAlgo.COLOR_FLIP)
        return EnsembleWorkload(
            dv, seed, network=(5702, 5540, 0.887545, 3), runs=3, with_monoculture=False,
            strategies=[("reactive", reactive), ("hybrid", hybrid),
                        ("static-color_flip", color_flip)])
    if name == "q-sweep":
        return SweepWorkload(dv, seed, workdir, runs=2, jobs=2)
    raise KeyError(name)


WORKLOADS = ("ref-dense", "paper-sparse", "q-sweep")
