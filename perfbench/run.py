"""diversim benchmark: one workload per invocation, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload ref-dense --seed 7 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced run. The
last line of standard output is the result; the line before it records the
machine, versions, sample counts and every output the correctness gate
compared. Both also land in ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import layers
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: the seed whose outputs are frozen in frozen.json
DEFAULT_SEED = 7
#: set-up repeats at least this often, and until SETUP_SECONDS have passed
SETUP_REPS = 5
SETUP_SECONDS = 1.0


def load_program():
    """Import diversim from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "diversim" / "__init__.py").is_file():
        raise ImportError(f"no diversim sources under {src}")
    sys.path.insert(0, str(src))
    import diversim
    import diversim.cli
    import diversim.sweeps  # noqa: F401  (submodules become package attributes)

    if Path(diversim.__file__).resolve().parent != src / "diversim":
        raise ImportError(f"diversim imported from {diversim.__file__}, not {src}")
    return diversim


def git_commit() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


class Gate:
    """Correctness gate: runs attempted and failed, and what went wrong."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, res, expected: dict | None = None) -> None:
        """Count one pass; its outputs must equal ``expected`` if given."""
        labels = set(res.failed)
        if expected is not None:
            diff = workloads.differing(expected, res.outputs)
            labels.update(diff)
            self.problems.extend(f"{label}: output differs from the reference" for label in diff)
        self.problems.extend(res.problems)
        self.attempted += sum(self.wl.runs_of(c) for c in self.wl.labels())
        self.fail(labels)

    def fail(self, labels) -> None:
        cells = {c for label in labels for c in self.wl.cells_of(label)}
        self.failed = min(self.attempted, self.failed + sum(self.wl.runs_of(c) for c in cells))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def timed_passes(wl, seconds: float, gate: Gate, reference: dict | None):
    """Run passes until ``seconds`` have elapsed; returns (passes, reference).

    Every pass repeats the same inputs, so every pass must reproduce the
    first one's outputs.
    """
    passes = []
    t0 = perf_counter()
    while True:
        res = wl.run_pass()
        gate.count(res, reference)
        if reference is None:
            reference = res.outputs
        passes.append(res)
        if perf_counter() - t0 >= seconds:
            return passes, reference


def throughput(passes) -> tuple[float, dict]:
    """Run-steps per calibrated second of a typical pass, and its samples.

    Each job's host time is calibrated with the kernel time measured just
    before it. A typical pass takes the median calibrated time of each of
    its jobs; summing per-job medians discards a slow spell that hits one
    job of one pass without discarding the rest of that pass.
    """
    host: dict[str, list[float]] = {}
    calibrated: dict[str, list[float]] = {}
    for res in passes:
        for label, seconds in res.times.items():
            host.setdefault(label, []).append(seconds)
            calibrated.setdefault(label, []).append(
                seconds * calibrate.REFERENCE_S / res.kernel[label])
    steps = max(res.run_steps for res in passes)

    def per_typical_pass(times):
        typical = sum(statistics.median(v) for v in times.values())
        return steps / typical if typical else 0.0

    samples = {"passes": len(passes), "pass_run_steps": steps,
               "host_run_steps_per_s": per_typical_pass(host),
               "kernel_s": summary([k for res in passes for k in res.kernel.values()]),
               "job_host_seconds": {label: summary(v) for label, v in host.items()}}
    return per_typical_pass(calibrated), samples


def check_pass(wl, gate: Gate, reference: dict) -> dict:
    """The workload's extra check pass, merged into the reference outputs."""
    res = wl.check_pass()
    if res is None:
        return reference
    gate.count(res, reference)
    merged = {label: dict(values) for label, values in reference.items()}
    for label, values in res.outputs.items():
        merged.setdefault(label, {}).update(values)
    return merged


def check_frozen(wl, name: str, seed: int, gate: Gate, outputs: dict) -> bool:
    if seed != DEFAULT_SEED:
        return False
    frozen = json.loads((HERE / "frozen.json").read_text())
    entry = frozen.get(name)
    if entry is None:
        gate.problems.append(f"frozen.json has no outputs for {name}")
        return True
    if entry["runs"] != wl.runs:
        gate.problems.append(f"frozen.json holds {name} at runs={entry['runs']}, not {wl.runs}")
        return True
    diff = workloads.differing(entry["outputs"], outputs)
    gate.problems.extend(f"{label}: output differs from frozen.json" for label in diff)
    gate.fail(diff)
    return True


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "samples": len(values), "values": values}


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def untraced(wl, seconds: float, gate: Gate, info: dict) -> tuple[dict, dict]:
    setups, kernel = [], []
    t0 = perf_counter()
    while len(setups) < SETUP_REPS or perf_counter() - t0 < SETUP_SECONDS:
        kernel.append(calibrate.seconds(reps=1))
        setups.append(wl.setup())
    setup_s = statistics.median(
        s * calibrate.REFERENCE_S / k for s, k in zip(setups, kernel))
    passes, reference = timed_passes(wl, seconds, gate, None)
    reference = check_pass(wl, gate, reference)
    speed, samples = throughput(passes)
    info["samples"] = {"run_steps_per_s": samples, "setup_host_s": summary(setups),
                       "setup_kernel_s": summary(kernel)}
    metrics = {
        "run_steps_per_s": (speed, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, reference


def traced(wl, dv, seconds: float, gate: Gate, info: dict, spans_path: Path) -> tuple[dict, dict]:
    """Untraced passes for half the time, then traced set-up + pass iterations."""
    wl.setup()
    plain, reference = timed_passes(wl, seconds / 2, gate, None)
    reference = check_pass(wl, gate, reference)

    tracer = Tracer(info["workload"])
    layers.install(tracer, dv)
    iterations, traced_passes = [], []
    t0 = perf_counter()
    try:
        while True:
            tracer.reset_totals()
            tracer.enabled = True
            try:
                with tracer.span("bench.iteration"):
                    with tracer.span("bench.setup"):
                        wl.setup()
                    with tracer.span("bench.pass"):
                        res = wl.run_pass(tracer=tracer)
            finally:
                tracer.enabled = False
            gate.count(res, reference)
            iterations.append(layers.layer_metrics(tracer, res.run_steps))
            traced_passes.append(res)
            if perf_counter() - t0 >= seconds / 2:
                break
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    for name in layers.COUNT_METRICS:
        seen = {it[name] for it in iterations}
        if len(seen) > 1:
            gate.problems.append(f"{name} differs between identical iterations: {sorted(seen)}")
    metrics = {}
    for name in iterations[0]:
        values = [it[name] for it in iterations]
        value = values[-1] if name in layers.COUNT_METRICS else statistics.median(values)
        metrics[name] = (value, layers.unit_of(name))
    untraced_speed, untraced_samples = throughput(plain)
    traced_speed, traced_samples = throughput(traced_passes)
    metrics["bench.untraced_run_steps_per_s"] = (untraced_speed, "1/s")
    metrics["bench.traced_run_steps_per_s"] = (traced_speed, "1/s")
    metrics["bench.trace_overhead_ratio"] = (
        untraced_speed / traced_speed if traced_speed else 0.0, "ratio")
    info["samples"] = {"untraced_run_steps_per_s": untraced_samples,
                       "traced_run_steps_per_s": traced_samples,
                       "traced_iterations": len(iterations)}
    info["unwrapped"] = tracer.missing
    info["spans"] = {"file": str(spans_path.relative_to(ROOT)), "count": len(tracer.spans)}
    return metrics, reference


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        dv = load_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, dv, args.seed, OUT)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "runs_per_ensemble": wl.runs,
        "jobs": wl.jobs,
    }
    gate = Gate(wl)
    if args.trace:
        metrics, outputs = traced(wl, dv, args.seconds, gate, info, OUT / f"spans-{stem}.csv.gz")
    else:
        metrics, outputs = untraced(wl, args.seconds, gate, info)
    info["frozen_checked"] = check_frozen(wl, args.workload, args.seed, gate, outputs)
    info["outputs"] = outputs
    info["problems"] = gate.problems
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
