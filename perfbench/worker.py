"""The measured process: set up one workload, run it, check it, report JSON.

Started by ``run.py`` with the BLAS and OpenMP pools pinned to one thread.
Prints ``READY`` once set-up (imports, inputs, one untimed warm-up) is
done, then one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy
import scipy
import scipy.__config__

from tracer import Tracer, merge_summaries, span_stats
from workloads import SUBCOMMANDS, CliWorkload, Sample, make_workload, scale_probe_3q

# End-to-end metrics the worker measures; run.py adds setup_s.
E2E_METRICS = {
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
}

_CALLS_SELF = (
    "tomography.extract_generator",
    "open_system_sim.propagate",
    "open_system_sim.bb_propagator",
    "open_system_sim.PulseGroup",
    "open_system_sim.kraus_from_model",
    "open_system_sim.apply_bb_cycle",
    "open_system_sim.reduced_state",
    "operator_algebra.build_pauli_basis",
    "operator_algebra.adjoint_of",
    "bb_synthesis.error_report",
)

# Per-layer metrics of the traced run: name -> unit.
LAYER_METRICS = {
    "optimizer.evaluate_cost.calls": "count",
    "optimizer.evaluate_cost.self_s": "s",
    "optimizer.evaluate_cost.p50_ms": "ms",
    "optimizer.evaluate_cost.p99_ms": "ms",
    "optimizer.evaluate_cost.repeat_frac": "ratio",
    "optimizer.learning_loop.generations": "count",
    "optimizer.learning_loop.self_s": "s",
    "tomography.chi_from_lambda.calls": "count",
    "tomography.chi_from_lambda.self_s": "s",
    "tomography.chi_from_lambda.p50_ms": "ms",
    "tomography.chi_from_lambda.3q_s": "s",
    "tomography.run_qpt.calls": "count",
    "tomography.run_qpt.self_s": "s",
    "tomography.run_qpt.probes": "count",
    **{f"{span}.{stat}": unit for span in _CALLS_SELF for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "bb_synthesis.solve_two_qubit.calls": "count",
    "bb_synthesis.solve_two_qubit.self_s": "s",
    "bb_synthesis.solve_two_qubit.p50_ms": "ms",
    "bb_synthesis.solve_two_qubit.accept_frac": "ratio",
    "cli.import_s": "s",
    **{f"cli.{sub}.s": "s" for sub in SUBCOMMANDS},
    **{
        f"serialization.{fn}.{stat}": unit
        for fn in ("dump_json", "write_csv")
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("bytes", "bytes"))
    },
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BBFORGE_THREADS")


def layer_value(name: str, summary: dict, extra: dict) -> float:
    """Value of one per-layer metric from a trace summary (0 for unseen spans)."""
    if name in extra:
        return extra[name]
    if name == "cli.import_s":
        return span_stats(summary, "cli.import")["p50_ms"] / 1e3
    span, stat = name.rsplit(".", 1)
    stats = span_stats(summary, span)
    if stat in stats:
        return stats[stat]
    if stat == "s":
        return stats["total_s"]
    counters = summary["counters"]
    if stat in ("repeat_frac", "accept_frac"):
        counted = counters.get(span + (".repeats" if stat == "repeat_frac" else ".accepted"), 0)
        return counted / stats["calls"] if stats["calls"] else 0.0
    return counters.get(f"{span}.{stat}", 0)


def run_one(wl, index: int) -> Sample:
    inp = wl.make_input(index)
    start = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception as exc:  # an operation that raises is a failed operation
        return Sample(index, time.perf_counter() - start, None, [f"op {index}: {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - start
    try:
        problems = [f"op {index}: {p}" for p in wl.check(index, inp, out)]
    except Exception as exc:  # a check that cannot run fails the operation
        problems = [f"op {index}: check raised {type(exc).__name__}: {exc}"]
    return Sample(index, seconds, wl.keep(out), problems)


def run_for(wl, seconds: float, min_ops: int) -> list[Sample]:
    """Operations back to back until ``seconds`` have passed and ``min_ops`` ran."""
    samples = []
    start = time.perf_counter()
    while len(samples) < min_ops or time.perf_counter() - start < seconds:
        samples.append(run_one(wl, len(samples)))
    return samples


def add_final_problems(wl, samples) -> None:
    try:
        late = wl.final_problems(samples)
    except Exception as exc:  # noqa: BLE001 - reported against the first operation
        late = {0: [f"final check raised {type(exc).__name__}: {exc}"]}
    for s in samples:
        s.problems += [f"op {s.index}: {p}" for p in late.get(s.index, [])]


def timed_run(wl, seconds: float, min_ops: int) -> tuple[list[Sample], dict, dict]:
    samples = run_for(wl, seconds, min_ops)
    add_final_problems(wl, samples)
    e2e, own = wl.metrics(samples)
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliWorkload) else resource.RUSAGE_SELF
    e2e["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    return samples, {k: {"value": e2e[k], "unit": u} for k, u in E2E_METRICS.items()}, own


def traced_run(wl, ops: int) -> tuple[list[Sample], dict, list[str]]:
    """Each of ``ops`` operations untraced, then again traced; per-layer metrics.

    Alternating the two keeps host drift out of the overhead estimate.
    """
    cli = isinstance(wl, CliWorkload)
    tracer = Tracer()
    untraced, traced = [], []
    for i in range(ops):
        untraced.append(run_one(wl, i))
        if cli:
            wl.traced = True
            traced.append(run_one(wl, i))
            wl.traced = False
        else:
            with tracer:
                traced.append(run_one(wl, i))
    summary = merge_summaries(wl.child_summaries) if cli else tracer.summary()
    base = sum(s.seconds for s in untraced)
    overhead = sum(s.seconds for s in traced) - base
    extra = {
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / base if base else 0.0,
        "tomography.chi_from_lambda.3q_s": 0.0,
    }
    metrics = {name: {"value": layer_value(name, summary, extra), "unit": unit} for name, unit in LAYER_METRICS.items()}
    silent = [f"span {name} recorded no calls" for name in wl.expected_spans if span_stats(summary, name)["calls"] == 0]
    return untraced + traced, metrics, silent


def _blas(config) -> dict:
    blas = config["Build Dependencies"]["blas"]
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "package": Path(blas.get("include directory", "")).parent.name,
        "configuration": blas.get("openblas configuration"),
    }


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.__config__.CONFIG),
        "scipy_blas": _blas(scipy.__config__.CONFIG),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe-3q", action="store_true")
    args = parser.parse_args(argv)

    if args.probe_3q:
        print(json.dumps({"seconds": scale_probe_3q(args.seed)}))
        return 0
    workdir = args.root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = make_workload(args.workload, args.seed, args.root, workdir)
        wl.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            samples, metrics, problems = traced_run(wl, wl.trace_ops)
            own = {}
        else:
            samples, metrics, own = timed_run(wl, args.seconds, wl.min_ops)
            problems = []
        failed = sum(1 for s in samples if s.problems)
        print(json.dumps({
            "correct": failed == 0 and not problems,
            "attempted": len(samples),
            "failed": failed,
            "problems": problems + [p for s in samples for p in s.problems],
            "metrics": metrics,
            "own": {k: {"value": v, "unit": u} for k, (v, u) in own.items()},
            "env": environment(),
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
