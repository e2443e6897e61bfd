"""bbforge benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a bbforge checkout::

    python3 perfbench/run.py --workload loop-1q --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` a
separate traced run prints the per-layer metrics.  The measured processes
run with the OpenBLAS, OpenMP and MKL pools at one thread each and with
``BBFORGE_THREADS`` unset.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the environment, the workload's own named metrics and any
failed checks.  This launcher uses the standard library only, so it can
pin the thread pools before numpy loads in the measured processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("loop-1q", "loop-2q", "pipeline-2q", "cli-cold")
# Set-up is sampled this many times per untraced run; setup_s is the median.
SETUP_RUNS = 3
# Everything, the 3-qubit probe included, must end inside this budget.
BUDGET_S = 170.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The traced run of this workload also times the 3-qubit chi inversion.
SCALE_PROBE_WORKLOAD = "pipeline-2q"
KNOWN_FINDINGS = (
    "chi.json bytes differ between the default and the one-thread BLAS pools; "
    "they are stable within each setting.",
)


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(self.end - time.monotonic(), 0.0)


def pinned_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BBFORGE_THREADS"}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(cmd, env, root: Path, deadline: Deadline) -> tuple[float | None, list[str], int]:
    """Run a child to completion; returns (seconds to READY, other lines, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    killer = threading.Timer(deadline.left(), proc.kill)
    killer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, lines, proc.returncode


def timed_exit(cmd, env, root: Path, deadline: Deadline) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=root, check=True, timeout=deadline.left(), stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "bbforge").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bbforge" / "__init__.py").is_file():
        print("perfbench: run from the root of a bbforge checkout (no src/bbforge here)", file=sys.stderr)
        return 2
    env = pinned_env(root)
    deadline = Deadline(BUDGET_S)
    worker = [
        sys.executable, str(HERE / "worker.py"), "--root", str(root),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]

    setup = []
    if not args.trace:
        if args.workload == "cli-cold":
            probe = [sys.executable, "-c", "import bbforge.cli"]
            setup = [timed_exit(probe, env, root, deadline) for _ in range(SETUP_RUNS)]
        else:
            for _ in range(SETUP_RUNS - 1):
                ready, _, code = run_child(worker + ["--setup-only"], env, root, deadline)
                if ready is None or code != 0:
                    print(f"perfbench: set-up run failed (exit {code})", file=sys.stderr)
                    return 1
                setup.append(ready)

    ready, lines, code = run_child(worker, env, root, deadline)
    if code != 0 or not lines:
        print(f"perfbench: worker failed (exit {code})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace and args.workload != "cli-cold":
        setup.append(ready)

    metrics = result["metrics"]
    problems = result["problems"]
    correct = result["correct"]
    if args.trace and args.workload == SCALE_PROBE_WORKLOAD:
        _, lines, code = run_child(worker + ["--probe-3q"], env, root, deadline)
        if code == 0 and lines:
            metrics["tomography.chi_from_lambda.3q_s"]["value"] = json.loads(lines[-1])["seconds"]
        else:
            problems.append(f"3-qubit probe did not finish inside the {BUDGET_S:g} s budget")
            correct = False
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup,
        "workload_metrics": {
            "failed_frac": {"value": result["failed"] / result["attempted"], "unit": "ratio"},
            **result["own"],
        },
        "problems": problems[:50],
        "env": {**result["env"], "commit": commit(root), "source_sha256": source_digest(root)},
        "known_findings": KNOWN_FINDINGS,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
