"""Seeded inputs, timed operations and output checks for each workload.

Every input is drawn from ``numpy.random.default_rng([seed, index])``, so a
run's inputs depend only on the workload seed and the operation's index.
Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Package functions are reached through
their modules (``optimizer.learning_loop``) so a traced run sees the calls.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from bbforge import bb_synthesis, operator_algebra, optimizer, tomography
from bbforge import open_system_sim as sim

from checks import (
    artifact_problems,
    chi_problems,
    cost_digest,
    digest_problems,
    loop_problems,
    synthesis_problems,
)

HERE = Path(__file__).resolve().parent
WARMUP_INDEX = 2**31 - 1

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# Spans every traced run of a workload must see at least once.
LOOP_SPANS = (
    "optimizer.learning_loop",
    "optimizer.evaluate_cost",
    "tomography.run_qpt",
    "tomography.chi_from_lambda",
    "tomography.extract_generator",
    "open_system_sim.propagate",
    "open_system_sim.bb_propagator",
    "open_system_sim.kraus_from_model",
    "open_system_sim.PulseGroup",
    "operator_algebra.build_pauli_basis",
    "operator_algebra.adjoint_of",
    "bb_synthesis.error_report",
)
PIPELINE_SPANS = (
    "open_system_sim.kraus_from_model",
    "tomography.run_qpt",
    "tomography.chi_from_lambda",
    "tomography.extract_generator",
    "bb_synthesis.solve_two_qubit",
    "open_system_sim.apply_bb_cycle",
    "open_system_sim.reduced_state",
    "open_system_sim.propagate",
    "open_system_sim.PulseGroup",
    "operator_algebra.build_pauli_basis",
    "operator_algebra.adjoint_of",
)
CLI_SPANS = PIPELINE_SPANS + (
    "optimizer.learning_loop",
    "optimizer.evaluate_cost",
    "serialization.dump_json",
    "serialization.write_csv",
    "cli.import",
) + tuple(f"cli.{c}" for c in ("simulate", "tomography", "synthesize", "verify", "optimize"))


@dataclass
class Sample:
    """One timed operation: its index, wall seconds, output (None if it raised)."""

    index: int
    seconds: float
    out: object
    problems: list


def _hermitian(rng, dim: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    return norm * h / np.linalg.norm(h, 2)


def _density(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _on_qubit(op: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    return np.kron(np.kron(np.eye(2**qubit), op), np.eye(2 ** (num_qubits - qubit - 1)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def dephasing_model(rng):
    """Two system qubits and one bath qubit: local Z dephasing plus Z(x)X couplings."""
    g1, g2 = rng.uniform(0.1, 0.5, size=2)
    c1, c2 = rng.uniform(0.05, 0.3, size=2)
    omega = rng.uniform(0.5, 1.5)
    phase = rng.uniform(0, 2 * np.pi)
    bath_state = np.array([1.0, np.exp(1j * phase)]) / np.sqrt(2.0)
    return sim.SystemBathModel(
        system_hamiltonian=g1 * _on_qubit(SZ, 0, 2) + g2 * _on_qubit(SZ, 1, 2),
        bath_hamiltonian=omega / 2 * SZ,
        couplings=(
            sim.Coupling(system=c1 * _on_qubit(SZ, 0, 2), bath=SX, name="z1x"),
            sim.Coupling(system=c2 * _on_qubit(SZ, 1, 2), bath=SX, name="z2x"),
        ),
        bath_initial=np.outer(bath_state, bath_state.conj()),
    )


class Workload:
    """One operation type, run repeatedly on seeded inputs.

    ``min_ops``: a timed run does at least this many operations.
    ``trace_ops``: the traced run does exactly this many, so its counts are
    comparable between commits.
    """

    name = ""
    expected_spans: tuple[str, ...] = ()
    min_ops = 1
    trace_ops = 1

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, index: int):
        return np.random.default_rng([self.seed, index])

    def warm_up(self) -> None:
        pass

    def make_input(self, index: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, index: int, inp, out) -> list[str]:
        return []

    def keep(self, out):
        """What a sample retains of an output once it is checked."""
        return out

    def final_problems(self, samples) -> dict[int, list[str]]:
        """Checks that need the whole run; maps operation index to problems."""
        return {}

    def metrics(self, samples) -> tuple[dict, dict]:
        """(throughput_per_s, latency_ms_p50) and the workload's own named metrics."""
        raise NotImplementedError


class LoopWorkload(Workload):
    """``learning_loop`` with a storage target at a fixed budget, tolerance 0."""

    expected_spans = LOOP_SPANS
    population = 16

    def __init__(self, name: str, seed: int, system_qubits: int, bath_qubits: int, generations: int, trace_ops: int):
        super().__init__(seed)
        self.name = name
        self.system_qubits = system_qubits
        self.bath_qubits = bath_qubits
        self.generations = generations
        self.trace_ops = trace_ops

    def make_input(self, index: int, generations: int | None = None):
        rng = self.rng(index)
        ns, nb = 2**self.system_qubits, 2**self.bath_qubits
        couplings = tuple(
            sim.Coupling(
                system=_on_qubit(pauli, q, self.system_qubits),
                bath=_hermitian(rng, nb, 0.3 * rng.uniform(0.5, 1.5)),
                name=f"q{q}{axis}",
            )
            for q in range(self.system_qubits)
            for axis, pauli in zip("xyz", (SX, SY, SZ))
        )
        model = sim.SystemBathModel(
            system_hamiltonian=_hermitian(rng, ns, 0.5),
            bath_hamiltonian=_hermitian(rng, nb, 1.0),
            couplings=couplings,
            bath_initial=_density(rng, nb),
        )
        config = optimizer.LearningLoopConfig(
            population=self.population,
            generations=generations or self.generations,
            tolerance=0.0,
            seed=int(rng.integers(2**31)),
        )
        return model, config

    def warm_up(self) -> None:
        self.run(self.make_input(WARMUP_INDEX, generations=1))

    def run(self, inp):
        model, config = inp
        _, records = optimizer.learning_loop(model, bb_synthesis.TargetSpec(kind="storage"), config)
        return [r.best_cost for r in records]

    def check(self, index, inp, out) -> list[str]:
        return loop_problems(out, inp[1].generations)

    def final_problems(self, samples) -> dict[int, list[str]]:
        first = next((s for s in samples if s.index == 0 and s.out is not None), None)
        if first is None:
            return {}
        again = self.run(self.make_input(0))
        if cost_digest(again) != cost_digest(first.out):
            return {0: ["same seed gave a different best-cost sequence digest"]}
        return {}

    def metrics(self, samples):
        ok = [s for s in samples if s.out is not None]
        seconds = [s.seconds for s in ok]
        evals = self.population * sum(len(s.out) for s in ok)
        throughput = evals / sum(seconds) if ok else 0.0
        first = next((s.out[-1] for s in ok if s.index == 0), None)
        e2e = {"throughput_per_s": throughput, "latency_ms_p50": statistics.median(seconds) * 1e3 if ok else 0.0}
        own = {"evals_per_s": (throughput, "1/s"), "best_cost": (first, "1"), "loops": (len(ok), "count")}
        return e2e, own


class PipelineWorkload(Workload):
    """The two-qubit worked example: probe, invert, extract, solve, verify."""

    name = "pipeline-2q"
    expected_spans = PIPELINE_SPANS
    min_ops = 100
    trace_ops = 50
    probe_time = 0.01
    delta_t = 0.05
    horizon = 2.0
    max_group_size = 4

    def make_input(self, index: int):
        rng = self.rng(index)
        model = dephasing_model(rng)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        states = [_density(rng, 4) for _ in range(3)]
        return model, sim.DensityMatrix.from_state_vector(psi), states

    def warm_up(self) -> None:
        self.run(self.make_input(WARMUP_INDEX))

    def run(self, inp):
        model, rho0, _ = inp
        basis = operator_algebra.build_pauli_basis(2)
        kraus = sim.kraus_from_model(model, self.probe_time)
        chi = tomography.chi_from_lambda(tomography.run_qpt(kraus.apply, basis, time_tag=self.probe_time))
        generator = tomography.extract_generator(chi)
        target = bb_synthesis.TargetSpec(kind="two_qubit", wanted=np.eye(3))
        result = bb_synthesis.solve_two_qubit(
            generator, target, ansatz="local_products", max_group_size=self.max_group_size, delta_t=self.delta_t
        )
        cycles = max(1, round(self.horizon / result.group.cycle_time))
        pulsed = sim.apply_bb_cycle(model, result.group, cycles, rho0)
        plain = sim.reduced_state(model, rho0, cycles * result.group.cycle_time)
        return {
            "kraus": kraus,
            "chi": chi,
            "result": result,
            "pulsed_error": trace_distance(pulsed.matrix, rho0.matrix),
            "unpulsed_error": trace_distance(plain.matrix, rho0.matrix),
        }

    def check(self, index, inp, out) -> list[str]:
        return chi_problems(out["chi"].apply, out["kraus"].apply, inp[2]) + synthesis_problems(
            out["result"].mode,
            out["result"].residual.scalar_distance,
            out["pulsed_error"],
            out["unpulsed_error"],
        )

    def keep(self, out):
        return out["pulsed_error"]

    def metrics(self, samples):
        ok = [s for s in samples if s.out is not None]
        ms = [s.seconds * 1e3 for s in ok]
        throughput = len(ok) / (sum(ms) / 1e3) if ok else 0.0
        p50 = statistics.median(ms) if ok else 0.0
        p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) >= 2 else p50
        e2e = {"throughput_per_s": throughput, "latency_ms_p50": p50}
        own = {
            "models_per_s": (throughput, "1/s"),
            "pipeline_ms_p50": (p50, "ms"),
            "pipeline_ms_p90": (p90, "ms"),
            "pulsed_error_p50": (statistics.median(s.out for s in ok) if ok else 0.0, "1"),
            "models": (len(ok), "count"),
        }
        return e2e, own


SUBCOMMANDS = ("simulate", "tomography", "synthesize", "verify", "optimize")
ARTIFACTS = {
    "simulate": ("trajectory.csv",),
    "tomography": ("chi.json",),
    "synthesize": ("synthesis.json",),
    "verify": ("verify.json",),
    "optimize": ("generations.csv", "best_group.json"),
}
# optimize's documented exit code when the loop budget runs out.
EXIT_BUDGET_EXHAUSTED = 4


def _pairs(m) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


class CliWorkload(Workload):
    """Fresh-process ``bbforge`` invocations: five subcommands on two configs.

    One operation is one invocation and a pass is all ten.  A timed run
    makes at least two passes, so every artifact is written twice.
    """

    name = "cli-cold"
    expected_spans = CLI_SPANS
    min_ops = 4 * len(SUBCOMMANDS)
    trace_ops = 2 * len(SUBCOMMANDS)

    def __init__(self, seed: int, root: Path, workdir: Path):
        super().__init__(seed)
        self.workdir = Path(workdir)
        self.env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
        self.traced = False
        self.child_summaries: list[dict] = []
        self.first_digests: dict = {}
        rng = self.rng(0)
        self.configs = {
            "storage-1q": self._write_config("storage-1q", self._storage_config(rng)),
            "heisenberg-2q": self._write_config("heisenberg-2q", self._heisenberg_config(rng)),
        }
        self.commands = [(c, sub) for c in self.configs for sub in SUBCOMMANDS]

    @staticmethod
    def _storage_config(rng) -> dict:
        g, c, omega = rng.uniform(0.3, 1.0), rng.uniform(0.05, 0.2), rng.uniform(0.5, 1.5)
        return {
            "model": {
                "system_hamiltonian": _pairs(g / 2 * SZ),
                "bath_hamiltonian": _pairs(omega / 2 * SZ),
                "couplings": [{"name": "zx", "system": _pairs(c * SZ), "bath": _pairs(SX)}],
                "bath_initial": _pairs(np.outer([1, 1j], [1, -1j]) / 2),
            },
            "probe_time": 0.01,
            "target": {"kind": "storage"},
            "simulate": {"time_max": 1.0, "steps": 20},
            "synthesis": {"max_group_size": 4, "delta_t": 0.05},
            "verify": {"group_path": "out/synthesis.json", "total_time": 1.0},
            "loop": {"population": 8, "generations": 3, "tolerance": 0.0, "seed": int(rng.integers(2**31))},
        }

    @staticmethod
    def _heisenberg_config(rng) -> dict:
        return {
            "model": sim.model_to_dict(dephasing_model(rng)),
            "probe_time": 0.01,
            "target": {"kind": "two_qubit", "wanted": np.eye(3).tolist()},
            "simulate": {"time_max": 1.0, "steps": 20},
            "synthesis": {"max_group_size": 4, "delta_t": 0.05},
            "verify": {"group_path": "out/synthesis.json", "total_time": 1.0},
            "loop": {"population": 6, "generations": 2, "tolerance": 0.0, "seed": int(rng.integers(2**31))},
        }

    def _write_config(self, name: str, config: dict) -> Path:
        directory = self.workdir / name
        (directory / "out").mkdir(parents=True, exist_ok=True)
        path = directory / "config.json"
        path.write_text(json.dumps(config, indent=1))
        return path

    def make_input(self, index: int):
        config, sub = self.commands[index % len(self.commands)]
        out = self.configs[config].parent / "out"
        for artifact in ARTIFACTS[sub]:
            (out / artifact).unlink(missing_ok=True)
        args = ["--config", str(self.configs[config]), "--out", str(out), sub]
        if self.traced:
            summary = self.workdir / f"trace-{index}.json"
            return config, sub, [sys.executable, str(HERE / "cli_traced.py"), str(summary), *args], summary
        return config, sub, [sys.executable, "-m", "bbforge.cli", *args], None

    def run(self, inp):
        _, _, cmd, _ = inp
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stderr

    def check(self, index, inp, out) -> list[str]:
        config, sub, _, summary = inp
        code, stderr = out
        allowed = (0, EXIT_BUDGET_EXHAUSTED) if sub == "optimize" else (0,)
        if code not in allowed:
            return [f"{config} {sub} exited {code}: {stderr.strip()[-300:]}"]
        problems = []
        if summary is not None:
            self.child_summaries.append(json.loads(summary.read_text()))
            summary.unlink()
        out_dir = self.configs[config].parent / "out"
        for artifact in ARTIFACTS[sub]:
            path = out_dir / artifact
            if not path.is_file():
                problems.append(f"{config} {sub} wrote no {artifact}")
                continue
            data = path.read_bytes()
            problems += artifact_problems(artifact, data)
            problems += digest_problems(f"{config}/{artifact}", data, self.first_digests)
        return problems

    def metrics(self, samples):
        ok = [s for s in samples if s.out is not None]
        seconds = [s.seconds for s in ok]
        size = len(self.commands)
        passes = [samples[i : i + size] for i in range(0, len(samples) - size + 1, size)]
        pass_s = [sum(s.seconds for s in p) for p in passes]
        p50 = statistics.median(seconds) if ok else 0.0
        throughput = len(ok) / sum(seconds) if ok else 0.0
        e2e = {"throughput_per_s": throughput, "latency_ms_p50": p50 * 1e3}
        own = {
            "cli_s_p50": (p50, "s"),
            "cli_pass_s": (statistics.median(pass_s) if pass_s else 0.0, "s"),
            "invocations": (len(ok), "count"),
        }
        return e2e, own


def make_workload(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    if name == "loop-1q":
        return LoopWorkload(name, seed, system_qubits=1, bath_qubits=2, generations=20, trace_ops=8)
    if name == "loop-2q":
        return LoopWorkload(name, seed, system_qubits=2, bath_qubits=1, generations=3, trace_ops=4)
    if name == "pipeline-2q":
        return PipelineWorkload(seed)
    if name == "cli-cold":
        return CliWorkload(seed, root, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("loop-1q", "loop-2q", "pipeline-2q", "cli-cold")


def scale_probe_3q(seed: int) -> float:
    """Seconds for one 3-qubit ``run_qpt`` plus ``chi_from_lambda``."""
    rng = np.random.default_rng([seed, 3])
    model = sim.SystemBathModel(system_hamiltonian=_hermitian(rng, 8, 1.0), bath_hamiltonian=np.zeros((1, 1)))
    basis = operator_algebra.build_pauli_basis(3)
    channel = sim.kraus_from_model(model, 0.01).apply
    start = time.perf_counter()
    tomography.chi_from_lambda(tomography.run_qpt(channel, basis, time_tag=0.01))
    return time.perf_counter() - start
