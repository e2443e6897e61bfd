"""Command-line front end for the simulate / probe / synthesize / optimize pipeline.

Exit codes: 0 success, 1 other errors (numerical failures), 2 configuration
error (including non-finite numbers, unknown keys, values or sections of the
wrong type, and times or counts that ``_check_time`` or ``_check_count``
rejects), 3 tomography inconsistency, 4 optimizer budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .bb_synthesis import (
    StabilizerSpace,
    TargetSpec,
    check_encoded,
    solve_single_qubit_gate,
    solve_storage,
    solve_two_qubit,
)
from .errors import BBForgeError, DomainError, InconsistencyError
from .open_system_sim import (
    DensityMatrix,
    PulseGroup,
    SystemBathModel,
    _check_keys,
    _pairs_to_matrix,
    apply_bb_cycle,
    kraus_from_model,
    model_from_dict,
    reduced_state,
)
from .operator_algebra import CoordinateVector, _check_count, _check_time, build_pauli_basis
from .optimizer import LearningLoopConfig, _default_probe_time, learning_loop
from .serialization import dump_json, write_csv
from .tomography import chi_from_lambda, extract_generator, run_qpt

__all__ = ["ExperimentConfig", "main", "entry_point"]

# verify raises the one-cycle propagator to the cycle count, and round-off in that power grows with
# the count: 262144 cycles of a parity kick on one system and one bath qubit fail the unit-trace check.
MAX_VERIFY_CYCLES = 2**16


class ConfigError(BBForgeError):
    """Malformed or incomplete experiment configuration."""


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _finite_number(token: str) -> int | float:
    """A JSON number token as an int or a float; one beyond the float range, such as ``1e999`` or a 400-digit integer, fails."""
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"number {token} is not finite as a float")
    return int(token) if token.lstrip("-").isdigit() else x


def _read_json(path: Path, what: str):
    """Parse a JSON input file; malformed text and non-finite numbers are config errors."""
    try:
        return json.loads(path.read_text(), parse_constant=_reject_constant, parse_float=_finite_number, parse_int=_finite_number)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} parse failure at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _read_referenced(base: Path, value, what: str):
    """Parse the JSON file that a config entry names relative to ``base``."""
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a path string, got {value!r}")
    path = base / value
    if not path.exists():
        raise ConfigError(f"referenced {what} {value!r} does not exist")
    return _read_json(path, what)


def _config_check(check, *args):
    """``check(*args)``, with the ``DomainError`` of a bad config entry raised as a config error."""
    try:
        return check(*args)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _config_number(value, name: str, minimum: int | None = None):
    """A config time, which must be positive, or given ``minimum`` a count."""
    if minimum is None:
        return _config_check(_check_time, value, name, True)
    return _config_check(_check_count, value, name, minimum)


def _config_pair(pair, name: str, num_qubits: int) -> tuple[int, int]:
    """The qubits ``i < j < num_qubits`` a two-qubit target acts on, from a two-element list."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ConfigError(f"{name} must be a list of two qubit indices, got {pair!r}")
    i, j = (_config_number(q, name, 0) for q in pair)
    if not i < j < num_qubits:
        raise ConfigError(f"{name} needs qubits i < j < {num_qubits}, got {pair!r}")
    return i, j


_CONFIG_KEYS = frozenset({"model", "model_path", "probe_time", "initial_state", "target", "simulate", "synthesis", "verify", "loop"})


@dataclass
class ExperimentConfig:
    """Parsed experiment configuration."""

    model: SystemBathModel
    probe_time: float
    raw: dict
    base_dir: Path

    @classmethod
    def load(cls, path: str, probe_override: float | None = None) -> "ExperimentConfig":
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {path!r} does not exist")
        raw = _read_json(p, "config")
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        _config_check(_check_keys, raw, _CONFIG_KEYS, "config")
        if "model" in raw:
            model_data = raw["model"]
        elif "model_path" in raw:
            model_data = _read_referenced(p.parent, raw["model_path"], "model file")
        else:
            raise ConfigError("config needs a 'model' or 'model_path' entry")
        try:
            model = model_from_dict(model_data)
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError, BBForgeError) as exc:
            raise ConfigError(f"invalid model: {exc}") from exc
        probe = probe_override if probe_override is not None else raw.get("probe_time")
        probe = _config_number(_default_probe_time(model) if probe is None else probe, "probe_time")
        return cls(model=model, probe_time=probe, raw=raw, base_dir=p.parent)

    def section(self, name: str, keys) -> dict:
        """The config's ``name`` object, empty when absent; another JSON type or a key outside ``keys`` is a config error."""
        value = self.raw.get(name, {})
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be a JSON object, got {value!r}")
        _config_check(_check_keys, value, keys, name)
        return value

    def initial_state(self) -> DensityMatrix:
        if "initial_state" in self.raw:
            try:
                rho = DensityMatrix(_pairs_to_matrix(self.raw["initial_state"]))
            except (TypeError, ValueError, BBForgeError) as exc:
                raise ConfigError(f"invalid initial_state: {exc}") from exc
            if rho.dim != self.model.system_dim:
                raise ConfigError(f"initial_state must be {self.model.system_dim}x{self.model.system_dim}")
            return rho
        # default: |+> on every system qubit, the coherence-sensitive choice
        dim = self.model.system_dim
        psi = np.ones(dim, dtype=complex) / np.sqrt(dim)
        return DensityMatrix.from_state_vector(psi)

    def target(self) -> TargetSpec:
        t = self.section("target", {"kind", "wanted", "stabilizer"})
        try:
            kind = t.get("kind", "storage")
            wanted = np.asarray(t["wanted"], dtype=float) if "wanted" in t else None
            stabilizer = None
            if "stabilizer" in t:
                stabilizer = StabilizerSpace(
                    generators=tuple(_pairs_to_matrix(g) for g in t["stabilizer"])
                )
            return TargetSpec(kind=kind, wanted=wanted, stabilizer=stabilizer)
        except (BBForgeError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid target: {exc}") from exc

    def loop_config(self, seed_override: int | None = None) -> LearningLoopConfig:
        loop = dict(self.section("loop", {f.name for f in fields(LearningLoopConfig)}))
        if seed_override is not None:
            loop["seed"] = seed_override
        loop.setdefault("probe_time", self.probe_time)
        try:
            return LearningLoopConfig(**loop)
        except BBForgeError as exc:
            raise ConfigError(f"invalid loop settings: {exc}") from exc


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    ev = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.abs(ev).sum())


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = ExperimentConfig.load(args.config, args.probe_time)
    sim = cfg.section("simulate", {"time_max", "steps"})
    t_max = _config_number(sim.get("time_max", 1.0), "simulate.time_max")
    steps = _config_number(sim.get("steps", 50), "simulate.steps", 1)
    rho0 = cfg.initial_state()
    rows = []
    for k in range(steps + 1):
        t = t_max * k / steps
        rho_t = reduced_state(cfg.model, rho0, t)
        rows.append((t, _trace_distance(rho_t.matrix, rho0.matrix)))
    out = _out_dir(args)
    write_csv(out / "trajectory.csv", ["time", "trace_distance"], rows)
    print(f"wrote {out / 'trajectory.csv'} ({steps + 1} samples to t={t_max})")
    return 0


def _probe_chi(cfg: ExperimentConfig):
    basis = build_pauli_basis(cfg.model.num_qubits)
    kraus = kraus_from_model(cfg.model, cfg.probe_time)
    data = run_qpt(kraus.apply, basis, time_tag=cfg.probe_time)
    return chi_from_lambda(data)


def cmd_tomography(args) -> int:
    cfg = ExperimentConfig.load(args.config, args.probe_time)
    chi = _probe_chi(cfg)
    out = _out_dir(args)
    dump_json(chi.to_dict(), out / "chi.json")
    print(
        f"wrote {out / 'chi.json'} (t={cfg.probe_time}, "
        f"trace-preservation residual {chi.residual:.3e}, skew norm {chi.skew_norm:.3e})"
    )
    return 0


def cmd_synthesize(args) -> int:
    cfg = ExperimentConfig.load(args.config, args.probe_time)
    target = cfg.target()
    synth = cfg.section("synthesis", {"max_group_size", "delta_t", "ansatz", "qubit", "pair"})
    max_size = _config_number(synth.get("max_group_size", 8), "synthesis.max_group_size", 2)
    delta_t = _config_number(synth.get("delta_t", 0.1), "synthesis.delta_t")
    if synth.get("ansatz", "local_products") != "local_products":
        raise ConfigError(f"synthesis.ansatz must be 'local_products', got {synth['ansatz']!r}")
    chi = _probe_chi(cfg)
    gen = extract_generator(chi)
    if target.kind != "two_qubit":
        qubit = _config_number(synth.get("qubit", 0), "synthesis.qubit", 0)
        if qubit >= gen.num_qubits:
            raise ConfigError(f"synthesis.qubit {qubit} is outside the {gen.num_qubits}-qubit system")
        stabilizer = target.stabilizer.generators if target.stabilizer else ()
        if not (target.wanted is None or target.wanted.shape == (3,)) or any(g.shape != (2, 2) for g in stabilizer):
            raise ConfigError(f"a {target.kind} target is solved on one qubit: 'wanted' is a 3-vector, stabilizers are 2x2")
    if target.kind in ("storage", "encoded"):
        # an annihilated generator lies in every stabilizer span
        result = solve_storage(gen, qubit, max_size, delta_t=delta_t)
    elif target.kind == "single_qubit":
        result = solve_single_qubit_gate(gen, target, qubit, max_size, delta_t=delta_t)
    else:
        pair = _config_pair(synth.get("pair", [0, 1]), "synthesis.pair", gen.num_qubits)
        result = solve_two_qubit(gen, target, pair, max_group_size=max_size, delta_t=delta_t)
    payload = result.to_dict()
    if target.stabilizer is not None and target.kind != "two_qubit":
        error = result.residual.error_vector
        solved_for = target.wanted_vector() if target.kind == "single_qubit" else 0.0
        enc = check_encoded(CoordinateVector(np.asarray(error.coords) + solved_for, error.basis), target)
        payload["stabilizer_distance"] = enc.stabilizer_distance
    out = _out_dir(args)
    dump_json(payload, out / "synthesis.json")
    print(f"pulse set of size {result.group.size}, cycle time {result.group.cycle_time}")
    for entry in payload["axis_angles"][1:]:
        if entry is not None:
            ax = ", ".join(f"{x:+.6f}" for x in entry["axis"])
            print(f"  pulse: axis ({ax}), angle {entry['angle']:+.6f} rad")
    print(f"residual distance {result.residual.scalar_distance:.3e}; {result.free_parameters}")
    print(f"wrote {out / 'synthesis.json'}")
    return 0


def _group_from_payload(data: dict, delta_t: float | None, dim: int) -> PulseGroup:
    """The verify group from a group object, its ``delta_t`` (0.1 when absent) replaced by ``verify.delta_t``."""
    try:
        group = PulseGroup.from_dict({"delta_t": 0.1, **data} if delta_t is None else {**data, "delta_t": delta_t})
    except (KeyError, TypeError, ValueError, BBForgeError) as exc:
        raise ConfigError(f"invalid verify group: {exc!r}") from exc
    if group.dim != dim:
        raise ConfigError(f"verify group pulses are {group.dim}x{group.dim}, the system is {dim}x{dim}")
    return group


def cmd_verify(args) -> int:
    cfg = ExperimentConfig.load(args.config, args.probe_time)
    ver = cfg.section("verify", {"group_path", "group", "delta_t", "total_time"})
    if "group_path" in ver:
        group_data = _read_referenced(cfg.base_dir, ver["group_path"], "group file")
    elif "group" in ver:
        group_data = ver["group"]
    else:
        raise ConfigError("verify needs 'group_path' or an inline 'group'")
    group = _group_from_payload(group_data, ver.get("delta_t"), cfg.model.system_dim)
    total_time = _config_number(ver.get("total_time", 1.0), "verify.total_time")
    cycles = max(1, round(_config_number(total_time / group.cycle_time, "verify.total_time / cycle time")))
    if cycles > MAX_VERIFY_CYCLES:
        raise ConfigError(f"verify.total_time / cycle time is {cycles} cycles, above the cap of {MAX_VERIFY_CYCLES}")
    rho0 = cfg.initial_state()
    pulsed = apply_bb_cycle(cfg.model, group, cycles, rho0)
    horizon = cycles * group.cycle_time
    plain = reduced_state(cfg.model, rho0, horizon)
    err_pulsed = _trace_distance(pulsed.matrix, rho0.matrix)
    err_plain = _trace_distance(plain.matrix, rho0.matrix)
    report = {
        "horizon": horizon,
        "cycles": cycles,
        "unpulsed_error": err_plain,
        "pulsed_error": err_pulsed,
        "improvement_factor": err_plain / err_pulsed if err_pulsed > 0 else None,
    }
    out = _out_dir(args)
    dump_json(report, out / "verify.json")
    print(
        f"unpulsed error {err_plain:.3e}, pulsed error {err_pulsed:.3e} "
        f"over {cycles} cycles (t={horizon})"
    )
    return 0


def cmd_optimize(args) -> int:
    cfg = ExperimentConfig.load(args.config, args.probe_time)
    target = cfg.target()
    if target.kind == "two_qubit":
        _config_pair([0, 1], "the loop's two-qubit target", cfg.model.num_qubits)  # the loop solves on qubits 0 and 1
    loop_cfg = cfg.loop_config(args.seed)
    best, records = learning_loop(cfg.model, target, loop_cfg)
    out = _out_dir(args)
    rows = [
        (r.generation, r.best_cost, r.mean_cost, r.best_group.size, r.converged)
        for r in records
    ]
    write_csv(out / "generations.csv", ["generation", "best_J", "mean_J", "group_size", "converged"], rows)
    best_payload = {
        **best.to_dict(),
        "best_cost": records[-1].best_cost,
        "converged": records[-1].converged,
        "generations": len(records),
    }
    dump_json(best_payload, out / "best_group.json")
    print(
        f"{'converged' if records[-1].converged else 'budget exhausted'} after "
        f"{len(records)} generations; best J {records[-1].best_cost:.3e}"
    )
    print(f"wrote {out / 'generations.csv'} and {out / 'best_group.json'}")
    return 0 if records[-1].converged else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bbforge",
        description="Determine decoupling pulse sequences from simulated process tomography data.",
    )
    parser.add_argument("--config", required=True, help="experiment configuration JSON")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the loop RNG seed")
    parser.add_argument("--probe-time", type=float, default=None, help="override the tomography probe time")
    parser.add_argument(
        "command",
        choices=["simulate", "tomography", "synthesize", "verify", "optimize"],
        help="pipeline stage to run",
    )
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "tomography": cmd_tomography,
        "synthesize": cmd_synthesize,
        "verify": cmd_verify,
        "optimize": cmd_optimize,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"tomography inconsistency: {exc}", file=sys.stderr)
        return 3
    except BBForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
