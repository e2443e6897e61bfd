"""Offline learning loop: simulate, probe, analyze, re-synthesize, repeat.

Each pass simulates the pulsed evolution, runs process tomography on the
resulting channel, extracts the residual short-time generator, and feeds it
back: the closed-form solvers produce an improved candidate that seeds the
next generation of a small genetic search over pulse parameters.  The cost
being minimized is the time integral of the deviation between the achieved
and wanted generators over a fixed horizon of pulse cycles.
"""

from __future__ import annotations

import operator
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bb_synthesis import (
    ErrorReport,
    TargetSpec,
    _dim4_catalogue,
    _group_from_axis_angles,
    _kick_pulses,
    _product_group,
    _report,
    axis_orthogonal_to,
    solve_single_qubit_gate,
    solve_two_qubit,
)
from .errors import DomainError, InfeasibleError, ShapeError
from .open_system_sim import PulseGroup, SystemBathModel, _reduced_channel, bb_propagator, kraus_from_model
from .operator_algebra import (
    _first_significant,
    _flat_coords,
    _polar,
    adjoint_of,
    axis_angle_unitary,
    build_pauli_basis,
    unitary_from_rotation,
)
from .tomography import chi_from_lambda, extract_generator, run_qpt

__all__ = [
    "CostFunction",
    "LearningLoopConfig",
    "GenerationRecord",
    "evaluate_cost",
    "learning_loop",
    "enumerate_candidate_groups",
    "axis_grid",
]

# GA internals: values sized for second-scale desk runs.
_TOURNAMENT = 3
_ELITE = 2
_MUTATION_SIGMA = 0.1


def _integer_fields(obj, **minimum) -> None:
    """Store each named field of frozen ``obj`` as an int no less than its minimum."""
    for name, low in minimum.items():
        try:
            value = operator.index(getattr(obj, name))
        except TypeError:
            raise DomainError(f"{name} must be an integer") from None
        if value < low:
            raise DomainError(f"{name} must be >= {low}")
        object.__setattr__(obj, name, value)


def _check_positive_time(value, name: str) -> None:
    try:
        ok = 0 < value <= sys.float_info.max  # also false for NaN and ints beyond the float range
    except TypeError:
        ok = False
    if not ok:
        raise DomainError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class CostFunction:
    """Deviation-from-target integral over a horizon of pulse cycles."""

    target: TargetSpec
    cycles: int
    quadrature: int = 1

    def __post_init__(self):
        _integer_fields(self, cycles=1, quadrature=1)


@dataclass(frozen=True)
class LearningLoopConfig:
    """Knobs for the learning loop.

    ``detection_floor`` mimics the experimental situation where a weak error
    is invisible next to a dominant one: generator components below this
    fraction of the largest are ignored by the analysis step until the
    dominant error has been removed.
    """

    population: int = 32
    generations: int = 20
    mutation_rate: float = 0.3
    tolerance: float = 1e-6
    seed: int = 0
    group_size_bound: int = 4
    delta_t: float = 0.05
    cycles: int = 2
    quadrature: int = 1
    probe_time: float | None = None
    detection_floor: float = 0.1

    def __post_init__(self):
        _integer_fields(self, population=2, generations=1, seed=0, group_size_bound=2, cycles=1, quadrature=1)
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise DomainError("mutation_rate must be a probability")
        if not self.tolerance >= 0.0:
            raise DomainError("tolerance must be non-negative")
        if not 0.0 <= self.detection_floor <= 1.0:
            raise DomainError("detection_floor must be a fraction")
        _check_positive_time(self.delta_t, "delta_t")
        if self.probe_time is not None:
            _check_positive_time(self.probe_time, "probe_time")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_cost: float
    best_group: PulseGroup
    mean_cost: float
    residual: ErrorReport
    converged: bool


def _target_flat(target: TargetSpec, basis) -> np.ndarray:
    """Wanted generator coordinates over the flat basis ordering."""
    if target.kind == "two_qubit":
        return _flat_coords(basis, (), {(0, 1): target.wanted_vector()})
    if target.kind == "storage" or target.wanted is None:
        return _flat_coords(basis)
    if target.wanted.shape != (3,):
        raise ShapeError("unsupported encoded target shape for cost evaluation")
    return _flat_coords(basis, (target.wanted,))


def _probe_generator(channel, basis, t: float):
    """Process tomography of ``channel`` at time ``t``; the extracted generator.

    The first-order-extraction warning is silenced for every probe the
    learning loop makes.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return extract_generator(chi_from_lambda(run_qpt(channel, basis, time_tag=t)))


def _generator_report(gen, w_flat: np.ndarray, basis) -> ErrorReport:
    """Deviation of a measured generator from flat wanted coordinates."""
    return _report(_flat_coords(basis, gen.xi, gen.xi_pair), w_flat, basis)


def evaluate_cost(model: SystemBathModel, group: PulseGroup, cost: CostFunction) -> float:
    """Integrated deviation between achieved and wanted generators.

    At each quadrature node the pulsed channel up to that time is probed by
    full process tomography, the short-time generator is extracted in rate
    units, and the integrand is the trace-norm distance to the wanted
    generator.  Node values below 1e-10 are treated as exact hits so that a
    perfect pulse set reports a cost of exactly zero.
    """
    if group.dim != model.system_dim:
        raise ShapeError("pulse dimension does not match the model")
    basis = build_pauli_basis(model.num_qubits)
    tc = group.cycle_time
    if tc <= 0:
        raise DomainError("cost evaluation needs delta_t > 0")
    w_flat = _target_flat(cost.target, basis)
    times, values = [0.0], [None]
    for m in range(1, cost.cycles + 1):
        for sub in range(1, cost.quadrature + 1):
            t = (m - 1 + sub / cost.quadrature) * tc
            gen = _probe_generator(_reduced_channel(model, bb_propagator(model, group, t)), basis, t)
            d = _generator_report(gen, w_flat, basis).scalar_distance
            times.append(t)
            values.append(0.0 if d < 1e-10 else d)
    values[0] = values[1]
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(values, times))


# ---------------------------------------------------------------------------
# Candidate catalogue
# ---------------------------------------------------------------------------


def axis_grid() -> np.ndarray:
    """The default 26-direction axis grid (all sign/zero patterns, normalized)."""
    dirs = []
    for i in (1, 0, -1):
        for j in (1, 0, -1):
            for k in (1, 0, -1):
                if (i, j, k) == (0, 0, 0):
                    continue
                dirs.append(np.array([i, j, k], dtype=float))
    coord_first = sorted(
        dirs,
        key=lambda v: (np.count_nonzero(v) != 1, -_first_significant(v), tuple(-v)),
    )
    return np.array([v / np.linalg.norm(v) for v in coord_first])


def _dim2_genomes(max_size: int) -> list[list[tuple[np.ndarray, float]]]:
    genomes = []
    for axis in axis_grid():
        genomes.append([(axis, np.pi / 2)])
    for m in range(3, max_size + 1):
        for e in np.eye(3):
            genomes.append([(e, np.pi * step / m) for step in range(1, m)])
    if max_size >= 4:
        genomes.append(
            [(np.array([1.0, 0, 0]), np.pi / 2),
             (np.array([0, 1.0, 0]), np.pi / 2),
             (np.array([0, 0, 1.0]), np.pi / 2)]
        )
    return genomes


def enumerate_candidate_groups(dim: int, max_size: int, *, delta_t: float = 0.0) -> list[PulseGroup]:
    """Catalogue of discrete candidate pulse sets with g_0 = I.

    For single qubits: parity-kick pairs over the 26-direction axis grid,
    cyclic sets generated by ``exp(i n.sigma pi/m)`` about the coordinate
    axes, and the Pauli set.  For two qubits: local tensor products of the
    same families.  Every skeleton has a closed adjoint image.
    """
    if max_size < 2:
        raise DomainError("max_size must be >= 2")
    if dim == 2:
        return [_group_from_axis_angles(g, delta_t) for g in _dim2_genomes(max_size)]
    if dim == 4:
        return _dim4_catalogue(max_size, delta_t)
    raise ShapeError("catalogue supports dim 2 and 4")


# ---------------------------------------------------------------------------
# Learning loop
# ---------------------------------------------------------------------------


def _measure_generator(model: SystemBathModel, group: PulseGroup | None, probe: float, basis):
    """QPT of the (optionally pulsed) evolution; returns the extracted generator."""
    if group is None or group.size == 1:
        return _probe_generator(kraus_from_model(model, probe).apply, basis, probe)
    t = group.cycle_time
    return _probe_generator(_reduced_channel(model, bb_propagator(model, group, t)), basis, t)


def _mask_detected(vec: np.ndarray, floor: float) -> np.ndarray:
    scale = np.abs(vec).max()
    if scale <= 0:
        return np.zeros_like(vec)
    out = np.where(np.abs(vec) >= floor * scale, vec, 0.0)
    return out


@dataclass
class _AnalysisState:
    history: dict = field(default_factory=dict)  # qubit -> list of detected vectors


def _analysis_candidate(model, target, config, state: _AnalysisState, current_best, basis):
    """One analyze pass: measure under the current pulses, re-solve, propose."""
    gen = _measure_generator(model, current_best, _auto_probe(model, config), basis)
    nq = gen.num_qubits
    try:
        if target.kind == "storage":
            per_qubit = []
            for i in range(nq):
                detected = _mask_detected(gen.xi[i], config.detection_floor)
                if np.linalg.norm(detected) > 1e-9:
                    state.history.setdefault(i, []).append(detected)
                hist = state.history.get(i, [])
                if not hist:
                    per_qubit.append([np.eye(2, dtype=complex)])
                    continue
                axis = axis_orthogonal_to(hist)
                if axis is None:
                    pulses = [np.eye(2, dtype=complex)] + [axis_angle_unitary(e, np.pi / 2) for e in np.eye(3)]
                else:
                    pulses = _kick_pulses(axis)
                per_qubit.append(pulses)
            return _product_group(per_qubit, config.delta_t)
        if target.kind == "single_qubit":
            res = solve_single_qubit_gate(gen, target, 0, config.group_size_bound, delta_t=config.delta_t)
            return res.group
        if target.kind == "two_qubit":
            res = solve_two_qubit(gen, target, (0, 1), max_group_size=config.group_size_bound, delta_t=config.delta_t)
            return res.group
    except InfeasibleError:
        return None
    return None


def _default_probe_time(model: SystemBathModel) -> float:
    """Probe time short against the model's fastest rate: ``0.01 / max(||H||_2, 1)``."""
    return 0.01 / max(np.linalg.norm(model.total_hamiltonian, 2), 1.0)


def _auto_probe(model: SystemBathModel, config: LearningLoopConfig) -> float:
    return config.probe_time if config.probe_time is not None else _default_probe_time(model)


def _group_to_genome(group: PulseGroup):
    """Genome of a pulse group, or None when a pulse is not a local product.

    One entry per pulse after the identity, each a tuple of per-qubit
    ``(axis, angle)`` pairs, qubit 0 first.  Each factor goes through its
    adjoint rotation, so its global phase does not reach the genome.
    """
    basis1 = build_pauli_basis(1)
    genome = []
    for p in group.pulses[1:]:
        factors = _local_factors(p, group.dim.bit_length() - 1)
        if factors is None:
            return None
        axis_angles = [unitary_from_rotation(adjoint_of(f, basis1)) for f in factors]
        genome.append(tuple((np.array(aa.axis), float(aa.angle)) for aa in axis_angles))
    return genome


def _local_factors(u: np.ndarray, num_qubits: int):
    """Per-qubit unitary factors of ``u``, qubit 0 first, or None if it is not a local product.

    Each step splits qubit 0 off by a rank-one SVD, ``vec(a) vec(rest)^T =
    s0 uu[:, 0] vh[0]`` (``vh[0]`` unconjugated), and projects both parts onto
    the unitaries; a single-qubit ``u`` is its own factor.
    """
    factors = []
    for rest_qubits in range(num_qubits - 1, 0, -1):
        rest = 2**rest_qubits
        m = u.reshape(2, rest, 2, rest).transpose(0, 2, 1, 3).reshape(4, rest * rest)
        uu, s, vh = np.linalg.svd(m)
        if s[1] > 1e-9:
            return None
        factors.append(_polar(uu[:, 0].reshape(2, 2) * np.sqrt(s[0])))
        u = _polar(vh[0].reshape(rest, rest) * np.sqrt(s[0]))
    return factors + [u]


def _genome_group(genome, num_qubits: int, delta_t: float) -> PulseGroup:
    """The local-product pulse group a genome encodes; an empty genome is the identity."""
    per_qubit = [
        [np.eye(2, dtype=complex)] + [axis_angle_unitary(*entry[q]) for entry in genome]
        for q in range(num_qubits)
    ]
    return _product_group(per_qubit, delta_t)


def _mutate_genome(genome, rng):
    def jiggle(axis, angle):
        axis = axis + rng.normal(scale=_MUTATION_SIGMA, size=3)
        axis = axis / np.linalg.norm(axis)
        angle = float(np.clip(angle + rng.normal(scale=_MUTATION_SIGMA), -np.pi, np.pi))
        return axis, angle

    return [tuple(jiggle(*factor) for factor in entry) for entry in genome]


def _crossover(ga, gb, rng):
    child = []
    keep = ga if rng.random() < 0.5 else gb
    for k in range(len(keep)):
        pool = [g[k] for g in (ga, gb) if k < len(g)]
        child.append(pool[int(rng.integers(len(pool)))])
    return child


def _random_genome(rng, num_qubits: int, max_pulses: int):
    count = int(rng.integers(1, max_pulses))

    def one():
        axis = rng.normal(size=3)
        axis = axis / np.linalg.norm(axis)
        return axis, float(rng.uniform(0, np.pi))

    return [tuple(one() for _ in range(num_qubits)) for _ in range(count)]


def learning_loop(model: SystemBathModel, target: TargetSpec, config: LearningLoopConfig):
    """Run the iterative analyze-and-search loop.

    Returns ``(best_group, records)``.  The loop stops as soon as the best
    cost is within tolerance; otherwise it runs out the generation budget
    and the final record carries ``converged=False``.  Identical inputs and
    seed reproduce the record sequence exactly.
    """
    nq = model.num_qubits
    dim = model.system_dim
    if dim not in (2, 4):
        raise ShapeError("learning loop supports 1- and 2-qubit systems")
    basis = build_pauli_basis(nq)
    rng = np.random.default_rng(config.seed)
    cost = CostFunction(target=target, cycles=config.cycles, quadrature=config.quadrature)
    w_flat = _target_flat(target, basis)

    state = _AnalysisState()
    genomes = []
    analysis_group = _analysis_candidate(model, target, config, state, None, basis)
    if analysis_group is not None:
        g = _group_to_genome(analysis_group)
        if g is not None:
            genomes.append(g)
    for grp in enumerate_candidate_groups(dim, config.group_size_bound, delta_t=config.delta_t):
        g = _group_to_genome(grp)
        if g is not None:
            genomes.append(g)
        if len(genomes) >= config.population:
            break
    while len(genomes) < config.population:
        genomes.append(_random_genome(rng, nq, config.group_size_bound))
    genomes = genomes[: config.population]

    records: list[GenerationRecord] = []
    best_genome, best_cost = None, np.inf

    for generation in range(config.generations):
        groups = [_genome_group(g, nq, config.delta_t) for g in genomes]
        costs = [evaluate_cost(model, g, cost) for g in groups]
        order = np.argsort(costs, kind="stable")
        if costs[order[0]] < best_cost:
            best_cost = costs[order[0]]
            best_genome = genomes[order[0]]
        best_group = _genome_group(best_genome, nq, config.delta_t)
        converged = best_cost <= config.tolerance
        records.append(
            GenerationRecord(
                generation=generation,
                best_cost=float(best_cost),
                best_group=best_group,
                mean_cost=float(np.mean(costs)),
                residual=_generator_report(
                    _measure_generator(model, best_group, _auto_probe(model, config), basis), w_flat, basis
                ),
                converged=converged,
            )
        )
        if converged:
            break

        next_genomes = [genomes[order[k]] for k in range(min(_ELITE, len(genomes)))]
        analysis_group = _analysis_candidate(model, target, config, state, best_group, basis)
        if analysis_group is not None:
            g = _group_to_genome(analysis_group)
            if g is not None:
                next_genomes.append(g)
        while len(next_genomes) < config.population:
            picks = rng.integers(0, config.population, size=_TOURNAMENT)
            pa = genomes[min(picks, key=lambda i: costs[i])]
            picks = rng.integers(0, config.population, size=_TOURNAMENT)
            pb = genomes[min(picks, key=lambda i: costs[i])]
            child = _crossover(pa, pb, rng)
            if rng.random() < config.mutation_rate:
                child = _mutate_genome(child, rng)
            next_genomes.append(child)
        genomes = next_genomes

    best_group = _genome_group(best_genome, nq, config.delta_t)
    return best_group, records
