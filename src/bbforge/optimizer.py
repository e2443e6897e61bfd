"""Offline learning loop: simulate, probe, analyze, re-synthesize, repeat.

Each pass simulates the pulsed evolution, runs process tomography on the
resulting channel, extracts the residual short-time generator, and feeds it
back: the closed-form solvers produce an improved candidate that seeds the
next generation of a small genetic search over pulse parameters.  The cost
being minimized is the time integral of the deviation between the achieved
and wanted generators over a fixed horizon of pulse cycles.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bb_synthesis import (
    ErrorReport,
    TargetSpec,
    _dim4_catalogue,
    _group_from_axis_angles,
    _product_group,
    axis_orthogonal_to,
    error_report,
    solve_single_qubit_gate,
    solve_two_qubit,
)
from .errors import DomainError, InfeasibleError, ShapeError
from .open_system_sim import PulseGroup, SystemBathModel, kraus_from_model, bb_propagator, partial_trace_bath
from .operator_algebra import (
    CoordinateVector,
    _kron,
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


@dataclass(frozen=True)
class CostFunction:
    """Deviation-from-target integral over a horizon of pulse cycles."""

    target: TargetSpec
    cycles: int
    quadrature: int = 1

    def __post_init__(self):
        if self.cycles < 1:
            raise DomainError("horizon must cover at least one cycle")
        if self.quadrature < 1:
            raise DomainError("quadrature must be >= 1")


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
        if self.population < 2:
            raise DomainError("population must be >= 2")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise DomainError("mutation_rate must be a probability")
        if self.tolerance < 0.0:
            raise DomainError("tolerance must be non-negative")
        if self.generations < 1:
            raise DomainError("need at least one generation")
        if self.group_size_bound < 2:
            raise DomainError("group_size_bound must be >= 2")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_cost: float
    best_group: PulseGroup
    mean_cost: float
    residual: ErrorReport
    converged: bool


def _pulsed_channel(model: SystemBathModel, u_full: np.ndarray):
    """Channel for the reduced dynamics under an explicit full propagator."""
    ns, nb = model.system_dim, model.bath_dim
    rho_b = model.bath_initial

    def channel(rho):
        full = u_full @ _kron(np.asarray(rho, dtype=complex), rho_b) @ u_full.conj().T
        return partial_trace_bath(full, ns, nb)

    return channel


def _generator_flat(gen, basis) -> np.ndarray:
    """Flatten extracted per-qubit and pair coordinates onto the basis generators."""
    nq = gen.num_qubits
    flat = np.zeros(basis.num_generators)
    for i, vec in enumerate(gen.xi):
        for a in (1, 2, 3):
            flat[a * 4 ** (nq - 1 - i) - 1] = vec[a - 1]
    for (i, j), m in gen.xi_pair.items():
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                flat[a * 4 ** (nq - 1 - i) + b * 4 ** (nq - 1 - j) - 1] = m[a, b]
    return flat


def _target_flat(target: TargetSpec, num_qubits: int, basis, qubit: int = 0, pair=(0, 1)) -> np.ndarray:
    flat = np.zeros(basis.num_generators)
    if target.kind == "storage":
        return flat
    if target.kind in ("single_qubit", "encoded"):
        w = target.wanted_vector() if target.wanted is not None else np.zeros(3)
        if w.shape == (3,):
            for a in (1, 2, 3):
                flat[a * 4 ** (num_qubits - 1 - qubit) - 1] = w[a - 1]
            return flat
        raise ShapeError("unsupported encoded target shape for cost evaluation")
    if target.kind == "two_qubit":
        w = target.wanted_vector()
        i, j = pair
        for a in range(4):
            for b in range(4):
                if a == 0 and b == 0:
                    continue
                idx = a * 4 ** (num_qubits - 1 - i) + b * 4 ** (num_qubits - 1 - j)
                flat[idx - 1] = w[a, b]
        return flat
    raise DomainError(f"unsupported target kind {target.kind!r}")


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
    nq = model.num_qubits
    basis = build_pauli_basis(nq)
    tc = group.cycle_time
    if tc <= 0:
        raise DomainError("cost evaluation needs delta_t > 0")
    w_flat = _target_flat(cost.target, nq, basis)
    times, values = [0.0], [None]
    for m in range(1, cost.cycles + 1):
        for sub in range(1, cost.quadrature + 1):
            t = (m - 1 + sub / cost.quadrature) * tc
            u = bb_propagator(model, group, t)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                chi = chi_from_lambda(run_qpt(_pulsed_channel(model, u), basis, time_tag=t))
                gen = extract_generator(chi)
            rep = error_report(
                CoordinateVector(_generator_flat(gen, basis), basis),
                CoordinateVector(w_flat, basis),
            )
            d = rep.scalar_distance
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
        key=lambda v: (np.count_nonzero(v) != 1, -_lead_sign(v), tuple(-v)),
    )
    return np.array([v / np.linalg.norm(v) for v in coord_first])


def _lead_sign(v: np.ndarray) -> float:
    for x in v:
        if x != 0:
            return float(np.sign(x))
    return 0.0


def _dim2_genomes(max_size: int) -> list[list[tuple[np.ndarray, float]]]:
    genomes = []
    for axis in axis_grid():
        genomes.append([(axis, np.pi / 2)])
    for m in range(3, max_size + 1):
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
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
        return [_genome_to_group(g, delta_t) for g in _dim2_genomes(max_size) if len(g) + 1 <= max_size or len(g) == 1]
    if dim == 4:
        return _dim4_catalogue(max_size, delta_t)
    raise ShapeError("catalogue supports dim 2 and 4")


def _coord_axis(k: int) -> np.ndarray:
    e = np.zeros(3)
    e[k] = 1.0
    return e


def _genome_to_group(genome, delta_t: float) -> PulseGroup:
    return _group_from_axis_angles(genome, delta_t)


# ---------------------------------------------------------------------------
# Learning loop
# ---------------------------------------------------------------------------


def _measure_generator(model: SystemBathModel, group: PulseGroup | None, probe: float, basis):
    """QPT of the (optionally pulsed) evolution; returns the extracted generator."""
    if group is None or group.size == 1:
        t = probe
        ks = kraus_from_model(model, t)
        channel = ks.apply
    else:
        t = group.cycle_time
        u = bb_propagator(model, group, t)
        channel = _pulsed_channel(model, u)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chi = chi_from_lambda(run_qpt(channel, basis, time_tag=t))
        return extract_generator(chi)


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
                    pulses = [np.eye(2, dtype=complex)] + [
                        axis_angle_unitary(_coord_axis(k), np.pi / 2) for k in range(3)
                    ]
                else:
                    pulses = [np.eye(2, dtype=complex), axis_angle_unitary(axis, np.pi / 2)]
                per_qubit.append(pulses)
            if nq == 1:
                return PulseGroup.from_pulses(per_qubit[0], config.delta_t)
            group = _product_group(per_qubit[0], per_qubit[1], config.delta_t)
            for extra in per_qubit[2:]:
                group = _product_group(list(group.pulses), extra, config.delta_t)
            return group
        if target.kind == "single_qubit":
            res = solve_single_qubit_gate(gen, target, 0, config.group_size_bound, delta_t=config.delta_t)
            return res.group
        if target.kind == "two_qubit":
            res = solve_two_qubit(gen, target, (0, 1), max_group_size=config.group_size_bound, delta_t=config.delta_t)
            return res.group
    except InfeasibleError:
        return None
    return None


def _auto_probe(model: SystemBathModel, config: LearningLoopConfig) -> float:
    if config.probe_time is not None:
        return config.probe_time
    scale = np.linalg.norm(model.total_hamiltonian, 2)
    return 0.01 / max(scale, 1.0)


def _group_to_genome(group: PulseGroup, dim: int):
    """Axis-angle parameters of a pulse group, or None when not expressible."""
    if dim == 2:
        genome = []
        for r in group.rotations[1:]:
            aa = unitary_from_rotation(r)
            genome.append((np.array(aa.axis), float(aa.angle)))
        return genome
    basis1 = build_pauli_basis(1)
    genome = []
    for p in group.pulses[1:]:
        factors = _factor_product(p)
        if factors is None:
            return None
        pa, pb = factors
        aaa = unitary_from_rotation(adjoint_of(pa, basis1))
        aab = unitary_from_rotation(adjoint_of(pb, basis1))
        genome.append(((np.array(aaa.axis), float(aaa.angle)), (np.array(aab.axis), float(aab.angle))))
    return genome


def _factor_product(u: np.ndarray):
    """Split a 4x4 unitary into a tensor product of 2x2 factors, if possible."""
    m = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    uu, s, vh = np.linalg.svd(m)
    if s[1] > 1e-9:
        return None
    a = uu[:, 0].reshape(2, 2) * np.sqrt(s[0])
    b = vh[0].conj().reshape(2, 2) * np.sqrt(s[0])
    # polar-project each factor onto U(2)
    wa, _, va = np.linalg.svd(a)
    wb, _, vb = np.linalg.svd(b)
    return wa @ va, wb @ vb


def _genome_group(genome, dim: int, delta_t: float) -> PulseGroup:
    if dim == 2:
        return _genome_to_group(genome, delta_t)
    pulses = [np.eye(4, dtype=complex)]
    for (axa, anga), (axb, angb) in genome:
        pulses.append(_kron(axis_angle_unitary(axa, anga), axis_angle_unitary(axb, angb)))
    return PulseGroup.from_pulses(pulses, delta_t)


def _mutate_genome(genome, rng, dim: int):
    def jiggle(axis, angle):
        axis = axis + rng.normal(scale=_MUTATION_SIGMA, size=3)
        axis = axis / np.linalg.norm(axis)
        angle = float(np.clip(angle + rng.normal(scale=_MUTATION_SIGMA), -np.pi, np.pi))
        return axis, angle

    out = []
    for entry in genome:
        if dim == 2:
            out.append(jiggle(*entry))
        else:
            out.append((jiggle(*entry[0]), jiggle(*entry[1])))
    return out


def _crossover(ga, gb, rng):
    child = []
    keep = ga if rng.random() < 0.5 else gb
    for k in range(len(keep)):
        pool = [g[k] for g in (ga, gb) if k < len(g)]
        child.append(pool[int(rng.integers(len(pool)))])
    return child


def _random_genome(rng, dim: int, max_pulses: int):
    count = int(rng.integers(1, max_pulses))

    def one():
        axis = rng.normal(size=3)
        axis = axis / np.linalg.norm(axis)
        return axis, float(rng.uniform(0, np.pi))

    if dim == 2:
        return [one() for _ in range(count)]
    return [(one(), one()) for _ in range(count)]


def _score_population(model, groups, cost, workers: int):
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(lambda g: evaluate_cost(model, g, cost), groups))
    return [evaluate_cost(model, g, cost) for g in groups]


def _residual_of(model, group, target, config, basis) -> ErrorReport:
    gen = _measure_generator(model, group, _auto_probe(model, config), basis)
    flat = _generator_flat(gen, basis)
    w_flat = _target_flat(target, gen.num_qubits, basis)
    return error_report(CoordinateVector(flat, basis), CoordinateVector(w_flat, basis))


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
    workers = max(1, int(os.environ.get("BBFORGE_THREADS", "1")))

    state = _AnalysisState()
    genomes = []
    analysis_group = _analysis_candidate(model, target, config, state, None, basis)
    if analysis_group is not None:
        g = _group_to_genome(analysis_group, dim)
        if g is not None:
            genomes.append(g)
    for grp in enumerate_candidate_groups(dim, config.group_size_bound, delta_t=config.delta_t):
        g = _group_to_genome(grp, dim)
        if g is not None:
            genomes.append(g)
        if len(genomes) >= config.population:
            break
    while len(genomes) < config.population:
        genomes.append(_random_genome(rng, dim, config.group_size_bound))
    genomes = genomes[: config.population]

    records: list[GenerationRecord] = []
    best_genome, best_cost = None, np.inf

    for generation in range(config.generations):
        groups = [_genome_group(g, dim, config.delta_t) for g in genomes]
        costs = _score_population(model, groups, cost, workers)
        order = np.argsort(costs, kind="stable")
        if costs[order[0]] < best_cost:
            best_cost = costs[order[0]]
            best_genome = genomes[order[0]]
        best_group = _genome_group(best_genome, dim, config.delta_t)
        converged = best_cost <= config.tolerance
        records.append(
            GenerationRecord(
                generation=generation,
                best_cost=float(best_cost),
                best_group=best_group,
                mean_cost=float(np.mean(costs)),
                residual=_residual_of(model, best_group, target, config, basis),
                converged=converged,
            )
        )
        if converged:
            break

        next_genomes = [genomes[order[k]] for k in range(min(_ELITE, len(genomes)))]
        analysis_group = _analysis_candidate(model, target, config, state, best_group, basis)
        if analysis_group is not None:
            g = _group_to_genome(analysis_group, dim)
            if g is not None:
                next_genomes.append(g)
        while len(next_genomes) < config.population:
            picks = rng.integers(0, config.population, size=_TOURNAMENT)
            pa = genomes[min(picks, key=lambda i: costs[i])]
            picks = rng.integers(0, config.population, size=_TOURNAMENT)
            pb = genomes[min(picks, key=lambda i: costs[i])]
            child = _crossover(pa, pb, rng)
            if rng.random() < config.mutation_rate:
                child = _mutate_genome(child, rng, dim)
            next_genomes.append(child)
        genomes = next_genomes

    best_group = _genome_group(best_genome, dim, config.delta_t)
    return best_group, records
