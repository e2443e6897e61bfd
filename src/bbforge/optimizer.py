"""Offline learning loop: simulate, probe, analyze, re-synthesize, repeat.

Each pass simulates the pulsed evolution, runs process tomography on the
resulting channel, extracts the residual short-time generator, and feeds it
back: the closed-form solvers produce an improved candidate that seeds the
next generation of a small genetic search over pulse parameters.  The cost
being minimized is the time integral of the deviation between the achieved
and wanted generators over a fixed horizon of pulse cycles.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .bb_synthesis import (
    ErrorReport,
    TargetSpec,
    _catalogue,
    _distance,
    _kick_pulses,
    _pauli_pulses,
    _product_group,
    _product_size,
    _report,
    axis_grid,
    axis_orthogonal_to,
    solve_single_qubit_gate,
    solve_two_qubit,
)
from .defaults import EXACT_HIT, NEGLIGIBLE
from .errors import DomainError, InfeasibleError, ShapeError
from .open_system_sim import PulseGroup, SystemBathModel, bb_propagator, kraus_from_model
from .operator_algebra import (
    _check_count,
    _check_time,
    _pauli_offsets,
    _qubit_count,
    adjoint_of,
    axis_angle_unitary,
    build_pauli_basis,
    unitary_from_rotation,
)
from .tomography import EffectiveGenerator, _trace_residual, chi_from_lambda, extract_generator, run_qpt

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
        object.__setattr__(obj, name, _check_count(getattr(obj, name), name, low))


def _check_field(obj, name: str, ok, requirement: str) -> None:
    """Raise ``DomainError`` unless ``ok`` holds for the named field; a bool or a value of the wrong type fails too."""
    value = getattr(obj, name)
    try:
        passed = not isinstance(value, (bool, np.bool_)) and ok(value)
    except TypeError:
        passed = False
    if not passed:
        raise DomainError(f"{name} must be {requirement}")


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
        _check_field(self, "mutation_rate", lambda v: 0.0 <= v <= 1.0, "a probability")
        _check_field(self, "tolerance", lambda v: v >= 0.0, "non-negative")
        _check_field(self, "detection_floor", lambda v: 0.0 <= v <= 1.0, "a fraction")
        object.__setattr__(self, "delta_t", _check_time(self.delta_t, "delta_t", positive=True))
        if self.probe_time is not None:
            object.__setattr__(self, "probe_time", _check_time(self.probe_time, "probe_time", positive=True))


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_cost: float
    best_group: PulseGroup
    mean_cost: float
    residual: ErrorReport
    converged: bool


def _target_flat(target: TargetSpec, basis) -> np.ndarray:
    """Wanted coordinates over the flat basis ordering: a pair target on qubits 0 and 1, a vector on qubit 0."""
    offsets = _pauli_offsets(basis.num_qubits)
    full = np.zeros(basis.size)
    if target.kind == "two_qubit":
        if basis.num_qubits < 2:
            raise ShapeError("a two-qubit target needs at least two system qubits")
        full[offsets[0][:, None] + offsets[1]] = target.wanted_vector()
    elif target.kind != "storage" and target.wanted is not None:
        if target.wanted.shape != (3,):
            raise ShapeError("unsupported encoded target shape for cost evaluation")
        full[offsets[0, 1:]] = target.wanted
    return full[1:]


def _generator_coords(model: SystemBathModel, group: PulseGroup, times: np.ndarray, basis) -> np.ndarray:
    """Generator coordinates ``Im(chi[1:, 0]) / t`` of the pulsed evolution at each of a 1-D array of times.

    Chi's column 0 in closed form from the ``bb_propagator`` stack
    ``U[t, p, b, m, c]`` (system ``p, m``, bath ``b, c``), with no probe
    states, ``lam`` or full chi: with ``X = rho_B (Tr_S U)^dag``,
    ``Y = Tr_B[U (I (x) X)]`` is ``sum_q channel(|m><q|)[p, q] = L vec(I)``,
    so ``chi[:, 0] = A^dag vec(Y) / M^2`` (Wood, Biamonte & Cory,
    arXiv:1111.6950).  ``rho_B`` is Hermitian, so row 0 is this column's
    conjugate and this is the chain's Hermitian part.  Trace preservation,
    ``Tr channel(|m><n|) = sum_cc' rho_B[c, c'] (U^dag U)[(n, c'), (m, c)]``,
    is checked by ``_trace_residual``: a non-unitary ``U`` raises
    ``InconsistencyError``.  The chain's other two checks cannot fire here:
    the form is linear by construction and keeps Hermiticity for any ``U``.
    Agrees with ``run_qpt``, ``chi_from_lambda`` and ``extract_generator``
    on each node within 6e-13 relative, with no first-order warning.
    """
    ns, nb, rho_b = model.system_dim, model.bath_dim, model.bath_initial
    u = bb_propagator(model, group, times)
    blocks = u.reshape(-1, ns, nb, ns, nb)
    gram = (u.conj().swapaxes(-1, -2) @ u).reshape(blocks.shape)
    _trace_residual(np.einsum("tnamb,ba->tmn", gram, rho_b))
    x = rho_b @ np.trace(blocks, axis1=1, axis2=3).conj().swapaxes(-1, -2)
    y = np.einsum("tpbmc,tcb->tpm", blocks, x).reshape(len(times), ns * ns)
    return (y @ basis.change_of_basis[1][1:].T).imag / (basis.normalization**2 * times[:, None])


def evaluate_cost(model: SystemBathModel, group: PulseGroup, cost: CostFunction) -> float:
    """Integrated deviation between achieved and wanted generators.

    All ``cycles * quadrature`` nodes are read in one pass over the stack
    ``bb_propagator`` gives for the node times: chi's column 0 in closed
    form, each node checked for trace preservation (``_generator_coords``).
    The integrand is the Hilbert-Schmidt distance of each node's generator
    to the wanted one, read off the coordinates as ``error_report`` reads
    it.  The integral is the trapezoid rule from 0 with the first node's
    value held at ``t = 0``, written out with ``np.trapezoid``'s arithmetic.
    This agrees with ``run_qpt``, ``chi_from_lambda``, ``extract_generator``
    and ``error_report`` on each node alone within 6e-13 relative.  Node
    values below ``defaults.EXACT_HIT`` count as exact hits, so a perfect
    pulse set reports a cost of exactly zero.
    """
    basis = build_pauli_basis(model.num_qubits)
    w_flat = _target_flat(cost.target, basis)
    tc = group.cycle_time
    nodes = [(m - 1 + sub / cost.quadrature) * tc for m in range(1, cost.cycles + 1) for sub in range(1, cost.quadrature + 1)]
    times, steps = np.array([nodes, [t - s for s, t in zip([0.0, *nodes], nodes)]])
    coords = _generator_coords(model, group, times, basis)
    d = _distance(coords - w_flat, basis.normalization)
    y = np.where(d < EXACT_HIT, 0.0, d)
    y = np.concatenate((y[:1], y))
    return float((steps * (y[1:] + y[:-1]) / 2.0).sum())


# ---------------------------------------------------------------------------
# Candidate catalogue
# ---------------------------------------------------------------------------


def enumerate_candidate_groups(dim: int, max_size: int, *, delta_t: float = 0.1) -> list[PulseGroup]:
    """Catalogue of discrete candidate pulse sets with g_0 = I, on any number of qubits.

    Every set is a local product of per-qubit pulse lists in the order
    ``_catalogue`` gives, and every one has a closed adjoint image.  The
    qubit count is limited by the Pauli basis the sets are scored in.
    """
    max_size = _check_count(max_size, "max_size", 2)
    num_qubits = _qubit_count(dim)
    build_pauli_basis(num_qubits)  # CapacityError past the qubit count the sets can be scored at
    return [_product_group(c, delta_t) for c in _catalogue(num_qubits, max_size)]


# ---------------------------------------------------------------------------
# Learning loop
# ---------------------------------------------------------------------------


def _measure_generator(model: SystemBathModel, group: PulseGroup | None, probe: float, basis) -> EffectiveGenerator:
    """The generator read by QPT of the unpulsed evolution at ``probe``, or of one cycle of ``group``.

    The unpulsed probe runs the public chain on ``kraus_from_model``, with
    the first-order-extraction warning silenced.  One cycle is the scoring
    kernel ``_generator_coords`` at the cycle time: chi's column 0 in closed
    form from the propagator, trace preservation checked, and within 6e-13
    relative of what the public chain reads from that cycle's channel.
    """
    if group is None or group.size == 1:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return extract_generator(chi_from_lambda(run_qpt(kraus_from_model(model, probe).apply, basis, time_tag=probe)))
    return EffectiveGenerator(_generator_coords(model, group, np.array([group.cycle_time]), basis)[0], basis)


def _analysis_candidate(gen, target, config, history: dict):
    """One analyze pass: re-solve on the generator measured under the current pulses.

    Returns the proposed pulse set as per-qubit pulse lists, one for each
    system qubit, or None when the solver finds none.  A gate target is
    solved on qubit 0 or the pair (0, 1); every other qubit gets ``[I]``.
    ``history`` maps a qubit to the error vectors detected on it by every
    pass so far; this pass appends to it.
    """
    eye = [np.eye(2, dtype=complex)]
    if target.kind == "storage":
        per_qubit = []
        for i in range(gen.num_qubits):
            xi = gen.xi[i]
            detected = np.where(np.abs(xi) >= config.detection_floor * np.abs(xi).max(), xi, 0.0)
            if np.linalg.norm(detected) > NEGLIGIBLE:
                history.setdefault(i, []).append(detected)
            if i not in history:
                per_qubit.append(eye)
                continue
            axis = axis_orthogonal_to(history[i])
            per_qubit.append(_pauli_pulses() if axis is None else _kick_pulses(axis))
        return per_qubit
    try:
        if target.kind == "single_qubit":
            factors = solve_single_qubit_gate(gen, target, 0, config.group_size_bound, delta_t=config.delta_t).factors
        elif target.kind == "two_qubit":
            factors = solve_two_qubit(gen, target, (0, 1), max_group_size=config.group_size_bound, delta_t=config.delta_t).factors
        else:
            return None
    except InfeasibleError:
        return None
    return [*factors] + [eye] * (gen.num_qubits - len(factors))


def _default_probe_time(model: SystemBathModel) -> float:
    """Probe time short against the model's fastest rate: ``0.01 / max(||H||_2, 1)``."""
    return 0.01 / max(np.linalg.norm(model.total_hamiltonian, 2), 1.0)


def _genome_of(per_qubit):
    """Genome of the local product of per-qubit pulse lists, qubit 0 first.

    One entry per pulse after the identity, each a tuple of per-qubit
    ``(axis, angle)`` pairs; pulse ``k`` reads factor ``k mod len`` of each
    list, as ``_product_group`` builds it.  Each factor goes through its
    adjoint rotation, so its global phase does not reach the genome.
    """
    basis1 = build_pauli_basis(1)

    def axis_angle(factor):
        aa = unitary_from_rotation(adjoint_of(factor, basis1))
        return aa.axis, float(aa.angle)

    return [tuple(axis_angle(q[k % len(q)]) for q in per_qubit) for k in range(1, _product_size(per_qubit))]


@functools.cache
def _catalogue_genomes(num_qubits: int, max_size: int) -> tuple:
    """Genomes of ``_catalogue(num_qubits, max_size)``, in its order, built once; their axes are read-only."""
    return tuple(tuple(_genome_of(c)) for c in _catalogue(num_qubits, max_size))


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


def _genome_key(genome) -> bytes:
    """The exact bits of a genome's axes and angles, so ``-0.0`` and ``0.0`` differ."""
    return b"".join(axis.tobytes() + np.float64(angle).tobytes() for entry in genome for axis, angle in entry)


def learning_loop(model: SystemBathModel, target: TargetSpec, config: LearningLoopConfig):
    """Run the iterative analyze-and-search loop.

    Returns ``(best_group, records)``.  The loop stops as soon as the best
    cost is within tolerance; otherwise it runs out the generation budget
    and the final record carries ``converged=False``.  Identical inputs and
    seed reproduce the record sequence exactly.  The system may have any
    number of qubits the Pauli basis allows.

    Each distinct genome is built and scored once per call: elites and
    unchanged crossover children reuse the cost found when their exact
    bits were first seen in this loop.  ``GenerationRecord.mean_cost`` is
    still the mean over the full population, repeats included.  The
    generator is probed once per change of the pulses it is measured under:
    for the unpulsed start and when the best group changes.  Each probe is
    analyzed once, unless its generation converges and so has no next
    generation to take the proposal; a storage target's analysis history
    holds one detected vector per analyzed probe.  A record's ``residual``
    is the latest probe's; each generation up to the next probe gets that
    probe's proposal.
    """
    nq = model.num_qubits
    basis = build_pauli_basis(nq)
    rng = np.random.default_rng(config.seed)
    cost = CostFunction(target=target, cycles=config.cycles, quadrature=config.quadrature)
    w_flat = _target_flat(target, basis)
    probe = config.probe_time if config.probe_time is not None else _default_probe_time(model)
    history: dict = {}

    def propose(gen) -> list:
        """The genomes the analysis of a measured generator proposes: one, or none."""
        per_qubit = _analysis_candidate(gen, target, config, history)
        return [] if per_qubit is None else [_genome_of(per_qubit)]

    genomes = propose(_measure_generator(model, None, probe, basis))
    genomes += _catalogue_genomes(nq, config.group_size_bound)[: config.population - len(genomes)]
    while len(genomes) < config.population:
        genomes.append(_random_genome(rng, nq, config.group_size_bound))

    records: list[GenerationRecord] = []
    best_group, best_cost = None, np.inf
    scored: dict[bytes, tuple[float, PulseGroup]] = {}  # genome bits -> (cost, group), for this call only

    def score(genome) -> tuple[float, PulseGroup]:
        key = _genome_key(genome)
        if key not in scored:
            group = _genome_group(genome, nq, config.delta_t)
            scored[key] = (evaluate_cost(model, group, cost), group)
        return scored[key]

    for generation in range(config.generations):
        costs, groups = zip(*(score(g) for g in genomes))
        order = np.argsort(costs, kind="stable")
        if costs[order[0]] < best_cost:  # always taken at generation 0; otherwise nothing below changes
            best_cost = costs[order[0]]
            best_group = groups[order[0]]
            converged = best_cost <= config.tolerance
            gen = _measure_generator(model, best_group, probe, basis)
            residual = _report(gen.coords, w_flat, basis)
            if not converged:  # a converging generation has no next one to take a proposal
                proposed = propose(gen)
        records.append(
            GenerationRecord(
                generation=generation,
                best_cost=float(best_cost),
                best_group=best_group,
                mean_cost=float(np.mean(costs)),
                residual=residual,
                converged=converged,
            )
        )
        if converged:
            break

        next_genomes = [genomes[order[k]] for k in range(min(_ELITE, len(genomes)))] + proposed
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

    return best_group, records
