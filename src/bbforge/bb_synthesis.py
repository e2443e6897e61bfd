"""Solvers for the averaged-rotation conditions that define decoupling pulses.

The measured short-time generator is a coordinate vector ``xi`` (or a 4x4
pair matrix for two qubits).  A pulse set ``{g_k}`` with adjoint rotations
``R_k`` turns it into ``xi_tilde = mean_k(R_k).T @ xi``; synthesis means
choosing the set so that ``xi_tilde`` equals a wanted vector ``w`` (zero for
storage).  Because the average of orthogonal matrices is a contraction, gate
targets are only reachable when ``|w| <= |xi|``.

The storage workhorse is the parity kick: ``{I, exp(i n.sigma pi/2)}``
averages to the rank-one projector ``n n^T`` and therefore annihilates every
error component perpendicular to the kick axis.  Gate targets are built
constructively from rotations that fan the measured vector into a set of
equal-length vectors with the required resultant.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterator, Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache, reduce
from math import lcm

import numpy as np

from .defaults import CHOI_RANK, DISTANCE_FLOOR, LINEAR_SOLVE, MATRIX_RESIDUAL, NEGLIGIBLE, PULSE_RECOVERY, ROUNDOFF
from .errors import (
    DomainError,
    InfeasibleError,
    InfeasibleMagnitudeError,
    NonRepresentableError,
    ShapeError,
)
from .open_system_sim import PulseGroup
from .operator_algebra import (
    AdjointRotation,
    CoordinateVector,
    OperatorBasis,
    _check_count,
    _check_hermitian,
    _check_pair,
    _check_time,
    _first_significant,
    _kron,
    _polar,
    _qubit_count,
    _readonly,
    _square,
    _unit_axis,
    _vector,
    adjoint_of,
    axis_angle_unitary,
    build_pauli_basis,
    expand,
    unitary_from_rotation,
)

__all__ = [
    "TargetSpec",
    "StabilizerSpace",
    "ErrorReport",
    "SynthesisResult",
    "solve_storage",
    "solve_single_qubit_gate",
    "solve_two_qubit",
    "check_encoded",
    "error_report",
    "group_to_pulses",
    "parity_kick_group",
    "axis_grid",
    "axis_orthogonal_to",
    "averaged_rotation",
    "modified_vector",
    "modified_pair_matrix",
]

@dataclass(frozen=True)
class StabilizerSpace:
    """Real span of a code's stabilizer generators."""

    generators: tuple[np.ndarray, ...]

    def __post_init__(self):
        gens = tuple(_readonly(_check_hermitian(g, "stabilizer generator")) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if gens:
            gram = np.array([[np.trace(a @ b).real for b in gens] for a in gens])
            if np.linalg.matrix_rank(gram, tol=MATRIX_RESIDUAL) < len(gens):
                raise DomainError("stabilizer generators must be linearly independent")

    @property
    def size(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class TargetSpec:
    """What the modified evolution should look like.

    ``kind`` is one of ``storage``, ``single_qubit``, ``two_qubit`` or
    ``encoded``; ``wanted`` is a 3-vector for single-qubit targets, a 4x4
    pair matrix (or its 3x3 generator block) for two-qubit targets, a
    vector for encoded targets, and zero / omitted for storage.  Every
    form must be finite and real.
    """

    kind: str
    wanted: np.ndarray | None = None
    stabilizer: StabilizerSpace | None = None

    def __post_init__(self):
        if self.kind not in ("storage", "single_qubit", "two_qubit", "encoded"):
            raise DomainError(f"unknown target kind {self.kind!r}")
        w = self.wanted
        if w is not None:
            if self.kind == "two_qubit":
                w = _square(w, "two-qubit target pair matrix", dtype=float)
                if w.shape == (3, 3):  # the generator block: the identity row and column are 0
                    full = np.zeros((4, 4))
                    full[1:, 1:] = w
                    w = full
                w = _square(w, "two-qubit target pair matrix", 4, dtype=float)
                if not np.isfinite(w).all():
                    raise DomainError("target coordinates must be finite")
                if w[0, 0] != 0.0:
                    raise DomainError("a two-qubit target's entry [0, 0] is the identity string, not a generator term; it must be 0")
            else:
                w = _vector(w, f"{self.kind.replace('_', '-')} target", 3 if self.kind == "single_qubit" else None)
            object.__setattr__(self, "wanted", _readonly(w))
        elif self.kind == "storage":
            object.__setattr__(self, "wanted", _readonly(np.zeros(3)))

    def wanted_vector(self) -> np.ndarray:
        if self.wanted is None:
            raise DomainError(f"target kind {self.kind!r} carries no wanted coordinates")
        return np.asarray(self.wanted, dtype=float)


@dataclass(frozen=True)
class ErrorReport:
    """Residual between the modified and wanted generator coordinates."""

    error_vector: CoordinateVector
    scalar_distance: float
    stabilizer_distance: float | None = None

    def __post_init__(self):
        if not -DISTANCE_FLOOR <= self.scalar_distance <= sys.float_info.max:  # also false for NaN
            raise DomainError("distances are non-negative and finite")
        if self.stabilizer_distance is not None and not self.stabilizer_distance <= self.scalar_distance + LINEAR_SOLVE:
            raise DomainError("stabilizer distance cannot exceed the plain distance")


@dataclass(frozen=True)
class SynthesisResult:
    """A solver's pulse set: ``group`` is the local product of the per-qubit pulse lists ``factors``, qubit 0 first."""

    group: PulseGroup
    factors: tuple[Sequence[np.ndarray], ...]
    residual: ErrorReport
    free_parameters: str
    qubit: int | None = None
    pair: tuple[int, int] | None = None
    mode: str = "direct"

    def to_dict(self) -> dict:
        axes = [None] * self.group.size
        if self.group.dim == 2:
            for k, r in enumerate(self.group.rotations):
                try:
                    aa = unitary_from_rotation(r)
                except InfeasibleError:
                    continue
                axes[k] = {"axis": [float(x) for x in aa.axis], "angle": float(aa.angle),
                           "free_axis": list(aa.free_axis)}
        return {
            **self.group.to_dict(),
            "axis_angles": axes,
            "residual": {
                "error_vector": [float(x) for x in np.atleast_1d(self.residual.error_vector.coords).ravel()],
                "scalar_distance": float(self.residual.scalar_distance),
                "stabilizer_distance": self.residual.stabilizer_distance,
            },
            "free_parameters": self.free_parameters,
            "qubit": self.qubit,
            "pair": list(self.pair) if self.pair else None,
            "mode": self.mode,
        }


# ---------------------------------------------------------------------------
# Averaged-rotation helpers
# ---------------------------------------------------------------------------


def averaged_rotation(group: PulseGroup) -> np.ndarray:
    """Mean adjoint rotation of a pulse set."""
    return np.mean([r.matrix for r in group.rotations], axis=0)


def modified_vector(group: PulseGroup, xi: np.ndarray) -> np.ndarray:
    """Coordinates of the generator after averaging over the pulse set."""
    return averaged_rotation(group).T @ _vector(xi, "generator coordinates", group.dim**2 - 1)


def _extend_identity(r: np.ndarray) -> np.ndarray:
    """Embed an (n^2-1) adjoint block into the full basis including identity."""
    n = r.shape[0] + 1
    out = np.zeros((n, n))
    out[0, 0] = 1.0
    out[1:, 1:] = r
    return out


def modified_pair_matrix(group: PulseGroup, xi_pair: np.ndarray) -> np.ndarray:
    """Pair coefficient matrix after averaging a two-qubit pulse set."""
    if group.dim != 4:
        raise ShapeError("pair transforms need two-qubit pulses")
    xi_flat = _square(xi_pair, "pair coefficient matrix", 4, dtype=float).flatten()  # entry [a, b] is Pauli string 4a + b
    xi_flat[0] = 0.0
    acc = np.zeros(16)
    for r in group.rotations:
        acc += _extend_identity(r.matrix).T @ xi_flat
    acc /= group.size
    return acc.reshape(4, 4)


def axis_orthogonal_to(vectors) -> np.ndarray | None:
    """Canonical unit vector orthogonal to every given direction.

    Prefers the least-index coordinate axis when one is exactly orthogonal;
    otherwise projects the least-index non-parallel coordinate axis onto the
    orthogonal complement.  Returns ``None`` when the directions span all of
    3-space.
    """
    dirs = []
    for v in vectors:
        v = _vector(v, "direction", 3)
        n = np.linalg.norm(v)
        if n > ROUNDOFF:
            dirs.append(v / n)
    if not dirs:
        return np.array([1.0, 0.0, 0.0])
    stack = np.array(dirs)
    for m in range(3):
        if np.abs(stack[:, m]).max() <= NEGLIGIBLE:
            return np.eye(3)[m]
    _, s, vh = np.linalg.svd(stack)
    s_full = np.zeros(3)
    s_full[: len(s)] = s
    null = vh[s_full < NEGLIGIBLE]
    if null.shape[0] == 0:
        return None
    for e in np.eye(3):
        proj = null.T @ (null @ e)
        if np.linalg.norm(proj) > NEGLIGIBLE:
            proj = proj / np.linalg.norm(proj)
            if _first_significant(proj) < 0:
                proj = -proj
            return proj
    return None


def _product_size(per_qubit) -> int:
    """Pulse count of the local product of per-qubit pulse lists: the lcm of their lengths."""
    return lcm(*map(len, per_qubit))


def _product_group(per_qubit, delta_t: float) -> PulseGroup:
    """The pulse group of the local product of per-qubit pulse lists, qubit 0 first.

    Each list is repeated cyclically to the lcm of their lengths, which keeps
    its average; pulse ``k`` is ``per_qubit[0][k] (x) per_qubit[1][k] (x) ...``.
    Each list is stacked to that length and the stacks are multiplied out
    with one broadcast kron per qubit.
    """
    size = _product_size(per_qubit)
    stacks = (np.asarray(qubit) for qubit in per_qubit)
    pulses = reduce(_kron, (s if len(s) == size else s[np.arange(size) % len(s)] for s in stacks))
    return PulseGroup.from_pulses(pulses, delta_t)


def _kick_pulses(axis) -> list[np.ndarray]:
    """Pulses of the parity kick ``{I, exp(i n.sigma pi/2)}`` about ``axis``."""
    return [np.eye(2, dtype=complex), axis_angle_unitary(axis, np.pi / 2)]


@cache
def _pauli_pulses() -> tuple[np.ndarray, ...]:
    """``I`` and the parity kicks about the x, y and z axes (the Pauli set up to phases), built once; read-only."""
    return tuple(map(_readonly, [np.eye(2, dtype=complex)] + [_kick_pulses(e)[1] for e in np.eye(3)]))


def parity_kick_group(axis, delta_t: float = 0.1) -> PulseGroup:
    """The minimal decoupling pair ``{I, exp(i n.sigma pi/2)}``."""
    return _product_group([_kick_pulses(_unit_axis(axis, np.pi / 2))], delta_t)


def _report(achieved: np.ndarray, wanted: np.ndarray, basis: OperatorBasis) -> ErrorReport:
    return error_report(CoordinateVector(coords=achieved, basis=basis), CoordinateVector(coords=wanted, basis=basis))


def _qubit_xi(generator, qubit) -> tuple[int, np.ndarray]:
    """``qubit`` checked, and its vector: ``generator.xi[qubit]``, or a bare 3-vector ``generator`` as qubit 0."""
    vectors = generator.xi if hasattr(generator, "xi") else (generator,)
    qubit = _check_count(qubit, "qubit", 0)
    if qubit >= len(vectors):
        raise DomainError(f"qubit {qubit} is outside the {len(vectors)}-qubit generator")
    return qubit, _vector(vectors[qubit], "generator coordinates", 3)


@contextmanager
def _overflow_is_domain_error():
    """numpy's overflow raised as ``DomainError``, coordinates too large to solve for, not as a warning; also a decorator."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise DomainError(f"coordinates too large to solve for ({exc})") from None


def _one_qubit_image(pulse: np.ndarray, images: dict) -> np.ndarray:
    """Identity-extended 4x4 adjoint image of a one-qubit pulse, computed once per ``images`` dict, which keys it by the pulse's bits."""
    key = pulse.tobytes()
    if key not in images:
        images[key] = _extend_identity(adjoint_of(pulse, build_pauli_basis(1)).matrix)
    return images[key]


def _one_qubit_error(pulses, xi: np.ndarray, w: np.ndarray, bound: float, message: str, images: dict) -> np.ndarray:
    """Error vector ``mean_k R(p_k).T @ xi - w`` of one-qubit ``pulses``; ``InfeasibleError`` if its distance exceeds ``bound``."""
    error = np.mean([_one_qubit_image(p, images)[1:, 1:] for p in pulses], axis=0).T @ xi - w
    distance = float(_distance(error, build_pauli_basis(1).normalization))
    if distance > bound:
        raise InfeasibleError(message, best_residual=distance)
    return error


def _one_qubit_result(pulses, error: np.ndarray, note: str, qubit: int, delta_t: float) -> SynthesisResult:
    """The result of a one-qubit solver core's pulse list, error vector and note."""
    return SynthesisResult(group=_product_group((pulses,), delta_t), factors=(pulses,), free_parameters=note, qubit=qubit,
                           residual=_report(error, np.zeros(3), build_pauli_basis(1)))  # error - 0 keeps its bits


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------


def solve_storage(generator, qubit: int = 0, max_group_size: int = 8, *, delta_t: float = 0.1) -> SynthesisResult:
    """Find a minimal pulse set whose averaged rotation annihilates ``xi``.

    A zero generator returns the trivial group; otherwise a parity kick
    about the canonical axis orthogonal to ``xi`` removes the error exactly
    with the fewest possible pulses.
    """
    _check_count(max_group_size, "max_group_size", 2)
    qubit, xi = _qubit_xi(generator, qubit)
    _check_time(delta_t, "delta_t", positive=True)
    return _one_qubit_result(*_storage_pulses(xi, {}), qubit, delta_t)


@_overflow_is_domain_error()
def _storage_pulses(xi: np.ndarray, images: dict) -> tuple[list[np.ndarray], np.ndarray, str]:
    """``solve_storage``'s core: the pulse list, its error vector and the note, or the solver's error; bounds scale as the gate core's."""
    norm_xi = np.linalg.norm(xi)
    if norm_xi <= ROUNDOFF:
        return [np.eye(2, dtype=complex)], xi, "generator already vanishes; no pulses required"
    pulses = _kick_pulses(_unit_axis(axis_orthogonal_to([xi]), np.pi / 2))
    error = _one_qubit_error(pulses, xi, np.zeros(3), LINEAR_SOLVE * max(1.0, norm_xi),
                             "parity kick failed to annihilate the generator", images)
    return pulses, error, "kick axis free within the plane orthogonal to the measured generator; sign of the rotation angle free"


# ---------------------------------------------------------------------------
# Single-qubit gate targets
# ---------------------------------------------------------------------------


def _fan_vectors(u: np.ndarray, count: int, radius: float, plane_hint: np.ndarray) -> list[np.ndarray]:
    """``count`` vectors of norm ``radius`` summing to ``u`` (feasible by assumption)."""
    norm_u = np.linalg.norm(u)
    if norm_u <= ROUNDOFF:
        # balanced fan in the plane spanned by the hint and its canonical normal
        a = plane_hint / np.linalg.norm(plane_hint)
        b = axis_orthogonal_to([a])
        angles = [2 * np.pi * k / count + np.pi / count for k in range(count)]
        return [radius * (np.cos(t) * a + np.sin(t) * b) for t in angles]
    u_hat = u / norm_u
    t_hat = plane_hint - (plane_hint @ u_hat) * u_hat
    if np.linalg.norm(t_hat) <= NEGLIGIBLE:
        t_hat = axis_orthogonal_to([u_hat])
    else:
        t_hat = t_hat / np.linalg.norm(t_hat)
    out = []
    if count % 2 == 0:
        cos_g = np.clip(norm_u / (count * radius), -1.0, 1.0)
        sin_g = np.sqrt(1.0 - cos_g**2)
        for k in range(count // 2):
            out.append(radius * (cos_g * u_hat + sin_g * t_hat))
            out.append(radius * (cos_g * u_hat - sin_g * t_hat))
    else:
        out.append(radius * u_hat)
        rest = count - 1
        cos_g = np.clip((norm_u - radius) / (rest * radius), -1.0, 1.0)
        sin_g = np.sqrt(1.0 - cos_g**2)
        for k in range(rest // 2):
            out.append(radius * (cos_g * u_hat + sin_g * t_hat))
            out.append(radius * (cos_g * u_hat - sin_g * t_hat))
    return out


def _rotation_taking(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, float]:
    """Axis and active angle of the minimal rotation mapping ``src`` to ``dst``."""
    a = src / np.linalg.norm(src)
    b = dst / np.linalg.norm(dst)
    cross = np.cross(a, b)
    dot = float(np.clip(a @ b, -1.0, 1.0))
    norm_cross = np.linalg.norm(cross)
    if norm_cross <= ROUNDOFF:
        if dot > 0:
            return np.array([1.0, 0.0, 0.0]), 0.0
        return axis_orthogonal_to([a]), np.pi
    return cross / norm_cross, float(np.arctan2(norm_cross, dot))


def solve_single_qubit_gate(generator, target: TargetSpec, qubit: int = 0, max_group_size: int = 8, *, delta_t: float = 0.1) -> SynthesisResult:
    """Shape the measured generator into a wanted single-qubit vector.

    Feasibility requires ``|w| <= |xi|`` because an average of rotations can
    only shorten the vector; within that bound the solver returns the
    smallest pulse count ``m`` for which ``m*w - xi`` can be written as a sum
    of ``m - 1`` vectors of length ``|xi|``, and realizes those vectors by
    explicit rotations of ``xi``.
    """
    if target.kind not in ("single_qubit", "storage"):
        raise DomainError("target kind must be single_qubit (or storage)")
    max_group_size = _check_count(max_group_size, "max_group_size", 2)
    qubit, xi = _qubit_xi(generator, qubit)
    _check_time(delta_t, "delta_t", positive=True)
    return _one_qubit_result(*_gate_pulses(xi, target.wanted_vector(), max_group_size, {}), qubit, delta_t)


@_overflow_is_domain_error()
def _gate_pulses(xi: np.ndarray, w: np.ndarray, max_group_size: int, images: dict) -> tuple[list[np.ndarray], np.ndarray, str]:
    """``solve_single_qubit_gate``'s core: the pulse list, its error vector and the note, or the solver's error."""
    norm_xi, norm_w = np.linalg.norm(xi), np.linalg.norm(w)
    scale = max(norm_xi, norm_w, 1.0)
    if np.linalg.norm(xi - w) <= ROUNDOFF * scale:
        _distance(xi - w, build_pauli_basis(1).normalization)  # refuses what the public solver's report would
        return [np.eye(2, dtype=complex)], xi - w, "measured generator already equals the target"
    if norm_w <= ROUNDOFF:
        return _storage_pulses(xi, images)
    if norm_w > norm_xi + ROUNDOFF:
        gain = f" (would need amplification by {norm_w / norm_xi:.3g})" if norm_xi > 0 else ""
        raise InfeasibleMagnitudeError(
            "averaged rotations are contractions; target length "
            f"{norm_w:.3g} exceeds measured length {norm_xi:.3g}{gain}"
        )

    axis_angles = None
    note = ""
    if abs(w @ xi - norm_w**2) <= LINEAR_SOLVE * scale**2:
        # w is the projection of xi onto its own direction: one parity kick
        axis_angles = [(w / norm_w, np.pi / 2)]
        note = "target is a projection of the measured vector; parity kick about the target axis"
    else:
        for m in range(3, max_group_size + 1):
            u = m * w - xi
            if np.linalg.norm(u) <= (m - 1) * norm_xi + ROUNDOFF:
                fans = _fan_vectors(u, m - 1, norm_xi, plane_hint=xi)
                axis_angles = []
                for v in fans:
                    axis, phi = _rotation_taking(xi, v)
                    axis_angles.append((axis, phi / 2.0))
                note = (
                    f"measured vector fanned over {m - 1} rotations in the plane spanned by "
                    "the measured and target directions; plane orientation free"
                )
                break
        if axis_angles is None:
            m = max_group_size
            best = np.linalg.norm(m * w - xi) - (m - 1) * norm_xi
            raise InfeasibleError(
                f"no pulse set of size <= {max_group_size} reaches the target "
                f"(shortfall {best:.3g}); raise max_group_size",
                best_residual=best / m,
            )

    pulses = [np.eye(2, dtype=complex)] + [axis_angle_unitary(axis, angle) for axis, angle in axis_angles]
    return pulses, _one_qubit_error(pulses, xi, w, LINEAR_SOLVE * max(1.0, scale), "constructed pulse set missed the target", images), note


# ---------------------------------------------------------------------------
# Candidate catalogue
# ---------------------------------------------------------------------------


def axis_grid() -> np.ndarray:
    """The default 26-direction axis grid (all sign/zero patterns, normalized)."""
    dirs = [np.array(v, dtype=float) for v in itertools.product((1, 0, -1), repeat=3) if any(v)]
    coord_first = sorted(dirs, key=lambda v: (np.count_nonzero(v) != 1, -_first_significant(v), tuple(-v)))
    return np.array([v / np.linalg.norm(v) for v in coord_first])


@cache
def _catalogue(num_qubits: int, max_size: int) -> tuple[tuple[tuple[np.ndarray, ...], ...], ...]:
    """Product pulse sets of at most ``max_size`` pulses, each a tuple of per-qubit pulse lists.

    One qubit: parity kicks about the 26 grid axes, the cyclic sets
    ``{exp(i e.sigma pi k/m)}`` about each coordinate axis ``e`` for
    ``m = 3 .. max_size``, then the Pauli set.  More qubits: the same
    coordinate kick on every qubit; each kick on one qubit alone,
    kick-major; every other tuple of coordinate kicks, in lexicographic
    order; the Pauli set on every qubit; the Pauli set on one qubit alone.
    Built once per argument pair; each pulse list is a tuple of read-only arrays.
    """
    paulis = _pauli_pulses()
    eye, kicks = paulis[:1], [(paulis[0], flip) for flip in paulis[1:]]
    if num_qubits == 1:
        sets = [_kick_pulses(axis) for axis in axis_grid()]
        sets += [[*eye] + [axis_angle_unitary(e, np.pi * step / m) for step in range(1, m)]
                 for m in range(3, max_size + 1) for e in np.eye(3)]
        candidates = [(tuple(map(_readonly, pulses)),) for pulses in sets] + [(paulis,)]
    else:
        def alone(pulses):
            return [tuple(pulses if q == i else eye for q in range(num_qubits)) for i in range(num_qubits)]

        candidates = [(k,) * num_qubits for k in kicks]
        candidates += [c for k in kicks for c in alone(k)]
        candidates += [tuple(kicks[a] for a in axes) for axes in itertools.product(range(3), repeat=num_qubits)
                       if len(set(axes)) > 1]
        candidates += [(paulis,) * num_qubits] + alone(paulis)
    return tuple(c for c in candidates if _product_size(c) <= max_size)


# ---------------------------------------------------------------------------
# Two-qubit targets
# ---------------------------------------------------------------------------


@_overflow_is_domain_error()
def _single_qubit_pulse_lists(xi_vec: np.ndarray, w_vec: np.ndarray, max_group_size: int, images: dict) -> list[Sequence[np.ndarray]]:
    """Candidate pulse lists for one qubit's margin of the pair problem: ``[I]``, the solver cores' list, the coordinate kicks."""
    lists: list[Sequence[np.ndarray]] = [[np.eye(2, dtype=complex)]]
    with suppress(InfeasibleError):
        solved = _storage_pulses(xi_vec, images) if np.linalg.norm(w_vec) <= ROUNDOFF else _gate_pulses(xi_vec, w_vec, max_group_size, images)
        lists.append(solved[0])
    if np.linalg.norm(xi_vec) > ROUNDOFF:
        paulis = _pauli_pulses()
        lists.extend((paulis[0], flip) for flip in paulis[1:])
    return lists


@_overflow_is_domain_error()
def solve_two_qubit(generator, target: TargetSpec, pair: tuple[int, int] = (0, 1), ansatz: str = "local_products", *, max_group_size: int = 8, delta_t: float = 0.1) -> SynthesisResult:
    """Solve the pair-matrix averaged-rotation condition for two qubits.

    The direct condition is ``avg_k(R_k) . xi_pair = w_pair``.  When the
    wanted interaction is absent from the measured pair matrix (the usual
    situation: noise is probed with the computation Hamiltonian off), that
    system is unsatisfiable by contractive averages, and the solver switches
    to the running-evolution form ``avg_k(R_k) . (xi_pair + w_pair) =
    w_pair``: pulses must commute with the wanted interaction while
    annihilating the measured noise.

    Candidates are local products, each a pair of per-qubit pulse lists,
    tried with the fewest product pulses first; among equal sizes the order
    is the trivial pair, the products of the margin solutions, the tailored
    kicks, then the catalogue.  They are generated lazily in that order:
    the margins' lists are built when the walk starts, the tailored kicks
    only when it reaches them, and a solve that accepts early looks at no
    pair past its winner.  The direct mode tries them all before the
    running mode, which replays the candidates the direct mode drained.
    The margins' lists come from the one-qubit solvers' cores.
    A local product acts on the pair matrix one qubit at a time: candidate
    ``(a, b)`` scores ``mean_k Ra_k^T X Rb_k`` from one-qubit images, each
    computed once per solve; the identity entry ``X[0, 0]`` is left out,
    and only the returned candidate's group is built.  ``pair`` is two
    qubit indices ``i < j``, below the generator's qubit count when it
    knows it; a non-finite pair matrix raises ``DomainError``.
    ``ansatz`` accepts only ``'local_products'``, which names that search.
    """
    if target.kind != "two_qubit":
        raise DomainError("target kind must be two_qubit")
    if ansatz != "local_products":
        raise DomainError("ansatz must be local_products")
    max_group_size = _check_count(max_group_size, "max_group_size", 2)
    pair = _check_pair(pair, getattr(generator, "num_qubits", None))
    xi_pair = _square(generator.pair_matrix(*pair) if hasattr(generator, "pair_matrix") else generator, "pair coefficient matrix", 4, dtype=float)
    if not np.isfinite(xi_pair).all():
        raise DomainError("pair matrix coordinates must be finite")
    _check_time(delta_t, "delta_t", positive=True)
    w_pair = target.wanted_vector()

    modes = []
    if np.linalg.norm(w_pair) <= np.linalg.norm(xi_pair) + ROUNDOFF:
        modes.append(("direct", xi_pair))
    if np.linalg.norm(w_pair) > ROUNDOFF:
        modes.append(("running", xi_pair + w_pair))

    images: dict[bytes, np.ndarray] = {}  # the solve's one-qubit images, margins' checks included
    # one view of the stream per mode: a later mode replays what the first drained, nothing is rebuilt
    streams = itertools.tee(_two_qubit_candidates(xi_pair, w_pair, max_group_size, images), len(modes))
    best = np.inf
    for (mode, source), candidates in zip(modes, streams):
        source = source.copy()
        source[0, 0] = 0.0  # the identity string is no generator term
        for candidate in candidates:
            achieved = _local_pair_average(candidate, source, images)
            resid = np.linalg.norm(achieved - w_pair)
            best = min(best, resid)
            if resid <= LINEAR_SOLVE:
                return SynthesisResult(
                    group=_product_group(candidate, delta_t),
                    factors=candidate,
                    residual=_report(achieved, w_pair, build_pauli_basis(2)),
                    free_parameters=_two_qubit_note(mode),
                    pair=pair,
                    mode=mode,
                )
    raise InfeasibleError(
        f"no two-qubit pulse set within size {max_group_size} reached the target "
        f"(best residual {best:.3g})",
        best_residual=best,
    )


def _local_pair_average(candidate, xi_pair: np.ndarray, images: dict) -> np.ndarray:
    """Pair matrix averaged over the local product of ``candidate = (a, b)``: ``mean_k Ra_k^T xi_pair Rb_k``, ``R`` from ``_one_qubit_image``."""
    ra, rb = ([_one_qubit_image(p, images) for p in pulses] for pulses in candidate)
    n = _product_size(candidate)
    return sum(ra[k % len(ra)].T @ xi_pair @ rb[k % len(rb)] for k in range(n)) / n


def _two_qubit_note(mode: str) -> str:
    if mode == "direct":
        return "pulse products realize the pair target directly; per-factor phases free"
    return (
        "pulses commute with the wanted interaction and annihilate the measured noise; "
        "solved for the running evolution (wanted interaction active)"
    )


def _two_qubit_candidates(xi_pair, w_pair, max_group_size, images: dict) -> Iterator[tuple[Sequence, Sequence]]:
    """Distinct per-qubit pulse-list pairs within the size bound, fewest product pulses first, generated lazily.

    The walk goes through the product sizes that occur, ascending.  At each
    size it yields the margin products, headed by the trivial pair
    ``([I], [I])`` since each margin's lists start with ``[I]``, then the
    tailored kicks, then the catalogue.  A pair whose lists repeat the exact
    bits of an earlier pair's is skipped: it would build the same group, and
    equal bits mean equal size, so the first occurrence is the one kept.
    Both margins' lists are built when the stream starts; the tailored kicks
    only when the walk first reaches their part of a size.
    """
    lists_a, lists_b = ([(_list_bits(p), p) for p in _single_qubit_pulse_lists(xi, w, max_group_size, images)]
                        for xi, w in ((xi_pair[1:, 0], w_pair[1:, 0]), (xi_pair[0, 1:], w_pair[0, 1:])))
    margins = [(_product_size((pa, pb)), (ka, kb), (pa, pb)) for ka, pa in lists_a for kb, pb in lists_b]
    catalogue = _keyed_catalogue(max_group_size)
    tailored = None
    seen: set[tuple[bytes, bytes]] = set()

    def fresh(keyed, size):
        for n, key, pair in keyed:
            if n == size and key not in seen:
                seen.add(key)
                yield pair

    for size in sorted({n for n, _, _ in (*margins, *catalogue)}.union(_TAILORED_SIZES)):
        if size > max_group_size:
            break
        yield from fresh(margins, size)
        if size in _TAILORED_SIZES:
            if tailored is None:
                tailored = _keyed(_tailored_kick_products(xi_pair))
            yield from fresh(tailored, size)
        yield from fresh(catalogue, size)


def _list_bits(pulses) -> bytes:
    """The exact bits of a pulse list, its pulses' bytes joined: equal bits build equal factors."""
    return b"".join([u.tobytes() for u in pulses])


def _keyed(pairs) -> tuple[tuple[int, tuple[bytes, bytes], tuple[Sequence, Sequence]], ...]:
    """Each pair of per-qubit pulse lists with its product size and the bits of both lists, in order."""
    return tuple((_product_size(pair), tuple(map(_list_bits, pair)), pair) for pair in pairs)


@cache
def _keyed_catalogue(max_size: int):
    """``_keyed`` of ``_catalogue(2, max_size)``, whose pairs it shares; built once per size bound."""
    return _keyed(_catalogue(2, max_size))


# Product sizes of ``_tailored_kick_products``'s pairs: the parity kicks, and their four-element full product.
_TAILORED_SIZES = (2, 4)


def _tailored_kick_products(xi_pair) -> list[tuple[list, list]]:
    """Kicks about axes orthogonal to everything a qubit must shed.

    Qubit 1 sees its margin plus the columns of the bilinear block, qubit 2
    its margin plus the rows; a parity kick about an axis orthogonal to the
    whole set flips every unwanted component at once.  One-sided kicks leave
    the partner margin alone; the four-element full product
    ``([I, I, K1, K1], [I, K2, I, K2])`` annihilates margins and block together.
    """
    eye = [np.eye(2, dtype=complex)]
    v1 = [xi_pair[1:, 0]] + [xi_pair[1:, b] for b in range(1, 4)]
    v2 = [xi_pair[0, 1:]] + [xi_pair[a, 1:] for a in range(1, 4)]
    n1, n2 = axis_orthogonal_to(v1), axis_orthogonal_to(v2)
    out = []
    if n1 is not None:
        k1 = _kick_pulses(n1)
        out.append((k1, eye))
    if n2 is not None:
        k2 = _kick_pulses(n2)
        out.append((eye, k2))
    if n1 is not None and n2 is not None:
        out += [(k1, k2), ([k1[0], k1[0], k1[1], k1[1]], k2 * 2)]
    return out


# ---------------------------------------------------------------------------
# Error reports and encoded targets
# ---------------------------------------------------------------------------


def error_report(tilde_chi: CoordinateVector, wanted: CoordinateVector) -> ErrorReport:
    """Error vector and scalar distance between modified and wanted coordinates.

    The scalar distance is the Hilbert-Schmidt norm ``sqrt(Tr[D^dag D])`` of
    the deviation operator ``D = sum_a E_a K_a``, read off the coordinates:
    the basis is trace-orthogonal, so it is ``sqrt(M) * ||E||_2`` exactly.
    Pair-matrix coordinates count every entry but the identity ``[0, 0]``.
    """
    if not isinstance(tilde_chi, CoordinateVector) or not isinstance(wanted, CoordinateVector):
        raise ShapeError("error_report expects CoordinateVector operands")
    if tilde_chi.coords.shape != wanted.coords.shape:
        raise ShapeError("coordinate shapes do not match")
    e_vec = CoordinateVector(coords=tilde_chi.coords - wanted.coords, basis=tilde_chi.basis)
    return ErrorReport(error_vector=e_vec, scalar_distance=float(_distance(e_vec.as_flat(), e_vec.basis.normalization)))


def _distance(coords, normalization: float) -> np.ndarray:
    """Hilbert-Schmidt norm ``sqrt(M) * ||e||_2`` of the operator with coordinates ``e``, over the last axis.

    Exact for a trace-orthogonal basis, ``Tr(K_a K_b) = M delta_ab``; a stack and a single vector share
    one reduction, so they agree bit for bit.  ``DomainError``, not an overflow warning, unless finite.
    """
    with np.errstate(over="ignore"):
        d = np.sqrt(normalization) * np.linalg.norm(coords, axis=-1)
    if not (d <= sys.float_info.max).all():  # also false for NaN
        raise DomainError("distances are non-negative and finite")
    return d


def check_encoded(result_generator: CoordinateVector, target: TargetSpec) -> ErrorReport:
    """Distance of the residual generator from the stabilizer span.

    Projects the deviation ``S_tilde - S_w`` onto the real span of the
    stabilizer generators by least squares in coordinates (the trace inner
    product, as the basis is trace-orthogonal), and reports the length of
    what remains.  Each generator's identity part ``Tr(g) / M``, which
    ``expand`` leaves out, is coordinate 0.  An empty stabilizer reduces to
    the plain scalar distance.
    """
    wanted = np.zeros_like(result_generator.coords) if target.wanted is None else target.wanted
    if np.shape(wanted) != result_generator.coords.shape:
        raise ShapeError("target coordinates do not match the generator shape")
    report = error_report(result_generator, CoordinateVector(coords=wanted, basis=result_generator.basis))
    e_vec, d = report.error_vector, report.scalar_distance
    stab = target.stabilizer
    if stab is None or stab.size == 0:
        return ErrorReport(error_vector=e_vec, scalar_distance=d, stabilizer_distance=d)
    basis = e_vec.basis
    gens = np.array([[np.trace(g).real / basis.normalization, *expand(g, basis).coords] for g in stab.generators])
    error = np.concatenate(([0.0], e_vec.as_flat()))
    coeffs, *_ = np.linalg.lstsq(gens.T, error, rcond=None)
    stab_d = float(_distance(error - coeffs @ gens, basis.normalization))
    return ErrorReport(error_vector=e_vec, scalar_distance=d, stabilizer_distance=min(stab_d, d))


# ---------------------------------------------------------------------------
# Rotation -> pulse conversion
# ---------------------------------------------------------------------------


def group_to_pulses(rotations, dim: int) -> list[np.ndarray]:
    """Recover unitary pulses from adjoint rotations, up to global phase.

    Each rotation rebuilds the conjugation superoperator of its pulse, whose
    Choi matrix has rank one; the pulse is the polar factor of that rank-one
    factor, with its largest-magnitude entry made real positive.  ``dim``
    is any power of two the Pauli basis allows.

    Raises
    ------
    NonRepresentableError
        If a rotation is not in the image of the adjoint map.
    """
    basis = build_pauli_basis(_qubit_count(dim))
    d2, n = dim * dim, dim * dim - 1
    vecs = basis.elements.reshape(d2, d2)
    out = []
    for rot in rotations:
        r = _square(rot.matrix if isinstance(rot, AdjointRotation) else rot, "rotation", n, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite entry fails the check as inf or NaN
            orthogonal = np.linalg.norm(r.T @ r - np.eye(n)) <= PULSE_RECOVERY
        if not (orthogonal and np.linalg.det(r) > 0):
            raise DomainError("rotations must be orthogonal with determinant +1")
        s = vecs.T @ _extend_identity(r).T @ vecs.conj() / basis.normalization
        choi = s.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3).reshape(d2, d2)
        choi = (choi + choi.conj().T) / 2.0
        evals, evecs = np.linalg.eigh(choi)
        if not evals[-2] <= CHOI_RANK:
            raise NonRepresentableError(
                f"rotation is not in the adjoint image of SU({dim}) "
                f"(Choi rank defect {evals[-2]:.2e}); only a subgroup of SO({n}) is represented"
            )
        a = evecs[:, -1].reshape(dim, dim) * np.sqrt(max(evals[-1], 0.0))
        u = _polar(a.conj().T)
        resid = np.linalg.norm(adjoint_of(u, basis).matrix - r)
        if not resid <= PULSE_RECOVERY:
            raise NonRepresentableError(f"pulse reconstruction residual {resid:.2e} exceeds tolerance")
        # deterministic phase: largest-magnitude entry made real positive
        idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        out.append(u * np.exp(-1j * np.angle(u[idx])))
    return out
