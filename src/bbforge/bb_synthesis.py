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

from dataclasses import dataclass
from functools import reduce
from math import lcm

import numpy as np

from .defaults import TOL
from .errors import (
    DomainError,
    InfeasibleError,
    InfeasibleMagnitudeError,
    NonRepresentableError,
    ShapeError,
)
from .open_system_sim import PulseGroup, _matrix_to_pairs
from .operator_algebra import (
    AdjointRotation,
    CoordinateVector,
    OperatorBasis,
    _first_significant,
    _kron,
    _polar,
    _readonly,
    adjoint_of,
    axis_angle_unitary,
    build_pauli_basis,
    reconstruct,
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
        gens = tuple(_readonly(np.asarray(g, dtype=complex)) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if not np.linalg.norm(g - g.conj().T) <= 1e-10:
                raise DomainError("stabilizer generators must be Hermitian")
        if gens:
            gram = np.array([[np.trace(a @ b).real for b in gens] for a in gens])
            if np.linalg.matrix_rank(gram, tol=1e-10) < len(gens):
                raise DomainError("stabilizer generators must be linearly independent")

    @property
    def size(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class TargetSpec:
    """What the modified evolution should look like.

    ``kind`` is one of ``storage``, ``single_qubit``, ``two_qubit`` or
    ``encoded``; ``wanted`` is a 3-vector for single-qubit targets, a 4x4
    pair matrix for two-qubit targets, and zero / omitted for storage.
    """

    kind: str
    wanted: np.ndarray | None = None
    stabilizer: StabilizerSpace | None = None

    def __post_init__(self):
        if self.kind not in ("storage", "single_qubit", "two_qubit", "encoded"):
            raise DomainError(f"unknown target kind {self.kind!r}")
        w = self.wanted
        if w is not None:
            w = np.asarray(w, dtype=float)
            if self.kind == "single_qubit" and w.shape != (3,):
                raise ShapeError("single-qubit target needs a 3-vector")
            if self.kind == "two_qubit":
                if w.shape == (3, 3):
                    full = np.zeros((4, 4))
                    full[1:, 1:] = w
                    w = full
                if w.shape != (4, 4):
                    raise ShapeError("two-qubit target needs a 4x4 pair matrix")
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
        if self.scalar_distance < -1e-15:
            raise DomainError("distances are non-negative")
        if self.stabilizer_distance is not None and self.stabilizer_distance > self.scalar_distance + 1e-9:
            raise DomainError("stabilizer distance cannot exceed the plain distance")


@dataclass(frozen=True)
class SynthesisResult:
    group: PulseGroup
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
            "group_size": self.group.size,
            "delta_t": self.group.delta_t,
            "cycle_time": self.group.cycle_time,
            "pulses": [_matrix_to_pairs(p) for p in self.group.pulses],
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
    return averaged_rotation(group).T @ np.asarray(xi, dtype=float)


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
    basis = build_pauli_basis(2)
    xi_flat = np.zeros(16)
    xi_flat[1:] = CoordinateVector(np.asarray(xi_pair, dtype=float), basis).as_flat()
    return _averaged_pair([r.matrix for r in group.rotations], xi_flat)


def _averaged_pair(rotations, flat: np.ndarray) -> np.ndarray:
    """Mean of ``R^T flat`` over the identity-extended adjoint blocks ``R``, as a 4x4 matrix."""
    acc = np.zeros(16)
    for r in rotations:
        acc += _extend_identity(r).T @ flat
    acc /= len(rotations)
    return acc.reshape(4, 4)


def axis_orthogonal_to(vectors, tol: float = 1e-9) -> np.ndarray | None:
    """Canonical unit vector orthogonal to every given direction.

    Prefers the least-index coordinate axis when one is exactly orthogonal;
    otherwise projects the least-index non-parallel coordinate axis onto the
    orthogonal complement.  Returns ``None`` when the directions span all of
    3-space.
    """
    dirs = []
    for v in vectors:
        v = np.asarray(v, dtype=float)
        n = np.linalg.norm(v)
        if n > TOL.zero_vector:
            dirs.append(v / n)
    if not dirs:
        return np.array([1.0, 0.0, 0.0])
    stack = np.array(dirs)
    for m in range(3):
        if np.abs(stack[:, m]).max() <= tol:
            return np.eye(3)[m]
    _, s, vh = np.linalg.svd(stack)
    s_full = np.zeros(3)
    s_full[: len(s)] = s
    null = vh[s_full < 1e-9]
    if null.shape[0] == 0:
        return None
    for e in np.eye(3):
        proj = null.T @ (null @ e)
        if np.linalg.norm(proj) > 1e-9:
            proj = proj / np.linalg.norm(proj)
            if _first_significant(proj) < 0:
                proj = -proj
            return proj
    return None


def _group_from_axis_angles(axis_angles, delta_t: float) -> PulseGroup:
    """Build a pulse group (identity first) from (axis, angle) parameters."""
    pulses = [np.eye(2, dtype=complex)]
    pulses.extend(axis_angle_unitary(axis, angle) for axis, angle in axis_angles)
    return PulseGroup.from_pulses(pulses, delta_t)


def _kick_pulses(axis) -> list[np.ndarray]:
    """Pulses of the parity kick ``{I, exp(i n.sigma pi/2)}`` about ``axis``."""
    return [np.eye(2, dtype=complex), axis_angle_unitary(axis, np.pi / 2)]


def parity_kick_group(axis, delta_t: float = 0.1) -> PulseGroup:
    """The minimal decoupling pair ``{I, exp(i n.sigma pi/2)}``."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return _group_from_axis_angles([(axis, np.pi / 2)], delta_t)


def _trivial_group(dim: int, delta_t: float) -> PulseGroup:
    return PulseGroup.from_pulses([np.eye(dim, dtype=complex)], delta_t)


def _report(achieved: np.ndarray, wanted: np.ndarray, basis: OperatorBasis) -> ErrorReport:
    return error_report(
        CoordinateVector(coords=np.asarray(achieved, dtype=float), basis=basis),
        CoordinateVector(coords=np.asarray(wanted, dtype=float), basis=basis),
    )


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------


def solve_storage(generator, qubit: int = 0, max_group_size: int = 8, *, delta_t: float = 0.1) -> SynthesisResult:
    """Find a minimal pulse set whose averaged rotation annihilates ``xi``.

    A zero generator returns the trivial group; otherwise a parity kick
    about the canonical axis orthogonal to ``xi`` removes the error exactly
    with the fewest possible pulses.
    """
    if max_group_size < 2:
        raise DomainError("max_group_size must be >= 2")
    xi = np.asarray(generator.xi[qubit] if hasattr(generator, "xi") else generator, dtype=float)
    basis1 = build_pauli_basis(1)
    if np.linalg.norm(xi) <= TOL.zero_vector:
        group = _trivial_group(2, delta_t)
        return SynthesisResult(
            group=group,
            residual=_report(xi, np.zeros(3), basis1),
            free_parameters="generator already vanishes; no pulses required",
            qubit=qubit,
        )
    axis = axis_orthogonal_to([xi])
    group = parity_kick_group(axis, delta_t)
    achieved = modified_vector(group, xi)
    report = _report(achieved, np.zeros(3), basis1)
    if report.scalar_distance > TOL.linear_solve:
        raise InfeasibleError("parity kick failed to annihilate the generator", best_residual=report.scalar_distance)
    return SynthesisResult(
        group=group,
        residual=report,
        free_parameters=(
            "kick axis free within the plane orthogonal to the measured generator; "
            "sign of the rotation angle free"
        ),
        qubit=qubit,
    )


# ---------------------------------------------------------------------------
# Single-qubit gate targets
# ---------------------------------------------------------------------------


def _fan_vectors(u: np.ndarray, count: int, radius: float, plane_hint: np.ndarray) -> list[np.ndarray]:
    """``count`` vectors of norm ``radius`` summing to ``u`` (feasible by assumption)."""
    norm_u = np.linalg.norm(u)
    if norm_u <= TOL.zero_vector:
        # balanced fan in the plane spanned by the hint and its canonical normal
        a = plane_hint / np.linalg.norm(plane_hint)
        b = axis_orthogonal_to([a])
        angles = [2 * np.pi * k / count + np.pi / count for k in range(count)]
        return [radius * (np.cos(t) * a + np.sin(t) * b) for t in angles]
    u_hat = u / norm_u
    t_hat = plane_hint - (plane_hint @ u_hat) * u_hat
    if np.linalg.norm(t_hat) <= 1e-9:
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
    if norm_cross <= 1e-12:
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
    xi = np.asarray(generator.xi[qubit] if hasattr(generator, "xi") else generator, dtype=float)
    w = target.wanted_vector()
    basis1 = build_pauli_basis(1)
    norm_xi, norm_w = np.linalg.norm(xi), np.linalg.norm(w)
    scale = max(norm_xi, norm_w, 1.0)
    if np.linalg.norm(xi - w) <= TOL.zero_vector * scale:
        group = _trivial_group(2, delta_t)
        return SynthesisResult(
            group=group,
            residual=_report(xi, w, basis1),
            free_parameters="measured generator already equals the target",
            qubit=qubit,
        )
    if norm_w <= TOL.zero_vector:
        return solve_storage(generator, qubit, max_group_size, delta_t=delta_t)
    if norm_w > norm_xi + TOL.zero_vector:
        raise InfeasibleMagnitudeError(
            "averaged rotations are contractions; target length "
            f"{norm_w:.3g} exceeds measured length {norm_xi:.3g} "
            f"(would need amplification by {norm_w / max(norm_xi, 1e-300):.3g})"
        )

    axis_angles = None
    note = ""
    if abs(w @ xi - norm_w**2) <= TOL.linear_solve * scale**2:
        # w is the projection of xi onto its own direction: one parity kick
        axis_angles = [(w / norm_w, np.pi / 2)]
        note = "target is a projection of the measured vector; parity kick about the target axis"
    else:
        for m in range(3, max_group_size + 1):
            u = m * w - xi
            if np.linalg.norm(u) <= (m - 1) * norm_xi + TOL.zero_vector:
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
                best_residual=best / max(m, 1),
            )

    group = _group_from_axis_angles(axis_angles, delta_t)
    achieved = modified_vector(group, xi)
    report = _report(achieved, w, basis1)
    if report.scalar_distance > TOL.linear_solve * max(1.0, scale):
        raise InfeasibleError("constructed pulse set missed the target", best_residual=report.scalar_distance)
    return SynthesisResult(group=group, residual=report, free_parameters=note, qubit=qubit)


# ---------------------------------------------------------------------------
# Two-qubit targets
# ---------------------------------------------------------------------------


def _product_group(per_qubit: list[list[np.ndarray]], delta_t: float) -> PulseGroup:
    """Local product of per-qubit pulse lists, qubit 0 first.

    Each list is repeated cyclically to the lcm of their lengths, which keeps
    its average; pulse ``k`` is ``per_qubit[0][k] (x) per_qubit[1][k] (x) ...``.
    """
    size = lcm(*map(len, per_qubit))
    pulses = [reduce(_kron, (qubit[k % len(qubit)] for qubit in per_qubit)) for k in range(size)]
    return PulseGroup.from_pulses(pulses, delta_t)


def _single_qubit_pulse_lists(xi_vec: np.ndarray, w_vec: np.ndarray, max_group_size: int) -> list[list[np.ndarray]]:
    """Candidate pulse lists for one qubit's margin of the pair problem."""
    lists: list[list[np.ndarray]] = [[np.eye(2, dtype=complex)]]
    try:
        if np.linalg.norm(w_vec) <= TOL.zero_vector:
            res = solve_storage(xi_vec, 0, max_group_size)
        else:
            res = solve_single_qubit_gate(xi_vec, TargetSpec(kind="single_qubit", wanted=w_vec), 0, max_group_size)
        lists.append([np.array(p) for p in res.group.pulses])
    except InfeasibleError:
        pass
    if np.linalg.norm(xi_vec) > TOL.zero_vector:
        # parity kicks about each coordinate axis orthogonal enough to matter
        lists.extend(_kick_pulses(e) for e in np.eye(3))
    return lists


def _dim4_catalogue(max_size: int, delta_t: float) -> list[PulseGroup]:
    """Deterministic catalogue of two-qubit product pulse sets."""
    eye = [np.eye(2, dtype=complex)]
    kicks = [_kick_pulses(e) for e in np.eye(3)]
    groups = []
    for m in range(3):
        groups.append(_product_group([kicks[m], kicks[m]], delta_t))
    for m in range(3):
        groups.append(_product_group([kicks[m], eye], delta_t))
        groups.append(_product_group([eye, kicks[m]], delta_t))
    for a in range(3):
        for b in range(3):
            if a != b:
                groups.append(_product_group([kicks[a], kicks[b]], delta_t))
    if max_size >= 4:
        paulis = [np.eye(2, dtype=complex), axis_angle_unitary([1, 0, 0], np.pi / 2),
                  axis_angle_unitary([0, 1, 0], np.pi / 2), axis_angle_unitary([0, 0, 1], np.pi / 2)]
        groups.append(_product_group([paulis, paulis], delta_t))
        groups.append(_product_group([paulis, eye], delta_t))
        groups.append(_product_group([eye, paulis], delta_t))
    return groups


def solve_two_qubit(generator, target: TargetSpec, pair: tuple[int, int] = (0, 1), ansatz: str = "local_products", *, max_group_size: int = 8, delta_t: float = 0.1) -> SynthesisResult:
    """Solve the pair-matrix averaged-rotation condition for two qubits.

    The direct condition is ``avg_k(R_k) . xi_pair = w_pair``.  When the
    wanted interaction is absent from the measured pair matrix (the usual
    situation: noise is probed with the computation Hamiltonian off), that
    system is unsatisfiable by contractive averages, and the solver switches
    to the running-evolution form ``avg_k(R_k) . (xi_pair + w_pair) =
    w_pair``: pulses must commute with the wanted interaction while
    annihilating the measured noise.

    ``ansatz='local_products'`` searches tensor products of single-qubit
    pulse sets; ``'general'`` additionally refines over free two-qubit
    unitaries by numerical least squares.
    """
    if target.kind != "two_qubit":
        raise DomainError("target kind must be two_qubit")
    if ansatz not in ("local_products", "general"):
        raise DomainError("ansatz must be local_products or general")
    xi_pair = np.asarray(generator.pair_matrix(*pair) if hasattr(generator, "pair_matrix") else generator, dtype=float)
    if xi_pair.shape != (4, 4):
        raise ShapeError("pair coefficient matrix must be 4x4")
    w_pair = target.wanted_vector()
    basis2 = build_pauli_basis(2)

    modes = []
    if np.linalg.norm(w_pair) <= np.linalg.norm(xi_pair) + TOL.zero_vector:
        modes.append(("direct", xi_pair))
    if np.linalg.norm(w_pair) > TOL.zero_vector:
        modes.append(("running", xi_pair + w_pair))

    candidates = _two_qubit_candidates(xi_pair, w_pair, max_group_size, delta_t)
    best = (np.inf, None, None)
    for mode, source in modes:
        for group in candidates:
            achieved = modified_pair_matrix(group, source)
            resid = np.linalg.norm(achieved - w_pair)
            if resid < best[0]:
                best = (resid, group, mode)
            if resid <= TOL.linear_solve:
                report = _report(achieved, w_pair, basis2)
                return SynthesisResult(
                    group=group,
                    residual=report,
                    free_parameters=_two_qubit_note(mode),
                    pair=tuple(pair),
                    mode=mode,
                )
    if ansatz == "general":
        refined = _refine_general(modes, w_pair, best, max_group_size, delta_t)
        if refined is not None:
            resid, group, mode = refined
            if resid <= TOL.linear_solve:
                achieved = modified_pair_matrix(group, dict(modes)[mode])
                return SynthesisResult(
                    group=group,
                    residual=_report(achieved, w_pair, basis2),
                    free_parameters=_two_qubit_note(mode) + "; refined numerically",
                    pair=tuple(pair),
                    mode=mode,
                )
            best = min(best, refined, key=lambda t: t[0])
    raise InfeasibleError(
        f"no two-qubit pulse set within size {max_group_size} reached the target "
        f"(best residual {best[0]:.3g})",
        best_residual=best[0],
    )


def _two_qubit_note(mode: str) -> str:
    if mode == "direct":
        return "pulse products realize the pair target directly; per-factor phases free"
    return (
        "pulses commute with the wanted interaction and annihilate the measured noise; "
        "solved for the running evolution (wanted interaction active)"
    )


def _two_qubit_candidates(xi_pair, w_pair, max_group_size, delta_t) -> list[PulseGroup]:
    a_vec, b_vec = xi_pair[1:, 0], xi_pair[0, 1:]
    wa, wb = w_pair[1:, 0], w_pair[0, 1:]
    groups: list[PulseGroup] = [_trivial_group(4, delta_t)]
    lists_a = _single_qubit_pulse_lists(a_vec, wa, max_group_size)
    lists_b = _single_qubit_pulse_lists(b_vec, wb, max_group_size)
    for pa in lists_a:
        for pb in lists_b:
            if lcm(len(pa), len(pb)) <= max_group_size:
                groups.append(_product_group([pa, pb], delta_t))
    groups.extend(_tailored_kick_products(xi_pair, delta_t, max_group_size))
    groups.extend(g for g in _dim4_catalogue(max_group_size, delta_t) if g.size <= max_group_size)
    groups.sort(key=lambda g: g.size)
    return groups


def _tailored_kick_products(xi_pair, delta_t, max_group_size) -> list[PulseGroup]:
    """Kicks about axes orthogonal to everything a qubit must shed.

    Qubit 1 sees its margin plus the columns of the bilinear block, qubit 2
    its margin plus the rows; a parity kick about an axis orthogonal to the
    whole set flips every unwanted component at once.  One-sided kicks leave
    the partner margin alone, the four-element full product annihilates
    margins and block together.
    """
    eye = [np.eye(2, dtype=complex)]
    v1 = [xi_pair[1:, 0]] + [xi_pair[1:, b] for b in range(1, 4)]
    v2 = [xi_pair[0, 1:]] + [xi_pair[a, 1:] for a in range(1, 4)]
    n1, n2 = axis_orthogonal_to(v1), axis_orthogonal_to(v2)
    out = []
    k1 = k2 = None
    if n1 is not None:
        k1 = _kick_pulses(n1)
        out.append(_product_group([k1, eye], delta_t))
    if n2 is not None:
        k2 = _kick_pulses(n2)
        out.append(_product_group([eye, k2], delta_t))
    if k1 is not None and k2 is not None:
        out.append(_product_group([k1, k2], delta_t))
        if max_group_size >= 4:
            full = [_kron(a, b) for a in k1 for b in k2]
            out.append(PulseGroup.from_pulses(full, delta_t))
    return out


def _refine_general(modes, w_pair, warm, max_group_size, delta_t):
    """Least-squares refinement over free SU(4) pulses, warm started."""
    from scipy.optimize import minimize

    basis2 = build_pauli_basis(2)
    gens = basis2.generators

    def pulses_from_params(params, count):
        ps = [np.eye(4, dtype=complex)]
        for k in range(count):
            h = np.tensordot(params[15 * k : 15 * (k + 1)], gens, axes=1)
            from scipy.linalg import expm

            ps.append(expm(1j * h))
        return ps

    best = None
    for mode, source in modes:
        src_flat = np.zeros(16)
        src_flat[1:] = CoordinateVector(source, basis2).as_flat()
        for count in range(1, min(3, max_group_size - 1) + 1):

            def cost(params):
                ps = pulses_from_params(params, count)
                avg = _averaged_pair([adjoint_of(p, basis2).matrix for p in ps], src_flat)
                return float(np.sum((avg - w_pair) ** 2))

            x0 = np.zeros(15 * count)
            if warm[1] is not None and warm[1].size == count + 1:
                for k, p in enumerate(warm[1].pulses[1:]):
                    h = -1j * _matrix_log_unitary(p)
                    x0[15 * k : 15 * (k + 1)] = np.einsum("kij,ji->k", gens, h).real / basis2.normalization
            res = minimize(cost, x0, method="L-BFGS-B", options={"maxiter": 400})
            resid = np.sqrt(res.fun)
            group = PulseGroup.from_pulses(pulses_from_params(res.x, count), delta_t)
            if best is None or resid < best[0]:
                best = (resid, group, mode)
            if resid <= TOL.linear_solve:
                return best
    return best


def _matrix_log_unitary(u: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eig(u)
    return evecs @ np.diag(np.log(evals)) @ np.linalg.inv(evecs)


# ---------------------------------------------------------------------------
# Error reports and encoded targets
# ---------------------------------------------------------------------------


def error_report(tilde_chi: CoordinateVector, wanted: CoordinateVector) -> ErrorReport:
    """Error vector and scalar distance between modified and wanted coordinates.

    The scalar distance is the trace norm of the reconstructed deviation
    operator, ``sqrt(Tr[(sum_a E_a K_a)^2])``.
    """
    if not isinstance(tilde_chi, CoordinateVector) or not isinstance(wanted, CoordinateVector):
        raise ShapeError("error_report expects CoordinateVector operands")
    if tilde_chi.coords.shape != wanted.coords.shape:
        raise ShapeError("coordinate shapes do not match")
    e_coords = tilde_chi.coords - wanted.coords
    e_vec = CoordinateVector(coords=e_coords, basis=tilde_chi.basis)
    delta = reconstruct(e_vec)
    d = float(np.sqrt(abs(np.trace(delta.conj().T @ delta).real)))
    return ErrorReport(error_vector=e_vec, scalar_distance=d)


def check_encoded(result_generator: CoordinateVector, target: TargetSpec) -> ErrorReport:
    """Distance of the residual generator from the stabilizer span.

    Reconstructs ``S_tilde - S_w``, projects it onto the real span of the
    stabilizer generators by least squares in the trace inner product, and
    reports the length of what remains.  An empty stabilizer reduces to the
    plain scalar distance.
    """
    wanted = np.zeros_like(result_generator.coords) if target.wanted is None else target.wanted
    if np.shape(wanted) != result_generator.coords.shape:
        raise ShapeError("target coordinates do not match the generator shape")
    report = error_report(result_generator, CoordinateVector(coords=wanted, basis=result_generator.basis))
    e_vec, d = report.error_vector, report.scalar_distance
    stab = target.stabilizer
    if stab is None or stab.size == 0:
        return ErrorReport(error_vector=e_vec, scalar_distance=d, stabilizer_distance=d)
    delta = reconstruct(e_vec)
    gens = stab.generators
    gram = np.array([[np.trace(a.conj().T @ b).real for b in gens] for a in gens])
    rhs = np.array([np.trace(g.conj().T @ delta).real for g in gens])
    coeffs, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    nearest = sum(c * g for c, g in zip(coeffs, gens))
    resid = delta - nearest
    stab_d = float(np.sqrt(abs(np.trace(resid.conj().T @ resid).real)))
    return ErrorReport(error_vector=e_vec, scalar_distance=d, stabilizer_distance=min(stab_d, d))


# ---------------------------------------------------------------------------
# Rotation -> pulse conversion
# ---------------------------------------------------------------------------


def group_to_pulses(rotations, dim: int) -> list[np.ndarray]:
    """Recover unitary pulses from adjoint rotations, up to global phase.

    Single-qubit rotations invert through the axis-angle closed form;
    two-qubit rotations are inverted by rebuilding the conjugation
    superoperator and extracting the rank-one factor of its Choi matrix.

    Raises
    ------
    NonRepresentableError
        If a rotation is not in the image of the adjoint map.
    """
    if dim not in (2, 4):
        raise ShapeError("pulse recovery supports dim 2 and 4")
    out = []
    for rot in rotations:
        r = rot.matrix if isinstance(rot, AdjointRotation) else np.asarray(rot, dtype=float)
        n = dim * dim - 1
        if r.shape != (n, n):
            raise ShapeError(f"rotation must be {n}x{n} for dim {dim}")
        if not (np.linalg.norm(r.T @ r - np.eye(n)) <= 1e-8 and np.linalg.det(r) > 0):
            raise DomainError("rotations must be orthogonal with determinant +1")
        if dim == 2:
            try:
                out.append(unitary_from_rotation(r, tol=1e-8).unitary())
            except InfeasibleError as exc:
                raise NonRepresentableError(
                    f"rotation is not an SU(2) adjoint image (residual {exc.best_residual:.2e})"
                ) from exc
        else:
            out.append(_su4_from_rotation(r))
    return out


def _su4_from_rotation(r15: np.ndarray) -> np.ndarray:
    basis = build_pauli_basis(2)
    k = basis.elements
    vecs = k.reshape(16, 16)
    r16 = _extend_identity(r15)
    s = np.einsum("ab,bi,aj->ij", r16, vecs, vecs.conj()) / basis.normalization
    choi = s.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
    choi = (choi + choi.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(choi)
    if evals[-2] > 1e-6:
        raise NonRepresentableError(
            "rotation is not in the adjoint image of SU(4) "
            f"(Choi rank defect {evals[-2]:.2e}); only a subgroup of SO(15) is represented"
        )
    a = evecs[:, -1].reshape(4, 4) * np.sqrt(max(evals[-1], 0.0))
    u = _polar(a.conj().T)
    resid = np.linalg.norm(adjoint_of(u, basis).matrix - r15)
    if resid > 1e-8:
        raise NonRepresentableError(f"pulse reconstruction residual {resid:.2e} exceeds tolerance")
    # deterministic phase: largest-magnitude entry made real positive
    idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    phase = np.exp(-1j * np.angle(u[idx]))
    return u * phase
