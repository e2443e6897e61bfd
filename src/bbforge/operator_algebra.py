"""Hermitian operator bases and the SU(n) <-> SO(N) adjoint machinery.

Conventions used throughout the package:

* The fixed operator basis on ``N`` qubits is the set of Pauli strings,
  ordered lexicographically by index vector with ``0=I, 1=x, 2=y, 3=z``
  and the identity first.  They are trace-orthogonal,
  ``Tr(K_a K_b) = M delta_ab`` with ``M = 2**N``.
* Adjoint rotations use the ``U^dag K U`` convention:
  ``U^dag K_i U = sum_j R_ij K_j``.  With this convention the coordinate
  vector of a Hermitian operator transforms as ``c -> R.T @ c`` under
  conjugation, and ``adjoint_of(U @ V) = adjoint_of(U) @ adjoint_of(V)``.
* A single-qubit pulse ``U = exp(i*theta* n.sigma)`` has the closed-form
  adjoint rotation

      R(n, theta) = cos(2*theta) I + 2 sin^2(theta) n n^T
                    + sin(2*theta) E(n),

  where ``E(n)[a, b] = sum_c eps_abc n_c``.  Acting on coordinate columns
  (``R.T``) this is the active rotation by ``2*theta`` about ``n``; the
  angle doubling is the usual SU(2) -> SO(3) double cover.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .defaults import DISTINCT, GAUSS_NEWTON_STEP, LINEAR_SOLVE, MATRIX_RESIDUAL, NEGLIGIBLE, NULL_SPACE, ROUNDOFF
from .errors import CapacityError, DomainError, InfeasibleError, ShapeError

__all__ = [
    "OperatorBasis",
    "CoordinateVector",
    "AdjointRotation",
    "AxisAngle",
    "build_pauli_basis",
    "expand",
    "reconstruct",
    "adjoint_of",
    "unitary_from_rotation",
    "axis_angle_unitary",
    "axis_angle_rotation",
]

_PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
_LABELS = "IXYZ"

# Maximum qubit count for dense basis construction.  The element stack holds
# 16**n complex entries (16.8 MB at 5 qubits); the trace-orthogonality check
# is one 4**n x 4**n matrix product, 64**n multiply-adds (about 0.2 s on one
# BLAS thread at 5 qubits).  Each further qubit multiplies them by 16 and 64.
MAX_BASIS_QUBITS = 5


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of square matrices, broadcast over both operands' leading axes: the same products."""
    n = a.shape[-1] * b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], n, n)


def _check_time(t, name: str = "propagation time", positive: bool = False) -> float:
    """``t`` as a float, if it is a finite real other than a bool, non-negative (positive if ``positive``)."""
    real = isinstance(t, numbers.Real) and not isinstance(t, bool)
    if not (real and (0 < t if positive else 0 <= t) and t <= sys.float_info.max):  # NaN and huge ints fail too
        raise DomainError(f"{name} must be {'positive' if positive else 'non-negative'} and finite, got {t!r}")
    return float(t)


def _check_count(n, name: str, minimum: int) -> int:
    """``n`` as an int, if it is an integer other than a bool and at least ``minimum``."""
    try:
        count = None if isinstance(n, bool) else operator.index(n)
    except TypeError:
        count = None
    if count is None or count < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {n!r}")
    return count


def _check_pair(pair, num_qubits: int | None, name: str = "pair") -> tuple[int, int]:
    """``pair`` as two qubit indices ``i < j``, each an integer other than a bool, with ``j < num_qubits`` when it is known."""
    try:
        i, j = pair
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be two qubit indices, got {pair!r}") from None
    i, j = _check_count(i, f"{name} qubit", 0), _check_count(j, f"{name} qubit", 0)
    if not i < j or (num_qubits is not None and j >= num_qubits):
        raise DomainError(f"{name} needs qubits i < j{'' if num_qubits is None else f' < {num_qubits}'}, got {pair!r}")
    return i, j


def _qubit_count(dim: int) -> int:
    """Qubits of a ``dim``-dimensional system; ``ShapeError`` unless ``dim`` is a power of two, at least 2."""
    dim = _check_count(dim, "dimension", 0)
    if dim < 2 or dim & (dim - 1):
        raise ShapeError(f"dimension must be a power of two, got {dim}")
    return dim.bit_length() - 1


def _polar(a: np.ndarray) -> np.ndarray:
    """Unitary polar factor of ``a``."""
    w, _, v = np.linalg.svd(a)
    return w @ v


def _array(m, name: str, dtype) -> np.ndarray | None:
    """``m`` as an array of ``dtype``, or None if it is ragged or non-numeric.

    A complex ``m`` for a float ``dtype`` keeps its real part, and raises
    ``DomainError`` if an imaginary part exceeds ``ROUNDOFF``: real input is
    told by its dtype, with no test of its values.
    """
    try:
        if dtype is not float:
            return np.asarray(m, dtype=dtype)
        a = np.asarray(m)
        if a.dtype == float:
            return a
        if np.iscomplexobj(a):
            if not (np.abs(a.imag) <= ROUNDOFF).all():  # also false for NaN
                raise DomainError(f"{name} must be real, got an imaginary part past round-off")
            a = a.real
        return a.astype(float)
    except (TypeError, ValueError):  # ragged or non-numeric
        return None


def _square(m, name: str, dim: int | None = None, *, stack: bool = False, dtype=complex) -> np.ndarray:
    """``m`` as an array of ``dtype``, if it is one square matrix, or with ``stack`` a non-empty ``(P, d, d)`` stack.

    ``ShapeError`` for any other shape, for ragged or non-numeric input, for
    ``d = 0`` and, when ``dim`` is given, for ``d != dim``; ``DomainError``
    for a float ``dtype`` and an imaginary part past round-off.  Every matrix
    argument of the package is converted here.
    """
    a = _array(m, name, dtype)
    shape = () if a is None else a.shape
    if len(shape) != 2 + stack or shape[-2] != shape[-1] or not a.size or (dim is not None and shape[-1] != dim):
        what = "a non-empty stack of square matrices that share one dimension" if stack else "a non-empty square matrix"
        got = "ragged or non-numeric input" if a is None else f"shape {a.shape}"
        raise ShapeError(f"{name} must be {what}{'' if dim is None else f' of dimension {dim}'}, got {got}")
    return a


def _vector(v, name: str, length: int | None = None) -> np.ndarray:
    """``v`` as a float array, if it is one finite 1-D vector, of ``length`` entries when given.

    ``ShapeError`` for any other shape and for ragged or non-numeric input,
    ``DomainError`` for a non-finite entry or an imaginary part past
    round-off.  Every vector argument of the package is converted here.
    """
    a = _array(v, name, float)
    if a is None or a.ndim != 1 or (length is not None and len(a) != length):
        what = "a 1-D vector" if length is None else f"a {length}-vector"
        got = "ragged or non-numeric input" if a is None else f"shape {a.shape}"
        raise ShapeError(f"{name} must be {what}, got {got}")
    if not np.isfinite(a).all():
        raise DomainError(f"{name} must be finite")
    return a


@np.errstate(over="ignore", invalid="ignore")  # an infinite entry fails the check as NaN
def _check_hermitian(m, name: str, dim: int | None = None) -> np.ndarray:
    """``m`` through ``_square``; ``DomainError`` unless it is Hermitian within tolerance."""
    m = _square(m, name, dim)
    if not np.linalg.norm(m - m.conj().T) <= MATRIX_RESIDUAL:
        raise DomainError(f"{name} is not Hermitian within tolerance")
    return m


def _within_frobenius(x: np.ndarray, tol: float) -> bool:
    """Whether each matrix of a ``(..., m, n)`` stack has Frobenius norm at most ``tol``; false for NaN.

    The norm of the whole stack bounds each matrix's, so the matrices are
    normed one by one only when it exceeds ``tol``.
    """
    if np.linalg.norm(x) <= tol:
        return True
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm fails the check as inf
        return bool((np.linalg.norm(x, axis=(-2, -1)) <= tol).all())


@np.errstate(over="ignore", invalid="ignore")  # a product or norm that overflows fails the check as inf or NaN
def _check_unitary(u: np.ndarray, message: str) -> None:
    """``DomainError(message)`` unless ``u^dag u`` is the identity within tolerance, for each matrix of a ``(..., d, d)`` stack."""
    if not _within_frobenius(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1], dtype=u.dtype), MATRIX_RESIDUAL):
        raise DomainError(message)


@functools.cache
def _pauli_offsets(num_qubits: int) -> np.ndarray:
    """Per-qubit offsets of the lexicographic Pauli-string index.

    ``table[i, a] = a * 4**(num_qubits - 1 - i)`` for label ``a`` on qubit
    ``i``; the basis index of a string is the sum of one entry per qubit,
    so a weight-1 index is one entry and a pair index the sum of two rows.
    """
    return _readonly(np.arange(4) * 4 ** np.arange(num_qubits - 1, -1, -1)[:, None])


@dataclass(frozen=True)
class OperatorBasis:
    """An ordered, trace-orthogonal Hermitian operator basis.

    The identity sits at index 0 and every other element is traceless;
    ``Tr(K_a K_b) = normalization * delta_ab``, where ``normalization = dim``
    because ``K_0`` is the identity.
    """

    elements: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        elements = _readonly(_square(self.elements, "basis elements", stack=True))
        object.__setattr__(self, "elements", elements)
        size, d1, _ = elements.shape
        if not np.allclose(elements[0], np.eye(d1), atol=ROUNDOFF):
            raise DomainError("basis element 0 must be the identity")
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite entry fails the check as inf or NaN
            gram = elements.reshape(size, d1 * d1) @ elements.transpose(0, 2, 1).reshape(size, d1 * d1).T
        if not np.allclose(gram, d1 * np.eye(size), atol=ROUNDOFF * d1):
            raise DomainError("basis is not trace-orthogonal with normalization dim")

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def normalization(self) -> float:
        return float(self.dim)

    @property
    def size(self) -> int:
        return self.elements.shape[0]

    @property
    def num_generators(self) -> int:
        return self.size - 1

    @property
    def generators(self) -> np.ndarray:
        """The non-identity (traceless) elements."""
        return self.elements[1:]

    @functools.cached_property
    def num_qubits(self) -> int:
        return _qubit_count(self.dim)

    @functools.cached_property
    def change_of_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """``A[(p, m), a] = (K_a)[p, m]``, from matrix units to this basis, and ``A^dag``; built once, read-only."""
        d = self.dim
        a = self.elements.transpose(1, 2, 0).reshape(d * d, self.size)
        return _readonly(a), _readonly(a.conj().T)


def build_pauli_basis(num_qubits: int) -> OperatorBasis:
    """Construct the full Pauli-string basis on ``num_qubits`` qubits.

    Returns all ``4**num_qubits`` strings ordered lexicographically by
    index vector (identity first), with normalization ``M = 2**num_qubits``.
    One instance per qubit count is built and shared; it is frozen and its
    elements are read-only.

    Raises
    ------
    DomainError
        If ``num_qubits`` is not an integer of at least 1.
    CapacityError
        If ``num_qubits`` exceeds the dense-construction guard.
    """
    return _pauli_basis(_check_count(num_qubits, "num_qubits", 1))


@functools.cache
def _pauli_basis(num_qubits: int) -> OperatorBasis:
    if num_qubits > MAX_BASIS_QUBITS:
        raise CapacityError(
            f"num_qubits={num_qubits} exceeds the dense basis guard ({MAX_BASIS_QUBITS})"
        )
    elements, labels = list(_PAULI), list(_LABELS)
    for _ in range(num_qubits - 1):
        elements = [np.kron(e, p) for e in elements for p in _PAULI]
        labels = [s + c for s in labels for c in _LABELS]
    return OperatorBasis(elements=np.stack(elements), labels=tuple(labels))


@dataclass(frozen=True)
class CoordinateVector:
    """Real expansion coordinates of a Hermitian operator in a fixed basis.

    ``coords`` is either a length-``N`` vector over the non-identity basis
    elements or, for two-qubit pair bookkeeping, a 4x4 matrix indexed by
    per-qubit Pauli labels.
    """

    coords: np.ndarray
    basis: OperatorBasis

    def __post_init__(self):
        a = _array(self.coords, "coordinates", float)
        if a is not None and a.ndim == 2:
            coords = _square(a, "pair-matrix coordinates", 4, dtype=float)
            if not np.isfinite(coords).all():
                raise DomainError("pair-matrix coordinates must be finite")
        else:
            coords = _vector(self.coords, f"coordinates over {self.basis.num_generators} generators", self.basis.num_generators)
        object.__setattr__(self, "coords", _readonly(coords))

    def as_flat(self) -> np.ndarray:
        """Coordinates over the flat generator ordering of the basis."""
        if self.coords.ndim == 1:
            return self.coords
        if self.basis.size != 16:
            raise ShapeError("pair-matrix coordinates require a two-qubit basis")
        return self.coords.reshape(16)[1:]


@dataclass(frozen=True)
class AdjointRotation:
    """Orthogonal image of a unitary under the adjoint representation."""

    matrix: np.ndarray
    source_dim: int

    def __post_init__(self):
        m = _readonly(_square(self.matrix, "adjoint rotation", self.source_dim**2 - 1, dtype=float))
        object.__setattr__(self, "matrix", m)
        _check_unitary(m, "adjoint rotation is not orthogonal")
        if not abs(np.linalg.det(m) - 1.0) <= MATRIX_RESIDUAL:
            raise DomainError("adjoint rotation must have determinant +1")


@dataclass(frozen=True)
class AxisAngle:
    """Axis-angle parameters of an SU(2) pulse ``exp(i*theta* n.sigma)``.

    ``free_axis`` flags axis components left undetermined by a partially
    constrained rotation; the stored axis is a canonical representative.
    """

    axis: np.ndarray
    angle: float
    free_axis: tuple[bool, bool, bool] = (False, False, False)

    def __post_init__(self):
        axis = _readonly(_vector(self.axis, "axis", 3))
        object.__setattr__(self, "axis", axis)
        if not abs(np.linalg.norm(axis) - 1.0) <= NEGLIGIBLE:
            raise DomainError("axis must be a unit vector")
        if not (-np.pi < self.angle <= np.pi):
            raise DomainError("angle must lie in (-pi, pi]")

    def unitary(self) -> np.ndarray:
        return axis_angle_unitary(self.axis, self.angle)

    def rotation(self) -> np.ndarray:
        return axis_angle_rotation(self.axis, self.angle)


def expand(operator: np.ndarray, basis: OperatorBasis) -> CoordinateVector:
    """Expand a Hermitian operator over the non-identity basis elements.

    ``coords_i = Tr(K_i A) / M``; together with the trace part,
    ``A = sum_i coords_i K_i + (Tr A / dim) I``.

    Raises
    ------
    ShapeError
        If the operator dimension does not match the basis.
    DomainError
        If the operator is not Hermitian within tolerance.
    """
    a = _check_hermitian(operator, "operator", basis.dim)
    coords = np.einsum("kij,ji->k", basis.generators, a) / basis.normalization
    return CoordinateVector(coords=coords.real, basis=basis)


def reconstruct(vec: CoordinateVector, trace: float = 0.0) -> np.ndarray:
    """Rebuild the operator from expansion coordinates and an optional trace."""
    coords = vec.as_flat()
    out = np.tensordot(coords, vec.basis.generators, axes=1)
    if trace:
        out = out + (trace / vec.basis.dim) * np.eye(vec.basis.dim)
    return out


def adjoint_of(unitary: np.ndarray, basis: OperatorBasis) -> AdjointRotation:
    """Adjoint representation of a unitary over the basis's traceless sector.

    ``R_ij = Tr(K_j U^dag K_i U) / M`` so that ``U^dag K_i U = sum_j R_ij K_j``.

    Raises
    ------
    DomainError
        If the input is not unitary within tolerance.
    """
    u = _square(unitary, "unitary", basis.dim)
    _check_unitary(u, "input is not unitary within tolerance")
    rotated = np.einsum("ab,kbc,cd->kad", u.conj().T, basis.generators, u)
    r = np.einsum("kad,jda->kj", rotated, basis.generators) / basis.normalization
    return AdjointRotation(matrix=r.real, source_dim=basis.dim)


def _unit_axis(axis, angle: float) -> np.ndarray:
    """``axis`` normalized.

    ``ShapeError`` unless ``axis`` is a 3-vector; ``DomainError`` for a zero
    or non-finite axis or a non-finite angle.
    """
    n = _vector(axis, "pulse axis", 3)
    norm = np.linalg.norm(n)
    if not (0 < norm <= sys.float_info.max and abs(angle) <= sys.float_info.max):  # also false for NaN
        raise DomainError("pulse axis must be finite and non-zero, and its angle finite")
    return n / norm


def axis_angle_unitary(axis, angle: float) -> np.ndarray:
    """``exp(i*angle* n.sigma)`` for the direction ``n`` of a non-zero ``axis``."""
    n = _unit_axis(axis, angle)
    n_sigma = n[0] * _PAULI[1] + n[1] * _PAULI[2] + n[2] * _PAULI[3]
    return np.cos(angle) * np.eye(2) + 1j * np.sin(angle) * n_sigma


def _eps_matrix(v: np.ndarray) -> np.ndarray:
    """E[a, b] = sum_c eps_abc v_c."""
    return np.array(
        [
            [0.0, v[2], -v[1]],
            [-v[2], 0.0, v[0]],
            [v[1], -v[0], 0.0],
        ]
    )


def axis_angle_rotation(axis, angle: float) -> np.ndarray:
    """Closed-form adjoint rotation of ``exp(i*angle* n.sigma)``."""
    n = _unit_axis(axis, angle)
    c2, s2 = np.cos(2 * angle), np.sin(2 * angle)
    return c2 * np.eye(3) + (1 - c2) * np.outer(n, n) + s2 * _eps_matrix(n)


# ---------------------------------------------------------------------------
# Rotation -> axis-angle inversion, including partially constrained input
# ---------------------------------------------------------------------------
#
# The pulse quaternion q = (w, v) = (cos(theta), sin(theta) * n) makes the
# rotation quadratic in q:
#
#     R(q) = (w^2 - |v|^2) I + 2 v v^T + 2 w E(v),
#
# so partially constrained rotations become a small least-squares problem on
# the unit 3-sphere, and free pulse parameters show up as null directions of
# the constraint Jacobian.


def _rotation_from_quaternion(q: np.ndarray) -> np.ndarray:
    w, v = q[0], q[1:]
    return (w * w - v @ v) * np.eye(3) + 2.0 * np.outer(v, v) + 2.0 * w * _eps_matrix(v)


def _rotation_jacobian(q: np.ndarray) -> np.ndarray:
    """d R / d q, shape (3, 3, 4)."""
    w, v = q[0], q[1:]
    jac = np.zeros((3, 3, 4))
    jac[:, :, 0] = 2.0 * w * np.eye(3) + 2.0 * _eps_matrix(v)
    for k, e in enumerate(np.eye(3)):
        jac[:, :, k + 1] = (
            -2.0 * v[k] * np.eye(3)
            + 2.0 * (np.outer(e, v) + np.outer(v, e))
            + 2.0 * w * _eps_matrix(e)
        )
    return jac


@functools.cache
def _quaternion_starts() -> np.ndarray:
    starts = [np.eye(4)[i] for i in range(4)]
    for signs in itertools.product((1.0, -1.0), repeat=3):
        starts.append(np.array([1.0, *signs]) / 2.0)
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (1.0, -1.0):
                q = np.zeros(4)
                q[i], q[j] = 1.0, s
                starts.append(q / np.sqrt(2.0))
    return _readonly(np.array(starts))


def _solve_constrained_quaternion(target: np.ndarray, mask: np.ndarray):
    """Gauss-Newton solve of R(q)[mask] = target[mask] on the unit sphere.

    Runs from every deterministic start and keeps all distinct solutions,
    so undetermined pulse parameters show up as a spread of solutions.
    """
    rows, cols = np.nonzero(mask)
    wanted = target[rows, cols]

    def residual(q):
        return _rotation_from_quaternion(q)[rows, cols] - wanted

    solutions = []
    best_q, best_r = None, np.inf
    for q0 in _quaternion_starts():
        q = q0.copy()
        for _ in range(60):
            r = residual(q)
            jac = _rotation_jacobian(q)[rows, cols, :]
            # keep the step tangent to the unit sphere
            aug = np.vstack([jac, q[np.newaxis, :]])
            rhs = np.concatenate([-r, [0.0]])
            step, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
            q = q + step
            q = q / np.linalg.norm(q)
            if np.linalg.norm(step) < GAUSS_NEWTON_STEP:
                break
        rnorm = np.linalg.norm(residual(q))
        if rnorm < best_r:
            best_q, best_r = q, rnorm
        if rnorm <= LINEAR_SOLVE:
            q = _canonical_quaternion(q)
            if all(np.linalg.norm(q - s) > DISTINCT for s in solutions):
                solutions.append(q)
    return best_q, best_r, solutions, (rows, cols, wanted)


def _free_directions(q: np.ndarray, rows, cols) -> np.ndarray:
    """Unit null-space directions of the constraints, tangent to the sphere."""
    jac = _rotation_jacobian(q)[rows, cols, :]
    aug = np.vstack([jac, q[np.newaxis, :]])
    _, s, vh = np.linalg.svd(aug)
    s_full = np.zeros(4)
    s_full[: len(s)] = s
    null = vh[s_full < NULL_SPACE * max(1.0, s_full.max())]
    return null


def _canonical_quaternion(q: np.ndarray) -> np.ndarray:
    if q[0] < 0 or (abs(q[0]) < ROUNDOFF and _first_significant(q[1:]) < 0):
        return -q
    return q


def _first_significant(v: np.ndarray) -> float:
    for x in v:
        if abs(x) > NEGLIGIBLE:
            return x
    return 0.0


def _axis_angle_from_quaternion(q: np.ndarray, free_axis) -> AxisAngle:
    q = _canonical_quaternion(q)
    w, v = q[0], q[1:]
    vnorm = np.linalg.norm(v)
    if vnorm < NEGLIGIBLE:
        return AxisAngle(axis=np.array([1.0, 0.0, 0.0]), angle=0.0, free_axis=(True, True, True))
    axis = v / vnorm
    angle = float(np.arctan2(vnorm, w))
    return AxisAngle(axis=axis, angle=angle, free_axis=tuple(bool(f) for f in free_axis))


def unitary_from_rotation(rotation) -> AxisAngle:
    """Invert the SO(3) adjoint map back to an axis-angle pulse.

    The input is either a fully specified :class:`AdjointRotation` (source
    dim 2) or a 3x3 array in which free entries are marked ``NaN``.  All
    constrained entries must be consistent with some pulse
    ``exp(i*theta* n.sigma)``; parameters the constraints do not determine
    are reported through ``free_axis`` on the returned representative,
    which is canonicalized to ``theta >= 0`` and, within any free subspace,
    to the least-index coordinate axis.

    Raises
    ------
    DomainError
        If an entry is infinite.
    InfeasibleError
        If an entry lies outside [-1, 1] or no pulse satisfies the
        constraints within ``defaults.LINEAR_SOLVE``.
    """
    matrix = rotation.matrix if isinstance(rotation, AdjointRotation) else rotation
    target = _square(matrix, "rotation (NaN marks free entries)", 3, dtype=float)
    if np.isinf(target).any():
        raise DomainError("rotation entries must be finite or NaN (free)")
    mask = ~np.isnan(target)
    excess = np.abs(target[mask]).max(initial=0.0) - 1.0
    if excess > LINEAR_SOLVE:
        raise InfeasibleError(
            f"rotation entries lie in [-1, 1]; one exceeds it by {excess:.2e}",
            best_residual=excess,
        )
    if not mask.any():
        return AxisAngle(axis=np.array([1.0, 0.0, 0.0]), angle=0.0, free_axis=(True, True, True))
    if mask.all():
        return _axis_angle_from_full(target)

    q, rnorm, solutions, (rows, cols, _) = _solve_constrained_quaternion(target, mask)
    if not rnorm <= LINEAR_SOLVE:
        raise InfeasibleError(
            f"no axis-angle pulse satisfies the constraints (residual {rnorm:.2e})",
            best_residual=rnorm,
        )

    # Freedom shows up two ways: as constraint-Jacobian null directions at
    # each solution, and as spread between the distinct solutions the
    # multistart found on the solution manifold.
    free_axis = np.zeros(3, dtype=bool)
    for sol in solutions:
        for direction in _free_directions(sol, rows, cols):
            free_axis |= np.abs(direction[1:]) > DISTINCT
    for sa in solutions:
        for sb in solutions:
            free_axis |= np.abs(sa[1:] - sb[1:]) > DISTINCT
    if any(np.linalg.norm(sol[1:]) < NEGLIGIBLE for sol in solutions):
        free_axis[:] = True

    if free_axis.any() and np.linalg.norm(q[1:]) >= NEGLIGIBLE:
        q = _snap_to_canonical_axis(q, free_axis, target, mask)
    return _axis_angle_from_quaternion(_canonical_quaternion(q), free_axis)


def _axis_angle_from_full(target: np.ndarray) -> AxisAngle:
    """Closed-form quaternion extraction from a fully specified rotation."""
    tr = np.trace(target)
    w_sq = (tr + 1.0) / 4.0
    if w_sq > ROUNDOFF:
        w = np.sqrt(max(w_sq, 0.0))
        v = np.array(
            [
                target[1, 2] - target[2, 1],
                target[2, 0] - target[0, 2],
                target[0, 1] - target[1, 0],
            ]
        ) / (4.0 * w)
        q = np.concatenate([[w], v])
    else:
        # angle pi rotation of the coordinates: R = -I + 2 v v^T, so the
        # largest v_k^2 = (R_kk + 1) / 2 is at least 1/3; the floor keeps a
        # non-rotation such as -I off a zero divide, for the residual to reject
        diag = np.clip((np.diag(target) + 1.0) / 2.0, 0.0, None)
        k = int(np.argmax(diag))
        v = np.zeros(3)
        v[k] = np.sqrt(max(diag[k], 0.25))
        for j in range(3):
            if j != k:
                v[j] = (target[k, j] + target[j, k]) / (4.0 * v[k])
        q = np.concatenate([[0.0], v])
    q = q / np.linalg.norm(q)
    rnorm = np.linalg.norm(_rotation_from_quaternion(q) - target)
    if not rnorm <= LINEAR_SOLVE:
        raise InfeasibleError(
            f"matrix is not an SU(2) adjoint rotation (residual {rnorm:.2e})",
            best_residual=rnorm,
        )
    free = (True, True, True) if np.linalg.norm(q[1:]) < NEGLIGIBLE else (False, False, False)
    return _axis_angle_from_quaternion(_canonical_quaternion(q), free)


def _snap_to_canonical_axis(q, free_axis, target, mask):
    """Move a free axis onto the least-index coordinate direction when allowed."""
    rows, cols = np.nonzero(mask)
    wanted = target[rows, cols]
    vnorm = np.linalg.norm(q[1:])
    for k in range(3):
        if not free_axis[k]:
            continue
        for sign in (1.0, -1.0):
            cand = np.zeros(4)
            cand[0] = q[0]
            cand[k + 1] = sign * vnorm
            cand = cand / np.linalg.norm(cand)
            r = _rotation_from_quaternion(cand)[rows, cols] - wanted
            if np.linalg.norm(r) <= LINEAR_SOLVE:
                return cand
    return q
