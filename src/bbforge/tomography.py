"""Simulated quantum process tomography and short-time generator extraction.

The channel is probed, in one call on one stack of states, on the
matrix-unit input set (each off-diagonal unit realized through the four
standard pure-state preparations).  The response matrix ``lambda`` is
turned into the process matrix ``chi`` in closed form
(Chuang & Nielsen, J. Mod. Opt. 44, 2455, 1997), written as a change of
basis from matrix units to the fixed Pauli basis: ``chi = A^dag L A / M^2``
(Wood, Biamonte & Cory, arXiv:1111.6950).  The Hamiltonian-like part of
the short-time expansion is read off the first column:
``xi_a = Im(chi_a0) / t`` in rate units.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .defaults import TOL
from .errors import DegenerateTimeError, DomainError, InconsistencyError, ShapeError
from .open_system_sim import _matrix_to_pairs, _pairs_to_matrix
from .operator_algebra import CoordinateVector, OperatorBasis, _pauli_offsets, _readonly, build_pauli_basis

__all__ = [
    "TomographyData",
    "ChiMatrix",
    "EffectiveGenerator",
    "run_qpt",
    "chi_from_lambda",
    "extract_generator",
]


@dataclass(frozen=True)
class TomographyData:
    """Raw process tomography output before the change to the Pauli basis.

    ``lam[j, k]`` are the coefficients of the channel response to matrix
    unit ``j = (m, n)`` expanded over matrix units ``k = (p, q)``, i.e.
    ``lam[(m, n), (p, q)] = channel(|m><n|)[p, q]``.
    """

    lam: np.ndarray
    basis: OperatorBasis
    time_tag: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "lam", _readonly(np.asarray(self.lam, dtype=complex)))
        d2 = self.basis.dim**2
        if self.lam.shape != (d2, d2):
            raise ShapeError("lambda matrix has wrong shape")


@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix in the fixed Hermitian basis, ``rho -> sum chi_ab K_a rho K_b``.

    ``skew_norm`` is the Frobenius norm of the skew-Hermitian part removed
    from the measured chi; ``residual`` is the measured chi's
    trace-preservation residual ``||sum_ab chi_ab K_b K_a - I||_F``.
    """

    entries: np.ndarray
    time_tag: float | None
    basis: OperatorBasis
    skew_norm: float = 0.0
    residual: float = 0.0

    def __post_init__(self):
        e = _readonly(np.asarray(self.entries, dtype=complex))
        object.__setattr__(self, "entries", e)
        nb = self.basis.size
        if e.shape != (nb, nb):
            raise ShapeError("chi matrix shape does not match the basis")
        if not np.linalg.norm(e - e.conj().T) <= TOL.hermiticity:
            raise DomainError("chi matrix must be Hermitian within tolerance")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Channel action reconstructed from the process matrix, on a ``(..., d, d)`` stack."""
        k = self.basis.elements
        return np.einsum("ab,aij,...jk,bkl->...il", self.entries, k, np.asarray(rho, dtype=complex), k)

    def to_dict(self) -> dict:
        return {
            "basis": list(self.basis.labels),
            "time_tag": self.time_tag,
            "entries": _matrix_to_pairs(self.entries),
            "skew_norm": self.skew_norm,
            "residual": self.residual,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChiMatrix":
        labels = data["basis"]
        num_qubits = len(labels[0])
        basis = build_pauli_basis(num_qubits)
        if tuple(labels) != basis.labels:
            raise DomainError("chi file does not use the lexicographic Pauli basis")
        return cls(
            entries=_pairs_to_matrix(data["entries"]),
            time_tag=data.get("time_tag"),
            basis=basis,
            skew_norm=float(data.get("skew_norm", 0.0)),
            residual=float(data.get("residual", 0.0)),
        )


@dataclass(frozen=True)
class EffectiveGenerator:
    """Short-time generator coordinates extracted from chi, in rate units.

    ``xi[i]`` is the weight-1 coordinate vector of qubit ``i``; for qubit
    pairs, ``pair_matrix(i, j)`` is the 4x4 coefficient matrix whose row 0 /
    column 0 carry the single-qubit parts and whose (1:, 1:) block carries
    the bilinear terms.
    """

    xi: tuple[np.ndarray, ...]
    xi_pair: dict
    time_scale: float
    basis: OperatorBasis

    def __post_init__(self):
        object.__setattr__(self, "xi", tuple(_readonly(v) for v in self.xi))
        object.__setattr__(self, "xi_pair", dict(self.xi_pair))

    @property
    def num_qubits(self) -> int:
        return len(self.xi)

    def pair_matrix(self, i: int, j: int) -> np.ndarray:
        return self.xi_pair[(i, j)]

    def qubit_vector(self, i: int) -> CoordinateVector:
        return CoordinateVector(coords=self.xi[i], basis=build_pauli_basis(1))


@functools.cache
def _probe_inputs(dim: int):
    """One read-only stack of channel inputs, and the tables that recombine its responses.

    The stack holds ``|m><m|`` for every ``m``, then ``|+><+|`` and
    ``|+i><+i|`` of every pair ``m < n``, then the superposition-test states
    ``|0><0|``, ``I / dim`` and their 0.37 : 0.63 mixture.  Row ``m * dim + n``
    of the ``(dim^2, 4)`` tables ``index`` and ``coeff`` holds the stack
    indices and coefficients whose responses sum to the response to
    ``|m><n|``; a diagonal row is padded with coefficient 0.
    """
    c = 1.0 / np.sqrt(2.0)
    eye = np.eye(dim, dtype=complex)
    kets = list(eye)
    index = np.empty((dim * dim, 4), dtype=int)
    coeff = np.zeros((dim * dim, 4), dtype=complex)
    for m in range(dim):
        index[m * dim + m], coeff[m * dim + m, 0] = m, 1.0
        for n in range(m + 1, dim):
            p = len(kets)
            kets += [(eye[m] + eye[n]) * c, (eye[m] + 1j * eye[n]) * c]
            index[m * dim + n] = p, p + 1, m, n
            coeff[m * dim + n] = 1.0, 1.0j, -0.5 - 0.5j, -0.5 - 0.5j
            index[n * dim + m] = p, p + 1, n, m
            coeff[n * dim + m] = 1.0, -1.0j, -0.5 + 0.5j, -0.5 + 0.5j
    states = [np.outer(k, k.conj()) for k in kets]
    states += [states[0], eye / dim, 0.37 * states[0] + 0.63 * (eye / dim)]
    return _readonly(np.array(states)), _readonly(index), _readonly(coeff)


def run_qpt(channel, basis: OperatorBasis, *, time_tag: float | None = None) -> TomographyData:
    """Probe a channel on a spanning input set, in one call.

    Parameters
    ----------
    channel : callable
        Linear map from a ``(..., dim, dim)`` stack of density matrices to
        the stack of their images.  It is called once, on one shared
        read-only stack of genuine states: the standard preparations, from
        which matrix-unit responses are assembled by linearity, and three
        states for a superposition test (``DomainError`` if it fails).
    basis : OperatorBasis
        Fixed Hermitian basis that the downstream chi matrix refers to.
    time_tag : float, optional
        Evolution time the channel corresponds to; carried through to the
        chi matrix so generator extraction can report rates.
    """
    d = basis.dim
    states, index, coeff = _probe_inputs(d)
    responses = np.asarray(channel(states), dtype=complex)
    if responses.shape != states.shape:
        raise ShapeError("channel output dimension does not match its input")
    r_a, r_b, direct = responses[-3:]
    if not np.linalg.norm(direct - (0.37 * r_a + 0.63 * r_b)) <= 1e-8:
        raise DomainError("channel failed the superposition test; tomography needs a linear map")
    # expansion over matrix units is just the entries themselves
    flat = responses.reshape(len(states), d * d)
    lam = np.zeros((d * d, d * d), dtype=complex)
    for part in range(4):
        lam += coeff[:, part, None] * flat[index[:, part]]
    return TomographyData(lam=lam, basis=basis, time_tag=time_tag)


def chi_from_lambda(data: TomographyData) -> ChiMatrix:
    """Process matrix from the response matrix, in closed form.

    With ``A[(p, m), a] = (K_a)[p, m]`` and the reordered response
    ``L[(p, m), (q, n)] = lam[(m, n), (p, q)]`` the channel reads
    ``L = A chi A^dag``.  The basis is trace-orthogonal,
    ``A^dag A = M * I`` with ``M = basis.normalization``, so
    ``chi = A^dag L A / M^2`` exactly.  The Hermitian part of chi is
    returned and the skew-Hermitian remainder reported.

    Raises
    ------
    InconsistencyError
        If the trace-preservation residual ``||sum_ab chi_ab K_b K_a - I||_F``
        exceeds 1e-6 or is not finite, i.e. the probed map is not a
        trace-preserving channel.
    """
    basis = data.basis
    d = basis.dim
    k = basis.elements
    a = k.transpose(1, 2, 0).reshape(d * d, basis.size)
    lam = data.lam.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    chi = a.conj().T @ lam @ a / basis.normalization**2
    # sum_ab chi_ab K_b K_a, summed over a first
    tp = (k @ np.tensordot(chi, k, axes=(0, 0))).sum(axis=0)
    residual = float(np.linalg.norm(tp - np.eye(d)))
    if not residual <= 1e-6:
        raise InconsistencyError(
            f"trace-preservation residual {residual:.2e}; channel is not trace preserving"
        )
    skew = float(np.linalg.norm(chi - chi.conj().T) / 2.0)
    chi = (chi + chi.conj().T) / 2.0
    return ChiMatrix(
        entries=chi,
        time_tag=data.time_tag,
        basis=basis,
        skew_norm=skew,
        residual=residual,
    )


def extract_generator(chi: ChiMatrix) -> EffectiveGenerator:
    """Read the short-time generator coordinates off the chi matrix.

    Single-qubit coordinates are ``Im(chi_{a,0}) / t`` over the weight-1
    strings; pair matrices combine the weight-2 entries with the weight-1
    margins.  A warning is emitted when ``t * |generator|`` is large enough
    that the first-order reading is questionable.

    Raises
    ------
    DegenerateTimeError
        If the chi matrix carries no positive probe time.
    """
    if chi.time_tag is None or chi.time_tag <= 0:
        raise DegenerateTimeError("generator extraction requires chi sampled at a time t > 0")
    t = float(chi.time_tag)
    num_qubits = chi.basis.num_qubits
    offsets = _pauli_offsets(num_qubits)
    rates = chi.entries[:, 0].imag / t
    xi_by_qubit = [rates[offsets[i, 1:]] for i in range(num_qubits)]
    xi_pair = {}
    for i in range(num_qubits):
        for j in range(i + 1, num_qubits):
            m = rates[offsets[i][:, None] + offsets[j]]
            m[0, 0] = 0.0
            m.setflags(write=False)
            xi_pair[(i, j)] = m
    scale = max((np.linalg.norm(v) for v in xi_by_qubit), default=0.0)
    for m in xi_pair.values():
        scale = max(scale, np.linalg.norm(m))
    if t * scale > 0.1:
        warnings.warn(
            f"probe time {t} is large for generator scale {scale:.3g}; "
            "first-order extraction may be inaccurate",
            stacklevel=2,
        )
    return EffectiveGenerator(xi=tuple(xi_by_qubit), xi_pair=xi_pair, time_scale=t, basis=chi.basis)

