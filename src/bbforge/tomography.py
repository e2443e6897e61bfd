"""Simulated quantum process tomography and short-time generator extraction.

The channel is probed, in one call on one stack of states, on the
matrix-unit input set (each off-diagonal unit realized through the four
standard pure-state preparations).  The response matrix ``lambda`` is
turned into the process matrix ``chi`` in closed form
(Chuang & Nielsen, J. Mod. Opt. 44, 2455, 1997), written as a change of
basis from matrix units to the fixed Pauli basis: ``chi = A^dag L A / M^2``
(Wood, Biamonte & Cory, arXiv:1111.6950).  The Hamiltonian-like part of
the short-time expansion is read off the first column:
``xi_a = Im(chi_a0) / t`` in rate units, over every Pauli string.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .defaults import HERMITICITY, LINEARITY, TRACE_PRESERVATION
from .errors import DegenerateTimeError, DomainError, InconsistencyError, ShapeError
from .open_system_sim import _matrix_to_pairs, _pairs_to_matrix
from .operator_algebra import OperatorBasis, _check_hermitian, _check_time, _pauli_offsets, _readonly, build_pauli_basis

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
    from the measured chi; ``residual`` is the probed map's
    trace-preservation residual ``||Tr channel(|m><n|) - delta_mn||_F``,
    read off ``lam``; it equals ``||sum_ab chi_ab K_b K_a - I||_F``.
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
        _check_hermitian(e, "chi matrix")

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
        return cls(
            entries=_pairs_to_matrix(data["entries"]),
            time_tag=data.get("time_tag"),
            basis=_pauli_basis_labelled(data["basis"], "chi file"),
            skew_norm=float(data.get("skew_norm", 0.0)),
            residual=float(data.get("residual", 0.0)),
        )


def _pauli_basis_labelled(labels, name: str) -> OperatorBasis:
    """The Pauli basis, if ``labels`` are its labels in order; ``DomainError`` for any other basis."""
    num_qubits = len(labels[0]) if len(labels) else 0
    if num_qubits < 1 or tuple(labels) != build_pauli_basis(num_qubits).labels:
        raise DomainError(f"{name} does not use the lexicographic Pauli basis")
    return build_pauli_basis(num_qubits)


@dataclass(frozen=True)
class EffectiveGenerator:
    """Short-time generator coordinates extracted from chi, in rate units.

    ``coords[k - 1]`` is the coordinate of Pauli string ``k`` of ``basis``,
    for every non-identity string of every weight.  ``xi[i]`` is the
    weight-1 coordinate vector of qubit ``i``; for qubit pairs,
    ``pair_matrix(i, j)`` is the 4x4 coefficient matrix whose row 0 /
    column 0 carry the single-qubit parts and whose (1:, 1:) block carries
    the bilinear terms.  Both are read-only gathers from ``coords``.
    """

    coords: np.ndarray
    basis: OperatorBasis

    def __post_init__(self):
        coords = _readonly(np.asarray(self.coords, dtype=float))
        object.__setattr__(self, "coords", coords)
        if coords.shape != (self.basis.num_generators,):
            raise ShapeError("generator coordinates do not match the basis")

    @property
    def num_qubits(self) -> int:
        return self.basis.num_qubits

    def _gather(self, index: np.ndarray) -> np.ndarray:
        """Coordinates at Pauli-string indices ``index``; the identity, index 0, reads 0."""
        return _readonly(np.concatenate(([0.0], self.coords))[index])

    @functools.cached_property
    def xi(self) -> tuple[np.ndarray, ...]:
        return tuple(self._gather(offsets[1:]) for offsets in _pauli_offsets(self.num_qubits))

    def pair_matrix(self, i: int, j: int) -> np.ndarray:
        if not 0 <= i < j < self.num_qubits:
            raise DomainError(f"pair needs qubits i < j < {self.num_qubits}, got ({i}, {j})")
        offsets = _pauli_offsets(self.num_qubits)
        return self._gather(offsets[i][:, None] + offsets[j])


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
    states = _probe_inputs(basis.dim)[0]
    return TomographyData(lam=_assemble_lam(channel(states), basis.dim), basis=basis, time_tag=time_tag)


def _assemble_lam(responses, dim: int) -> np.ndarray:
    """``lam`` from a channel's responses to ``_probe_inputs(dim)``, over any leading axes.

    ``responses`` has shape ``(..., dim^2 + 3, dim, dim)``; ``DomainError``
    if any slice fails the superposition test.
    """
    states, index, coeff = _probe_inputs(dim)
    responses = np.asarray(responses, dtype=complex)
    if responses.shape[-3:] != states.shape:
        raise ShapeError("channel output dimension does not match its input")
    r_a, r_b, direct = np.moveaxis(responses[..., -3:, :, :], -3, 0)
    if not np.all(np.linalg.norm(direct - (0.37 * r_a + 0.63 * r_b), axis=(-2, -1)) <= LINEARITY):
        raise DomainError("channel failed the superposition test; tomography needs a linear map")
    # expansion over matrix units is just the entries themselves
    flat = responses.reshape(*responses.shape[:-2], dim * dim)
    lam = np.zeros((*responses.shape[:-3], dim * dim, dim * dim), dtype=complex)
    for part in range(4):
        lam += coeff[:, part, None] * flat[..., index[:, part], :]
    return lam


def _chi_raw(lam: np.ndarray, basis: OperatorBasis) -> tuple[np.ndarray, np.ndarray]:
    """``chi = A^dag L A / M^2`` of each ``(d^2, d^2)`` slice of ``lam``, and its trace-preservation residual.

    The residual is ``||T - I||_F`` with ``T[m, n] = sum_p lam[(m, n), (p, p)] = Tr channel(|m><n|)``,
    the transpose of ``sum_ab chi_ab K_b K_a``.  ``InconsistencyError`` if any
    slice's residual exceeds ``defaults.TRACE_PRESERVATION``, or its chi's
    skew-Hermitian norm ``||chi - chi^dag||_F / 2`` exceeds
    ``defaults.HERMITICITY``, or either is not finite: a channel maps
    Hermitian states to Hermitian states exactly when its chi is Hermitian.
    """
    d = basis.dim
    lead = lam.shape[:-2]
    units = lam.reshape(*lead, d, d, d, d)
    residual = np.linalg.norm(np.einsum("...mnpp->...mn", units) - np.eye(d), axis=(-2, -1))
    if not np.all(residual <= TRACE_PRESERVATION):
        raise InconsistencyError(f"trace-preservation residual {np.max(residual):.2e}; channel is not trace preserving")
    a = basis.elements.transpose(1, 2, 0).reshape(d * d, basis.size)
    lam = units.transpose(*range(len(lead)), -2, -4, -1, -3).reshape(*lead, d * d, d * d)
    chi = a.conj().T @ lam @ a / basis.normalization**2
    skew = np.linalg.norm(chi - chi.conj().swapaxes(-1, -2), axis=(-2, -1)) / 2.0
    if not np.all(skew <= HERMITICITY):
        raise InconsistencyError(f"chi skew-Hermitian norm {np.max(skew):.2e}; channel is not Hermiticity preserving")
    return chi, residual


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
        If the trace-preservation residual ``||sum_p lam[(m, n), (p, p)] -
        delta_mn||_F`` exceeds ``defaults.TRACE_PRESERVATION`` or is not
        finite, i.e. the probed map is not a trace-preserving channel; or
        if the skew-Hermitian norm exceeds ``defaults.HERMITICITY`` or is
        not finite, i.e. the map does not preserve Hermiticity.
    """
    chi, residual = _chi_raw(data.lam, data.basis)
    skew = float(np.linalg.norm(chi - chi.conj().T) / 2.0)
    return ChiMatrix((chi + chi.conj().T) / 2.0, data.time_tag, data.basis, skew_norm=skew, residual=float(residual))


def extract_generator(chi: ChiMatrix) -> EffectiveGenerator:
    """Read the short-time generator coordinates off the chi matrix.

    The coordinates are ``Im(chi_{a,0}) / t`` over every non-identity Pauli
    string.  A warning is emitted when ``t * |generator|`` is large enough
    that the first-order reading is questionable.

    Raises
    ------
    DomainError
        If chi is not over the lexicographic Pauli basis, labels and
        elements both, the only basis whose strings the coordinates are
        read by.
    DegenerateTimeError
        If the chi matrix carries no positive, finite probe time.
    """
    pauli = _pauli_basis_labelled(chi.basis.labels, "generator extraction: chi")
    if not np.array_equal(chi.basis.elements, pauli.elements):
        raise DomainError("generator extraction: chi's basis elements differ from the Pauli basis its labels name")
    try:
        t = _check_time(chi.time_tag, "chi time tag", positive=True)
    except DomainError as exc:
        raise DegenerateTimeError(f"generator extraction: {exc}") from None
    coords = chi.entries[1:, 0].imag / t
    scale = np.linalg.norm(coords)
    if t * scale > 0.1:
        warnings.warn(
            f"probe time {t} is large for generator scale {scale:.3g}; "
            "first-order extraction may be inaccurate",
            stacklevel=2,
        )
    return EffectiveGenerator(coords=coords, basis=chi.basis)
