"""Exact dense simulation of a finite system coupled to a finite bath.

The total Hamiltonian is ``H = H_S (x) I_B + I_S (x) H_B + sum_g S_g (x) B_g``
with hbar = 1 and everything time independent.  Baths are small (a few
qubits or a truncated mode), so propagation is exact: ``H`` is Hermitian
and fixed, and one eigendecomposition ``H = V diag(w) V^dag`` per model
gives ``exp(-i H t) = V diag(exp(-i w t)) V^dag`` at every ``t``.  The
reduced dynamics doubles as the verification oracle for synthesized
pulse sequences.  Pulses are ideal and instantaneous: they act on the system
factor only and the bath does not evolve while they are applied.
"""

from __future__ import annotations

import functools
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .defaults import TOL
from .errors import DomainError, ShapeError
from .operator_algebra import AdjointRotation, _kron, _readonly, adjoint_of, build_pauli_basis

__all__ = [
    "Coupling",
    "SystemBathModel",
    "DensityMatrix",
    "KrausSet",
    "PulseGroup",
    "propagate",
    "reduced_state",
    "kraus_from_model",
    "apply_bb_cycle",
    "bb_propagator",
    "bb_cycle_propagator",
    "symmetrize_hamiltonian",
    "partial_trace_bath",
    "model_to_dict",
    "model_from_dict",
]


def _check_hermitian(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be a square matrix")
    if not np.linalg.norm(m - m.conj().T) <= TOL.hermiticity:
        raise DomainError(f"{name} is not Hermitian within tolerance")
    return m


def _check_density(m: np.ndarray, name: str) -> np.ndarray:
    m = _check_hermitian(m, name)
    if not abs(np.trace(m).real - 1.0) <= TOL.hermiticity:
        raise DomainError(f"{name} must have unit trace")
    if np.linalg.eigvalsh(m).min() < -1e-10:
        raise DomainError(f"{name} must be positive semidefinite")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(_check_density(self.matrix, "state")))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_state_vector(cls, psi) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class Coupling:
    """One system-bath interaction term ``S (x) B``."""

    system: np.ndarray
    bath: np.ndarray
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "system", _readonly(_check_hermitian(self.system, "coupling system operator")))
        object.__setattr__(self, "bath", _readonly(_check_hermitian(self.bath, "coupling bath operator")))


@dataclass(frozen=True)
class SystemBathModel:
    """System + bath Hamiltonian data for exact simulation.

    ``coupling_order`` records whether the interaction is linear (1) or
    bilinear (2) in the system's single-qubit operators; it only affects
    which generator components downstream analysis expects to be populated.
    """

    system_hamiltonian: np.ndarray
    bath_hamiltonian: np.ndarray
    couplings: tuple[Coupling, ...] = ()
    bath_initial: np.ndarray | None = None
    coupling_order: int = 1
    _total: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        hs = _check_hermitian(self.system_hamiltonian, "system_hamiltonian")
        hb = _check_hermitian(self.bath_hamiltonian, "bath_hamiltonian")
        object.__setattr__(self, "system_hamiltonian", _readonly(hs))
        object.__setattr__(self, "bath_hamiltonian", _readonly(hb))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        if self.coupling_order not in (1, 2):
            raise DomainError("coupling_order must be 1 or 2")
        rho_b = self.bath_initial
        if rho_b is None:
            rho_b = np.zeros_like(hb)
            rho_b[0, 0] = 1.0
        rho_b = _check_density(rho_b, "bath_initial")
        if rho_b.shape != hb.shape:
            raise ShapeError("bath_initial dimension must match bath_hamiltonian")
        object.__setattr__(self, "bath_initial", _readonly(rho_b))
        ns, nb = hs.shape[0], hb.shape[0]
        for c in self.couplings:
            if c.system.shape != (ns, ns):
                raise ShapeError(f"coupling {c.name!r} system operator has wrong dimension")
            if c.bath.shape != (nb, nb):
                raise ShapeError(f"coupling {c.name!r} bath operator has wrong dimension")
        total = _kron(hs, np.eye(nb)) + _kron(np.eye(ns), hb)
        for c in self.couplings:
            total = total + _kron(c.system, c.bath)
        object.__setattr__(self, "_total", _readonly(total))

    @property
    def system_dim(self) -> int:
        return self.system_hamiltonian.shape[0]

    @property
    def bath_dim(self) -> int:
        return self.bath_hamiltonian.shape[0]

    @property
    def total_dim(self) -> int:
        return self.system_dim * self.bath_dim

    @property
    def total_hamiltonian(self) -> np.ndarray:
        return self._total

    @property
    def num_qubits(self) -> int:
        return int(round(np.log2(self.system_dim)))

    @functools.cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of the total Hamiltonian, computed once."""
        w, v = np.linalg.eigh(self._total)
        return _readonly(w), _readonly(v)


@dataclass(frozen=True)
class KrausSet:
    """Operator-sum representation sampled from a model at one time."""

    operators: tuple[np.ndarray, ...]
    source_time: float

    def __post_init__(self):
        ops = tuple(_readonly(np.asarray(a, dtype=complex)) for a in self.operators)
        object.__setattr__(self, "operators", ops)
        d = ops[0].shape[0]
        total = sum(a.conj().T @ a for a in ops)
        if not np.linalg.norm(total - np.eye(d)) <= TOL.hermiticity:
            raise DomainError("Kraus set does not satisfy the completeness relation")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """``sum_k A_k rho A_k^dag``, state by state on a ``(..., d, d)`` stack."""
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        for a in self.operators:
            out += a @ rho @ a.conj().T
        return out


@dataclass(frozen=True)
class PulseGroup:
    """An ordered pulse sequence with its free-evolution spacing.

    ``pulses[0]`` is always the identity; ``cycle_time`` is
    ``len(pulses) * delta_t``.  ``rotations``, the adjoint image of each
    pulse, is derived from the pulses on first access and cached.
    """

    pulses: tuple[np.ndarray, ...]
    delta_t: float

    def __post_init__(self):
        pulses = tuple(_readonly(np.asarray(p, dtype=complex)) for p in self.pulses)
        object.__setattr__(self, "pulses", pulses)
        if not pulses:
            raise ShapeError("a pulse group needs at least the identity pulse")
        _check_time(self.delta_t, "delta_t")
        d = pulses[0].shape[0]
        if d < 2 or d & (d - 1):
            raise ShapeError("pulse dimension must be a power of two")
        if not np.linalg.norm(pulses[0] - np.eye(d)) <= 1e-12:
            raise DomainError("pulse 0 must be the identity")
        for p in pulses:
            if p.shape != (d, d):
                raise ShapeError("all pulses must share one dimension")
            if not np.linalg.norm(p.conj().T @ p - np.eye(d)) <= TOL.unitarity:
                raise DomainError("pulses must be unitary within tolerance")

    @classmethod
    def from_pulses(cls, pulses, delta_t: float) -> "PulseGroup":
        return cls(pulses=tuple(pulses), delta_t=delta_t)

    @functools.cached_property
    def rotations(self) -> tuple[AdjointRotation, ...]:
        basis = build_pauli_basis(self.dim.bit_length() - 1)
        return tuple(adjoint_of(p, basis) for p in self.pulses)

    @property
    def size(self) -> int:
        return len(self.pulses)

    @property
    def dim(self) -> int:
        return self.pulses[0].shape[0]

    @property
    def cycle_time(self) -> float:
        return self.size * self.delta_t

    def with_delta_t(self, delta_t: float) -> "PulseGroup":
        return PulseGroup(pulses=self.pulses, delta_t=delta_t)


def _check_time(t: float, name: str = "propagation time") -> None:
    if not 0 <= t <= sys.float_info.max:  # also false for NaN and ints beyond the float range
        raise DomainError(f"{name} must be finite and non-negative")


def propagate(model: SystemBathModel, t: float) -> np.ndarray:
    """Full system+bath propagator ``exp(-i H t)`` from the model's spectrum."""
    _check_time(t)
    w, v = model.spectrum
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def partial_trace_bath(rho_full: np.ndarray, system_dim: int, bath_dim: int) -> np.ndarray:
    """Trace out the bath of a ``(..., ns * nb, ns * nb)`` stack."""
    rho_full = np.asarray(rho_full)
    r = rho_full.reshape(*rho_full.shape[:-2], system_dim, bath_dim, system_dim, bath_dim)
    return np.einsum("...abcb->...ac", r)


def _lift(op: np.ndarray, bath_dim: int) -> np.ndarray:
    return _kron(op, np.eye(bath_dim))


def _reduced_channel(model: SystemBathModel, u_full: np.ndarray):
    """Reduced dynamics ``rho -> Tr_B[U (rho (x) rho_B) U^dag]`` under a full propagator.

    The returned channel accepts a :class:`DensityMatrix` or a
    ``(..., ns, ns)`` stack of system states and returns the stack of
    reduced states, each equal to the channel applied to it alone.
    """
    ns, nb = model.system_dim, model.bath_dim
    rho_b = model.bath_initial

    def channel(rho):
        rho = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
        if rho.shape[-2:] != (ns, ns):
            raise ShapeError("initial state dimension does not match the system")
        full = u_full @ _kron(rho, rho_b) @ u_full.conj().T
        return partial_trace_bath(full, ns, nb)

    return channel


def reduced_state(model: SystemBathModel, rho_system_0, t: float) -> DensityMatrix:
    """Evolve ``rho (x) rho_B`` for time ``t`` and trace out the bath."""
    return DensityMatrix(_reduced_channel(model, propagate(model, t))(rho_system_0))


def kraus_from_model(model: SystemBathModel, t: float) -> KrausSet:
    """Kraus operators ``A_mn = sqrt(p_n) <m|U(t)|n>`` over bath eigenpairs.

    Bath eigenvalues below the configured cutoff are dropped; the resulting
    set reproduces :func:`reduced_state` on any input state.
    """
    u = propagate(model, t)
    ns, nb = model.system_dim, model.bath_dim
    evals, evecs = np.linalg.eigh(model.bath_initial)
    u_tensor = u.reshape(ns, nb, ns, nb)
    ops = []
    for nu in range(nb):
        p = evals[nu].real
        if p < TOL.bath_eigenvalue_cutoff:
            continue
        # <mu| U |nu> with |mu>, |nu> bath eigenvectors
        blocks = np.einsum("ambn,n->amb", u_tensor, evecs[:, nu])
        for mu in range(nb):
            ops.append(np.sqrt(p) * np.einsum("amb,m->ab", blocks, evecs[:, mu].conj()))
    return KrausSet(operators=tuple(ops), source_time=t)


def bb_cycle_propagator(model: SystemBathModel, group: PulseGroup) -> np.ndarray:
    """Propagator for one pulse cycle, ``prod_j g_j^dag U_0(dt) g_j``.

    The product is taken with ascending ``j`` acting first on the state.
    """
    return _cycle(model, group)[1]


def _cycle(model: SystemBathModel, group: PulseGroup) -> tuple[np.ndarray, np.ndarray]:
    """The free segment ``U_0(dt)`` and the one-cycle propagator built from it."""
    if group.dim != model.system_dim:
        raise ShapeError("pulse dimension does not match the system")
    u0 = propagate(model, group.delta_t)
    return u0, _pulse_segments(u0, group.pulses, model.bath_dim, np.eye(model.total_dim, dtype=complex))


def _pulse_segments(u0: np.ndarray, pulses, bath_dim: int, u: np.ndarray) -> np.ndarray:
    """``u`` followed by the segments ``g_j^dag U_0 g_j`` of ``pulses``, in order."""
    for g in pulses:
        g_full = _lift(g, bath_dim)
        u = g_full.conj().T @ u0 @ g_full @ u
    return u


def bb_propagator(model: SystemBathModel, group: PulseGroup, t: float) -> np.ndarray:
    """Pulsed propagator up to an arbitrary time ``t``.

    Whole cycles are applied first; a partial cycle runs through complete
    pulse/delay segments and a final fractional free evolution.  Inside an
    unfinished segment the opening pulse has been applied but its closing
    conjugate has not.
    """
    _check_time(t)
    tc = group.cycle_time
    if tc <= 0:
        raise DomainError("group needs delta_t > 0 for time evolution")
    n_cycles = int(np.floor(t / tc + 1e-12))
    rem = t - n_cycles * tc
    if rem < 1e-12 * max(tc, 1.0):
        rem = 0.0
    u0, cycle = _cycle(model, group)
    u = np.linalg.matrix_power(cycle, n_cycles)
    if rem == 0.0:
        return u
    j = 0
    while rem >= group.delta_t - 1e-12 * max(tc, 1.0) and j < group.size:
        rem -= group.delta_t
        j += 1
    u = _pulse_segments(u0, group.pulses[:j], model.bath_dim, u)
    if rem > 0 and j < group.size:
        u = propagate(model, rem) @ _lift(group.pulses[j], model.bath_dim) @ u
    return u


def apply_bb_cycle(model: SystemBathModel, group: PulseGroup, num_cycles: int, rho_system_0) -> DensityMatrix:
    """Reduced state after ``num_cycles`` pulse cycles.

    Pulses are instantaneous, so the bath only evolves during the free
    segments; with the trivial group this is exactly ``reduced_state`` at
    ``num_cycles * delta_t``.
    """
    try:
        num_cycles = operator.index(num_cycles)
    except TypeError:
        raise DomainError("num_cycles must be an integer") from None
    if num_cycles < 1:
        raise DomainError("num_cycles must be >= 1")
    u = np.linalg.matrix_power(bb_cycle_propagator(model, group), num_cycles)
    return DensityMatrix(_reduced_channel(model, u)(rho_system_0))


def symmetrize_hamiltonian(hamiltonian: np.ndarray, group: PulseGroup, check_centralizer: bool = False) -> np.ndarray:
    """Group average ``(1/|G|) sum_k g_k^dag H g_k``.

    For an adjoint-closed pulse set this is the projector onto the
    centralizer of the group; ``check_centralizer=True`` verifies that the
    result commutes with every pulse.
    """
    h = _check_hermitian(hamiltonian, "hamiltonian")
    if h.shape != (group.dim, group.dim):
        raise ShapeError("hamiltonian dimension does not match the pulses")
    out = np.zeros_like(h)
    for g in group.pulses:
        out += g.conj().T @ h @ g
    out /= group.size
    if check_centralizer:
        for g in group.pulses:
            if not np.linalg.norm(out @ g - g @ out) <= 1e-9 * max(1.0, np.linalg.norm(h)):
                raise DomainError("symmetrized operator does not commute with the pulse set")
    return out


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _matrix_to_pairs(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _pairs_to_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def model_to_dict(model: SystemBathModel) -> dict:
    return {
        "system_hamiltonian": _matrix_to_pairs(model.system_hamiltonian),
        "bath_hamiltonian": _matrix_to_pairs(model.bath_hamiltonian),
        "couplings": [
            {
                "name": c.name or f"coupling_{i}",
                "system": _matrix_to_pairs(c.system),
                "bath": _matrix_to_pairs(c.bath),
            }
            for i, c in enumerate(model.couplings)
        ],
        "bath_initial": _matrix_to_pairs(model.bath_initial),
        "coupling_order": model.coupling_order,
    }


def model_from_dict(data: dict) -> SystemBathModel:
    couplings = tuple(
        Coupling(
            system=_pairs_to_matrix(c["system"]),
            bath=_pairs_to_matrix(c["bath"]),
            name=c.get("name", ""),
        )
        for c in data.get("couplings", [])
    )
    return SystemBathModel(
        system_hamiltonian=_pairs_to_matrix(data["system_hamiltonian"]),
        bath_hamiltonian=_pairs_to_matrix(data["bath_hamiltonian"]),
        couplings=couplings,
        bath_initial=_pairs_to_matrix(data["bath_initial"]) if "bath_initial" in data else None,
        coupling_order=int(data.get("coupling_order", 1)),
    )
