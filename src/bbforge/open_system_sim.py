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
import math
import sys
from dataclasses import dataclass

import numpy as np

from .defaults import BATH_EIGENVALUE_CUTOFF, LINEAR_SOLVE, MATRIX_RESIDUAL, ROUNDOFF
from .errors import DomainError, ShapeError
from .operator_algebra import AdjointRotation, _check_count, _check_hermitian, _check_time, _check_unitary, _kron, _qubit_count, _readonly, _square, adjoint_of, build_pauli_basis

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


def _check_density(m, name: str, dim: int | None = None) -> np.ndarray:
    """``m`` through ``_check_hermitian``; ``DomainError`` unless it has unit trace and is positive semidefinite."""
    m = _check_hermitian(m, name, dim)
    if not abs(np.trace(m).real - 1.0) <= MATRIX_RESIDUAL:
        raise DomainError(f"{name} must have unit trace")
    if np.linalg.eigvalsh(m).min() < -MATRIX_RESIDUAL:
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
        """``|psi><psi|`` of ``psi`` normalized; ``ShapeError`` unless ``psi`` is a non-empty 1-D vector, ``DomainError`` for a zero or non-finite norm."""
        try:
            psi = np.asarray(psi, dtype=complex)
        except (TypeError, ValueError):  # ragged or non-numeric
            psi = None
        if psi is None or psi.ndim != 1 or not psi.size:
            raise ShapeError("state vector must be a non-empty 1-D vector")
        with np.errstate(over="ignore"):  # an overflowing norm fails the check as inf
            norm = np.linalg.norm(psi)
        if not 0 < norm <= sys.float_info.max:  # also false for NaN
            raise DomainError("state vector must have a finite, non-zero norm")
        psi = psi / norm
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
    """System + bath Hamiltonian data for exact simulation."""

    system_hamiltonian: np.ndarray
    bath_hamiltonian: np.ndarray
    couplings: tuple[Coupling, ...] = ()
    bath_initial: np.ndarray | None = None

    def __post_init__(self):
        hs = _check_hermitian(self.system_hamiltonian, "system_hamiltonian")
        hb = _check_hermitian(self.bath_hamiltonian, "bath_hamiltonian")
        object.__setattr__(self, "system_hamiltonian", _readonly(hs))
        object.__setattr__(self, "bath_hamiltonian", _readonly(hb))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        rho_b = self.bath_initial
        if rho_b is None:
            rho_b = np.zeros_like(hb)
            rho_b[0, 0] = 1.0
        ns, nb = hs.shape[0], hb.shape[0]
        object.__setattr__(self, "bath_initial", _readonly(_check_density(rho_b, "bath_initial", nb)))
        for c in self.couplings:
            _square(c.system, f"coupling {c.name!r} system operator", ns)
            _square(c.bath, f"coupling {c.name!r} bath operator", nb)

    @property
    def system_dim(self) -> int:
        return self.system_hamiltonian.shape[0]

    @property
    def bath_dim(self) -> int:
        return self.bath_hamiltonian.shape[0]

    @property
    def total_dim(self) -> int:
        return self.system_dim * self.bath_dim

    @functools.cached_property
    def total_hamiltonian(self) -> np.ndarray:
        ns, nb = self.system_dim, self.bath_dim
        total = _kron(self.system_hamiltonian, np.eye(nb)) + _kron(np.eye(ns), self.bath_hamiltonian)
        for c in self.couplings:
            total = total + _kron(c.system, c.bath)
        return _readonly(total)

    @property
    def num_qubits(self) -> int:
        return _qubit_count(self.system_dim)

    @functools.cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of the total Hamiltonian, computed once."""
        w, v = np.linalg.eigh(self.total_hamiltonian)
        return _readonly(w), _readonly(v)


@dataclass(frozen=True)
class KrausSet:
    """Operator-sum representation sampled from a model at one time."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        stack = _readonly(_square(self.operators, "Kraus operators", stack=True))
        object.__setattr__(self, "operators", tuple(stack))
        # sum_k A_k^dag A_k = I exactly when the operators stacked as one (K d, d) block form an isometry
        _check_unitary(stack.reshape(-1, stack.shape[-1]), "Kraus set does not satisfy the completeness relation")

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
    ``len(pulses) * delta_t``.  The pulses are validated as one ``(P, d, d)``
    stack, a copy of the input: one shape check, one identity check on pulse
    0 and one unitarity check of every pulse.  They are stored as a tuple of
    read-only views of that stack.  ``rotations``, the adjoint image of each
    pulse, is derived from the pulses on first access and cached.
    """

    pulses: tuple[np.ndarray, ...]
    delta_t: float

    def __post_init__(self):
        if len(self.pulses) == 0:
            raise ShapeError("a pulse group needs at least the identity pulse")
        object.__setattr__(self, "delta_t", _check_time(self.delta_t, "delta_t", positive=True))
        stack = _square(self.pulses, "pulses", stack=True)
        if isinstance(self.pulses, np.ndarray):  # the caller's array, not a fresh one: the group owns a copy
            stack = stack.copy()
        d = stack.shape[1]
        _qubit_count(d)
        if not np.linalg.norm(stack[0] - np.eye(d, dtype=complex)) <= ROUNDOFF:
            raise DomainError("pulse 0 must be the identity")
        _check_unitary(stack, "pulses must be unitary within tolerance")
        stack.setflags(write=False)
        object.__setattr__(self, "pulses", tuple(stack))

    @classmethod
    def from_pulses(cls, pulses, delta_t: float) -> "PulseGroup":
        """The group of a sequence of pulses, or of a ``(P, d, d)`` stack."""
        return cls(pulses=pulses if isinstance(pulses, np.ndarray) else tuple(pulses), delta_t=delta_t)

    def to_dict(self) -> dict:
        pulses = [_matrix_to_pairs(p) for p in self.pulses]
        return {"group_size": self.size, "delta_t": self.delta_t, "cycle_time": self.cycle_time, "pulses": pulses}

    @classmethod
    def from_dict(cls, data: dict) -> "PulseGroup":
        """Inverse of ``to_dict``; other keys, such as those of a synthesis artifact, are ignored."""
        return cls.from_pulses([_pairs_to_matrix(p) for p in data["pulses"]], data["delta_t"])

    @functools.cached_property
    def rotations(self) -> tuple[AdjointRotation, ...]:
        basis = build_pauli_basis(_qubit_count(self.dim))
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


def propagate(model: SystemBathModel, t: float) -> np.ndarray:
    """Full system+bath propagator ``exp(-i H t)`` from the model's spectrum."""
    t = _check_time(t)
    w, v = model.spectrum
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def partial_trace_bath(rho_full: np.ndarray, system_dim: int, bath_dim: int) -> np.ndarray:
    """Trace out the bath of a ``(..., ns * nb, ns * nb)`` stack."""
    rho_full = np.asarray(rho_full)
    r = rho_full.reshape(*rho_full.shape[:-2], system_dim, bath_dim, system_dim, bath_dim)
    return np.einsum("...abcb->...ac", r)


def _reduced_channel(model: SystemBathModel, u_full: np.ndarray):
    """Reduced dynamics ``rho -> Tr_B[U (rho (x) rho_B) U^dag]`` under a full propagator.

    The returned channel accepts a :class:`DensityMatrix` or a
    ``(..., ns, ns)`` stack of system states and returns the stack of
    reduced states, each equal to the channel applied to it alone.  Given
    a ``(P..., D, D)`` stack of propagators it returns ``(P..., ..., ns, ns)``:
    every state under every propagator.
    """
    ns, nb = model.system_dim, model.bath_dim
    rho_b = model.bath_initial

    def channel(rho):
        rho = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
        if rho.shape[-2:] != (ns, ns):
            raise ShapeError("initial state dimension does not match the system")
        u = u_full.reshape(*u_full.shape[:-2], *(1,) * (rho.ndim - 2), *u_full.shape[-2:])
        full = u @ _kron(rho, rho_b) @ u.conj().swapaxes(-1, -2)
        return partial_trace_bath(full, ns, nb)

    return channel


def reduced_state(model: SystemBathModel, rho_system_0, t: float) -> DensityMatrix:
    """Evolve ``rho (x) rho_B`` for time ``t`` and trace out the bath."""
    return DensityMatrix(_reduced_channel(model, propagate(model, t))(rho_system_0))


def kraus_from_model(model: SystemBathModel, t: float) -> KrausSet:
    """Kraus operators ``A_mn = sqrt(p_n) <m|U(t)|n>`` over bath eigenpairs.

    Bath eigenvalues below ``BATH_EIGENVALUE_CUTOFF`` are dropped; the resulting
    set reproduces :func:`reduced_state` on any input state.
    """
    u = propagate(model, t)
    ns, nb = model.system_dim, model.bath_dim
    evals, evecs = np.linalg.eigh(model.bath_initial)
    u_tensor = u.reshape(ns, nb, ns, nb)
    ops = []
    for nu in range(nb):
        p = evals[nu].real
        if p < BATH_EIGENVALUE_CUTOFF:
            continue
        # <mu| U |nu> with |mu>, |nu> bath eigenvectors
        blocks = np.einsum("ambn,n->amb", u_tensor, evecs[:, nu])
        for mu in range(nb):
            ops.append(np.sqrt(p) * np.einsum("amb,m->ab", blocks, evecs[:, mu].conj()))
    return KrausSet(operators=tuple(ops))


def bb_cycle_propagator(model: SystemBathModel, group: PulseGroup) -> np.ndarray:
    """Propagator for one pulse cycle, ``prod_j g_j^dag U_0(dt) g_j``: ``bb_propagator`` at ``group.cycle_time``.

    The product is taken with ascending ``j`` acting first on the state.
    """
    return bb_propagator(model, group, group.cycle_time)


def _on_system(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``(g (x) I_B) u`` for a system operator ``g``: ``g`` times the ``(ns, nb * D)`` reshape of a ``(D, D)`` ``u``."""
    return (g @ u.reshape(g.shape[0], -1)).reshape(u.shape)


def _pulse_segments(u0: np.ndarray, pulses, u: np.ndarray) -> np.ndarray:
    """``u`` followed by the segments ``g_j^dag U_0 g_j`` of ``pulses``, in order.

    A pulse acts on the system index only, so ``g_j`` and ``g_j^dag`` are
    applied to the rows of the ``(ns, nb * D)`` reshape, and no lifted
    ``g_j (x) I_B`` is built; only the product with ``U_0`` is ``D x D``.
    """
    for g in pulses:
        u = _on_system(g.conj().T, u0 @ _on_system(g, u))
    return u


def bb_propagator(model: SystemBathModel, group: PulseGroup, t) -> np.ndarray:
    """Pulsed propagator up to time ``t``, or the ``(T, D, D)`` stack of them over a 1-D sequence of times.

    Whole cycles are applied first; a partial cycle runs through complete
    pulse/delay segments and a final fractional free evolution.  Inside an
    unfinished segment the opening pulse has been applied but its closing
    conjugate has not.  Round-off in ``t`` grows with ``t``, so the
    tolerances do too: ``t`` within ``ROUNDOFF * max(1, t / cycle_time)``
    cycles below a whole count reads as that count, a remainder below
    ``ROUNDOFF * max(cycle_time, 1, t)`` counts as 0, and one within that of
    a segment boundary ends there: it opens no segment.  The cycle is built
    once per call and each distinct whole-cycle power once; a single time is
    the batch of one.
    """
    scalar = np.ndim(t) == 0
    times = [_check_time(t)] if scalar else [_check_time(s) for s in t]
    if group.dim != model.system_dim:
        raise ShapeError("pulse dimension does not match the system")
    u0 = propagate(model, group.delta_t)
    cycle = _pulse_segments(u0, group.pulses, np.eye(model.total_dim, dtype=complex))
    tc, dt = group.cycle_time, group.delta_t
    out, powers = [], {}
    for s in times:
        x = s / tc
        n_cycles = math.floor(x + ROUNDOFF * max(1.0, x))
        if n_cycles not in powers:
            powers[n_cycles] = np.linalg.matrix_power(cycle, n_cycles)
        u, rem, snap = powers[n_cycles], s - n_cycles * tc, ROUNDOFF * max(tc, 1.0, s)
        if rem >= snap:
            j = 0
            while rem >= dt - snap and j < group.size:
                rem -= dt
                j += 1
            u = _pulse_segments(u0, group.pulses[:j], u)
            if rem >= snap and j < group.size:
                u = propagate(model, rem) @ _on_system(group.pulses[j], u)
        out.append(u)
    return out[0] if scalar else np.array(out, dtype=complex).reshape(-1, *cycle.shape)


def apply_bb_cycle(model: SystemBathModel, group: PulseGroup, num_cycles: int, rho_system_0) -> DensityMatrix:
    """Reduced state after ``num_cycles`` pulse cycles.

    The propagator is ``bb_propagator`` at ``num_cycles`` cycle times.
    Pulses are instantaneous, so the bath only evolves during the free
    segments; with the trivial group this is exactly ``reduced_state`` at
    ``num_cycles * delta_t``.
    """
    num_cycles = _check_count(num_cycles, "num_cycles", 1)
    u = bb_propagator(model, group, num_cycles * group.cycle_time)
    return DensityMatrix(_reduced_channel(model, u)(rho_system_0))


def symmetrize_hamiltonian(hamiltonian: np.ndarray, group: PulseGroup, check_centralizer: bool = False) -> np.ndarray:
    """Group average ``(1/|G|) sum_k g_k^dag H g_k``.

    For an adjoint-closed pulse set this is the projector onto the
    centralizer of the group; ``check_centralizer=True`` verifies that the
    result commutes with every pulse.
    """
    h = _check_hermitian(hamiltonian, "hamiltonian", group.dim)
    out = np.zeros_like(h)
    for g in group.pulses:
        out += g.conj().T @ h @ g
    out /= group.size
    if check_centralizer:
        for g in group.pulses:
            if not np.linalg.norm(out @ g - g @ out) <= LINEAR_SOLVE * max(1.0, np.linalg.norm(h)):
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
    }


# ``coupling_order`` is a dropped setting that older model files still carry.
_MODEL_KEYS = frozenset({"system_hamiltonian", "bath_hamiltonian", "couplings", "bath_initial", "coupling_order"})
_COUPLING_KEYS = frozenset({"system", "bath", "name"})


def _check_keys(data: dict, allowed: set | frozenset, what: str) -> None:
    unknown = [k for k in data if k not in allowed]
    if unknown:
        raise DomainError(f"unknown {what} key(s) {unknown}")


def model_from_dict(data: dict) -> SystemBathModel:
    """Inverse of ``model_to_dict``; a key outside the schema raises ``DomainError``."""
    _check_keys(data, _MODEL_KEYS, "model")
    for c in data.get("couplings", []):
        _check_keys(c, _COUPLING_KEYS, "coupling")
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
    )
