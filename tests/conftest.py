import numpy as np
import pytest

from bbforge.open_system_sim import Coupling, SystemBathModel
from bbforge.operator_algebra import OperatorBasis

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(dim, rng, traceless=False):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    if traceless:
        h -= np.trace(h) / dim * np.eye(dim)
    return h


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_su2(rng):
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    a, b, c, d = v
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


def phase_aligned_distance(u, v):
    """|| u - e^{i phi} v || minimized over the global phase."""
    overlap = np.vdot(v.ravel(), u.ravel())
    if abs(overlap) < 1e-300:
        return float(np.linalg.norm(u - v))
    phase = overlap / abs(overlap)
    return float(np.linalg.norm(u - phase * v))


def on_qubit(op, qubit, num_qubits):
    """``op`` on one qubit of ``num_qubits``, the identity on the rest; qubit 0 is the leftmost factor."""
    return np.kron(np.kron(np.eye(2**qubit), op), np.eye(2 ** (num_qubits - 1 - qubit)))


def three_qubit_dephasing_model(seed=17):
    """Seeded local Z dephasing on three system qubits, each through its own operator on one bath qubit."""
    rng = np.random.default_rng(seed)

    def unit_hermitian():
        h = random_hermitian(2, rng)
        return h / np.linalg.norm(h, 2)

    return SystemBathModel(
        system_hamiltonian=sum(rng.uniform(0.2, 0.5) * on_qubit(SZ, q, 3) for q in range(3)),
        bath_hamiltonian=0.5 * unit_hermitian(),
        couplings=tuple(Coupling(system=rng.uniform(0.05, 0.2) * on_qubit(SZ, q, 3), bath=unit_hermitian()) for q in range(3)),
        bath_initial=random_density(2, rng),
    )


def gell_mann_basis():
    """The qutrit basis: the identity and the eight Gell-Mann matrices, scaled so ``Tr(K_a K_b) = 3 delta_ab``."""
    units = np.eye(3)
    mats = []
    for m in range(3):
        for n in range(m + 1, 3):
            e = np.outer(units[m], units[n])
            mats += [e + e.T, -1j * e + 1j * e.T]
    mats += [np.diag([1.0, -1.0, 0.0]), np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)]
    return OperatorBasis(elements=np.array([np.eye(3)] + [np.sqrt(1.5) * k for k in mats], dtype=complex))


def with_corner(m, x):
    """Complex copy of ``m`` with its [0, 0] entry replaced by ``x``."""
    out = np.array(m, dtype=complex)
    out[0, 0] = x
    return out


NON_FINITE = pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
