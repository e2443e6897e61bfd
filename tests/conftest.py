import numpy as np
import pytest

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
