"""Bit-exact record digests of seeded learning loops.

The digests pin every bit of the records a seeded loop returns, so any
change to the loop's arithmetic, its RNG stream or the order it scores
candidates in shows here.  They were computed with the loop that scored
every population member each generation, before scoring became once per
distinct genome, and both loops must give them.  The ``2q`` digest was
re-taken when genomes began to be read from per-qubit pulse lists, not
factored out of built pulses; the factoring had left round-off of up to
2e-14 in the two-qubit pulses.  All three were re-taken when distances
began to be read off coordinates as ``sqrt(M) * ||e||_2`` and chi's
trace-preservation residual off ``lam``: every record kept its best-group
pulses bit for bit, and costs and residual distances moved by at most
1.1e-16 relative.  The ``2q`` digest was re-taken again when the loop
began to analyze each measured generator once: the storage analysis
history then holds one detected vector per probe, not one per generation,
and the axis solve rounds differently without the repeats.  Every record
kept its generation, flag and best-group pulses bit for bit; one mean cost
moved by 2.3e-16 relative.  All three were re-taken when the cycle
propagator began to apply each pulse to the system index of the reshaped
product instead of multiplying by ``g (x) I_B``, and the matrix-unit
responses began to be recombined by one matmul: both round differently.
Every record kept its generation, flag and best-group size; best-group
pulses moved by at most 1.0e-13, and costs and residual distances by at
most 1.8e-12 relative.  In the same change a partial cycle stopped
opening the next segment on a round-off remainder at a segment boundary,
which moved only ``1q-quadrature-2``: its node at 1.5 cycles of a 2-pulse
group had been given the second pulse ahead of its free evolution on a
remainder of 1.4e-17.  Its records kept their generations, flags,
best-group pulses and residuals, and the best cost went from the wrong
4.98e-2 to 6.07e-2.  Float bits depend on the numpy build; they
were taken with numpy 2.4.6 and its bundled OpenBLAS on x86-64, where one
BLAS thread and the default pool agree.
"""

import hashlib

import numpy as np
import pytest

from bbforge.bb_synthesis import TargetSpec
from bbforge.open_system_sim import Coupling, SystemBathModel
from bbforge.optimizer import LearningLoopConfig, learning_loop

from conftest import SX, SY, SZ, random_density, random_hermitian


def seeded_model(seed: int, system_qubits: int, bath_qubits: int) -> SystemBathModel:
    """Generic noise: each system Pauli couples to its own random bath operator."""
    rng = np.random.default_rng(seed)
    ns, nb = 2**system_qubits, 2**bath_qubits

    def scaled(dim, norm):
        h = random_hermitian(dim, rng)
        return norm * h / np.linalg.norm(h, 2)

    couplings = tuple(
        Coupling(system=np.kron(np.kron(np.eye(2**q), pauli), np.eye(2 ** (system_qubits - q - 1))), bath=scaled(nb, 0.3))
        for q in range(system_qubits)
        for pauli in (SX, SY, SZ)
    )
    return SystemBathModel(scaled(ns, 0.5), scaled(nb, 1.0), couplings, random_density(nb, rng))


def records_digest(best, records) -> str:
    """sha256 over each record's costs, residual distance and best-group bytes, then the final best group."""
    h = hashlib.sha256()
    for r in records:
        h.update(np.array([r.generation, r.converged], dtype=np.int64).tobytes())
        h.update(np.array([r.best_cost, r.mean_cost, r.residual.scalar_distance, r.best_group.delta_t]).tobytes())
        for p in r.best_group.pulses:
            h.update(p.tobytes())
    for p in best.pulses:
        h.update(p.tobytes())
    return h.hexdigest()


# id: (system qubits, bath qubits, population, generations, quadrature, digest)
GOLDEN = {
    "1q-quadrature-2": (1, 2, 12, 6, 2, "ade2e0af4b0b009839cf0089b7b5927393baad111a3a0bc1f19d26cb2c8b4306"),
    "1q": (1, 2, 16, 10, 1, "fcebab709fe2ed7104797dccd620cb47dd585a6ef38eb4bbcaecb49ee46b0ee6"),
    "2q": (2, 1, 8, 3, 1, "4106d8bb559652d41dda163a5db6ae127bf43814db0e9ec1ac1466e19efc591c"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_seeded_loop_records_are_pinned(case):
    system_qubits, bath_qubits, population, generations, quadrature, digest = GOLDEN[case]
    model = seeded_model(system_qubits, system_qubits, bath_qubits)
    cfg = LearningLoopConfig(population=population, generations=generations, tolerance=0.0, seed=3, quadrature=quadrature)
    best, records = learning_loop(model, TargetSpec(kind="storage"), cfg)
    assert len(records) == generations
    assert records_digest(best, records) == digest
