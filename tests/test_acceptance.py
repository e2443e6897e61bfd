"""Acceptance suite: end-to-end checks at fixed tolerances.

Each test prints one ACCEPTANCE n PASS/FAIL line; tolerances and runtime
bounds are pinned in the assertions.
"""

import contextlib
import time

import numpy as np

from bbforge.bb_synthesis import (
    StabilizerSpace,
    TargetSpec,
    check_encoded,
    solve_storage,
    solve_two_qubit,
)
from bbforge.open_system_sim import (
    Coupling,
    DensityMatrix,
    KrausSet,
    PulseGroup,
    SystemBathModel,
    apply_bb_cycle,
    kraus_from_model,
    propagate,
    reduced_state,
    symmetrize_hamiltonian,
)
from bbforge.operator_algebra import (
    CoordinateVector,
    adjoint_of,
    build_pauli_basis,
    reconstruct,
    unitary_from_rotation,
)
from bbforge.optimizer import CostFunction, LearningLoopConfig, evaluate_cost, learning_loop
from bbforge.tomography import chi_from_lambda, extract_generator, run_qpt

from conftest import I2, SX, SY, SZ, on_qubit, random_hermitian, random_su2, three_qubit_dephasing_model, trace_distance

B1 = build_pauli_basis(1)
B2 = build_pauli_basis(2)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"\nACCEPTANCE {number} PASS: {description}")


def test_criterion_1_dephasing_storage():
    with criterion(1, "dephasing storage: xi = (0,0,-g/2), parity kick with theta=pi/2, n3=0"):
        g, t_probe = 1.0, 0.01
        with Timer() as timer:
            def channel(rho):
                return rho + (1j * g * t_probe / 2) * (rho @ SZ - SZ @ rho)

            chi = chi_from_lambda(run_qpt(channel, B1, time_tag=t_probe))
            gen = extract_generator(chi)
            want = np.array([0.0, 0.0, -g / 2])
            rel_err = np.linalg.norm(gen.xi[0] - want) / np.linalg.norm(want)
            assert rel_err < 1e-6

            result = solve_storage(gen, max_group_size=8)
            assert result.group.size == 2
            aa = unitary_from_rotation(adjoint_of(result.group.pulses[1], B1))
            assert abs(aa.angle - np.pi / 2) < 1e-9
            assert abs(aa.axis[2]) < 1e-9
        assert timer.elapsed < 1.0


def test_criterion_2_combined_errors_two_pass():
    with criterion(2, "combined dephasing + bit flip: learning ends on axis (0,1,0), |G|=2"):
        g, gp = 1.0, 0.05
        with Timer() as timer:
            model = SystemBathModel(
                system_hamiltonian=g / 2 * SZ + gp / 2 * SX,
                bath_hamiltonian=np.zeros((2, 2)),
                couplings=(Coupling(system=gp / 2 * SX, bath=SX, name="bitflip"),),
            )
            cfg = LearningLoopConfig(
                population=32, generations=20, tolerance=1e-3, seed=42,
                delta_t=0.01, detection_floor=0.1,
            )
            best, records = learning_loop(model, TargetSpec(kind="storage"), cfg)
            assert best.size == 2
            aa = unitary_from_rotation(adjoint_of(best.pulses[1], B1))
            assert np.linalg.norm(aa.axis - np.array([0.0, 1.0, 0.0])) < 1e-8
        assert timer.elapsed < 5.0


def test_criterion_3_heisenberg_two_qubit():
    with criterion(3, "Heisenberg target with independent dephasing: pulse -XX, [U,H]=0, {U,S}=0"):
        g1, g2, j_coupling = 0.3, 0.2, 1.0
        with Timer() as timer:
            xi_pair = np.zeros((4, 4))
            xi_pair[3, 0] = g1
            xi_pair[0, 3] = g2
            target = TargetSpec(kind="two_qubit", wanted=j_coupling * np.eye(3))
            result = solve_two_qubit(xi_pair, target, ansatz="local_products")
            u = np.asarray(result.group.pulses[1])
            want = -np.kron(SX, SX)
            overlap = np.vdot(want.ravel(), u.ravel())
            phase = overlap / abs(overlap)
            assert np.linalg.norm(u - phase * want) < 1e-8
            heis = j_coupling * sum(np.kron(p, p) for p in (SX, SY, SZ))
            noise = g1 * np.kron(SZ, I2) + g2 * np.kron(I2, SZ)
            assert np.linalg.norm(u @ heis - heis @ u) < 1e-12
            assert np.linalg.norm(u @ noise + noise @ u) < 1e-12
        assert timer.elapsed < 5.0


def test_criterion_4_operational_decoupling():
    with criterion(4, "operational decoupling: halving delta_t scales the error by ~2"):
        with Timer() as timer:
            g, omega = 0.5, 1.0
            plus_y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
            model = SystemBathModel(
                system_hamiltonian=np.zeros((2, 2)),
                bath_hamiltonian=omega / 2 * SZ,
                couplings=(Coupling(system=g / 2 * SZ, bath=SX, name="dephasing"),),
                bath_initial=np.outer(plus_y, plus_y.conj()),
            )
            t_probe = 0.01
            chi = chi_from_lambda(
                run_qpt(kraus_from_model(model, t_probe).apply, B1, time_tag=t_probe)
            )
            result = solve_storage(extract_generator(chi))
            assert result.group.size == 2

            rho0 = DensityMatrix.from_state_vector([1.0, 1.0])
            total_time = 1.0
            errors = {}
            for dt in (0.1, 0.05):
                group = result.group.with_delta_t(dt)
                cycles = int(round(total_time / group.cycle_time))
                pulsed = apply_bb_cycle(model, group, cycles, rho0).matrix
                errors[dt] = trace_distance(pulsed, rho0.matrix)
                # oracle: dense exact evolution assembled inline
                u0 = propagate(model, dt)
                gf = np.kron(np.asarray(group.pulses[1]), np.eye(2))
                cycle = gf.conj().T @ u0 @ gf @ u0
                u = np.linalg.matrix_power(cycle, cycles)
                full = u @ np.kron(rho0.matrix, model.bath_initial) @ u.conj().T
                oracle = np.einsum("abcb->ac", full.reshape(2, 2, 2, 2))
                assert np.linalg.norm(pulsed - oracle) < 1e-12
            ratio = errors[0.1] / errors[0.05]
            assert 1.6 <= ratio <= 2.4
            unpulsed = trace_distance(reduced_state(model, rho0, total_time).matrix, rho0.matrix)
            assert errors[0.1] < unpulsed
        assert timer.elapsed < 10.0


def test_criterion_5_tomography_roundtrip():
    with criterion(5, "50 random Kraus channels: chi reproduces the channel to 1e-9"):
        rng = np.random.default_rng(555)
        with Timer() as timer:
            worst = 0.0
            for k in range(50):
                if k % 5 < 3:
                    dim, basis = 2, B1
                else:
                    dim, basis = 4, B2
                ops = [
                    rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                    for _ in range(3)
                ]
                total = sum(a.conj().T @ a for a in ops)
                w, v = np.linalg.eigh(total)
                inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
                channel = KrausSet([a @ inv_sqrt for a in ops]).apply
                chi = chi_from_lambda(run_qpt(channel, basis))
                for _ in range(20):
                    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                    rho = a @ a.conj().T
                    rho /= np.trace(rho)
                    worst = max(worst, np.linalg.norm(chi.apply(rho) - channel(rho)))
            assert worst < 1e-9
        assert timer.elapsed < 30.0


def test_criterion_6_projector_property():
    with criterion(6, "Pauli-group symmetrization: annihilates traceless inputs, idempotent"):
        rng = np.random.default_rng(66)
        pauli_1q = PulseGroup.from_pulses([I2, SX, SY, SZ], 0.1)
        worst_kill = 0.0
        for _ in range(100):
            h = random_hermitian(2, rng, traceless=True)
            worst_kill = max(worst_kill, np.linalg.norm(symmetrize_hamiltonian(h, pauli_1q)))
        assert worst_kill < 1e-12

        lifted = PulseGroup.from_pulses([np.kron(p, I2) for p in (I2, SX, SY, SZ)], 0.1)
        worst_idem = 0.0
        for _ in range(100):
            h = random_hermitian(4, rng)
            once = symmetrize_hamiltonian(h, lifted)
            twice = symmetrize_hamiltonian(once, lifted)
            worst_idem = max(worst_idem, np.linalg.norm(once - twice))
        assert worst_idem < 1e-12


def test_criterion_7_adjoint_suite():
    with criterion(7, "adjoint suite over 200 SU(2): homomorphism, orthogonality, roundtrip"):
        rng = np.random.default_rng(77)
        worst_hom = worst_orth = worst_round = 0.0
        for _ in range(200):
            u, v = random_su2(rng), random_su2(rng)
            ru = adjoint_of(u, B1).matrix
            rv = adjoint_of(v, B1).matrix
            ruv = adjoint_of(u @ v, B1).matrix
            worst_hom = max(worst_hom, np.linalg.norm(ruv - ru @ rv))
            worst_orth = max(
                worst_orth,
                np.linalg.norm(ru.T @ ru - np.eye(3)),
                abs(np.linalg.det(ru) - 1.0),
            )
            aa = unitary_from_rotation(adjoint_of(u, B1))
            u_back = aa.unitary()
            overlap = np.vdot(u.ravel(), u_back.ravel())
            phase = overlap / abs(overlap)
            worst_round = max(worst_round, np.linalg.norm(u_back - phase * u))
        assert worst_hom < 1e-9
        assert worst_orth < 1e-9
        assert worst_round < 1e-9


def test_criterion_8_learning_loop():
    with criterion(8, "learning loop: J <= 1e-6 within 20 generations, monotone best-J"):
        with Timer() as timer:
            model = SystemBathModel(
                system_hamiltonian=0.5 * SZ, bath_hamiltonian=np.zeros((1, 1))
            )
            cfg = LearningLoopConfig(
                population=32, generations=20, tolerance=1e-6, seed=42, delta_t=0.05
            )
            best, records = learning_loop(model, TargetSpec(kind="storage"), cfg)
            assert records[-1].converged
            assert len(records) <= 20
            assert records[-1].best_cost <= 1e-6
            costs = [r.best_cost for r in records]
            assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert timer.elapsed < 60.0


def test_criterion_9_encoded_condition():
    with criterion(9, "encoded condition: in-span deviations vanish, residuals match projection"):
        rng = np.random.default_rng(99)
        zz = np.kron(SZ, SZ)
        stab = StabilizerSpace(generators=(zz,))
        target = TargetSpec(kind="encoded", wanted=np.zeros(15), stabilizer=stab)

        # deviations inside the span
        for c in (0.1, -0.7, 2.5):
            coords = np.zeros(15)
            coords[4 * 3 + 3 - 1] = c
            rep = check_encoded(CoordinateVector(coords, B2), target)
            assert rep.stabilizer_distance < 1e-10

        # random deviations against the dense projection oracle
        worst = 0.0
        for _ in range(100):
            coords = rng.normal(size=15)
            rep = check_encoded(CoordinateVector(coords, B2), target)
            delta = reconstruct(CoordinateVector(coords, B2))
            c = np.trace(zz @ delta).real / np.trace(zz @ zz).real
            resid = delta - c * zz
            oracle = np.sqrt(np.trace(resid.conj().T @ resid).real)
            worst = max(worst, abs(rep.stabilizer_distance - oracle))
        assert worst < 1e-10


def test_criterion_10_three_qubit_learning_loop():
    # local Z dephasing is removed to first order by {I, K (x) K (x) K} for any
    # kick K perpendicular to z (Viola, Knill & Lloyd, PRL 82, 2417, 1999)
    with criterion(10, "3-qubit learning loop: size-2 product group flipping every local Z, J < 1e-2 x J(identity)"):
        with Timer() as timer:
            model = three_qubit_dephasing_model()
            cfg = LearningLoopConfig(population=16, generations=6, tolerance=0.0, seed=4, delta_t=0.02)
            best, records = learning_loop(model, TargetSpec(kind="storage"), cfg)
            assert best.size == 2
            for z in (on_qubit(SZ, q, 3) for q in range(3)):
                assert np.linalg.norm(best.pulses[1].conj().T @ z @ best.pulses[1] + z) < 1e-9
            cost = CostFunction(target=TargetSpec(kind="storage"), cycles=cfg.cycles, quadrature=cfg.quadrature)
            identity = PulseGroup.from_pulses([np.eye(8)], cfg.delta_t)
            assert records[-1].best_cost < 1e-2 * evaluate_cost(model, identity, cost)
        assert timer.elapsed < 60.0
