import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bbforge.optimizer as optimizer_mod
from bbforge.bb_synthesis import TargetSpec, _catalogue, _product_group, error_report, parity_kick_group
from bbforge.defaults import EXACT_HIT
from bbforge.errors import CapacityError, DomainError, ShapeError
from bbforge.open_system_sim import Coupling, PulseGroup, SystemBathModel, _reduced_channel, bb_propagator
from bbforge.operator_algebra import (
    MAX_BASIS_QUBITS,
    CoordinateVector,
    adjoint_of,
    axis_angle_unitary,
    build_pauli_basis,
    unitary_from_rotation,
)
from bbforge.optimizer import (
    CostFunction,
    LearningLoopConfig,
    axis_grid,
    enumerate_candidate_groups,
    evaluate_cost,
    learning_loop,
)
from bbforge.optimizer import (
    _analysis_candidate,
    _catalogue_genomes,
    _default_probe_time,
    _genome_group,
    _genome_key,
    _genome_of,
    _measure_generator,
    _target_flat,
)
from bbforge.tomography import chi_from_lambda, extract_generator, run_qpt

from conftest import (
    I2,
    SX,
    SY,
    SZ,
    on_qubit,
    phase_aligned_distance,
    random_density,
    random_hermitian,
    random_su2,
    random_unitary,
    three_qubit_dephasing_model,
)

B1 = build_pauli_basis(1)


def pure_dephasing_model(g=1.0):
    return SystemBathModel(system_hamiltonian=g / 2 * SZ, bath_hamiltonian=np.zeros((1, 1)))


def two_error_model(g=1.0, gp=0.05):
    """Dominant dephasing plus a weak bit flip entering through the bath too."""
    return SystemBathModel(
        system_hamiltonian=g / 2 * SZ + gp / 2 * SX,
        bath_hamiltonian=np.zeros((2, 2)),
        couplings=(Coupling(system=gp / 2 * SX, bath=SX, name="bitflip"),),
    )


def bath_noise_model(g=0.5, omega=1.0):
    """Dephasing through a dynamic bath; no pulse set removes it exactly."""
    plus_y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    return SystemBathModel(
        system_hamiltonian=np.zeros((2, 2)),
        bath_hamiltonian=omega / 2 * SZ,
        couplings=(Coupling(system=g / 2 * SZ, bath=SX, name="dephasing"),),
        bath_initial=np.outer(plus_y, plus_y.conj()),
    )


def two_qubit_bath_model():
    """Two system qubits with local and crosstalk noise through one bath qubit."""
    z1, z2 = np.kron(SZ, I2), np.kron(I2, SZ)
    return SystemBathModel(
        system_hamiltonian=0.3 * z1 + 0.2 * z2 + 0.05 * np.kron(SX, SX),
        bath_hamiltonian=0.5 * SZ,
        couplings=(
            Coupling(system=0.2 * z1, bath=SX, name="z1x"),
            Coupling(system=0.1 * np.kron(I2, SX), bath=SY, name="x2y"),
        ),
    )


def local_dephasing_model(num_qubits=2):
    """Local Z dephasing on two or three system qubits, qubit 0's also through a bath qubit."""
    z = [on_qubit(SZ, q, num_qubits) for q in range(num_qubits)]
    return SystemBathModel(
        system_hamiltonian=sum(g * zq for g, zq in zip((0.3, 0.2, 0.1), z)),
        bath_hamiltonian=0.5 * SZ,
        couplings=(Coupling(system=0.1 * z[0], bath=SX, name="z1x"),),
    )


def three_qubit_zz_model(last=SZ):
    """Closed three-qubit system, ``0.5 Z (x) Z (x) last``, beside an uncoupled bath qubit."""
    return SystemBathModel(system_hamiltonian=0.5 * np.kron(np.kron(SZ, SZ), last), bath_hamiltonian=np.zeros((2, 2)))


def storage_cost(cycles=2, quadrature=1):
    return CostFunction(target=TargetSpec(kind="storage"), cycles=cycles, quadrature=quadrature)


def node_chain_cost(model, group, cost) -> float:
    """The cost through the public chain, one node at a time: the trapezoid over every node's distance."""
    basis = build_pauli_basis(model.num_qubits)
    wanted = CoordinateVector(_target_flat(cost.target, basis), basis)
    times, values = [], []
    for m in range(1, cost.cycles + 1):
        for sub in range(1, cost.quadrature + 1):
            t = (m - 1 + sub / cost.quadrature) * group.cycle_time
            channel = _reduced_channel(model, bb_propagator(model, group, t))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                gen = extract_generator(chi_from_lambda(run_qpt(channel, basis, time_tag=t)))
            d = error_report(CoordinateVector(gen.coords, basis), wanted).scalar_distance
            times.append(t)
            values.append(0.0 if d < EXACT_HIT else d)
    return float(np.trapezoid([values[0], *values], [0.0, *times]))


class TestEvaluateCost:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_qubits=st.integers(1, 3),
        size=st.integers(1, 4),
        cycles=st.integers(1, 3),
        quadrature=st.integers(1, 3),
        gate=st.booleans(),
    )
    def test_stacked_nodes_equal_the_per_node_chain_bit_for_bit(self, seed, num_qubits, size, cycles, quadrature, gate):
        rng = np.random.default_rng(seed)
        model = SystemBathModel(
            system_hamiltonian=0.5 * random_hermitian(2**num_qubits, rng),
            bath_hamiltonian=random_hermitian(2, rng),
            couplings=tuple(Coupling(system=0.3 * on_qubit(p, q, num_qubits), bath=random_hermitian(2, rng))
                            for q in range(num_qubits) for p in (SX, SY, SZ)),
            bath_initial=random_density(2, rng),
        )
        group = _product_group([[I2] + [random_su2(rng) for _ in range(size - 1)] for _ in range(num_qubits)],
                               float(rng.uniform(0.01, 0.1)))
        target = TargetSpec(kind="single_qubit", wanted=rng.normal(size=3)) if gate else TargetSpec(kind="storage")
        cost = CostFunction(target=target, cycles=cycles, quadrature=quadrature)
        assert evaluate_cost(model, group, cost) == node_chain_cost(model, group, cost)

    def test_exact_solution_gives_zero(self):
        model = pure_dephasing_model()
        kick = parity_kick_group([1, 0, 0], delta_t=0.05)
        assert evaluate_cost(model, kick, storage_cost()) == 0.0

    def test_constant_integrand(self):
        # tiny generator: deviation is constant over the horizon to high
        # order, so J ~ horizon * distance
        h = 1e-4
        model = SystemBathModel(system_hamiltonian=h / 2 * SX, bath_hamiltonian=np.zeros((1, 1)))
        group = PulseGroup.from_pulses([I2], 0.1)
        cost = storage_cost(cycles=3)
        j = evaluate_cost(model, group, cost)
        horizon = 3 * group.cycle_time
        want = horizon * np.sqrt(2) * (h / 2)
        assert abs(j - want) / want < 1e-4

    def test_parity_kick_beats_identity(self):
        model = pure_dephasing_model()
        j_kick = evaluate_cost(model, parity_kick_group([1, 0, 0], 0.05), storage_cost())
        j_id = evaluate_cost(model, PulseGroup.from_pulses([I2], 0.05), storage_cost())
        assert j_kick < j_id

    def test_quadrature_refines(self):
        model = pure_dephasing_model()
        group = PulseGroup.from_pulses([I2], 0.05)
        j1 = evaluate_cost(model, group, storage_cost(cycles=2, quadrature=1))
        j4 = evaluate_cost(model, group, storage_cost(cycles=2, quadrature=4))
        # both approximate the same integral
        assert abs(j1 - j4) < 0.05 * j1

    def test_weight_three_error_costs_as_much_as_weight_two(self):
        # Z (x) Z (x) Z dephases the state as fast as Z (x) Z (x) I; a cost blind to weight 3 read it as 0
        identity = PulseGroup.from_pulses([np.eye(8)], 0.05)
        weight_two = evaluate_cost(three_qubit_zz_model(I2), identity, storage_cost())
        assert weight_two > 0.1
        assert evaluate_cost(three_qubit_zz_model(), identity, storage_cost()) == pytest.approx(weight_two, rel=1e-12)

    def test_gate_target_cost(self):
        # aiming for the generator the model already produces costs nothing
        g = 1.0
        model = pure_dephasing_model(g)
        target = TargetSpec(kind="single_qubit", wanted=np.array([0.0, 0.0, -g / 2]))
        cost = CostFunction(target=target, cycles=2)
        group = PulseGroup.from_pulses([I2], 0.01)
        assert evaluate_cost(model, group, cost) < 2e-4

    def test_overflowing_distance_rejected(self):
        # at a denormal spacing, round-off in chi divided by the node time overflows the distance
        model = SystemBathModel(0.5 * SZ + 0.3 * SX, 0.5 * SZ, (Coupling(system=0.1 * SZ, bath=SX),), np.diag([0.7, 0.3]))
        group = _product_group([[I2, axis_angle_unitary([0.3, 0.5, 0.8], 0.7)]], 1e-310)
        with pytest.raises(DomainError, match="finite"):
            evaluate_cost(model, group, storage_cost())

    def test_overflowing_horizon_rejected(self):
        # each delta_t is finite, but the cycle and the horizon overflow to inf
        group = PulseGroup.from_pulses([I2, SX], sys.float_info.max)
        with pytest.raises(DomainError, match="finite"):
            evaluate_cost(pure_dephasing_model(), group, storage_cost())


class TestCandidateCatalogue:
    def test_axis_grid_has_26_directions(self):
        grid = axis_grid()
        assert grid.shape == (26, 3)
        assert np.allclose(np.linalg.norm(grid, axis=1), 1.0)
        assert np.allclose(grid[0], [1, 0, 0])

    def test_parity_kicks_at_max_size_two(self):
        groups = enumerate_candidate_groups(2, 2)
        assert all(g.size <= 2 for g in groups)
        assert len(groups) == 26

    def test_pauli_group_present_at_four(self):
        groups = enumerate_candidate_groups(2, 4)
        four = [g for g in groups if g.size == 4]
        assert four, "expected the Pauli set in the catalogue"
        found = False
        for g in four:
            rots = [adjoint_of(p, B1).matrix for p in g.pulses]
            want = [np.eye(3), np.diag([1.0, -1, -1]), np.diag([-1.0, 1, -1]), np.diag([-1.0, -1, 1])]
            if all(any(np.allclose(r, w, atol=1e-10) for r in rots) for w in want):
                found = True
        assert found

    def test_dim4_contains_pairwise_kick(self):
        groups = enumerate_candidate_groups(4, 4)
        want = -np.kron(SX, SX)
        assert any(
            g.size == 2 and np.linalg.norm(np.asarray(g.pulses[1]) - want) < 1e-12 for g in groups
        )
        b2 = build_pauli_basis(2)
        want_rots = [np.kron(p, p) for p in (SX, SY, SZ)]
        pauli_like = [g for g in groups if g.size == 4]
        assert any(
            all(
                any(np.linalg.norm(adjoint_of(np.asarray(p), b2).matrix - adjoint_of(w, b2).matrix) < 1e-10
                    for p in g.pulses)
                for w in want_rots
            )
            for g in pauli_like
        )

    def test_adjoint_closure(self):
        # every catalogue skeleton has a multiplicatively closed adjoint image
        for dim, nq in ((2, 1), (4, 2), (8, 3)):
            basis = build_pauli_basis(nq)
            for g in enumerate_candidate_groups(dim, 4):
                rots = [adjoint_of(np.asarray(p), basis).matrix for p in g.pulses]
                for ra in rots:
                    for rb in rots:
                        prod = ra @ rb
                        assert any(np.linalg.norm(prod - rc) < 1e-10 for rc in rots)

    def test_three_qubit_catalogue_order(self):
        # kicks on every qubit, kicks on one qubit, the 24 mixed kick tuples, then the Pauli sets
        groups = enumerate_candidate_groups(8, 4)
        assert len(groups) == 3 + 9 + 24 + 1 + 3
        x, y = 1j * SX, 1j * SY  # the kicks exp(i pi/2 sigma)
        for k, (a, b, c) in {0: (x, x, x), 3: (x, I2, I2), 5: (I2, I2, x), 12: (x, x, y)}.items():
            assert np.abs(groups[k].pulses[1] - np.kron(np.kron(a, b), c)).max() < 1e-15
        assert [g.size for g in groups[:36]] == [2] * 36 and [g.size for g in groups[36:]] == [4] * 4
        assert [g.size for g in enumerate_candidate_groups(8, 3)] == [2] * 36

    def test_dimension_not_a_power_of_two_rejected(self):
        with pytest.raises(ShapeError, match="power of two"):
            enumerate_candidate_groups(3, 4)

    def test_qubit_count_limited_by_the_basis(self):
        with pytest.raises(CapacityError):
            enumerate_candidate_groups(2 ** (MAX_BASIS_QUBITS + 1), 2)

    def test_size_guard(self):
        for bound in (1, 2.5, True):
            with pytest.raises(DomainError, match="max_size"):
                enumerate_candidate_groups(2, bound)

    def test_default_spacing_is_the_solvers(self):
        assert {g.delta_t for g in enumerate_candidate_groups(2, 4)} == {0.1}


class TestLearningLoop:
    def test_dephasing_converges_to_parity_kick(self):
        model = pure_dephasing_model()
        cfg = LearningLoopConfig(population=32, generations=20, tolerance=1e-6, seed=42, delta_t=0.05)
        best, records = learning_loop(model, TargetSpec(kind="storage"), cfg)
        assert records[-1].converged
        assert len(records) <= 20
        assert best.size == 2
        assert records[-1].best_cost <= 1e-6

    def test_zero_noise_immediate_trivial_group(self):
        model = SystemBathModel(system_hamiltonian=np.zeros((2, 2)), bath_hamiltonian=np.zeros((1, 1)))
        cfg = LearningLoopConfig(population=8, generations=5, tolerance=1e-6, seed=3)
        best, records = learning_loop(model, TargetSpec(kind="storage"), cfg)
        assert best.size == 1
        assert records[0].converged

    @staticmethod
    def assert_reproducible(model, cfg, target=TargetSpec(kind="storage")):
        best_a, rec_a = learning_loop(model, target, cfg)
        best_b, rec_b = learning_loop(model, target, cfg)
        assert len(rec_a) == len(rec_b)
        for a, b in zip(rec_a, rec_b):
            assert a.best_cost == b.best_cost
            assert a.mean_cost == b.mean_cost
            assert np.array_equal(a.residual.error_vector.coords, b.residual.error_vector.coords)
        assert best_a.size == best_b.size
        for pa, pb in zip(best_a.pulses, best_b.pulses):
            assert np.array_equal(np.asarray(pa), np.asarray(pb))
        return best_a, rec_a

    def test_determinism(self):
        cfg = LearningLoopConfig(population=12, generations=4, tolerance=0.0, seed=7, delta_t=0.02)
        self.assert_reproducible(bath_noise_model(), cfg)

    def test_determinism_two_qubits(self):
        cfg = LearningLoopConfig(population=8, generations=3, tolerance=0.0, seed=7, delta_t=0.02)
        best, _ = self.assert_reproducible(two_qubit_bath_model(), cfg)
        assert best.dim == 4

    @pytest.mark.parametrize(
        "model, target, solver",
        [
            (two_error_model(), TargetSpec(kind="single_qubit", wanted=[0.0, 0.0, -0.25]), "solve_single_qubit_gate"),
            (local_dephasing_model(), TargetSpec(kind="two_qubit", wanted=np.eye(3)), "solve_two_qubit"),
            # a gate target acts on qubit 0, or qubits 0 and 1, of a larger system
            (local_dephasing_model(), TargetSpec(kind="single_qubit", wanted=[0.0, 0.0, -0.25]), "solve_single_qubit_gate"),
            (local_dephasing_model(3), TargetSpec(kind="two_qubit", wanted=np.eye(3)), "solve_two_qubit"),
        ],
        ids=["single_qubit", "two_qubit", "single_qubit-of-2", "two_qubit-of-3"],
    )
    def test_gate_target_loop(self, monkeypatch, model, target, solver):
        solved = []
        solve = getattr(optimizer_mod, solver)

        def recording(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(optimizer_mod, solver, recording)
        cfg = LearningLoopConfig(population=6, generations=3, tolerance=0.0, seed=5, delta_t=0.02)
        best, records = self.assert_reproducible(model, cfg, target)
        assert best.dim == model.system_dim
        assert solved  # the analysis pass solved for the gate target
        costs = [r.best_cost for r in records]
        assert len(costs) == 3
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_three_qubit_dephasing_finds_a_product_decoupling_group(self):
        # Local Z dephasing on three qubits is removed to first order by {I, K (x) K (x) K}
        # for any kick K perpendicular to z (Viola, Knill & Lloyd, PRL 82, 2417, 1999).
        model = three_qubit_dephasing_model()
        cfg = LearningLoopConfig(population=16, generations=6, tolerance=0.0, seed=4, delta_t=0.02)
        best, records = learning_loop(model, TargetSpec(kind="storage"), cfg)
        assert len(records) == 6 and best.dim == 8
        assert best.size == 2
        # the second pulse flips each qubit's Z: it anticommutes with every local Z
        for z in (on_qubit(SZ, q, 3) for q in range(3)):
            flip = best.pulses[1].conj().T @ z @ best.pulses[1]
            assert np.linalg.norm(flip + z) < 1e-9
        cost = storage_cost(cycles=cfg.cycles, quadrature=cfg.quadrature)
        identity = PulseGroup.from_pulses([np.eye(8)], cfg.delta_t)
        assert records[-1].best_cost < 1e-2 * evaluate_cost(model, identity, cost)

    def test_weight_three_error_is_decoupled(self):
        cfg = LearningLoopConfig(population=8, generations=2, tolerance=1e-6, seed=0, delta_t=0.05)
        best, records = learning_loop(three_qubit_zz_model(), TargetSpec(kind="storage"), cfg)
        assert best.size > 1
        assert records[-1].converged

    def test_two_qubit_target_on_one_qubit_rejected(self):
        target = TargetSpec(kind="two_qubit", wanted=np.eye(3))
        with pytest.raises(ShapeError, match="two system qubits"):
            learning_loop(pure_dephasing_model(), target, LearningLoopConfig(population=4, generations=1))

    def test_dimension_not_a_power_of_two_rejected(self):
        model = SystemBathModel(system_hamiltonian=np.diag([1.0, 0.0, -1.0]), bath_hamiltonian=np.zeros((1, 1)))
        with pytest.raises(ShapeError, match="power of two"):
            learning_loop(model, TargetSpec(kind="storage"), LearningLoopConfig(population=4, generations=1))

    def test_monotone_best_cost(self):
        model = bath_noise_model()
        cfg = LearningLoopConfig(population=10, generations=5, tolerance=0.0, seed=11, delta_t=0.02)
        _, records = learning_loop(model, TargetSpec(kind="storage"), cfg)
        costs = [r.best_cost for r in records]
        assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))
        assert not records[-1].converged

    def test_converged_result_is_sound(self):
        model = pure_dephasing_model()
        cfg = LearningLoopConfig(population=16, generations=10, tolerance=1e-6, seed=5, delta_t=0.05)
        best, records = learning_loop(model, TargetSpec(kind="storage"), cfg)
        assert records[-1].converged
        j = evaluate_cost(model, best, storage_cost(cycles=cfg.cycles, quadrature=cfg.quadrature))
        assert j <= cfg.tolerance


class TestOneAnalysisPerProbe:
    @pytest.mark.parametrize("model, target", [
        (bath_noise_model(), TargetSpec(kind="storage")),
        (local_dephasing_model(), TargetSpec(kind="two_qubit", wanted=np.eye(3))),
    ], ids=["storage", "two_qubit"])
    def test_each_measured_generator_is_analyzed_once(self, monkeypatch, model, target):
        measured, analyzed = [], []
        measure, analyze = optimizer_mod._measure_generator, optimizer_mod._analysis_candidate

        def counted_measure(*args):
            measured.append(measure(*args))
            return measured[-1]

        def counted_analyze(gen, *args):
            analyzed.append(gen)
            return analyze(gen, *args)

        monkeypatch.setattr(optimizer_mod, "_measure_generator", counted_measure)
        monkeypatch.setattr(optimizer_mod, "_analysis_candidate", counted_analyze)
        cfg = LearningLoopConfig(population=8, generations=8, tolerance=0.0, seed=1, delta_t=0.02)
        _, records = learning_loop(model, target, cfg)
        assert len(analyzed) == len(measured)
        assert all(a is m for a, m in zip(analyzed, measured))
        # the best group stayed put in some generation, where nothing is re-probed or re-analyzed
        assert 2 <= len(measured) < 1 + len(records)


class TestCovariance:
    """Frame changes the learning loop's measurements must follow (Viola, Knill & Lloyd, PRL 82, 2417, 1999).

    Each side is an independent simulation, so the tolerances are round-off
    of a generator read at probe time ``_T``: chi carries ~1e-16 of error,
    which reading ``Im(chi) / _T`` turns into ~1e-14 on O(1) coordinates.
    """

    _T = 0.01

    @staticmethod
    def parts(seed, num_qubits):
        """A seeded model's ``(H_S, H_B, [(S, B)], rho_B)``: every local Pauli coupled to one bath qubit."""
        rng = np.random.default_rng(seed)
        couplings = [(0.3 * on_qubit(p, q, num_qubits), random_hermitian(2, rng))
                     for q in range(num_qubits) for p in (SX, SY, SZ)]
        return 0.5 * random_hermitian(2**num_qubits, rng), random_hermitian(2, rng), couplings, random_density(2, rng)

    @staticmethod
    def model(hs, hb, couplings, rho_b):
        return SystemBathModel(hs, hb, tuple(Coupling(system=s, bath=b) for s, b in couplings), rho_b)

    @staticmethod
    def turned(u, m):
        return u @ m @ u.conj().T

    @staticmethod
    def group(rng, num_qubits):
        return _product_group([[I2] + [random_su2(rng) for _ in range(int(rng.integers(0, 3)))] for _ in range(num_qubits)],
                              0.02)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_qubits=st.integers(1, 2))
    def test_bath_unitary_leaves_the_generator_unchanged(self, seed, num_qubits):
        hs, hb, couplings, rho_b = self.parts(seed, num_qubits)
        rng = np.random.default_rng(seed + 1)
        w = random_unitary(2, rng)
        model = self.model(hs, hb, couplings, rho_b)
        moved = self.model(hs, self.turned(w, hb), [(s, self.turned(w, b)) for s, b in couplings], self.turned(w, rho_b))
        basis = build_pauli_basis(num_qubits)
        for group in (None, self.group(rng, num_qubits)):
            want = _measure_generator(model, group, self._T, basis).coords
            got = _measure_generator(moved, group, self._T, basis).coords
            assert np.abs(got - want).max() <= 1e-11

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_qubits=st.integers(1, 2))
    def test_system_unitary_rotates_the_coordinates(self, seed, num_qubits):
        # V K_i V^dag = sum_j R_ij K_j with R = adjoint_of(V^dag), so the coordinates of V H V^dag are R^T h
        hs, hb, couplings, rho_b = self.parts(seed, num_qubits)
        v = random_unitary(2**num_qubits, np.random.default_rng(seed + 1))
        basis = build_pauli_basis(num_qubits)
        coords = _measure_generator(self.model(hs, hb, couplings, rho_b), None, self._T, basis).coords
        moved = self.model(self.turned(v, hs), hb, [(self.turned(v, s), b) for s, b in couplings], rho_b)
        got = _measure_generator(moved, None, self._T, basis).coords
        assert np.abs(got - adjoint_of(v.conj().T, basis).matrix.T @ coords).max() <= 1e-11

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_qubits=st.integers(1, 2), cycles=st.integers(1, 2),
           quadrature=st.integers(1, 2))
    def test_storage_cost_is_frame_independent(self, seed, num_qubits, cycles, quadrature):
        # a storage target wants 0, whose distance is the same in every frame
        hs, hb, couplings, rho_b = self.parts(seed, num_qubits)
        rng = np.random.default_rng(seed + 1)
        v = random_unitary(2**num_qubits, rng)
        group = self.group(rng, num_qubits)
        cost = storage_cost(cycles=cycles, quadrature=quadrature)
        want = evaluate_cost(self.model(hs, hb, couplings, rho_b), group, cost)
        moved = self.model(self.turned(v, hs), hb, [(self.turned(v, s), b) for s, b in couplings], rho_b)
        got = evaluate_cost(moved, PulseGroup.from_pulses([self.turned(v, g) for g in group.pulses], group.delta_t), cost)
        assert abs(got - want) <= 1e-12 * max(want, 1.0)


class TestScoringOnce:
    """``learning_loop`` builds and scores each distinct genome once per call."""

    @pytest.mark.parametrize("model, population, generations", [
        (bath_noise_model(), 12, 8),
        (two_qubit_bath_model(), 8, 3),
    ], ids=["1q", "2q"])
    def test_one_cost_evaluation_per_distinct_genome(self, monkeypatch, model, population, generations):
        keys, scored = [], []

        def key(genome):
            keys.append(_genome_key(genome))
            return keys[-1]

        def counted(model, group, cost):
            scored.append(b"".join(p.tobytes() for p in group.pulses))
            return evaluate_cost(model, group, cost)

        monkeypatch.setattr(optimizer_mod, "_genome_key", key)
        monkeypatch.setattr(optimizer_mod, "evaluate_cost", counted)
        cfg = LearningLoopConfig(population=population, generations=generations, tolerance=0.0, seed=7, delta_t=0.02)
        _, records = learning_loop(model, TargetSpec(kind="storage"), cfg)
        assert len(keys) == population * len(records)
        assert len(scored) == len(set(keys)) < len(keys)
        assert len(set(scored)) == len(scored)

    def test_memo_is_per_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return evaluate_cost(*args)

        monkeypatch.setattr(optimizer_mod, "evaluate_cost", counted)
        cfg = LearningLoopConfig(population=6, generations=2, tolerance=0.0, seed=1, delta_t=0.02)
        learning_loop(bath_noise_model(), TargetSpec(kind="storage"), cfg)
        first = len(calls)
        learning_loop(bath_noise_model(), TargetSpec(kind="storage"), cfg)
        assert len(calls) == 2 * first

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_qubits=st.integers(1, 2),
        num_pulses=st.integers(1, 3),
        where=st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)),
        value=st.floats(allow_nan=False),
    )
    def test_genome_key_separates_single_changes(self, seed, num_qubits, num_pulses, where, value):
        rng = np.random.default_rng(seed)
        genome = [tuple((rng.normal(size=3), float(rng.uniform(-np.pi, np.pi))) for _ in range(num_qubits))
                  for _ in range(num_pulses)]
        pulse, qubit, component = where[0] % num_pulses, where[1] % num_qubits, where[2]

        def with_factor(axis, angle):
            entries = [list(entry) for entry in genome]
            entries[pulse][qubit] = (axis, angle)
            return [tuple(entry) for entry in entries]

        axis, angle = genome[pulse][qubit]
        assert _genome_key(with_factor(axis.copy(), angle)) == _genome_key(genome)
        moved = axis.copy()
        moved[component] = value
        if np.float64(value).tobytes() != np.float64(axis[component]).tobytes():
            assert _genome_key(with_factor(moved, angle)) != _genome_key(genome)
        assert _genome_key(with_factor(axis, 0.0)) != _genome_key(with_factor(axis, -0.0))


class TestGenome:
    @pytest.mark.parametrize("num_qubits, max_size", [(1, 4), (2, 4), (3, 2)])
    def test_catalogue_genomes_built_once_and_read_only(self, num_qubits, max_size):
        cached = _catalogue_genomes(num_qubits, max_size)
        assert _catalogue_genomes(num_qubits, max_size) is cached
        fresh = [_genome_of(c) for c in _catalogue(num_qubits, max_size)]
        assert [_genome_key(g) for g in cached] == [_genome_key(g) for g in fresh]
        axes = [axis for genome in cached for entry in genome for axis, _ in entry]
        assert axes and not any(axis.flags.writeable for axis in axes)

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 3), min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
    def test_pulse_list_round_trip(self, lengths, seed):
        # per-qubit lists of unequal lengths -> genome -> group, against the product built directly
        rng = np.random.default_rng(seed)
        per_qubit = [[I2] + [random_su2(rng) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(n - 1)]
                     for n in lengths]
        group = _product_group(per_qubit, 0.05)
        genome = _genome_of(per_qubit)
        assert len(genome) == group.size - 1
        assert all(len(entry) == len(lengths) for entry in genome)
        back = _genome_group(genome, len(lengths), 0.05)
        assert back.size == group.size and back.delta_t == group.delta_t
        for got, want in zip(back.pulses, group.pulses):
            assert phase_aligned_distance(np.asarray(got), want) < 1e-10


class TestTwoPassAnalysis:
    def test_weak_error_hidden_then_detected(self):
        # first pass sees only the dominant dephasing and kicks about x;
        # measuring under those pulses exposes the residual bit flip, and
        # the second pass lands on the y axis that fixes both
        model = two_error_model()
        cfg = LearningLoopConfig(population=8, generations=5, tolerance=1e-3, seed=42,
                                 delta_t=0.01, detection_floor=0.1)
        history = {}
        target = TargetSpec(kind="storage")
        probe = _default_probe_time(model)
        (cand1,) = _analysis_candidate(_measure_generator(model, None, probe, B1), target, cfg, history)
        aa1 = unitary_from_rotation(adjoint_of(cand1[1], B1))
        assert np.allclose(aa1.axis, [1, 0, 0], atol=1e-9)
        pulsed = _product_group([cand1], cfg.delta_t)
        (cand2,) = _analysis_candidate(_measure_generator(model, pulsed, probe, B1), target, cfg, history)
        aa2 = unitary_from_rotation(adjoint_of(cand2[1], B1))
        assert np.allclose(aa2.axis, [0, 1, 0], atol=1e-9)
        assert len(history[0]) == 2

    def test_full_loop_ends_on_y_axis(self):
        model = two_error_model()
        cfg = LearningLoopConfig(population=32, generations=20, tolerance=1e-3, seed=42,
                                 delta_t=0.01, detection_floor=0.1)
        best, records = learning_loop(model, TargetSpec(kind="storage"), cfg)
        assert records[-1].converged
        assert best.size == 2
        aa = unitary_from_rotation(adjoint_of(best.pulses[1], B1))
        assert np.linalg.norm(aa.axis - np.array([0.0, 1.0, 0.0])) < 1e-8

    def test_measurement_matches_generator(self):
        model = pure_dephasing_model()
        cfg = LearningLoopConfig(population=4, generations=2, seed=0)
        gen = _measure_generator(model, None, 0.01, B1)
        assert np.allclose(gen.xi[0], [0, 0, -0.5], atol=1e-4)


class TestConfigValidation:
    def test_population_bound(self):
        with pytest.raises(DomainError):
            LearningLoopConfig(population=1)

    def test_mutation_rate_bound(self):
        with pytest.raises(DomainError):
            LearningLoopConfig(mutation_rate=1.5)

    def test_zero_tolerance_allowed(self):
        LearningLoopConfig(tolerance=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("delta_t", 0.0),
            ("delta_t", -1.0),
            ("delta_t", float("nan")),
            ("delta_t", float("inf")),
            ("probe_time", 0.0),
            ("probe_time", -1.0),
            ("probe_time", float("nan")),
            ("probe_time", float("inf")),
            ("cycles", 0),
            ("quadrature", 0),
            ("tolerance", float("nan")),
            pytest.param("delta_t", 10**400, id="delta_t-10**400"),
            ("delta_t", "x"),
            pytest.param("probe_time", 10**400, id="probe_time-10**400"),
            ("population", 2.5),
            ("generations", 1.5),
            ("cycles", 1.5),
            ("group_size_bound", 2.5),
            ("quadrature", 1.5),
            ("seed", "x"),
            ("seed", -1),
            ("detection_floor", -0.1),
            ("detection_floor", float("nan")),
            ("mutation_rate", "x"),
            ("tolerance", "x"),
            ("detection_floor", "x"),
            ("mutation_rate", True),
            ("tolerance", True),
            ("tolerance", False),
            ("tolerance", np.True_),
            ("detection_floor", True),
        ],
    )
    def test_owned_field_bounds(self, field, value):
        with pytest.raises(DomainError):
            LearningLoopConfig(**{field: value})

    def test_cost_function_bounds(self):
        for cycles, quadrature in ((0, 1), (1, 0), (1.5, 1), (1, 1.5), ("2", 1)):
            with pytest.raises(DomainError):
                CostFunction(target=TargetSpec(kind="storage"), cycles=cycles, quadrature=quadrature)

    def test_integer_fields_stored_as_int(self):
        cfg = LearningLoopConfig(population=np.int64(4), seed=np.uint32(7))
        assert type(cfg.population) is int and type(cfg.seed) is int
        assert cfg == LearningLoopConfig(population=4, seed=7)
