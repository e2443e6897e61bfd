import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbforge.bb_synthesis import TargetSpec, parity_kick_group
from bbforge.errors import DomainError
from bbforge.open_system_sim import Coupling, PulseGroup, SystemBathModel
from bbforge.operator_algebra import adjoint_of, build_pauli_basis, unitary_from_rotation
from bbforge.optimizer import (
    CostFunction,
    LearningLoopConfig,
    axis_grid,
    enumerate_candidate_groups,
    evaluate_cost,
    learning_loop,
)
from bbforge.optimizer import _AnalysisState, _analysis_candidate, _genome_group, _group_to_genome, _measure_generator

from conftest import I2, SX, SY, SZ, phase_aligned_distance, random_su2

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


def storage_cost(cycles=2, quadrature=1):
    return CostFunction(target=TargetSpec(kind="storage"), cycles=cycles, quadrature=quadrature)


class TestEvaluateCost:
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

    def test_gate_target_cost(self):
        # aiming for the generator the model already produces costs nothing
        g = 1.0
        model = pure_dephasing_model(g)
        target = TargetSpec(kind="single_qubit", wanted=np.array([0.0, 0.0, -g / 2]))
        cost = CostFunction(target=target, cycles=2)
        group = PulseGroup.from_pulses([I2], 0.01)
        assert evaluate_cost(model, group, cost) < 2e-4


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
        for dim, nq in ((2, 1), (4, 2)):
            basis = build_pauli_basis(nq)
            for g in enumerate_candidate_groups(dim, 4):
                rots = [adjoint_of(np.asarray(p), basis).matrix for p in g.pulses]
                for ra in rots:
                    for rb in rots:
                        prod = ra @ rb
                        assert any(np.linalg.norm(prod - rc) < 1e-10 for rc in rots)

    def test_size_guard(self):
        with pytest.raises(DomainError):
            enumerate_candidate_groups(2, 1)


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
    def assert_reproducible(model, cfg):
        best_a, rec_a = learning_loop(model, TargetSpec(kind="storage"), cfg)
        best_b, rec_b = learning_loop(model, TargetSpec(kind="storage"), cfg)
        assert len(rec_a) == len(rec_b)
        for a, b in zip(rec_a, rec_b):
            assert a.best_cost == b.best_cost
            assert a.mean_cost == b.mean_cost
            assert np.array_equal(a.residual.error_vector.coords, b.residual.error_vector.coords)
        assert best_a.size == best_b.size
        for pa, pb in zip(best_a.pulses, best_b.pulses):
            assert np.array_equal(np.asarray(pa), np.asarray(pb))
        return best_a

    def test_determinism(self):
        cfg = LearningLoopConfig(population=12, generations=4, tolerance=0.0, seed=7, delta_t=0.02)
        self.assert_reproducible(bath_noise_model(), cfg)

    def test_determinism_two_qubits(self):
        cfg = LearningLoopConfig(population=8, generations=3, tolerance=0.0, seed=7, delta_t=0.02)
        assert self.assert_reproducible(two_qubit_bath_model(), cfg).dim == 4

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


class TestGenome:
    @settings(max_examples=40, deadline=None)
    @given(num_qubits=st.integers(1, 3), num_pulses=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_local_product_round_trip(self, num_qubits, num_pulses, seed):
        rng = np.random.default_rng(seed)
        factors = [[random_su2(rng) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(num_qubits)]
                   for _ in range(num_pulses)]
        pulses = [np.eye(2**num_qubits, dtype=complex)]
        for per_qubit in factors:
            pulse = per_qubit[0]
            for f in per_qubit[1:]:
                pulse = np.kron(pulse, f)
            pulses.append(pulse)
        group = PulseGroup.from_pulses(pulses, 0.05)
        genome = _group_to_genome(group)
        assert len(genome) == num_pulses
        assert all(len(entry) == num_qubits for entry in genome)
        back = _genome_group(genome, num_qubits, 0.05)
        assert back.size == group.size and back.delta_t == group.delta_t
        for got, want in zip(back.pulses, group.pulses):
            assert phase_aligned_distance(np.asarray(got), want) < 1e-10

    @pytest.mark.parametrize("local", [None, SX], ids=["2q", "3q"])
    def test_entangling_pulse_has_no_genome(self, local):
        # at 3 qubits qubit 0 splits off and the CNOT on the rest does not
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        pulse = cnot if local is None else np.kron(local, cnot)
        group = PulseGroup.from_pulses([np.eye(pulse.shape[0]), pulse], 0.05)
        assert _group_to_genome(group) is None


class TestTwoPassAnalysis:
    def test_weak_error_hidden_then_detected(self):
        # first pass sees only the dominant dephasing and kicks about x;
        # measuring under those pulses exposes the residual bit flip, and
        # the second pass lands on the y axis that fixes both
        model = two_error_model()
        cfg = LearningLoopConfig(population=8, generations=5, tolerance=1e-3, seed=42,
                                 delta_t=0.01, detection_floor=0.1)
        state = _AnalysisState()
        target = TargetSpec(kind="storage")
        cand1 = _analysis_candidate(model, target, cfg, state, None, B1)
        aa1 = unitary_from_rotation(adjoint_of(cand1.pulses[1], B1))
        assert np.allclose(aa1.axis, [1, 0, 0], atol=1e-9)
        cand2 = _analysis_candidate(model, target, cfg, state, cand1, B1)
        aa2 = unitary_from_rotation(adjoint_of(cand2.pulses[1], B1))
        assert np.allclose(aa2.axis, [0, 1, 0], atol=1e-9)
        assert len(state.history[0]) == 2

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
