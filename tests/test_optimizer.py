import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bbforge.optimizer as optimizer_mod
from bbforge.bb_synthesis import TargetSpec, parity_kick_group
from bbforge.errors import CapacityError, DomainError, ShapeError
from bbforge.open_system_sim import Coupling, PulseGroup, SystemBathModel
from bbforge.operator_algebra import MAX_BASIS_QUBITS, adjoint_of, build_pauli_basis, unitary_from_rotation
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
    _default_probe_time,
    _genome_group,
    _genome_key,
    _group_to_genome,
    _measure_generator,
)

from conftest import I2, SX, SY, SZ, phase_aligned_distance, random_density, random_hermitian, random_su2

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


def two_qubit_dephasing_model():
    """Local Z dephasing on two system qubits, one through a bath qubit."""
    z1, z2 = np.kron(SZ, I2), np.kron(I2, SZ)
    return SystemBathModel(
        system_hamiltonian=0.3 * z1 + 0.2 * z2,
        bath_hamiltonian=0.5 * SZ,
        couplings=(Coupling(system=0.1 * z1, bath=SX, name="z1x"),),
    )


def three_qubit_dephasing_model(seed=17):
    """Seeded local Z dephasing on three system qubits, each through its own operator on one bath qubit."""
    rng = np.random.default_rng(seed)

    def z(qubit):
        a, b, c = (SZ if q == qubit else I2 for q in range(3))
        return np.kron(np.kron(a, b), c)

    def unit_hermitian():
        h = random_hermitian(2, rng)
        return h / np.linalg.norm(h, 2)

    return SystemBathModel(
        system_hamiltonian=sum(rng.uniform(0.2, 0.5) * z(q) for q in range(3)),
        bath_hamiltonian=0.5 * unit_hermitian(),
        couplings=tuple(Coupling(system=rng.uniform(0.05, 0.2) * z(q), bath=unit_hermitian()) for q in range(3)),
        bath_initial=random_density(2, rng),
    )


def three_qubit_zz_model(last=SZ):
    """Closed three-qubit system, ``0.5 Z (x) Z (x) last``, beside an uncoupled bath qubit."""
    return SystemBathModel(system_hamiltonian=0.5 * np.kron(np.kron(SZ, SZ), last), bath_hamiltonian=np.zeros((2, 2)))


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
            (two_qubit_dephasing_model(), TargetSpec(kind="two_qubit", wanted=np.eye(3)), "solve_two_qubit"),
        ],
        ids=["single_qubit", "two_qubit"],
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
        genome = optimizer_mod._group_to_genome(best)
        for axis, angle in genome[0]:
            assert abs(axis[2]) < 1e-9 and abs(angle - np.pi / 2) < 1e-9
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
        history = {}
        target = TargetSpec(kind="storage")
        probe = _default_probe_time(model)
        cand1 = _analysis_candidate(_measure_generator(model, None, probe, B1), target, cfg, history)
        aa1 = unitary_from_rotation(adjoint_of(cand1.pulses[1], B1))
        assert np.allclose(aa1.axis, [1, 0, 0], atol=1e-9)
        cand2 = _analysis_candidate(_measure_generator(model, cand1, probe, B1), target, cfg, history)
        aa2 = unitary_from_rotation(adjoint_of(cand2.pulses[1], B1))
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
