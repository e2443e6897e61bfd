import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbforge import bb_synthesis
from bbforge.bb_synthesis import (
    ErrorReport,
    _product_group,
    _two_qubit_candidates,
    StabilizerSpace,
    TargetSpec,
    averaged_rotation,
    axis_orthogonal_to,
    check_encoded,
    error_report,
    group_to_pulses,
    modified_pair_matrix,
    modified_vector,
    parity_kick_group,
    solve_single_qubit_gate,
    solve_storage,
    solve_two_qubit,
)
from bbforge.errors import (
    DomainError,
    InfeasibleError,
    InfeasibleMagnitudeError,
    NonRepresentableError,
    ShapeError,
)
from bbforge.operator_algebra import (
    CoordinateVector,
    _kron,
    adjoint_of,
    axis_angle_unitary,
    build_pauli_basis,
    unitary_from_rotation,
)

from conftest import I2, NON_FINITE, SX, SY, SZ, phase_aligned_distance, random_su2, random_unitary, with_corner

B1 = build_pauli_basis(1)
B2 = build_pauli_basis(2)


def pulse_axis_angle(pulse):
    return unitary_from_rotation(adjoint_of(pulse, B1))


class TestSolveStorage:
    def test_dephasing_parity_kick(self):
        res = solve_storage(np.array([0.0, 0.0, -0.5]))
        assert res.group.size == 2
        aa = pulse_axis_angle(res.group.pulses[1])
        assert abs(aa.angle - np.pi / 2) < 1e-12
        assert abs(aa.axis[2]) < 1e-12
        assert res.residual.scalar_distance < 1e-12

    def test_zero_generator_trivial(self):
        res = solve_storage(np.zeros(3))
        assert res.group.size == 1

    def test_combined_errors_use_y_axis(self):
        # dephasing plus bit flip: the only coordinate axis orthogonal to
        # both error components is y
        res = solve_storage(np.array([-0.025, 0.0, -0.5]))
        aa = pulse_axis_angle(res.group.pulses[1])
        assert np.allclose(aa.axis, [0, 1, 0], atol=1e-12)
        assert res.group.size == 2

    def test_scale_invariance(self):
        xi = np.array([0.3, 0.0, 0.4])
        r1 = solve_storage(xi)
        r2 = solve_storage(17.0 * xi)
        for p1, p2 in zip(r1.group.pulses, r2.group.pulses):
            assert np.linalg.norm(np.asarray(p1) - np.asarray(p2)) < 1e-12

    def test_generic_direction(self, rng):
        for _ in range(20):
            xi = rng.normal(size=3)
            res = solve_storage(xi)
            assert res.group.size == 2
            assert np.linalg.norm(modified_vector(res.group, xi)) < 1e-9 * np.linalg.norm(xi)

    def test_accepts_effective_generator(self):
        from bbforge.tomography import chi_from_lambda, extract_generator, run_qpt

        def channel(rho):
            return rho + (1j * 0.01 / 2) * (rho @ SZ - SZ @ rho)

        gen = extract_generator(chi_from_lambda(run_qpt(channel, B1, time_tag=0.01)))
        res = solve_storage(gen)
        assert res.group.size == 2


class TestSolveSingleQubitGate:
    def test_target_equals_measured(self):
        xi = np.array([0.2, -0.1, 0.4])
        res = solve_single_qubit_gate(xi, TargetSpec(kind="single_qubit", wanted=xi))
        assert res.group.size == 1

    def test_zero_target_reduces_to_storage(self):
        xi = np.array([0.0, 0.0, 1.0])
        res = solve_single_qubit_gate(xi, TargetSpec(kind="single_qubit", wanted=np.zeros(3)))
        assert res.group.size == 2
        assert np.linalg.norm(modified_vector(res.group, xi)) < 1e-12

    def test_scaling_z_to_one_third(self):
        # oracle: apply the averaged rotation matrix to the input
        xi = np.array([0.0, 0.0, 1.0])
        w = np.array([0.0, 0.0, 1.0 / 3.0])
        res = solve_single_qubit_gate(xi, TargetSpec(kind="single_qubit", wanted=w))
        assert res.group.size == 3
        avg = averaged_rotation(res.group)
        assert np.linalg.norm(avg.T @ xi - w) < 1e-9

    def test_infeasible_magnitude(self):
        with pytest.raises(InfeasibleMagnitudeError):
            solve_single_qubit_gate(
                np.array([0.0, 0.0, 0.1]),
                TargetSpec(kind="single_qubit", wanted=np.array([0.0, 0.0, 0.5])),
            )

    def test_random_feasible_targets(self, rng):
        worst = 0.0
        for _ in range(40):
            xi = rng.normal(size=3)
            w = rng.normal(size=3)
            w *= rng.uniform(0.05, 0.95) * np.linalg.norm(xi) / np.linalg.norm(w)
            res = solve_single_qubit_gate(
                xi, TargetSpec(kind="single_qubit", wanted=w), max_group_size=40
            )
            worst = max(worst, np.linalg.norm(modified_vector(res.group, xi) - w))
        assert worst < 1e-9

    def test_projection_targets_get_parity_kick(self, rng):
        for _ in range(10):
            xi = rng.normal(size=3)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            w = direction * (direction @ xi)
            if np.linalg.norm(w) < 1e-3 or np.linalg.norm(w - xi) < 1e-3:
                continue
            res = solve_single_qubit_gate(xi, TargetSpec(kind="single_qubit", wanted=w))
            assert res.group.size == 2

    def test_size_bound_respected(self):
        xi = np.array([0.0, 0.0, 1.0])
        w = np.array([0.0, 0.0, -0.9])  # nearly antipodal needs a large set
        with pytest.raises(InfeasibleError):
            solve_single_qubit_gate(
                xi, TargetSpec(kind="single_qubit", wanted=w), max_group_size=4
            )
        res = solve_single_qubit_gate(
            xi, TargetSpec(kind="single_qubit", wanted=w), max_group_size=40
        )
        assert np.linalg.norm(modified_vector(res.group, xi) - w) < 1e-9

    def test_result_verified_from_pulses_not_rotations(self):
        # guard on the rotation -> pulse conversion: recompute everything
        # from the returned unitaries
        xi = np.array([0.1, 0.2, 0.7])
        w = np.array([0.05, 0.1, 0.35])
        res = solve_single_qubit_gate(xi, TargetSpec(kind="single_qubit", wanted=w), max_group_size=16)
        mats = [adjoint_of(p, B1).matrix for p in res.group.pulses]
        avg = np.mean(mats, axis=0)
        assert np.linalg.norm(avg.T @ xi - w) < 1e-8


class TestSolveTwoQubit:
    def test_heisenberg_with_independent_dephasing(self):
        xi_pair = np.zeros((4, 4))
        xi_pair[3, 0] = 0.3
        xi_pair[0, 3] = 0.2
        target = TargetSpec(kind="two_qubit", wanted=np.eye(3))
        res = solve_two_qubit(xi_pair, target, ansatz="local_products")
        assert res.group.size == 2
        u = np.asarray(res.group.pulses[1])
        want = -np.kron(SX, SX)
        assert phase_aligned_distance(u, want) < 1e-8
        heis = sum(np.kron(p, p) for p in (SX, SY, SZ))
        noise = 0.3 * np.kron(SZ, I2) + 0.2 * np.kron(I2, SZ)
        assert np.linalg.norm(u @ heis - heis @ u) < 1e-12
        assert np.linalg.norm(u @ noise + noise @ u) < 1e-12
        assert res.mode == "running"

    def test_target_equals_measured_trivial(self):
        xi_pair = np.zeros((4, 4))
        xi_pair[3, 0] = 0.3
        xi_pair[0, 3] = 0.2
        res = solve_two_qubit(xi_pair, TargetSpec(kind="two_qubit", wanted=xi_pair))
        assert res.group.size == 1
        assert res.mode == "direct"

    def test_rank_one_pair_annihilated(self, rng):
        # oracle: averaged pair transform applied to the input
        for _ in range(5):
            a, b = rng.normal(size=3), rng.normal(size=3)
            xi_pair = np.zeros((4, 4))
            xi_pair[1:, 1:] = np.outer(a, b)
            res = solve_two_qubit(xi_pair, TargetSpec(kind="two_qubit", wanted=np.zeros((4, 4))))
            achieved = modified_pair_matrix(res.group, xi_pair)
            assert np.linalg.norm(achieved) < 1e-9

    def test_margins_annihilated(self, rng):
        xi_pair = np.zeros((4, 4))
        xi_pair[1:, 0] = rng.normal(size=3)
        xi_pair[0, 1:] = rng.normal(size=3)
        res = solve_two_qubit(xi_pair, TargetSpec(kind="two_qubit", wanted=np.zeros((4, 4))))
        assert np.linalg.norm(modified_pair_matrix(res.group, xi_pair)) < 1e-9

    def test_only_local_products_ansatz(self):
        target = TargetSpec(kind="two_qubit", wanted=np.zeros((4, 4)))
        with pytest.raises(DomainError, match="local_products"):
            solve_two_qubit(np.zeros((4, 4)), target, ansatz="general")

    def test_three_by_three_target_embeds(self):
        res = solve_two_qubit(
            np.zeros((4, 4)), TargetSpec(kind="two_qubit", wanted=np.zeros((3, 3)))
        )
        assert res.group.size == 1


class TestCandidateBuilds:
    """``solve_two_qubit`` builds a candidate's group when it tries it, and once per solve."""

    @pytest.fixture
    def counted(self, monkeypatch):
        built, tried = [], []
        build, modify = bb_synthesis._product_group, bb_synthesis.modified_pair_matrix

        def counting_build(per_qubit, delta_t):
            # the margin solvers build one-qubit groups through the same function; count candidates only
            group = build(per_qubit, delta_t)
            if group.dim == 4:
                built.append(group)
            return group

        def counting_modify(group, xi_pair):
            tried.append(group)
            return modify(group, xi_pair)

        monkeypatch.setattr(bb_synthesis, "_product_group", counting_build)
        monkeypatch.setattr(bb_synthesis, "modified_pair_matrix", counting_modify)
        return built, tried

    def test_first_hit_builds_only_the_candidates_tried(self, counted):
        built, tried = counted
        xi_pair = np.zeros((4, 4))
        xi_pair[3, 0], xi_pair[0, 3] = 0.3, 0.2
        wanted = TargetSpec(kind="two_qubit", wanted=np.eye(3)).wanted_vector()
        res = solve_two_qubit(xi_pair, TargetSpec(kind="two_qubit", wanted=wanted), max_group_size=4)
        assert res.group is tried[-1]
        assert 0 < len(built) == len({id(g) for g in tried})
        assert len(built) < len(_two_qubit_candidates(xi_pair, wanted, 4))

    def test_both_modes_build_each_candidate_once(self, counted):
        built, tried = counted
        xi_pair = np.random.default_rng(0).normal(size=(4, 4))
        wanted = TargetSpec(kind="two_qubit", wanted=np.eye(3)).wanted_vector()
        with pytest.raises(InfeasibleError):
            solve_two_qubit(xi_pair, TargetSpec(kind="two_qubit", wanted=wanted), max_group_size=4)
        count = len(_two_qubit_candidates(xi_pair, wanted, 4))
        assert len(tried) == 2 * count
        assert len(built) == len({id(g) for g in tried}) == count

    def test_size_bound_below_two_rejected(self):
        xi_pair = np.zeros((4, 4))
        xi_pair[3, 0], xi_pair[0, 3] = 0.3, 0.2
        wanted = np.zeros((4, 4))
        wanted[3, 0], wanted[0, 3] = 0.1, 0.1
        with pytest.raises(DomainError, match="max_group_size"):
            solve_two_qubit(xi_pair, TargetSpec(kind="two_qubit", wanted=wanted), max_group_size=1)

    @pytest.mark.parametrize("bound", [3.5, 4.0, True, "4"], ids=repr)
    def test_size_bound_not_an_integer_rejected(self, bound):
        xi = np.array([0.0, 0.0, 0.5])
        solves = (
            lambda: solve_storage(xi, 0, bound),
            lambda: solve_single_qubit_gate(xi, TargetSpec(kind="single_qubit", wanted=[0.0, 0.0, 0.1]), 0, bound),
            lambda: solve_two_qubit(np.zeros((4, 4)), TargetSpec(kind="two_qubit", wanted=np.eye(3)), max_group_size=bound),
        )
        for solve in solves:
            with pytest.raises(DomainError, match="max_group_size"):
                solve()

    @pytest.mark.parametrize("margins,count", [((0.3, 0.2), 20), ((0.0, 0.0), None)])
    def test_each_distinct_candidate_once(self, margins, count):
        xi_pair = np.zeros((4, 4))
        xi_pair[3, 0], xi_pair[0, 3] = margins
        for wanted in (np.zeros((4, 4)), TargetSpec(kind="two_qubit", wanted=np.eye(3)).wanted_vector()):
            candidates = _two_qubit_candidates(xi_pair, wanted, 8)
            keys = {tuple(np.array(pulses).tobytes() for pulses in pair) for pair in candidates}
            assert len(keys) == len(candidates) == (count or len(candidates))


class TestErrorReport:
    def test_equal_vectors(self):
        v = CoordinateVector(np.array([0.1, 0.2, 0.3]), B1)
        rep = error_report(v, v)
        assert rep.scalar_distance == 0.0
        assert np.linalg.norm(rep.error_vector.coords) == 0.0

    def test_pauli_normalization(self):
        eps = 1e-3
        rep = error_report(
            CoordinateVector(np.array([0.0, 0.0, eps]), B1),
            CoordinateVector(np.zeros(3), B1),
        )
        assert abs(rep.scalar_distance - eps * np.sqrt(2)) < 1e-15

    def test_matches_closed_form(self, rng):
        # oracle: sqrt(M) * euclidean length for a trace-orthogonal basis
        for _ in range(10):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            rep = error_report(CoordinateVector(a, B1), CoordinateVector(b, B1))
            assert abs(rep.scalar_distance - np.sqrt(2) * np.linalg.norm(a - b)) < 1e-12

    def test_pair_matrix_distance(self, rng):
        m = rng.normal(size=(4, 4))
        m[0, 0] = 0.0
        rep = error_report(
            CoordinateVector(m, B2), CoordinateVector(np.zeros((4, 4)), B2)
        )
        flat = CoordinateVector(m, B2).as_flat()
        assert abs(rep.scalar_distance - 2.0 * np.linalg.norm(flat)) < 1e-12

    @pytest.mark.parametrize("stabilizer_distance", [None, float("inf")])
    def test_infinite_distance_rejected(self, stabilizer_distance):
        with pytest.raises(DomainError):
            ErrorReport(CoordinateVector(np.zeros(3), B1), float("inf"), stabilizer_distance)

    @pytest.mark.parametrize("field", ["scalar_distance", "stabilizer_distance"])
    def test_nan_distance_rejected(self, field):
        fields = {"scalar_distance": 1.0, "stabilizer_distance": 0.5, field: float("nan")}
        with pytest.raises(DomainError):
            ErrorReport(error_vector=CoordinateVector(np.zeros(3), B1), **fields)


class TestCheckEncoded:
    def test_zero_deviation(self):
        coords = CoordinateVector(np.zeros(15), B2)
        t = TargetSpec(kind="encoded", wanted=np.zeros(15),
                       stabilizer=StabilizerSpace(generators=(np.kron(SZ, SZ),)))
        rep = check_encoded(coords, t)
        assert rep.stabilizer_distance == 0.0

    def test_in_span_deviation(self):
        # deviation c * ZZ with stabilizer span{ZZ}
        c = 0.4
        coords = np.zeros(15)
        coords[4 * 3 + 3 - 1] = c
        t = TargetSpec(kind="encoded", wanted=np.zeros(15),
                       stabilizer=StabilizerSpace(generators=(np.kron(SZ, SZ),)))
        rep = check_encoded(CoordinateVector(coords, B2), t)
        assert rep.stabilizer_distance < 1e-12
        assert abs(rep.scalar_distance - c * 2.0) < 1e-12

    def test_mixed_deviation_against_projection_oracle(self, rng):
        # oracle: dense least-squares projection assembled in the test
        zz = np.kron(SZ, SZ)
        stab = StabilizerSpace(generators=(zz,))
        for _ in range(20):
            coords = rng.normal(size=15)
            vec = CoordinateVector(coords, B2)
            t = TargetSpec(kind="encoded", wanted=np.zeros(15), stabilizer=stab)
            rep = check_encoded(vec, t)
            from bbforge.operator_algebra import reconstruct

            delta = reconstruct(vec)
            c = np.trace(zz @ delta).real / np.trace(zz @ zz).real
            resid = delta - c * zz
            want = np.sqrt(np.trace(resid.conj().T @ resid).real)
            assert abs(rep.stabilizer_distance - want) < 1e-10

    def test_named_example(self):
        # deviation X(x)I + 0.3 ZZ against span{ZZ}: only the X part remains
        coords = np.zeros(15)
        coords[4 * 1 + 0 - 1] = 1.0  # X (x) I
        coords[4 * 3 + 3 - 1] = 0.3  # Z (x) Z
        t = TargetSpec(kind="encoded", wanted=np.zeros(15),
                       stabilizer=StabilizerSpace(generators=(np.kron(SZ, SZ),)))
        rep = check_encoded(CoordinateVector(coords, B2), t)
        assert abs(rep.stabilizer_distance - 2.0) < 1e-10

    def test_monotone_in_stabilizer(self, rng):
        coords = rng.normal(size=15)
        vec = CoordinateVector(coords, B2)
        small = StabilizerSpace(generators=(np.kron(SZ, SZ),))
        large = StabilizerSpace(generators=(np.kron(SZ, SZ), np.kron(SX, SX)))
        d_small = check_encoded(vec, TargetSpec(kind="encoded", wanted=np.zeros(15), stabilizer=small)).stabilizer_distance
        d_large = check_encoded(vec, TargetSpec(kind="encoded", wanted=np.zeros(15), stabilizer=large)).stabilizer_distance
        assert d_large <= d_small + 1e-12

    def test_empty_stabilizer_falls_back(self, rng):
        coords = rng.normal(size=3)
        vec = CoordinateVector(coords, B1)
        rep = check_encoded(vec, TargetSpec(kind="encoded", wanted=np.zeros(3)))
        assert rep.stabilizer_distance == rep.scalar_distance


class TestGroupToPulses:
    def test_identity(self):
        pulses = group_to_pulses([np.eye(3)], 2)
        assert phase_aligned_distance(pulses[0], I2) < 1e-12

    def test_partially_constrained_rotation(self):
        r = np.full((3, 3), np.nan)
        r[2, 2] = -1.0
        r[2, 0] = r[2, 1] = r[0, 2] = r[1, 2] = 0.0
        aa = unitary_from_rotation(r)
        assert abs(aa.axis[2]) < 1e-12
        assert abs(aa.angle - np.pi / 2) < 1e-12

    def test_su2_roundtrip(self, rng):
        for _ in range(30):
            u = random_su2(rng)
            r = adjoint_of(u, B1)
            u2 = group_to_pulses([r], 2)[0]
            assert phase_aligned_distance(u2, u) < 1e-8

    def test_su4_roundtrip(self, rng):
        for _ in range(10):
            u = random_unitary(4, rng)
            r = adjoint_of(u, B2)
            u2 = group_to_pulses([r], 4)[0]
            assert phase_aligned_distance(u2, u) < 1e-8
            assert np.linalg.norm(adjoint_of(u2, B2).matrix - r.matrix) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(dim=st.sampled_from([2, 4, 8, 16]), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_up_to_phase(self, dim, seed):
        u = random_unitary(dim, np.random.default_rng(seed))
        back = group_to_pulses([adjoint_of(u, build_pauli_basis(dim.bit_length() - 1))], dim)[0]
        assert phase_aligned_distance(back, u) < 1e-10

    @pytest.mark.parametrize("dim, n", [(3, 8), (6, 35)])
    def test_dimension_not_a_power_of_two_rejected(self, dim, n):
        with pytest.raises(ShapeError, match="power of two"):
            group_to_pulses([np.eye(n)], dim)

    def test_random_so15_not_representable(self, rng):
        z = rng.normal(size=(15, 15))
        q, r = np.linalg.qr(z)
        q = q @ np.diag(np.sign(np.diag(r)))
        if np.linalg.det(q) < 0:
            q[:, [0, 1]] = q[:, [1, 0]]
        with pytest.raises(NonRepresentableError):
            group_to_pulses([q], 4)

    def test_rejects_improper_rotation(self):
        with pytest.raises(DomainError):
            group_to_pulses([np.diag([1.0, 1.0, -1.0])], 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @NON_FINITE
    @pytest.mark.parametrize("dim", [2, 4])
    def test_rejects_non_finite_rotation(self, dim, value):
        n = dim * dim - 1
        with pytest.raises(DomainError):
            group_to_pulses([np.full((n, n), value)], dim)
        with pytest.raises(DomainError):
            group_to_pulses([with_corner(np.eye(n), value).real], dim)


class TestHelpers:
    def test_axis_orthogonal_prefers_coordinate_axes(self):
        assert np.allclose(axis_orthogonal_to([np.array([0, 0, 1.0])]), [1, 0, 0])
        assert np.allclose(
            axis_orthogonal_to([np.array([0, 0, 1.0]), np.array([1.0, 0, 0])]), [0, 1, 0]
        )

    def test_axis_orthogonal_full_span(self):
        assert axis_orthogonal_to([np.eye(3)[k] for k in range(3)]) is None

    @settings(max_examples=50, deadline=None)
    @given(axis=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda v: np.linalg.norm(v) > 1e-3))
    def test_parity_kick_average_is_projector(self, axis):
        n = np.array(axis) / np.linalg.norm(axis)
        avg = averaged_rotation(parity_kick_group(axis))
        assert np.linalg.norm(avg - np.outer(n, n)) < 1e-12

    @pytest.mark.parametrize("axis", [[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]], ids=["zero", "nan", "inf"])
    def test_parity_kick_rejects_degenerate_axis_without_warning(self, axis):
        with pytest.raises(DomainError, match="axis"):
            parity_kick_group(axis)

    def test_error_report_requires_matching_shapes(self):
        with pytest.raises(Exception):
            error_report(CoordinateVector(np.zeros(3), B1), CoordinateVector(np.zeros((4, 4)), B2))

    def test_synthesis_result_serializes(self):
        res = solve_storage(np.array([0.0, 0.0, -0.5]))
        payload = res.to_dict()
        assert payload["group_size"] == 2
        assert payload["axis_angles"][1]["angle"] == pytest.approx(np.pi / 2)
        from bbforge.serialization import dumps_json

        dumps_json(payload)

    def test_product_group_of_three_lists_is_nested_kron(self, rng):
        lists = [[I2], [I2, random_su2(rng)], [I2, random_su2(rng), random_su2(rng)]]
        group = _product_group(lists, 0.05)
        assert group.size == 6
        for k, pulse in enumerate(group.pulses):
            want = _kron(_kron(lists[0][k % 1], lists[1][k % 2]), lists[2][k % 3])
            assert np.array_equal(pulse, want)

    def test_product_group_of_one_list_is_that_list(self, rng):
        pulses = [I2, random_su2(rng), random_su2(rng)]
        group = _product_group([pulses], 0.05)
        assert all(np.array_equal(got, want) for got, want in zip(group.pulses, pulses, strict=True))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@NON_FINITE
def test_non_finite_stabilizer_rejected(value):
    with pytest.raises(DomainError):
        StabilizerSpace(generators=(with_corner(np.kron(SZ, SZ), value),))


@NON_FINITE
@pytest.mark.parametrize("kind,shape", [("single_qubit", (3,)), ("two_qubit", (4, 4))])
def test_non_finite_target_rejected(kind, shape, value):
    wanted = np.zeros(shape)
    wanted.flat[0] = value
    with pytest.raises(DomainError, match="finite"):
        TargetSpec(kind=kind, wanted=wanted)
