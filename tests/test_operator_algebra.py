import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bbforge.errors import CapacityError, DomainError, InfeasibleError, ShapeError
from bbforge.operator_algebra import (
    MAX_BASIS_QUBITS,
    AdjointRotation,
    _kron,
    _pauli_offsets,
    AxisAngle,
    CoordinateVector,
    OperatorBasis,
    adjoint_of,
    axis_angle_rotation,
    axis_angle_unitary,
    build_pauli_basis,
    expand,
    reconstruct,
    unitary_from_rotation,
)

from conftest import I2, NON_FINITE, SX, SY, SZ, gell_mann_basis, phase_aligned_distance, random_hermitian, random_su2, random_unitary, with_corner


class TestPauliBasis:
    def test_single_qubit(self):
        b = build_pauli_basis(1)
        assert b.size == 4
        assert b.normalization == 2.0
        assert b.labels == ("I", "X", "Y", "Z")
        for got, want in zip(b.elements, (I2, SX, SY, SZ)):
            assert np.allclose(got, want)

    def test_two_qubit_trace_orthogonality(self):
        b = build_pauli_basis(2)
        assert b.size == 16
        gram = np.einsum("aij,bji->ab", b.elements, b.elements)
        assert np.allclose(gram, 4.0 * np.eye(16), atol=1e-12)

    def test_three_qubit_exhaustive_pairwise(self):
        # brute-force loop over all 64^2 pairs, independent of the einsum path
        b = build_pauli_basis(3)
        assert b.size == 64
        for i in range(64):
            for j in range(64):
                tr = np.trace(b.elements[i] @ b.elements[j])
                want = 8.0 if i == j else 0.0
                assert abs(tr - want) < 1e-12

    def test_rejects_element_zero_not_identity(self):
        with pytest.raises(DomainError, match="identity"):
            OperatorBasis(elements=np.array([SZ, SX, SY, I2]))

    @pytest.mark.parametrize("elements", [[I2, SX, SX, SZ], [I2, 2 * SX, SY, SZ]], ids=["repeated", "scaled"])
    def test_rejects_stack_that_is_not_trace_orthogonal(self, elements):
        with pytest.raises(DomainError, match="trace-orthogonal"):
            OperatorBasis(elements=np.array(elements))

    def test_qubit_count_needs_a_power_of_two(self):
        assert OperatorBasis(elements=np.array([I2, SZ, SX, SY])).num_qubits == 1
        with pytest.raises(ShapeError, match="power of two"):
            gell_mann_basis().num_qubits

    def test_ordering_is_lexicographic(self):
        b = build_pauli_basis(2)
        assert b.labels[0] == "II"
        assert b.labels[1] == "IX"
        assert b.labels[4] == "XI"
        assert b.labels[15] == "ZZ"

    def test_capacity_guard(self):
        # 6 qubits would be a 268 MB element stack and a 6.9e10 multiply-add check
        for num_qubits in (6, 9):
            with pytest.raises(CapacityError):
                build_pauli_basis(num_qubits)
        with pytest.raises(DomainError):
            build_pauli_basis(0)

    def test_basis_is_shared_per_qubit_count(self):
        assert build_pauli_basis(2) is build_pauli_basis(2)
        assert build_pauli_basis(1) is not build_pauli_basis(2)
        assert build_pauli_basis(np.int64(2)) is build_pauli_basis(2)

    @pytest.mark.parametrize("num_qubits", [True, False, 2.0, "2", None, -1], ids=repr)
    def test_qubit_count_must_be_an_integer(self, num_qubits):
        with pytest.raises(DomainError, match="num_qubits"):
            build_pauli_basis(num_qubits)

    def test_shared_basis_is_read_only(self):
        b = build_pauli_basis(1)
        with pytest.raises(ValueError):
            b.elements[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            b.generators[0] *= 2.0
        assert np.allclose(build_pauli_basis(1).elements[0], I2)

    def test_capacity_error_raised_on_every_call(self):
        for _ in range(2):
            with pytest.raises(CapacityError):
                build_pauli_basis(MAX_BASIS_QUBITS + 1)

    def test_string_weights(self):
        b = build_pauli_basis(2)
        weights = [sum(c != "I" for c in label) for label in b.labels]
        assert weights[0] == 0
        assert weights[1] == 1
        assert weights[5] == 2


class TestExpand:
    def test_basis_element(self):
        b = build_pauli_basis(1)
        assert np.allclose(expand(SZ, b).coords, [0, 0, 1])

    def test_linearity(self):
        b = build_pauli_basis(1)
        op = (SX + SY) / np.sqrt(2)
        assert np.allclose(expand(op, b).coords, [1 / np.sqrt(2), 1 / np.sqrt(2), 0])

    def test_reconstruction_roundtrip(self, rng):
        b = build_pauli_basis(2)
        for _ in range(10):
            h = random_hermitian(4, rng)
            vec = expand(h, b)
            rebuilt = reconstruct(vec, trace=np.trace(h).real)
            assert np.linalg.norm(rebuilt - h) < 1e-12

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            expand(np.eye(4), build_pauli_basis(1))

    def test_non_hermitian_rejected(self):
        b = build_pauli_basis(1)
        with pytest.raises(DomainError):
            expand(np.array([[0, 1], [0, 0]], dtype=complex), b)


class TestAdjoint:
    def test_identity(self):
        b = build_pauli_basis(1)
        assert np.allclose(adjoint_of(I2, b).matrix, np.eye(3))

    def test_quarter_x_rotation_by_conjugation_oracle(self):
        # oracle: verify U^dag K_i U recombines per the returned rows
        b = build_pauli_basis(1)
        u = axis_angle_unitary([1, 0, 0], np.pi / 4)
        r = adjoint_of(u, b).matrix
        assert abs(r[0, 0] - 1) < 1e-12
        assert abs(r[1, 2] - 1) < 1e-12
        assert abs(r[2, 1] + 1) < 1e-12
        for i in range(3):
            lhs = u.conj().T @ b.elements[i + 1] @ u
            rhs = sum(r[i, j] * b.elements[j + 1] for j in range(3))
            assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_matches_closed_form_term_by_term(self, rng):
        # oracle: the axis-angle expansion evaluated directly in the test
        b = build_pauli_basis(1)
        paulis = [SX, SY, SZ]
        for _ in range(20):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            theta = rng.uniform(-np.pi, np.pi)
            u = axis_angle_unitary(n, theta)
            r = adjoint_of(u, b).matrix
            n_sigma = sum(n[k] * paulis[k] for k in range(3))
            for a in range(3):
                # (n x sigma)_a = sum_g eps_abg n_b sigma_g = sum_g (e_a x n)_g sigma_g
                cross = np.cross(np.eye(3)[a], n)
                cross_sigma = sum(cross[k] * paulis[k] for k in range(3))
                want = (
                    paulis[a] * np.cos(2 * theta)
                    + 2 * n[a] * n_sigma * np.sin(theta) ** 2
                    - cross_sigma * np.sin(2 * theta)
                )
                got = sum(r[a, j] * paulis[j] for j in range(3))
                assert np.linalg.norm(got - want) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        axis=arrays(float, 3, elements=st.floats(-1.0, 1.0)).filter(lambda v: np.linalg.norm(v) > 1e-3),
        angle=st.floats(-np.pi, np.pi),
    )
    def test_closed_form_rotation_matches_adjoint(self, axis, angle):
        got = axis_angle_rotation(axis, angle)
        want = adjoint_of(axis_angle_unitary(axis, angle), build_pauli_basis(1)).matrix
        assert np.abs(got - want).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(dim=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2**32 - 1))
    def test_adjoint_is_a_homomorphism(self, dim, seed):
        rng = np.random.default_rng(seed)
        u, v = random_unitary(dim, rng), random_unitary(dim, rng)
        b = build_pauli_basis(dim.bit_length() - 1)
        got = adjoint_of(u @ v, b).matrix
        assert np.abs(got - adjoint_of(u, b).matrix @ adjoint_of(v, b).matrix).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(dim=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2**32 - 1))
    def test_adjoint_is_a_proper_rotation(self, dim, seed):
        r = adjoint_of(random_unitary(dim, np.random.default_rng(seed)), build_pauli_basis(dim.bit_length() - 1)).matrix
        assert np.abs(r.T @ r - np.eye(r.shape[0])).max() < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-10

    def test_orthogonality_and_det(self, rng):
        b = build_pauli_basis(1)
        for _ in range(50):
            r = adjoint_of(random_su2(rng), b).matrix
            assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-10
            assert abs(np.linalg.det(r) - 1) < 1e-10

    def test_homomorphism(self, rng):
        # R(UV) = R(U) R(V) in the U^dag K U convention; acting on
        # coordinate columns the order reverses via the transposes.
        b = build_pauli_basis(1)
        for _ in range(20):
            u, v = random_su2(rng), random_su2(rng)
            r_uv = adjoint_of(u @ v, b).matrix
            r_u, r_v = adjoint_of(u, b).matrix, adjoint_of(v, b).matrix
            assert np.linalg.norm(r_uv - r_u @ r_v) < 1e-10
            h = random_hermitian(2, rng, traceless=True)
            w = u @ v
            lhs = expand(w.conj().T @ h @ w, b).coords
            rhs = r_v.T @ (r_u.T @ expand(h, b).coords)
            assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_isometry_on_coordinates(self, rng):
        b = build_pauli_basis(1)
        for _ in range(20):
            u = random_su2(rng)
            h = random_hermitian(2, rng, traceless=True)
            before = np.linalg.norm(expand(h, b).coords)
            after = np.linalg.norm(expand(u.conj().T @ h @ u, b).coords)
            assert abs(before - after) < 1e-10

    def test_non_unitary_rejected(self):
        b = build_pauli_basis(1)
        with pytest.raises(DomainError):
            adjoint_of(np.array([[1, 0], [0, 2]], dtype=complex), b)

    @pytest.mark.parametrize("scale", [1e100, 1e200])
    def test_overflowing_input_rejected(self, scale):
        # u^dag u or its norm overflows, which must fail the check, not warn
        with pytest.raises(DomainError, match="not unitary"):
            adjoint_of(scale * I2, build_pauli_basis(1))

    def test_two_qubit_adjoint_is_15_dimensional(self, rng):
        b = build_pauli_basis(2)
        from conftest import random_unitary

        r = adjoint_of(random_unitary(4, rng), b)
        assert r.matrix.shape == (15, 15)
        assert r.source_dim == 4


class TestUnitaryFromRotation:
    def test_constrained_bottom_row(self):
        # constraint row 3 = (0, 0, -1): quarter-turn pulse in the x-y plane
        partial = np.full((3, 3), np.nan)
        partial[2, :] = [0.0, 0.0, -1.0]
        aa = unitary_from_rotation(partial)
        assert abs(aa.angle - np.pi / 2) < 1e-9
        assert abs(aa.axis[2]) < 1e-9
        assert aa.free_axis == (True, True, False)

    def test_full_identity(self):
        aa = unitary_from_rotation(np.eye(3))
        assert aa.angle == 0.0
        assert aa.free_axis == (True, True, True)

    def test_quarter_turn_about_y(self):
        # active quarter turn of the coordinates = pulse angle pi/4
        r = axis_angle_rotation([0, 1, 0], np.pi / 4)
        aa = unitary_from_rotation(r)
        assert np.allclose(aa.axis, [0, 1, 0], atol=1e-9)
        assert abs(aa.angle - np.pi / 4) < 1e-9
        # conjugation oracle: recovered pulse reproduces the rotation rows
        u = aa.unitary()
        b = build_pauli_basis(1)
        assert np.linalg.norm(adjoint_of(u, b).matrix - r) < 1e-9

    def test_roundtrip_with_sign_ambiguity(self, rng):
        b = build_pauli_basis(1)
        for _ in range(60):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            theta = rng.uniform(-np.pi, np.pi)
            u = axis_angle_unitary(n, theta)
            aa = unitary_from_rotation(adjoint_of(u, b))
            assert phase_aligned_distance(aa.unitary(), u) < 1e-9

    def test_inconsistent_constraints(self):
        partial = np.full((3, 3), np.nan)
        partial[2, :] = [0.0, 0.0, -2.0]
        with pytest.raises(InfeasibleError):
            unitary_from_rotation(partial)

    def test_diag_constrained_case(self):
        partial = np.full((3, 3), np.nan)
        partial[2, 2] = -1.0
        partial[2, 0] = partial[2, 1] = partial[0, 2] = partial[1, 2] = 0.0
        aa = unitary_from_rotation(partial)
        assert abs(aa.angle - np.pi / 2) < 1e-9
        assert abs(aa.axis[2]) < 1e-12
        assert aa.free_axis[0] and aa.free_axis[1] and not aa.free_axis[2]

    def test_entry_beyond_unit_range_rejected(self):
        # the trace overflows to inf; the rotation must not come back as the identity
        with pytest.raises(InfeasibleError):
            unitary_from_rotation(np.full((3, 3), 1e308))

    def test_minus_identity_rejected(self):
        # -I is orthogonal with det -1: not a rotation, and no axis to divide by
        with pytest.raises(InfeasibleError):
            unitary_from_rotation(-np.eye(3))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["inf", "-inf"])
    @pytest.mark.parametrize("free", [True, False], ids=["partial", "full"])
    def test_infinite_entry_rejected(self, free, sign):
        rotation = np.eye(3)
        if free:
            rotation = np.full((3, 3), np.nan)
            rotation[2, :] = [0.0, 0.0, -1.0]
        rotation[0, 0] = sign * np.inf
        with pytest.raises(DomainError):
            unitary_from_rotation(rotation)


class TestAxisAngleValidation:
    def test_angle_range(self):
        with pytest.raises(DomainError):
            AxisAngle(axis=np.array([1.0, 0, 0]), angle=3 * np.pi / 2)

    def test_axis_norm(self):
        with pytest.raises(DomainError):
            AxisAngle(axis=np.array([1.0, 1.0, 0]), angle=0.1)


class TestAdjointRotationValidation:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(DomainError):
            AdjointRotation(matrix=np.diag([1.0, 1.0, 2.0]), source_dim=2)

    def test_rejects_reflection(self):
        with pytest.raises(DomainError):
            AdjointRotation(matrix=np.diag([1.0, 1.0, -1.0]), source_dim=2)


class TestKron:
    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_numpy_kron(self, dims, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in dims)
        for x, y in ((a, b), (a, np.eye(dims[1])), (np.eye(dims[0]), b)):
            got, want = _kron(x, y), np.kron(x, y)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # leading axes of the first factor broadcast, with the same products
        stack = np.array([[a, 2 * a, np.eye(dims[0])], [a.conj(), a.T, -a]])
        got = _kron(stack, b)
        assert got.shape == (2, 3, dims[0] * dims[1], dims[0] * dims[1])
        for i in range(2):
            for j in range(3):
                assert np.array_equal(got[i, j], np.kron(stack[i, j], b))


# Validators whose tolerance comparison must fail on NaN and Inf
NON_FINITE_GUARDS = {
    "adjoint_of": lambda x: adjoint_of(with_corner(I2, x), build_pauli_basis(1)),
    "AdjointRotation": lambda x: AdjointRotation(matrix=with_corner(np.eye(3), x).real, source_dim=2),
    "expand": lambda x: expand(with_corner(np.zeros((2, 2)), x), build_pauli_basis(1)),
    "AxisAngle": lambda x: AxisAngle(axis=np.array([x, 0.0, 0.0]), angle=0.1),
    "axis_angle_unitary-axis": lambda x: axis_angle_unitary([x, 0.0, 0.0], 0.3),
    "axis_angle_unitary-angle": lambda x: axis_angle_unitary([1.0, 0.0, 0.0], x),
    "axis_angle_rotation-axis": lambda x: axis_angle_rotation([x, 0.0, 0.0], 0.3),
    "axis_angle_rotation-angle": lambda x: axis_angle_rotation([1.0, 0.0, 0.0], x),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@NON_FINITE
@pytest.mark.parametrize("guard", sorted(NON_FINITE_GUARDS))
def test_non_finite_rejected(guard, value):
    with pytest.raises(DomainError):
        NON_FINITE_GUARDS[guard](value)


@pytest.mark.parametrize("build", [axis_angle_unitary, axis_angle_rotation])
def test_zero_axis_rejected_without_warning(build):
    with pytest.raises(DomainError, match="axis"):
        build([0.0, 0.0, 0.0], 0.3)


@pytest.mark.parametrize("axis", [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]]], ids=["2-vector", "4-vector", "1x3"])
@pytest.mark.parametrize("build", [axis_angle_unitary, axis_angle_rotation])
def test_axis_must_be_a_3_vector(build, axis):
    with pytest.raises(ShapeError, match="3-vector"):
        build(axis, 0.3)


class TestPauliOffsets:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weight_one_and_two_indices_match_labels(self, n):
        labels = build_pauli_basis(n).labels
        offsets = _pauli_offsets(n)
        for i in range(n):
            for a in range(1, 4):
                want = ["I"] * n
                want[i] = "IXYZ"[a]
                assert labels[offsets[i, a]] == "".join(want)
            for j in range(i + 1, n):
                for a in range(1, 4):
                    for b in range(1, 4):
                        want = ["I"] * n
                        want[i], want[j] = "IXYZ"[a], "IXYZ"[b]
                        assert labels[offsets[i, a] + offsets[j, b]] == "".join(want)

    def test_pair_matrix_flattening(self, rng):
        # oracle: the two-qubit pair entry (a, b) sits at index 4a + b
        b2 = build_pauli_basis(2)
        m = rng.normal(size=(4, 4))
        flat = CoordinateVector(m, b2).as_flat()
        for a in range(4):
            for b in range(4):
                if (a, b) != (0, 0):
                    assert flat[4 * a + b - 1] == m[a, b]
