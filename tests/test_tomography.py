import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbforge.errors import DegenerateTimeError, DomainError, InconsistencyError, ShapeError
from bbforge.open_system_sim import Coupling, KrausSet, SystemBathModel, kraus_from_model
from bbforge.operator_algebra import OperatorBasis, build_pauli_basis, expand
from bbforge.tomography import (
    ChiMatrix,
    TomographyData,
    _assemble_lam,
    _chi_raw,
    _probe_inputs,
    chi_from_lambda,
    extract_generator,
    run_qpt,
)

from conftest import I2, NON_FINITE, SX, SY, SZ, gell_mann_basis, random_density, random_hermitian, random_unitary, with_corner


def first_order_dephasing(g, t):
    def channel(rho):
        return rho + (1j * g * t / 2) * (rho @ SZ - SZ @ rho)

    return channel


def normalized_kraus(dim, count, rng):
    # the Kraus operators are the blocks of the polar (isometry) factor of
    # the stacked random matrix, so sum K^dag K = I to round-off however
    # badly conditioned the draw; (A^dag A)^(-1/2) amplifies round-off by
    # the condition number and left 3-qubit draws 1e-12 off trace preserving
    stacked = np.vstack(
        [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(count)]
    )
    u, _, vh = np.linalg.svd(stacked, full_matrices=False)
    iso = u @ vh
    return [iso[i * dim : (i + 1) * dim] for i in range(count)]


class TestRunQPT:
    def test_identity_channel(self):
        b = build_pauli_basis(1)
        data = run_qpt(lambda r: r, b)
        assert np.linalg.norm(data.lam - np.eye(4)) < 1e-12

    def test_sigma_x_conjugation_against_oracle(self):
        # oracle: conjugate each matrix unit explicitly
        b = build_pauli_basis(1)
        data = run_qpt(lambda r: SX @ r @ SX, b)
        for m in range(2):
            for n in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[m, n] = 1.0
                want = (SX @ unit @ SX).reshape(-1)
                assert np.linalg.norm(data.lam[2 * m + n] - want) < 1e-12

    def test_dephasing_model_small_t_structure(self):
        # channel from simulation: first-order response is a z commutator
        model = SystemBathModel(system_hamiltonian=0.5 * SZ, bath_hamiltonian=np.zeros((1, 1)))
        t = 0.01
        ks = kraus_from_model(model, t)
        b = build_pauli_basis(1)
        chi = chi_from_lambda(run_qpt(ks.apply, b, time_tag=t))
        # exact rotation: Im chi_z0 = -sin(g t)/2 with g = 1
        assert abs(chi.entries[3, 0].imag + np.sin(t) / 2) < 1e-12
        assert abs(chi.entries[0, 3].imag - np.sin(t) / 2) < 1e-12

    def test_nonlinear_channel_rejected(self):
        b = build_pauli_basis(1)
        with pytest.raises(DomainError):
            run_qpt(lambda r: r @ r, b)

    def test_non_finite_channel_rejected(self):
        # NaN must fail the superposition test, not pass it
        b = build_pauli_basis(2)
        with pytest.raises(DomainError, match="superposition"):
            run_qpt(lambda r: np.full_like(r, np.nan), b)

    def test_mixture_linearity(self, rng):
        # lambda of a channel mixture is the mixture of lambdas
        b = build_pauli_basis(1)
        u1, u2 = random_unitary(2, rng), random_unitary(2, rng)
        ch1 = lambda r: u1 @ r @ u1.conj().T
        ch2 = lambda r: u2 @ r @ u2.conj().T
        p = 0.3
        mix = lambda r: p * ch1(r) + (1 - p) * ch2(r)
        lam_mix = run_qpt(mix, b).lam
        lam_want = p * run_qpt(ch1, b).lam + (1 - p) * run_qpt(ch2, b).lam
        assert np.linalg.norm(lam_mix - lam_want) < 1e-10

    def test_response_matrix_definition(self, rng):
        # oracle: lam[(m, n), (p, q)] = channel(|m><n|)[p, q], unit by unit
        u = random_unitary(2, rng)
        data = run_qpt(lambda r: u @ r @ u.conj().T, build_pauli_basis(1))
        for m in range(2):
            for n in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[m, n] = 1.0
                want = (u @ unit @ u.conj().T).reshape(-1)
                assert np.linalg.norm(data.lam[2 * m + n] - want) < 1e-12

    def test_shared_preparations_are_read_only(self, rng):
        # a channel that writes into its input must not corrupt later probes
        b = build_pauli_basis(2)
        u = random_unitary(4, rng)

        def unitary(r):
            return u @ r @ u.conj().T

        def overwriting(r):
            out = unitary(r)
            r *= 0
            return out

        want = run_qpt(unitary, b).lam
        with pytest.raises(ValueError):
            run_qpt(overwriting, b)
        assert np.array_equal(run_qpt(unitary, b).lam, want)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_channel_called_once_on_read_only_stack(self, rng, num_qubits):
        b = build_pauli_basis(num_qubits)
        u = random_unitary(b.dim, rng)
        calls = []

        def channel(r):
            calls.append(r)
            return u @ r @ u.conj().T

        data = run_qpt(channel, b)
        assert len(calls) == 1
        (stack,) = calls
        # d^2 preparations and three superposition-test states
        assert stack.shape == (b.dim**2 + 3, b.dim, b.dim)
        assert not stack.flags.writeable
        for m in range(b.dim):
            for n in range(b.dim):
                unit = np.zeros((b.dim, b.dim), dtype=complex)
                unit[m, n] = 1.0
                want = (u @ unit @ u.conj().T).reshape(-1)
                assert np.linalg.norm(data.lam[b.dim * m + n] - want) < 1e-12

    def test_response_of_wrong_shape_rejected(self):
        b = build_pauli_basis(1)
        with pytest.raises(ShapeError):
            run_qpt(lambda r: r[..., :1, :1], b)
        with pytest.raises(ShapeError):
            run_qpt(lambda r: r[0], b)


class TestStackedKernels:
    """``lam`` assembly and the chi product over leading axes: each slice as if it were alone, each slice checked."""

    @staticmethod
    def unitary_responses(num_qubits, count, rng):
        states = _probe_inputs(2**num_qubits)[0]
        u = np.array([random_unitary(2**num_qubits, rng) for _ in range(count)])
        return u[:, None] @ states @ u.conj().swapaxes(-1, -2)[:, None]

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_each_slice_equals_its_single_run_bit_for_bit(self, rng, num_qubits):
        b = build_pauli_basis(num_qubits)
        responses = self.unitary_responses(num_qubits, 3, rng)
        lam = _assemble_lam(responses, b.dim)
        chi, residual = _chi_raw(lam, b)
        assert lam.shape == (3, b.dim**2, b.dim**2) and chi.shape == (3, b.size, b.size) and residual.shape == (3,)
        for i, r in enumerate(responses):
            single = run_qpt(lambda _: r, b)
            assert np.array_equal(lam[i], single.lam)
            chi_i, residual_i = _chi_raw(single.lam, b)
            assert np.array_equal(chi[i], chi_i) and residual[i] == residual_i == chi_from_lambda(single).residual

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_residual_matches_the_chi_side_sum(self, rng, num_qubits):
        # reference: ||sum_ab chi_ab K_b K_a - I||_F of the same chi
        b = build_pauli_basis(num_qubits)
        responses = self.unitary_responses(num_qubits, 3, rng)
        responses *= 1.0 + np.array([0.0, 1e-9, 3e-7])[:, None, None, None]  # slices 1 and 2 leak trace
        chi, residual = _chi_raw(_assemble_lam(responses, b.dim), b)
        k = b.elements
        for i in range(3):
            want = np.linalg.norm(np.einsum("ab,bij,ajk->ik", chi[i], k, k) - np.eye(b.dim))
            assert abs(residual[i] - want) <= 1e-14
        assert residual[0] < 1e-14 < residual[1] < residual[2] < 1e-6

    @pytest.mark.parametrize("bad", [0, 2])
    def test_one_nonlinear_slice_rejected(self, rng, bad):
        responses = self.unitary_responses(1, 3, rng)
        responses[bad] = responses[bad] @ responses[bad]
        with pytest.raises(DomainError, match="superposition"):
            _assemble_lam(responses, 2)

    @pytest.mark.parametrize("bad", [0, 2])
    def test_one_non_trace_preserving_slice_rejected(self, rng, bad):
        b = build_pauli_basis(2)
        lam = _assemble_lam(self.unitary_responses(2, 3, rng), b.dim)
        _chi_raw(lam, b)
        lam[bad] *= 0.9
        with pytest.raises(InconsistencyError, match="not trace preserving"):
            _chi_raw(lam, b)

    @pytest.mark.parametrize("bad", [0, 2])
    def test_one_non_hermiticity_preserving_slice_rejected(self, rng, bad):
        b = build_pauli_basis(2)
        responses = self.unitary_responses(2, 3, rng)
        _chi_raw(_assemble_lam(responses, b.dim), b)
        zz = np.kron(SZ, SZ)
        responses[bad] += 0.005 * (zz @ responses[bad] - responses[bad] @ zz)
        with pytest.raises(InconsistencyError, match="not Hermiticity preserving"):
            _chi_raw(_assemble_lam(responses, b.dim), b)

    def test_wrong_trailing_shape_rejected(self, rng):
        responses = self.unitary_responses(1, 2, rng)
        for wrong in (responses[..., :1, :1], responses[:, :-1], responses[:, :, None]):
            with pytest.raises(ShapeError):
                _assemble_lam(wrong, 2)


class TestRecombination:
    """``_assemble_lam``'s one matmul gives the channel's responses to the matrix units themselves."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_qubits=st.integers(1, 3), count=st.integers(1, 4))
    def test_lam_equals_the_responses_to_matrix_units(self, seed, num_qubits, count):
        rng = np.random.default_rng(seed)
        d = 2**num_qubits
        kraus = np.array(normalized_kraus(d, count, rng))

        def channel(rho):
            return np.einsum("kab,...bc,kdc->...ad", kraus, rho, kraus.conj())

        units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)  # |m><n| at row m * d + n
        want = channel(units).reshape(d * d, d * d)  # lam[(m, n), (p, q)] = channel(|m><n|)[p, q]
        lam = _assemble_lam(channel(_probe_inputs(d)[0]), d)
        assert np.max(np.abs(lam - want)) <= 1e-14
        assert np.array_equal(run_qpt(channel, build_pauli_basis(num_qubits)).lam, lam)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_recombination_matrix_built_once_and_read_only(self, dim):
        states, recombine = _probe_inputs(dim)
        assert _probe_inputs(dim)[1] is recombine
        assert recombine.shape == (dim * dim, dim * dim) and not recombine.flags.writeable
        assert states.shape == (dim * dim + 3, dim, dim)
        # each off-diagonal unit takes four responses, each diagonal unit one
        assert np.count_nonzero(recombine) == 4 * dim * (dim - 1) + dim

    @pytest.mark.parametrize("make", [lambda: build_pauli_basis(1), lambda: build_pauli_basis(3), gell_mann_basis],
                             ids=["pauli-1", "pauli-3", "gell-mann"])
    def test_change_of_basis_cached_on_each_basis(self, make):
        basis = make()
        a, a_dag = basis.change_of_basis
        assert basis.change_of_basis[0] is a and basis.change_of_basis[1] is a_dag
        assert not a.flags.writeable and not a_dag.flags.writeable
        d = basis.dim
        assert np.array_equal(a, basis.elements.transpose(1, 2, 0).reshape(d * d, basis.size))
        assert np.array_equal(a_dag, a.conj().T)
        assert np.allclose(a_dag @ a, basis.normalization * np.eye(basis.size), atol=1e-12)
        # a basis that is not the Pauli one still goes through chi_from_lambda on its own matrix
        chi = chi_from_lambda(run_qpt(lambda r: r, basis))
        assert abs(chi.entries[0, 0] - 1.0) < 1e-12


class TestChiFromLambda:
    def test_identity_channel(self):
        b = build_pauli_basis(1)
        chi = chi_from_lambda(run_qpt(lambda r: r, b))
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        assert np.linalg.norm(chi.entries - want) < 1e-12

    def test_first_order_phase_flip(self):
        g, t = 1.0, 0.01
        b = build_pauli_basis(1)
        chi = chi_from_lambda(run_qpt(first_order_dephasing(g, t), b, time_tag=t))
        assert abs(chi.entries[3, 0].imag + g * t / 2) < 1e-14
        assert chi.skew_norm < 1e-12

    def test_random_kraus_roundtrip(self, rng):
        for dim, nq in ((2, 1), (4, 2)):
            b = build_pauli_basis(nq)
            channel = KrausSet(normalized_kraus(dim, 3, rng)).apply
            chi = chi_from_lambda(run_qpt(channel, b))
            for _ in range(20):
                rho = random_density(dim, rng)
                assert np.linalg.norm(chi.apply(rho) - channel(rho)) < 1e-9

    def test_unitary_channel_chi_reproduces(self, rng):
        b = build_pauli_basis(1)
        u = random_unitary(2, rng)
        chi = chi_from_lambda(run_qpt(lambda r: u @ r @ u.conj().T, b))
        rho = random_density(2, rng)
        assert np.linalg.norm(chi.apply(rho) - u @ rho @ u.conj().T) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        num_qubits=st.integers(min_value=1, max_value=3),
        count=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_closed_form_matches_kraus_chi(self, num_qubits, count, seed):
        # oracle: c_ka = Tr(K_a A_k) / M and chi_ab = sum_k c_ka conj(c_kb)
        b = build_pauli_basis(num_qubits)
        ops = normalized_kraus(b.dim, count, np.random.default_rng(seed))
        c = np.array([[np.trace(k @ a) for k in b.elements] for a in ops]) / b.normalization
        want = c.T @ c.conj()
        chi = chi_from_lambda(run_qpt(KrausSet(ops).apply, b))
        assert np.abs(chi.entries - want).max() < 1e-12
        assert chi.residual < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        num_qubits=st.integers(min_value=1, max_value=3),
        count=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_apply_on_stack_matches_per_state_calls(self, num_qubits, count, seed):
        rng = np.random.default_rng(seed)
        b = build_pauli_basis(num_qubits)
        chi = chi_from_lambda(run_qpt(KrausSet(normalized_kraus(b.dim, 2, rng)).apply, b))
        stack = np.array([random_density(b.dim, rng) for _ in range(count)])
        got = chi.apply(stack)
        assert got.shape == stack.shape
        assert np.abs(got - np.array([chi.apply(rho) for rho in stack])).max() < 1e-12

    @pytest.mark.parametrize(
        "channel",
        [
            lambda r: 0.9 * r,
            lambda r: np.diag([1.0, np.sqrt(0.7)]) @ r @ np.diag([1.0, np.sqrt(0.7)]),
        ],
        ids=["scaled", "lone-amplitude-damping-kraus"],
    )
    def test_non_trace_preserving_map_rejected(self, channel):
        b = build_pauli_basis(1)
        with pytest.raises(InconsistencyError):
            chi_from_lambda(run_qpt(channel, b))

    @pytest.mark.parametrize("z", [SZ, np.kron(SZ, SZ)], ids=["1q", "2q"])
    def test_non_hermiticity_preserving_map_rejected(self, z):
        # linear and trace preserving, but a Hermitian state goes to a non-Hermitian
        # one; chi's Hermitian part alone would read as a perfect channel
        b = build_pauli_basis(int(np.log2(len(z))))
        data = run_qpt(lambda r: r + 0.005 * (z @ r - r @ z), b, time_tag=0.01)
        with pytest.raises(InconsistencyError, match="not Hermiticity preserving"):
            chi_from_lambda(data)

    def test_non_finite_response_rejected(self):
        b = build_pauli_basis(2)
        with pytest.raises(InconsistencyError):
            chi_from_lambda(TomographyData(lam=np.full((16, 16), np.nan), basis=b))

    def test_trace_preserving_residual_reported(self):
        # first-order maps are trace preserving though not completely positive
        b = build_pauli_basis(1)
        chi = chi_from_lambda(run_qpt(first_order_dephasing(1.0, 0.6), b, time_tag=0.6))
        assert chi.residual < 1e-14
        assert np.linalg.eigvalsh(chi.entries).min() < 0

    def test_json_roundtrip(self):
        b = build_pauli_basis(1)
        chi = chi_from_lambda(run_qpt(first_order_dephasing(1.0, 0.01), b, time_tag=0.01))
        clone = ChiMatrix.from_dict(chi.to_dict())
        assert np.linalg.norm(clone.entries - chi.entries) < 1e-15
        assert clone.time_tag == chi.time_tag


class TestExtractGenerator:
    def test_identity_channel_zero(self):
        b = build_pauli_basis(1)
        chi = chi_from_lambda(run_qpt(lambda r: r, b, time_tag=0.01))
        gen = extract_generator(chi)
        assert np.linalg.norm(gen.xi[0]) < 1e-12

    def test_dephasing_value(self):
        g, t = 1.0, 0.01
        b = build_pauli_basis(1)
        chi = chi_from_lambda(run_qpt(first_order_dephasing(g, t), b, time_tag=t))
        gen = extract_generator(chi)
        assert np.allclose(gen.xi[0], [0, 0, -g / 2], atol=1e-12)

    def test_independent_dephasing_pair_matrix(self):
        g1, g2, t = 0.3, 0.2, 0.01
        k1, k2 = np.kron(SZ, I2), np.kron(I2, SZ)

        def channel(rho):
            return rho + 1j * t * (g1 * (k1 @ rho - rho @ k1) + g2 * (k2 @ rho - rho @ k2))

        b = build_pauli_basis(2)
        chi = chi_from_lambda(run_qpt(channel, b, time_tag=t))
        gen = extract_generator(chi)
        pm = gen.pair_matrix(0, 1)
        assert abs(pm[3, 0] - g1) < 1e-9
        assert abs(pm[0, 3] - g2) < 1e-9
        mask = np.ones((4, 4), dtype=bool)
        mask[3, 0] = mask[0, 3] = False
        assert np.abs(pm[mask]).max() < 1e-9
        assert np.allclose(gen.xi[0], [0, 0, g1], atol=1e-9)
        assert np.allclose(gen.xi[1], [0, 0, g2], atol=1e-9)
        for pair in [(1, 0), (0, 0), (0, 2)]:
            with pytest.raises(DomainError, match="pair"):
                gen.pair_matrix(*pair)

    @pytest.mark.parametrize(
        "basis",
        [
            OperatorBasis(elements=np.array([I2, SZ, SX, SY]), labels=("I", "Z", "X", "Y")),
            OperatorBasis(elements=np.array([I2, SZ, SX, SY]), labels=("I", "X", "Y", "Z")),
            gell_mann_basis(),
        ],
        ids=["pauli-reordered", "pauli-mislabelled", "gell-mann"],
    )
    def test_basis_other_than_pauli_rejected(self, basis):
        # a generator read by Pauli-string index would mislabel or overrun any other basis
        def dephasing(rho):
            return rho + 0.005j * (rho @ basis.elements[1] - basis.elements[1] @ rho)

        chi = chi_from_lambda(run_qpt(dephasing, basis, time_tag=0.01))
        with pytest.raises(DomainError, match="Pauli basis"):
            extract_generator(chi)

    def test_time_required(self):
        b = build_pauli_basis(1)
        chi = chi_from_lambda(run_qpt(lambda r: r, b))
        with pytest.raises(DegenerateTimeError):
            extract_generator(chi)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), 0.0, -0.01, True], ids=repr)
    def test_time_must_be_positive_and_finite(self, t):
        # an infinite tag would read any channel as a zero generator, a perfect channel
        chi = chi_from_lambda(run_qpt(first_order_dephasing(1.0, 0.01), build_pauli_basis(1), time_tag=t))
        with pytest.raises(DegenerateTimeError, match="time tag"):
            extract_generator(chi)

    def test_unitary_channel_first_order_consistency(self, rng):
        # For exp(-iHt) the extracted rates converge to minus the expansion
        # coordinates of H as t -> 0 (Richardson check at two probe times).
        b = build_pauli_basis(1)
        h = random_hermitian(2, rng, traceless=True)
        h_coords = expand(h, b).coords

        def channel_at(t):
            from scipy.linalg import expm

            u = expm(-1j * h * t)
            return lambda r: u @ r @ u.conj().T, t

        errs = []
        for t in (0.02, 0.01):
            ch, tt = channel_at(t)
            gen = extract_generator(chi_from_lambda(run_qpt(ch, b, time_tag=tt)))
            errs.append(np.linalg.norm(gen.xi[0] + h_coords))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-3

    def test_large_probe_warning(self):
        b = build_pauli_basis(1)
        chi = chi_from_lambda(run_qpt(first_order_dephasing(1.0, 0.6), b, time_tag=0.6))
        with pytest.warns(UserWarning):
            extract_generator(chi)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_generator_reality(self, rng):
        b = build_pauli_basis(1)
        channel = KrausSet(normalized_kraus(2, 2, rng)).apply
        chi = chi_from_lambda(run_qpt(channel, b, time_tag=0.01))
        gen = extract_generator(chi)
        assert gen.xi[0].dtype == np.dtype(float)
        assert chi.skew_norm < 1e-8


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=30, deadline=None)
@given(
    num_qubits=st.integers(min_value=1, max_value=3),
    count=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_flat_generator_is_first_chi_column(num_qubits, count, seed):
    # every string of every weight; xi and the pair matrices read it by label
    b = build_pauli_basis(num_qubits)
    t = 0.01
    ops = normalized_kraus(b.dim, count, np.random.default_rng(seed))
    chi = chi_from_lambda(run_qpt(KrausSet(ops).apply, b, time_tag=t))
    gen = extract_generator(chi)
    assert np.array_equal(gen.coords, chi.entries[1:, 0].imag / t)
    by_label = dict(zip(b.labels, np.concatenate(([0.0], gen.coords))))

    def coord(on):  # on: qubit -> label index
        return by_label["".join("IXYZ"[on.get(q, 0)] for q in range(num_qubits))]

    for i in range(num_qubits):
        assert list(gen.xi[i]) == [coord({i: a}) for a in range(1, 4)]
        for j in range(i + 1, num_qubits):
            want = [[coord({i: a, j: c}) for c in range(4)] for a in range(4)]
            assert np.array_equal(gen.pair_matrix(i, j), want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@NON_FINITE
def test_non_finite_chi_rejected(value):
    with pytest.raises(DomainError):
        ChiMatrix(entries=with_corner(np.eye(4), value), time_tag=0.01, basis=build_pauli_basis(1))
