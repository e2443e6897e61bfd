import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bbforge.errors import DomainError, ShapeError
from bbforge.open_system_sim import (
    Coupling,
    DensityMatrix,
    KrausSet,
    PulseGroup,
    SystemBathModel,
    apply_bb_cycle,
    bb_cycle_propagator,
    bb_propagator,
    kraus_from_model,
    model_from_dict,
    model_to_dict,
    propagate,
    reduced_state,
    _reduced_channel,
    symmetrize_hamiltonian,
)
from bbforge.operator_algebra import axis_angle_unitary

from conftest import I2, NON_FINITE, SX, SY, SZ, random_density, random_hermitian, trace_distance, with_corner


def dephasing_model(g=0.5, omega=1.0):
    """Qubit coupled to one bath qubit through sigma_z (x) sigma_x."""
    plus_y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    return SystemBathModel(
        system_hamiltonian=np.zeros((2, 2)),
        bath_hamiltonian=omega / 2 * SZ,
        couplings=(Coupling(system=g / 2 * SZ, bath=SX, name="dephasing"),),
        bath_initial=np.outer(plus_y, plus_y.conj()),
    )


class TestPropagate:
    def test_zero_hamiltonian(self):
        model = SystemBathModel(system_hamiltonian=np.zeros((2, 2)), bath_hamiltonian=np.zeros((2, 2)))
        assert np.allclose(propagate(model, 1.7), np.eye(4))

    def test_diagonal_phases(self):
        g = 0.8
        model = SystemBathModel(system_hamiltonian=g / 2 * SZ, bath_hamiltonian=np.zeros((2, 2)))
        u = propagate(model, 0.5)
        want = np.kron(np.diag([np.exp(-1j * g * 0.25), np.exp(1j * g * 0.25)]), I2)
        assert np.linalg.norm(u - want) < 1e-12

    def test_taylor_series_oracle(self, rng):
        # oracle: second-order expansion; the remainder is O(t^3)
        model = SystemBathModel(
            system_hamiltonian=random_hermitian(2, rng) / 4,
            bath_hamiltonian=random_hermitian(4, rng) / 4,
            couplings=(Coupling(system=random_hermitian(2, rng) / 4, bath=random_hermitian(4, rng) / 4),),
        )
        h = model.total_hamiltonian
        h_norm = np.linalg.norm(h, 2)
        t = 0.1 / h_norm
        u = propagate(model, t)
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-12
        taylor = np.eye(8) - 1j * h * t - h @ h * t**2 / 2
        assert np.linalg.norm(u - taylor) < (h_norm * t) ** 3

    def test_unitarity_long_time(self, rng):
        model = dephasing_model()
        norm = np.linalg.norm(model.total_hamiltonian, 2)
        u = propagate(model, 10.0 / norm)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            propagate(dephasing_model(), -0.1)


@st.composite
def random_models(draw):
    """Random Hermitian system+bath models of total dimension 2 to 16."""
    ns = draw(st.sampled_from([2, 4, 8]))
    nb = draw(st.integers(1, 16 // ns))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SystemBathModel(
        system_hamiltonian=random_hermitian(ns, rng),
        bath_hamiltonian=random_hermitian(nb, rng),
        couplings=(Coupling(system=random_hermitian(ns, rng), bath=random_hermitian(nb, rng)),),
    )


times = st.floats(0.0, 50.0)


class TestSpectralPropagator:
    @settings(max_examples=60, deadline=None)
    @given(model=random_models(), t=times)
    def test_unitary_and_equal_to_expm(self, model, t):
        u = propagate(model, t)
        assert np.linalg.norm(u.conj().T @ u - np.eye(model.total_dim)) < 1e-12
        assert np.linalg.norm(u - expm(-1j * model.total_hamiltonian * t)) < 1e-11

    @settings(max_examples=60, deadline=None)
    @given(model=random_models(), s=times, t=times)
    def test_composition(self, model, s, t):
        assert np.linalg.norm(propagate(model, s) @ propagate(model, t) - propagate(model, s + t)) < 1e-11

    @settings(max_examples=20, deadline=None)
    @given(model=random_models())
    def test_cached_spectrum_leaves_equality_and_repr(self, model):
        text = repr(model)
        spectrum = model.spectrum
        assert model.spectrum is spectrum
        assert repr(model) == text
        assert model == model
        assert "spectrum" not in {f.name for f in dataclasses.fields(model)}
        w, v = spectrum
        assert np.linalg.norm((v * w) @ v.conj().T - model.total_hamiltonian) < 1e-12


class TestChannelContract:
    """A channel maps a ``(..., d, d)`` stack of states to the stack of images, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(model=random_models(), t=st.floats(0.0, 5.0), count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_stacked_calls_equal_per_state_calls(self, model, t, count, seed):
        rng = np.random.default_rng(seed)
        model = dataclasses.replace(model, bath_initial=random_density(model.bath_dim, rng))
        stack = np.array([random_density(model.system_dim, rng) for _ in range(count)])
        for channel in (_reduced_channel(model, propagate(model, t)), kraus_from_model(model, t).apply):
            got = channel(stack)
            assert np.array_equal(got, np.array([channel(rho) for rho in stack]))
            # more than one leading axis
            assert np.array_equal(channel(np.array([stack, stack]))[1], got)


class TestReducedState:
    def test_no_coupling_identity(self):
        model = SystemBathModel(system_hamiltonian=np.zeros((2, 2)), bath_hamiltonian=0.7 * SZ)
        rho = DensityMatrix.from_state_vector([1, 1])
        for t in (0.0, 0.3, 2.0):
            out = reduced_state(model, rho, t)
            assert np.linalg.norm(out.matrix - rho.matrix) < 1e-12

    def test_time_zero_is_identity(self, rng):
        model = dephasing_model()
        rho = random_density(2, rng)
        assert np.linalg.norm(reduced_state(model, rho, 0.0).matrix - rho) < 1e-12

    def test_dephasing_coherence_decay(self):
        model = dephasing_model()
        rho = DensityMatrix.from_state_vector([1, 1])
        coherences = [abs(reduced_state(model, rho, t).matrix[0, 1]) for t in (0.0, 0.1, 0.2, 0.4)]
        for earlier, later in zip(coherences, coherences[1:]):
            assert later <= earlier + 1e-9

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            reduced_state(dephasing_model(), np.eye(4) / 4, 0.1)
        with pytest.raises(ShapeError):
            _reduced_channel(dephasing_model(), np.eye(4))(np.zeros((3, 4, 4)))


class TestKraus:
    def test_zero_hamiltonian_identity_channel(self, rng):
        model = SystemBathModel(system_hamiltonian=np.zeros((2, 2)), bath_hamiltonian=np.zeros((2, 2)))
        ks = kraus_from_model(model, 0.4)
        rho = random_density(2, rng)
        assert np.linalg.norm(ks.apply(rho) - rho) < 1e-12

    def test_pure_bath_single_column(self):
        model = dephasing_model()
        ks = kraus_from_model(model, 0.3)
        # pure bath state keeps one eigenvalue, two bath bra indices
        assert len(ks.operators) == 2

    def test_matches_reduced_state(self, rng):
        model = dephasing_model()
        ks = kraus_from_model(model, 0.05)
        for _ in range(10):
            rho = random_density(2, rng)
            want = reduced_state(model, rho, 0.05).matrix
            assert np.linalg.norm(ks.apply(rho) - want) < 1e-10

    def test_completeness(self):
        ks = kraus_from_model(dephasing_model(), 0.7)
        total = sum(a.conj().T @ a for a in ks.operators)
        assert np.linalg.norm(total - np.eye(2)) < 1e-10

    def test_mixed_bath(self, rng):
        rho_b = np.diag([0.7, 0.3]).astype(complex)
        model = SystemBathModel(
            system_hamiltonian=0.2 * SX,
            bath_hamiltonian=0.9 * SZ,
            couplings=(Coupling(system=0.3 * SZ, bath=SX),),
            bath_initial=rho_b,
        )
        ks = kraus_from_model(model, 0.2)
        assert len(ks.operators) == 4
        rho = random_density(2, rng)
        assert np.linalg.norm(ks.apply(rho) - reduced_state(model, rho, 0.2).matrix) < 1e-10


class TestPulseGroup:
    def test_requires_identity_first(self):
        with pytest.raises(DomainError):
            PulseGroup.from_pulses([SX, I2], 0.1)

    def test_cycle_time(self):
        g = PulseGroup.from_pulses([I2, 1j * SX], 0.25)
        assert g.cycle_time == 2 * 0.25
        assert g.with_delta_t(0.5).cycle_time == 1.0

    def test_rotations_match_pulses(self):
        kick = axis_angle_unitary([0, 1, 0], np.pi / 2)
        g = PulseGroup.from_pulses([I2, kick], 0.1)
        from bbforge.operator_algebra import adjoint_of, build_pauli_basis

        want = adjoint_of(kick, build_pauli_basis(1)).matrix
        assert np.linalg.norm(g.rotations[1].matrix - want) < 1e-12

    def test_rotations_computed_once(self, monkeypatch, rng):
        import bbforge.open_system_sim as sim_mod
        from bbforge.operator_algebra import adjoint_of, build_pauli_basis

        from conftest import random_unitary

        pulses = [np.eye(4)] + [random_unitary(4, rng) for _ in range(3)]
        calls = []

        def counting(u, basis):
            calls.append(basis)
            return adjoint_of(u, basis)

        monkeypatch.setattr(sim_mod, "adjoint_of", counting)
        g = PulseGroup.from_pulses(pulses, 0.1)
        assert calls == []
        first = g.rotations
        assert g.rotations is first
        assert len(calls) == len(pulses)
        basis = build_pauli_basis(2)
        for p, r in zip(g.pulses, first):
            assert np.array_equal(r.matrix, adjoint_of(p, basis).matrix)

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_dimension_not_power_of_two_rejected_at_construction(self, dim):
        with pytest.raises(ShapeError):
            PulseGroup(pulses=(np.eye(dim),), delta_t=0.1)


class TestApplyBBCycle:
    def test_trivial_group_equals_reduced_state(self, rng):
        model = dephasing_model()
        group = PulseGroup.from_pulses([I2], 0.1)
        rho = random_density(2, rng)
        a = apply_bb_cycle(model, group, 5, rho).matrix
        b = reduced_state(model, rho, 0.5).matrix
        assert np.linalg.norm(a - b) < 1e-13
        assert np.array_equal(apply_bb_cycle(model, group, np.int64(5), rho).matrix, a)

    @pytest.mark.parametrize(
        "cycles", [float("nan"), 2.5, 3.0, np.float64(3.0), "3"], ids=["nan", "2.5", "float-3", "np-float-3", "str-3"]
    )
    def test_non_integral_cycle_count_rejected(self, cycles):
        group = PulseGroup.from_pulses([I2], 0.1)
        with pytest.raises(DomainError, match="integer"):
            apply_bb_cycle(dephasing_model(), group, cycles, I2 / 2)

    def test_parity_kick_suppresses_dephasing(self):
        # oracle: dense exact evolution assembled inline, then compared
        model = dephasing_model()
        rho = DensityMatrix.from_state_vector([1, 1])
        kick = axis_angle_unitary([1, 0, 0], np.pi / 2)
        errors = {}
        for dt in (0.1, 0.05, 0.025):
            group = PulseGroup.from_pulses([I2, kick], dt)
            cycles = int(round(1.0 / group.cycle_time))
            pulsed = apply_bb_cycle(model, group, cycles, rho).matrix
            errors[dt] = trace_distance(pulsed, rho.matrix)
            # independent dense oracle for the same propagator
            u0 = propagate(model, dt)
            gf = np.kron(kick, np.eye(2))
            cycle = gf.conj().T @ u0 @ gf @ u0
            u = np.linalg.matrix_power(cycle, cycles)
            full = u @ np.kron(rho.matrix, model.bath_initial) @ u.conj().T
            red = np.einsum("abcb->ac", full.reshape(2, 2, 2, 2))
            assert np.linalg.norm(pulsed - red) < 1e-12
        unpulsed = trace_distance(reduced_state(model, rho, 1.0).matrix, rho.matrix)
        assert errors[0.1] < 0.25 * unpulsed
        assert 1.5 < errors[0.1] / errors[0.05] < 2.5
        assert 1.5 < errors[0.05] / errors[0.025] < 2.5

    def test_pauli_group_decouples_generic_linear_coupling(self, rng):
        model = SystemBathModel(
            system_hamiltonian=np.zeros((2, 2)),
            bath_hamiltonian=0.8 * SZ,
            couplings=(
                Coupling(system=0.3 * SZ, bath=SX),
                Coupling(system=0.2 * SX, bath=SZ),
            ),
        )
        rho = DensityMatrix.from_state_vector([1, 1j])
        pauli = PulseGroup.from_pulses(
            [I2] + [axis_angle_unitary(e, np.pi / 2) for e in np.eye(3)], 0.02
        )
        cycles = int(round(0.8 / pauli.cycle_time))
        pulsed = apply_bb_cycle(model, pauli, cycles, rho).matrix
        unpulsed = reduced_state(model, rho, cycles * pauli.cycle_time).matrix
        assert trace_distance(pulsed, rho.matrix) < 0.2 * trace_distance(unpulsed, rho.matrix)

    def test_propagator_partial_cycle(self):
        model = dephasing_model()
        kick = axis_angle_unitary([1, 0, 0], np.pi / 2)
        group = PulseGroup.from_pulses([I2, kick], 0.1)
        u_full = bb_propagator(model, group, 3 * group.cycle_time)
        want = np.linalg.matrix_power(bb_cycle_propagator(model, group), 3)
        assert np.linalg.norm(u_full - want) < 1e-12
        # a partial time lands between pulses and stays unitary
        u_part = bb_propagator(model, group, 2.5 * group.cycle_time)
        assert np.linalg.norm(u_part.conj().T @ u_part - np.eye(4)) < 1e-12


class TestSymmetrize:
    def test_pauli_group_annihilates_traceless(self):
        group = PulseGroup.from_pulses([I2, SX, SY, SZ], 0.1)
        assert np.linalg.norm(symmetrize_hamiltonian(SZ, group)) < 1e-14

    def test_trivial_group_is_identity_map(self, rng):
        h = random_hermitian(2, rng)
        group = PulseGroup.from_pulses([I2], 0.1)
        assert np.linalg.norm(symmetrize_hamiltonian(h, group) - h) < 1e-14

    def test_commuting_interaction_unchanged(self):
        # two-qubit exchange interaction commutes with the x (x) x kick
        heis = sum(np.kron(p, p) for p in (SX, SY, SZ))
        u = np.kron(1j * SX, 1j * SX)
        group = PulseGroup.from_pulses([np.eye(4), u], 0.1)
        assert np.linalg.norm(symmetrize_hamiltonian(heis, group) - heis) < 1e-12

    def test_projector_idempotent(self, rng):
        group = PulseGroup.from_pulses([I2, SX, SY, SZ], 0.1)
        for _ in range(20):
            h = random_hermitian(2, rng)
            once = symmetrize_hamiltonian(h, group)
            twice = symmetrize_hamiltonian(once, group)
            assert np.linalg.norm(once - twice) < 1e-12

    def test_centralizer_check(self):
        group = PulseGroup.from_pulses([I2, SX, SY, SZ], 0.1)
        symmetrize_hamiltonian(SZ + 0.3 * SX, group, check_centralizer=True)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_average_fails_centralizer_check(self):
        # the average overflows to inf + nan*j; a NaN commutator norm must not pass
        group = PulseGroup.from_pulses([I2, axis_angle_unitary([1, 0, 1], np.pi / 2)], 0.1)
        h = np.array([[1e308, 1e308], [1e308, -1e308]])
        with pytest.raises(DomainError, match="commute"):
            symmetrize_hamiltonian(h, group, check_centralizer=True)


class TestSerialization:
    def test_roundtrip(self):
        model = dephasing_model()
        data = model_to_dict(model)
        assert set(data) == {
            "system_hamiltonian",
            "bath_hamiltonian",
            "couplings",
            "bath_initial",
            "coupling_order",
        }
        clone = model_from_dict(data)
        assert np.linalg.norm(clone.total_hamiltonian - model.total_hamiltonian) < 1e-15
        assert clone.couplings[0].name == "dephasing"

    def test_validation_on_load(self):
        data = model_to_dict(dephasing_model())
        data["bath_initial"] = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(DomainError):
            model_from_dict(data)


class TestDensityMatrix:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.diag([1.5, -0.5]))


# Validators whose tolerance or time comparison must fail on NaN and Inf
NON_FINITE_GUARDS = {
    "hamiltonian": lambda x: SystemBathModel(system_hamiltonian=with_corner(np.zeros((2, 2)), x), bath_hamiltonian=np.zeros((1, 1))),
    "density-trace": lambda x: DensityMatrix(with_corner(np.eye(2) / 2, x)),
    "kraus-completeness": lambda x: KrausSet((with_corner(I2, x),), source_time=0.0),
    "pulse-identity": lambda x: PulseGroup.from_pulses([with_corner(I2, x)], 0.1),
    "pulse-unitarity": lambda x: PulseGroup.from_pulses([I2, with_corner(I2, x)], 0.1),
    "pulse-delta_t": lambda x: PulseGroup.from_pulses([I2], x),
    "propagate-time": lambda x: propagate(dephasing_model(), x),
    "bb-propagator-time": lambda x: bb_propagator(dephasing_model(), PulseGroup.from_pulses([I2], 0.1), x),
    "reduced-state-time": lambda x: reduced_state(dephasing_model(), I2 / 2, x),
    "kraus-time": lambda x: kraus_from_model(dephasing_model(), x),
}
# Guards on a time, which must also fail on an int too large for a float
TIME_GUARDS = ("pulse-delta_t", "propagate-time", "bb-propagator-time", "reduced-state-time", "kraus-time")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@NON_FINITE
@pytest.mark.parametrize("guard", sorted(NON_FINITE_GUARDS))
def test_non_finite_rejected(guard, value):
    with pytest.raises(DomainError):
        NON_FINITE_GUARDS[guard](value)


@pytest.mark.parametrize("guard", TIME_GUARDS)
def test_overflowing_time_rejected(guard):
    with pytest.raises(DomainError):
        NON_FINITE_GUARDS[guard](10**400)
