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

from conftest import I2, NON_FINITE, SX, SY, SZ, random_density, random_hermitian, random_unitary, trace_distance, with_corner


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
    """A channel maps a ``(..., d, d)`` stack of states to the stack of images, bit for bit; the reduced channel also takes a propagator stack."""

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
        # a stack of propagators maps every state, or stack of states, under every propagator
        singles = [_reduced_channel(model, propagate(model, s)) for s in (t, t / 2)]
        stacked = _reduced_channel(model, np.array([propagate(model, s) for s in (t, t / 2)]))
        for states in (stack, stack[0]):
            assert np.array_equal(stacked(states), np.array([channel(states) for channel in singles]))


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

    @pytest.mark.parametrize("delta_t", [0.0, 0, -0.1, True, "0.1"], ids=repr)
    def test_spacing_must_be_a_positive_number(self, delta_t):
        with pytest.raises(DomainError, match="delta_t"):
            PulseGroup.from_pulses([I2], delta_t)

    def test_spacing_stored_as_float(self):
        assert type(PulseGroup.from_pulses([I2], 1).delta_t) is float

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_dimension_not_power_of_two_rejected_at_construction(self, dim):
        with pytest.raises(ShapeError):
            PulseGroup(pulses=(np.eye(dim),), delta_t=0.1)


class TestPulseGroupStack:
    """The pulses are validated as one stack: each check keeps its error type and message."""

    @staticmethod
    def pulses(rng, count=5, dim=4):
        return [np.eye(dim)] + [random_unitary(dim, rng) for _ in range(count - 1)]

    @pytest.mark.parametrize("pulses", [(), [], np.zeros((0, 2, 2))], ids=["tuple", "list", "array"])
    def test_empty_rejected(self, pulses):
        with pytest.raises(ShapeError, match="at least the identity"):
            PulseGroup.from_pulses(pulses, 0.1)

    @pytest.mark.parametrize("odd", [1, 4], ids=["second", "last"])
    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (4,), (4, 4, 1)], ids=repr)
    def test_mixed_shapes_rejected(self, rng, odd, shape):
        pulses = self.pulses(rng)
        pulses[odd] = np.ones(shape)
        with pytest.raises(ShapeError, match="share one dimension"):
            PulseGroup.from_pulses(pulses, 0.1)

    @pytest.mark.parametrize("dim", [3, 6])
    def test_dimension_not_power_of_two_rejected(self, rng, dim):
        with pytest.raises(ShapeError, match="power of two"):
            PulseGroup.from_pulses([np.eye(dim), random_unitary(dim, rng)], 0.1)

    def test_non_identity_first_pulse_rejected(self, rng):
        pulses = self.pulses(rng)
        pulses[0] = with_corner(pulses[0], 1e-11)  # unitary enough, but not the identity within round-off
        with pytest.raises(DomainError, match="^pulse 0 must be the identity$"):
            PulseGroup.from_pulses(pulses, 0.1)

    @pytest.mark.parametrize("bad", [1, 2, 4])
    def test_one_non_unitary_pulse_of_many_rejected(self, rng, bad):
        pulses = self.pulses(rng)
        pulses[bad] = 1.001 * pulses[bad]
        with pytest.raises(DomainError, match="^pulses must be unitary within tolerance$"):
            PulseGroup.from_pulses(pulses, 0.1)

    @pytest.mark.parametrize("scale", [1e100, 1e200])
    def test_overflowing_pulse_rejected(self, scale):
        # g^dag g or its norm overflows, which must fail the check, not warn
        with pytest.raises(DomainError, match="^pulses must be unitary within tolerance$"):
            PulseGroup.from_pulses([I2, scale * I2], 0.1)

    def test_each_pulse_checked_alone_not_the_stack_as_a_whole(self):
        # every pulse's residual ||g^dag g - I||_F is 7.1e-11, within MATRIX_RESIDUAL (1e-10);
        # over the 8 pulses together it is 2.0e-10, which must not count against any one of them
        g = np.diag([1.0 + 2.5e-11, 1.0 + 2.5e-11]).astype(complex)
        assert 5e-11 < np.linalg.norm(g.conj().T @ g - I2) < 1e-10
        group = PulseGroup.from_pulses([I2] + [g] * 7, 0.1)
        assert group.size == 8

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_pulses_read_only_copies_bit_equal_to_the_input(self, rng, as_array):
        pulses = self.pulses(rng)
        given = np.array(pulses) if as_array else pulses
        group = PulseGroup.from_pulses(given, 0.1)
        assert isinstance(group.pulses, tuple) and len(group.pulses) == len(pulses)
        for stored, original in zip(group.pulses, pulses):
            assert stored.dtype == complex and not stored.flags.writeable
            assert stored.tobytes() == np.asarray(original, dtype=complex).tobytes()
            with pytest.raises(ValueError):
                stored[0, 0] = 2.0
        before = group.pulses[1].tobytes()
        given[1][0, 0] = 7.0  # the caller's array changes afterwards; the group keeps its own copy
        assert group.pulses[1].tobytes() == before


def lifted_propagator(model, group, n_cycles, segments, fraction):
    """Reference: ``n_cycles`` cycles, ``segments`` more segments and ``fraction`` of the next, every pulse lifted to ``g (x) I_B``."""
    lift = [np.kron(g, np.eye(model.bath_dim)) for g in group.pulses]
    u0 = propagate(model, group.delta_t)
    cycle = np.eye(model.total_dim)
    for g in lift:
        cycle = g.conj().T @ u0 @ g @ cycle
    u = np.linalg.matrix_power(cycle, n_cycles)
    for g in lift[:segments]:
        u = g.conj().T @ u0 @ g @ u
    if fraction:
        u = propagate(model, fraction * group.delta_t) @ lift[segments] @ u
    return cycle, u


class TestLiftFreePropagation:
    """Pulses applied to the system index of the reshaped product agree with lifted ``g (x) I_B`` products."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_qubits=st.integers(1, 3),
        bath_dim=st.sampled_from([1, 2, 4]),
        size=st.integers(1, 4),
        n_cycles=st.integers(0, 3),
        segment=st.integers(0, 3),
        fraction=st.one_of(st.just(0.0), st.floats(0.1, 0.9)),
    )
    def test_cycle_and_bb_propagator_match_the_lifted_product(self, seed, num_qubits, bath_dim, size, n_cycles, segment, fraction):
        rng = np.random.default_rng(seed)
        ns = 2**num_qubits
        model = SystemBathModel(
            system_hamiltonian=random_hermitian(ns, rng),
            bath_hamiltonian=random_hermitian(bath_dim, rng),
            couplings=(Coupling(system=0.4 * random_hermitian(ns, rng), bath=random_hermitian(bath_dim, rng)),),
            bath_initial=random_density(bath_dim, rng),
        )
        group = PulseGroup.from_pulses([np.eye(ns)] + [random_unitary(ns, rng) for _ in range(size - 1)], float(rng.uniform(0.02, 0.2)))
        # whole cycles, a segment boundary inside a cycle (fraction 0), or a time inside a segment
        segment = segment % size
        t = (n_cycles + (segment + fraction) / size) * group.cycle_time
        want_cycle, want = lifted_propagator(model, group, n_cycles, segment, fraction)
        cycle = bb_propagator(model, group, group.cycle_time)
        scale = np.sqrt(model.total_dim)  # the Frobenius norm of a unitary
        assert np.linalg.norm(cycle - want_cycle) <= 1e-13 * scale
        assert np.array_equal(bb_cycle_propagator(model, group), cycle)
        assert np.linalg.norm(bb_propagator(model, group, t) - want) <= 1e-13 * scale
        # a stack of times, repeats and a shared whole-cycle power included, is the per-time calls bit for bit
        times = [t, 0.0, (n_cycles + 1) * group.cycle_time, t, (n_cycles + 0.5) * group.cycle_time]
        assert np.array_equal(bb_propagator(model, group, times), [bb_propagator(model, group, s) for s in times])

    def test_round_off_at_a_segment_boundary_opens_no_segment(self, rng):
        # 0.75 of a 4-pulse cycle leaves a remainder of about 1e-17 after three segments,
        # which must not apply the fourth pulse ahead of its free evolution
        model = dephasing_model()
        group = PulseGroup.from_pulses([I2] + [random_unitary(2, rng) for _ in range(3)], 0.1)
        t = 0.75 * group.cycle_time
        assert t - group.delta_t - group.delta_t - group.delta_t > 0.0  # the remainder the segments leave
        _, want = lifted_propagator(model, group, 0, 3, 0.0)
        assert np.linalg.norm(bb_propagator(model, group, t) - want) <= 1e-13 * 2
        times = [0.5 * group.cycle_time, t, group.cycle_time, t]
        assert np.array_equal(bb_propagator(model, group, times), [bb_propagator(model, group, s) for s in times])


class TestBBPropagatorTimes:
    """One time gives a ``(D, D)`` propagator, a 1-D sequence of times the ``(T, D, D)`` stack."""

    @staticmethod
    def group():
        return PulseGroup.from_pulses([I2, axis_angle_unitary([1, 0, 0], np.pi / 2)], 0.1)

    @pytest.mark.parametrize("t", [0.3, np.float64(0.3), 3], ids=repr)
    def test_one_time_is_a_matrix(self, t):
        assert bb_propagator(dephasing_model(), self.group(), t).shape == (4, 4)

    @pytest.mark.parametrize("times", [[0.3], (0.1, 0.2, 0.45), np.array([0.0, 0.2, 0.2, 0.5])], ids=repr)
    def test_sequence_is_a_stack(self, times):
        u = bb_propagator(dephasing_model(), self.group(), times)
        assert u.shape == (len(times), 4, 4)

    @NON_FINITE
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_time_anywhere_rejected(self, value, position):
        times = [0.1, 0.2, 0.3]
        times[position] = value
        with pytest.raises(DomainError, match="propagation time"):
            bb_propagator(dephasing_model(), self.group(), times)

    # past about 16000 cycles n * tc / tc can round below n by more than 1e-12 (at 24576 and 27309
    # for these cycle times); it must still read as n whole cycles
    @pytest.mark.parametrize("cycle_time", [0.3, 0.6, 1.2, 3.3])
    @pytest.mark.parametrize("cycles", [7, 16384, 24576, 27309, 65536])
    def test_whole_cycles_are_the_power_of_the_cycle(self, cycle_time, cycles):
        # so apply_bb_cycle, which takes bb_propagator at its cycle count, keeps the power's bits;
        # the last pulse is not the identity, so a cycle read one short would leave it unclosed
        model = dephasing_model()
        group = PulseGroup.from_pulses([I2, axis_angle_unitary([1, 0, 0], np.pi / 2)], cycle_time / 2)
        want = np.linalg.matrix_power(bb_cycle_propagator(model, group), cycles)
        assert np.array_equal(bb_propagator(model, group, cycles * group.cycle_time), want)
        rho = DensityMatrix.from_state_vector([1, 1])
        assert np.array_equal(apply_bb_cycle(model, group, cycles, rho).matrix, _reduced_channel(model, want)(rho))

    @pytest.mark.parametrize("cycle_time", [0.3, 1.2, 3.3])
    @pytest.mark.parametrize("cycles", [16384, 27309, 65535])
    def test_segment_boundary_after_many_cycles_opens_no_segment(self, cycle_time, cycles):
        # the round-off in n * tc + 2 * dt grows with n past 1e-12; the second segment must still close
        model = dephasing_model()
        group = PulseGroup.from_pulses([I2, 1j * SX, 1j * SY, 1j * SZ], cycle_time / 4)
        two = bb_propagator(model, group, 2 * group.delta_t)
        want = two @ np.linalg.matrix_power(bb_cycle_propagator(model, group), cycles)
        got = bb_propagator(model, group, cycles * group.cycle_time + 2 * group.delta_t)
        assert np.linalg.norm(got - want) <= 1e-8


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
        }
        clone = model_from_dict(data)
        assert np.linalg.norm(clone.total_hamiltonian - model.total_hamiltonian) < 1e-15
        assert clone.couplings[0].name == "dephasing"

    def test_validation_on_load(self):
        data = model_to_dict(dephasing_model())
        data["bath_initial"] = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(DomainError):
            model_from_dict(data)

    def test_unknown_keys_rejected(self):
        data = model_to_dict(dephasing_model())
        data["bath_intial"] = data.pop("bath_initial")
        with pytest.raises(DomainError, match="bath_intial"):
            model_from_dict(data)
        data = model_to_dict(dephasing_model())
        data["couplings"][0]["sytem"] = data["couplings"][0].pop("system")
        with pytest.raises(DomainError, match="sytem"):
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
    "kraus-completeness": lambda x: KrausSet((with_corner(I2, x),)),
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
