from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbforge import bb_synthesis
from bbforge.bb_synthesis import (
    ErrorReport,
    _catalogue,
    _distance,
    _extend_identity,
    _keyed_catalogue,
    _local_pair_average,
    _product_group,
    _single_qubit_pulse_lists,
    _tailored_kick_products,
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
from bbforge.defaults import ROUNDOFF
from bbforge.errors import (
    DomainError,
    InfeasibleError,
    InfeasibleMagnitudeError,
    NonRepresentableError,
    ShapeError,
)
from bbforge.open_system_sim import PulseGroup
from bbforge.operator_algebra import (
    CoordinateVector,
    _kron,
    adjoint_of,
    axis_angle_unitary,
    build_pauli_basis,
    reconstruct,
    unitary_from_rotation,
)
from bbforge.tomography import EffectiveGenerator

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


def _scaled(norm, direction):
    return norm * np.asarray(direction, dtype=float) / np.linalg.norm(direction)


_DIRECTIONS = st.sampled_from(list(np.eye(3))) | st.lists(
    st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda v: np.linalg.norm(v) > 1e-3)
# zero, around ROUNDOFF, ordinary, around 1e8, where the LINEAR_SOLVE check can fire, and past
# 1e154, where a distance overflows and the public solvers' ErrorReport raises DomainError
_NORMS = (st.sampled_from([0.0, ROUNDOFF / 2, ROUNDOFF, 2 * ROUNDOFF, 1e160])
          | st.floats(1e-3, 10.0) | st.floats(1e7, 1e9))


@st.composite
def _margins(draw):
    """A margin ``(xi, w)``: ``w`` zero, equal to ``xi``, a projection or a multiple of it, or free."""
    xi = _scaled(draw(_NORMS), draw(_DIRECTIONS))
    kind = draw(st.sampled_from(["zero", "same", "projection", "multiple", "free"]))
    if kind == "zero":
        w = np.zeros(3)
    elif kind == "same":
        w = xi.copy()
    elif kind == "projection":
        n = _scaled(1.0, draw(_DIRECTIONS))
        w = (xi @ n) * n
    elif kind == "multiple":
        w = draw(st.floats(0.0, 1.0)) * xi
    else:
        w = _scaled(draw(_NORMS), draw(_DIRECTIONS))
    return xi, w


class TestOneQubitCores:
    """The margins of a two-qubit solve come from the one-qubit solvers' cores."""

    @settings(max_examples=300, deadline=None)
    @given(margin=_margins(), bound=st.integers(2, 8))
    def test_margin_lists_match_the_public_solvers(self, margin, bound):
        xi, w = margin
        with np.errstate(over="ignore"):  # the test's own dispatch; the solvers below run unguarded
            storage, kicks = np.linalg.norm(w) <= ROUNDOFF, 3 if np.linalg.norm(xi) > ROUNDOFF else 0
        try:
            if storage:
                expected = [solve_storage(xi, 0, bound).factors[0]]
            else:
                expected = [solve_single_qubit_gate(xi, TargetSpec(kind="single_qubit", wanted=w), 0, bound).factors[0]]
        except InfeasibleError:
            expected = []
        except DomainError:
            with pytest.raises(DomainError):
                _single_qubit_pulse_lists(xi, w, bound, {})
            return
        lists = _single_qubit_pulse_lists(xi, w, bound, {})
        solved = lists[1:len(lists) - kicks]
        assert len(solved) == len(expected)  # InfeasibleError in exactly the same cases
        for got, want in zip(solved, expected):
            assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("qubit", [5, 2, -1, True, 1.0, "0"], ids=repr)
    def test_qubit_outside_the_generator_rejected(self, qubit):
        gen = EffectiveGenerator(coords=np.random.default_rng(0).normal(size=15), basis=B2)
        with pytest.raises(DomainError, match="qubit"):
            solve_storage(gen, qubit)
        with pytest.raises(DomainError, match="qubit"):
            solve_single_qubit_gate(gen, TargetSpec(kind="single_qubit", wanted=np.zeros(3)), qubit)

    def test_qubit_index_solves_that_qubit(self):
        gen = EffectiveGenerator(coords=np.random.default_rng(0).normal(size=15), basis=B2)
        for qubit in (0, 1, np.int64(1)):
            res = solve_storage(gen, qubit)
            assert res.qubit == qubit and type(res.qubit) is int
            assert np.linalg.norm(modified_vector(res.group, gen.xi[qubit])) < 1e-9
        with pytest.raises(DomainError, match="qubit"):
            solve_storage(np.array([0.0, 0.0, 0.5]), 1)  # a bare 3-vector is qubit 0


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


HEISENBERG_XI = np.zeros((4, 4))
HEISENBERG_XI[3, 0], HEISENBERG_XI[0, 3] = 0.3, 0.2


@pytest.mark.parametrize(
    "solve",
    [
        lambda: solve_storage(np.zeros(3)),
        lambda: solve_storage(np.array([0.1, -0.2, 0.3])),
        lambda: solve_single_qubit_gate(np.array([0.0, 0.0, 0.5]), TargetSpec(kind="single_qubit", wanted=[0.0, 0.0, 0.5])),
        lambda: solve_single_qubit_gate(np.array([0.0, 0.0, 0.5]), TargetSpec(kind="single_qubit", wanted=[0.1, 0.0, 0.1])),
        lambda: solve_two_qubit(HEISENBERG_XI, TargetSpec(kind="two_qubit", wanted=np.eye(3))),
    ],
    ids=["storage-zero", "storage-kick", "gate-trivial", "gate-fan", "two-qubit"],
)
def test_factors_build_the_group(solve):
    res = solve()
    rebuilt = _product_group(res.factors, res.group.delta_t)
    assert rebuilt.size == res.group.size
    assert all(np.array_equal(a, b) for a, b in zip(rebuilt.pulses, res.group.pulses))


class TestCandidateBuilds:
    """``solve_two_qubit`` builds only the group it returns and images only one-qubit pulses, each once per solve."""

    @pytest.fixture
    def counted(self, monkeypatch):
        built, imaged, scored = [], [], []
        post_init, image, average = PulseGroup.__post_init__, bb_synthesis.adjoint_of, bb_synthesis._local_pair_average

        def counting_post_init(group):
            post_init(group)
            built.append(group)

        def counting_image(pulse, basis):
            imaged.append((basis.dim, np.asarray(pulse).tobytes()))
            return image(pulse, basis)

        def counting_average(candidate, xi_pair, images):
            scored.append(candidate)
            return average(candidate, xi_pair, images)

        monkeypatch.setattr(PulseGroup, "__post_init__", counting_post_init)
        monkeypatch.setattr(bb_synthesis, "adjoint_of", counting_image)
        monkeypatch.setattr(bb_synthesis, "_local_pair_average", counting_average)
        return built, imaged, scored

    def test_success_builds_only_the_returned_group(self, counted):
        built, imaged, scored = counted
        wanted = TargetSpec(kind="two_qubit", wanted=np.eye(3)).wanted_vector()
        res = solve_two_qubit(HEISENBERG_XI, TargetSpec(kind="two_qubit", wanted=wanted), max_group_size=4)
        assert built == [res.group] and built[0] is res.group  # the margins build no one-qubit group either
        assert {dim for dim, _ in imaged} == {2}  # one-qubit images only
        assert len(imaged) == len(set(imaged))  # the margins' checks and the scores share them
        assert {p.tobytes() for pulses in res.factors for p in pulses} <= {bits for _, bits in imaged}
        assert 0 < len(scored) < len(list(_two_qubit_candidates(HEISENBERG_XI, wanted, 4, {})))

    def test_infeasible_solve_images_each_distinct_pulse_once(self, counted):
        built, imaged, scored = counted
        xi_pair = np.random.default_rng(0).normal(size=(4, 4))
        wanted = TargetSpec(kind="two_qubit", wanted=np.eye(3)).wanted_vector()
        candidates = list(_two_qubit_candidates(xi_pair, wanted, 4, {}))
        pulses = {p.tobytes() for c in candidates for qubit in c for p in qubit}
        for _ in range(2):  # no image outlives its solve
            imaged.clear()
            scored.clear()
            with pytest.raises(InfeasibleError):
                solve_two_qubit(xi_pair, TargetSpec(kind="two_qubit", wanted=wanted), max_group_size=4)
            assert built == []
            assert len(scored) == 2 * len(candidates)  # both modes tried every candidate
            assert sorted(imaged) == sorted({(2, bits) for bits in pulses})

    @pytest.mark.parametrize("delta_t", [0.0, -1.0, float("nan"), float("inf")], ids=repr)
    def test_bad_spacing_rejected_when_no_candidate_fits(self, delta_t):
        xi_pair = np.random.default_rng(0).normal(size=(4, 4))
        target = TargetSpec(kind="two_qubit", wanted=np.eye(3))
        with pytest.raises(InfeasibleError):
            solve_two_qubit(xi_pair, target, max_group_size=2)
        with pytest.raises(DomainError, match="delta_t"):
            solve_two_qubit(xi_pair, target, max_group_size=2, delta_t=delta_t)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_candidate_list_starts_with_the_identity(self, seed):
        xi_pair = np.random.default_rng(seed).normal(size=(4, 4)) * (seed % 2)
        for wanted in (np.zeros((4, 4)), TargetSpec(kind="two_qubit", wanted=np.eye(3)).wanted_vector()):
            for candidate in _two_qubit_candidates(xi_pair, wanted, 8, {}):
                assert all(np.array_equal(pulses[0], I2) for pulses in candidate)

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 4), min_size=2, max_size=2).filter(lambda n: lcm(*n) <= 8),
           seed=st.integers(0, 2**32 - 1))
    def test_images_and_average_match_the_built_group(self, lengths, seed):
        # reference: the general path, 15x15 images of the built two-qubit products
        rng = np.random.default_rng(seed)
        candidate = [[I2] + [random_unitary(2, rng) for _ in range(n - 1)] for n in lengths]
        group = _product_group(candidate, 0.05)
        xi_pair = rng.normal(size=(4, 4))
        images = {}
        zeroed = xi_pair.copy()
        zeroed[0, 0] = 0.0
        achieved = _local_pair_average(candidate, zeroed, images)
        assert np.linalg.norm(achieved - modified_pair_matrix(group, xi_pair)) <= 1e-14 * np.linalg.norm(xi_pair)
        distinct = {p.tobytes(): p for qubit in candidate for p in qubit}
        assert images.keys() == distinct.keys()
        for key, p in distinct.items():
            assert np.array_equal(images[key], _extend_identity(adjoint_of(p, B1).matrix))
        assert _local_pair_average(candidate, zeroed, images) is not achieved  # a second call reuses the images
        assert images.keys() == distinct.keys()

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
            candidates = list(_two_qubit_candidates(xi_pair, wanted, 8, {}))
            keys = {tuple(np.array(pulses).tobytes() for pulses in pair) for pair in candidates}
            assert len(keys) == len(candidates) == (count or len(candidates))


def _bits(pair):
    return tuple(b"".join(u.tobytes() for u in pulses) for pulses in pair)


def _candidate_list(xi_pair, w_pair, max_group_size):
    """The candidates as a list, built whole: every raw pair within the bound, deduplicated by bits, stably sorted by size."""
    lists_a = _single_qubit_pulse_lists(xi_pair[1:, 0], w_pair[1:, 0], max_group_size, {})
    lists_b = _single_qubit_pulse_lists(xi_pair[0, 1:], w_pair[0, 1:], max_group_size, {})
    pairs = [(pa, pb) for pa in lists_a for pb in lists_b]
    pairs += [*_tailored_kick_products(xi_pair), *_catalogue(2, max_group_size)]
    distinct = {}
    for pair in pairs:
        if lcm(*map(len, pair)) <= max_group_size:
            distinct.setdefault(_bits(pair), pair)
    return sorted(distinct.values(), key=lambda pair: lcm(*map(len, pair)))


@st.composite
def _pair_problems(draw):
    """A sparse random pair matrix at scale 1e-3 .. 1e2, a target for it and a size bound 2 .. 8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 2.0))
    xi_pair = np.where(rng.random((4, 4)) < draw(st.floats(0.0, 1.0)), scale * rng.normal(size=(4, 4)), 0.0)
    kind = draw(st.sampled_from(["storage", "heisenberg", "free", "margins"]))
    w_pair = np.zeros((4, 4))
    if kind == "heisenberg":
        w_pair[1:, 1:] = np.eye(3)
    elif kind == "free":
        w_pair[1:, 1:] = scale * rng.normal(size=(3, 3))
    elif kind == "margins":  # gate margins: fans of every length up to the bound
        w_pair[1:, 0] = rng.uniform(0.0, 1.0) * xi_pair[1:, 0]
        w_pair[0, 1:] = 0.3 * scale * rng.normal(size=3)
    return xi_pair, w_pair, draw(st.integers(2, 8))


class TestCandidateStream:
    """``_two_qubit_candidates`` generates the candidates in order, building each source only when the walk needs it."""

    @settings(max_examples=300, deadline=None)
    @given(problem=_pair_problems())
    def test_drained_stream_equals_the_whole_list(self, problem):
        xi_pair, w_pair, bound = problem
        got = list(_two_qubit_candidates(xi_pair, w_pair, bound, {}))
        assert [_bits(c) for c in got] == [_bits(c) for c in _candidate_list(xi_pair, w_pair, bound)]

    @pytest.fixture
    def tailored_calls(self, monkeypatch):
        calls = []

        def counting(xi_pair):
            calls.append(xi_pair)
            return _tailored_kick_products(xi_pair)

        monkeypatch.setattr(bb_synthesis, "_tailored_kick_products", counting)
        return calls

    def test_acceptance_at_size_two_builds_no_tailored_kick(self, tailored_calls):
        target = TargetSpec(kind="two_qubit", wanted=np.eye(3))
        for bound in (2, 4, 8):
            res = solve_two_qubit(HEISENBERG_XI, target, max_group_size=bound)
            assert res.group.size == 2 and res.mode == "running"
        assert tailored_calls == []
        list(_two_qubit_candidates(HEISENBERG_XI, target.wanted_vector(), 4, {}))  # a drained stream builds them once
        assert len(tailored_calls) == 1

    def test_running_mode_reuses_what_the_direct_mode_drained(self, monkeypatch, tailored_calls):
        xi_pair = np.zeros((4, 4))
        xi_pair[3, 0], xi_pair[0, 3] = 3.0, 2.0  # |xi| > |w|: the direct mode runs first, and no candidate meets it
        target = TargetSpec(kind="two_qubit", wanted=np.eye(3))
        scored, streams = [], []
        average, stream = bb_synthesis._local_pair_average, bb_synthesis._two_qubit_candidates

        def counting_average(candidate, source, images):
            scored.append(candidate)
            return average(candidate, source, images)

        def counting_stream(*args):
            streams.append(args)
            return stream(*args)

        monkeypatch.setattr(bb_synthesis, "_local_pair_average", counting_average)
        monkeypatch.setattr(bb_synthesis, "_two_qubit_candidates", counting_stream)
        res = solve_two_qubit(xi_pair, target, max_group_size=4)
        assert res.mode == "running" and res.group.size == 2
        assert len(streams) == 1 and len(tailored_calls) == 1  # built once, for the direct mode's full walk
        drained = [_bits(c) for c in _candidate_list(xi_pair, target.wanted_vector(), 4)]
        direct, running = scored[:len(drained)], scored[len(drained):]
        assert [_bits(c) for c in direct] == drained
        assert 0 < len(running) < len(direct)
        assert all(a is b for a, b in zip(running, direct))  # the same objects, in the same order
        assert res.factors is running[-1]


class TestCatalogueCache:
    @pytest.mark.parametrize("num_qubits, max_size", [(1, 4), (2, 4), (3, 2)])
    def test_built_once_and_read_only(self, num_qubits, max_size):
        cached = _catalogue(num_qubits, max_size)
        assert _catalogue(num_qubits, max_size) is cached
        pulses = [p for candidate in cached for qubit in candidate for p in qubit]
        assert pulses and not any(p.flags.writeable for p in pulses)
        with pytest.raises(ValueError):
            cached[0][0][1][0, 0] = 0.0

    @pytest.mark.parametrize("max_size", [2, 3, 4, 8])
    def test_keyed_once_sharing_its_pairs(self, max_size):
        keyed = _keyed_catalogue(max_size)
        assert _keyed_catalogue(max_size) is keyed
        assert [pair for _, _, pair in keyed] == list(_catalogue(2, max_size))
        assert all(pair is c for (_, _, pair), c in zip(keyed, _catalogue(2, max_size)))
        assert all(size == lcm(*map(len, pair)) and key == _bits(pair) for size, key, pair in keyed)

    def test_catalogue_winner_cannot_corrupt_it(self):
        rng = np.random.default_rng(2)
        xi_pair = np.where(rng.random((4, 4)) < 0.3, rng.normal(size=(4, 4)), 0.0)
        xi_pair[0, 0] = 0.0
        res = solve_two_qubit(xi_pair, TargetSpec(kind="two_qubit", wanted=np.zeros((4, 4))), max_group_size=4)
        assert any(res.factors is c for c in _catalogue(2, 4))
        with pytest.raises(ValueError):
            res.factors[0][1][0, 0] = 0.0


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

    @pytest.mark.parametrize("scale", [1e200, -3e200, float("inf"), float("nan")])
    def test_overflowing_distance_rejected(self, scale):
        # each coordinate is finite, but the squared norm overflows; or a coordinate is not finite
        with pytest.raises(DomainError, match="finite"):
            error_report(CoordinateVector(np.full(3, scale), B1), CoordinateVector(np.zeros(3), B1))

    @pytest.mark.parametrize("field", ["scalar_distance", "stabilizer_distance"])
    def test_nan_distance_rejected(self, field):
        fields = {"scalar_distance": 1.0, "stabilizer_distance": 0.5, field: float("nan")}
        with pytest.raises(DomainError):
            ErrorReport(error_vector=CoordinateVector(np.zeros(3), B1), **fields)


class TestDistance:
    """``_distance`` reads the Hilbert-Schmidt norm off coordinates; reference: the norm of the rebuilt operator."""

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_matches_the_reconstructed_operator(self, rng, num_qubits):
        basis = build_pauli_basis(num_qubits)
        for scale in (1e-9, 1.0, 1e6):
            coords = scale * rng.normal(size=basis.num_generators)
            op = reconstruct(CoordinateVector(coords, basis))
            want = np.sqrt(np.trace(op.conj().T @ op).real)
            assert abs(_distance(coords, basis.normalization) - want) <= 1e-14 * want

    def test_pair_shaped_coordinates(self, rng):
        m = rng.normal(size=(4, 4))
        m[0, 0] = 0.0
        vec = CoordinateVector(m, B2)
        op = reconstruct(vec)
        want = np.sqrt(np.trace(op.conj().T @ op).real)
        got = error_report(vec, CoordinateVector(np.zeros((4, 4)), B2)).scalar_distance
        assert got == _distance(vec.as_flat(), B2.normalization) and abs(got - want) <= 1e-14 * want

    def test_stack_equals_each_single_vector_bit_for_bit(self, rng):
        stack = rng.normal(size=(5, 63)) * np.logspace(-8, 8, 5)[:, None]
        d = _distance(stack, 8.0)
        assert d.shape == (5,)
        assert all(d[i] == _distance(row, 8.0) for i, row in enumerate(stack))


class TestLargeGenerators:
    @pytest.mark.parametrize("norm", [1e7, 1e8, 1e9])
    def test_storage_bound_scales_with_the_generator(self, rng, norm):
        for xi in [np.array([3e7, 1e7, 2e7]) * norm / 1e7] + [_scaled(norm, rng.normal(size=3)) for _ in range(20)]:
            res = solve_storage(xi)
            assert res.group.size == 2
            assert res.residual.scalar_distance <= 1e-9 * norm
            assert np.array_equal(_single_qubit_pulse_lists(xi, np.zeros(3), 8, {})[1][1], res.factors[0][1])  # the margin's kick

    @pytest.mark.parametrize("value", [1e160, -3e200])
    def test_overflow_raises_domain_error(self, value):
        xi = np.array([value, 0.5 * value, 0.0])
        with pytest.raises(DomainError, match="too large"):
            solve_storage(xi)
        with pytest.raises(DomainError, match="too large"):
            solve_single_qubit_gate(xi, TargetSpec(kind="single_qubit", wanted=[0.0, 0.0, 0.1]))
        with pytest.raises(DomainError, match="too large"):
            solve_single_qubit_gate(np.array([0.0, 0.0, 0.5]), TargetSpec(kind="single_qubit", wanted=xi))
        xi_pair = np.zeros((4, 4))
        xi_pair[1:, 0] = xi
        for wanted in (np.zeros((4, 4)), np.eye(3)):
            with pytest.raises(DomainError, match="too large"):
                solve_two_qubit(xi_pair, TargetSpec(kind="two_qubit", wanted=wanted))
            with pytest.raises(DomainError, match="too large"):
                solve_two_qubit(xi_pair.T, TargetSpec(kind="two_qubit", wanted=wanted))


@pytest.mark.parametrize("entry", [0.5, -1e-300])
def test_two_qubit_target_identity_entry_rejected(entry):
    wanted = np.eye(4)
    wanted[0, 0] = entry
    with pytest.raises(DomainError, match=r"\[0, 0\]"):
        TargetSpec(kind="two_qubit", wanted=wanted)
    wanted[0, 0] = 0.0
    assert TargetSpec(kind="two_qubit", wanted=wanted).wanted[0, 0] == 0.0


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
            delta = reconstruct(vec)
            c = np.trace(zz @ delta).real / np.trace(zz @ zz).real
            resid = delta - c * zz
            want = np.sqrt(np.trace(resid.conj().T @ resid).real)
            assert abs(rep.stabilizer_distance - want) < 1e-10

    def test_generators_with_a_trace_against_dense_least_squares(self, rng):
        # oracle: least squares over the flattened operators, identity parts included
        gens = (np.eye(4) + np.kron(SZ, SZ), np.kron(SX, SX) + 0.5 * np.eye(4))
        t = TargetSpec(kind="encoded", wanted=np.zeros(15), stabilizer=StabilizerSpace(generators=gens))
        for _ in range(20):
            vec = CoordinateVector(rng.normal(size=15), B2)
            delta = reconstruct(vec)
            cols = np.array([g.ravel() for g in gens]).T
            coeffs, *_ = np.linalg.lstsq(cols, delta.ravel(), rcond=None)
            want = np.linalg.norm(delta.ravel() - cols @ coeffs)
            assert abs(check_encoded(vec, t).stabilizer_distance - want) < 1e-12

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


class TestPairChecked:
    """``pair`` is checked as the one-qubit solvers check ``qubit``."""

    @pytest.mark.parametrize("pair", [(0.0, 1), (1, 0), (0, 0), (-1, 1), (True, 1), (0, False), (0, 2), (0,), (0, 1, 2), 5, "01"],
                             ids=repr)
    def test_bad_pair_rejected(self, pair):
        gen = EffectiveGenerator(coords=np.random.default_rng(0).normal(size=15), basis=B2)
        target = TargetSpec(kind="two_qubit", wanted=np.eye(3))
        for generator in (gen, gen.pair_matrix(0, 1)):
            if generator is not gen and pair == (0, 2):
                continue  # a bare pair matrix does not know its qubit count
            with pytest.raises(DomainError, match="pair"):
                solve_two_qubit(generator, target, pair)
        if isinstance(pair, tuple) and len(pair) == 2:
            with pytest.raises(DomainError, match="pair"):
                gen.pair_matrix(*pair)

    def test_pair_recorded_as_ints(self):
        gen = EffectiveGenerator(coords=np.random.default_rng(0).normal(size=63), basis=build_pauli_basis(3))
        target = TargetSpec(kind="two_qubit", wanted=gen.pair_matrix(1, 2))  # met by the trivial pair
        res = solve_two_qubit(gen, target, (np.int64(1), 2))
        assert res.pair == (1, 2) and all(type(q) is int for q in res.pair)
        assert solve_two_qubit(gen.pair_matrix(1, 2), target, [7, 9]).to_dict()["pair"] == [7, 9]  # only the order is known
        with pytest.raises(DomainError, match="pair"):
            solve_two_qubit(gen, target, (1, 3))


class TestNonFiniteGenerators:
    """Non-finite coordinates raise ``DomainError`` where they enter, before any arithmetic warns."""

    @NON_FINITE
    def test_effective_generator_rejects(self, value):
        coords = np.zeros(15)
        coords[4] = value
        with pytest.raises(DomainError, match="finite"):
            EffectiveGenerator(coords=coords, basis=B2)

    @NON_FINITE
    def test_one_qubit_solvers_reject(self, value):
        xi = np.array([value, 0.0, 0.0])
        with pytest.raises(DomainError, match="finite"):
            solve_storage(xi)
        with pytest.raises(DomainError, match="finite"):
            solve_single_qubit_gate(xi, TargetSpec(kind="single_qubit", wanted=[0.0, 0.0, 0.1]))

    @NON_FINITE
    @pytest.mark.parametrize("where", ["all", "margin", "block"])
    def test_two_qubit_solver_rejects(self, value, where):
        xi_pair = np.full((4, 4), value) if where == "all" else np.zeros((4, 4))
        xi_pair[(1, 0) if where == "margin" else (2, 3) if where == "block" else (0, 0)] = value
        for wanted in (np.zeros((4, 4)), np.eye(3)):
            with pytest.raises(DomainError, match="finite"):
                solve_two_qubit(xi_pair, TargetSpec(kind="two_qubit", wanted=wanted))
