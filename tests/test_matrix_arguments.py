"""Every matrix, vector and state argument of the library, malformed in each way.

A wrong shape raises ``ShapeError``; an infinite entry, a non-finite vector
entry and an imaginary part where a real value is expected raise
``DomainError``.  Each site is a builder that passes its one argument as the
value under test, with a valid value of that argument.  The malformed
values are derived from the valid one; the session's warnings-as-errors
setting turns a ``RuntimeWarning`` or ``ComplexWarning`` on the way to the
error into a failure.
"""

import numpy as np
import pytest

from bbforge.bb_synthesis import (
    StabilizerSpace,
    TargetSpec,
    axis_orthogonal_to,
    group_to_pulses,
    modified_pair_matrix,
    modified_vector,
    solve_single_qubit_gate,
    solve_storage,
    solve_two_qubit,
)
from bbforge.errors import DomainError, ShapeError
from bbforge.open_system_sim import (
    Coupling,
    DensityMatrix,
    KrausSet,
    PulseGroup,
    SystemBathModel,
    apply_bb_cycle,
    reduced_state,
    symmetrize_hamiltonian,
)
from bbforge.operator_algebra import (
    AdjointRotation,
    AxisAngle,
    CoordinateVector,
    OperatorBasis,
    adjoint_of,
    axis_angle_rotation,
    axis_angle_unitary,
    build_pauli_basis,
    expand,
    unitary_from_rotation,
)
from bbforge.tomography import ChiMatrix, EffectiveGenerator, TomographyData

from conftest import I2, SX, SZ

BASIS_1Q = build_pauli_basis(1)
GROUP_1Q = PulseGroup.from_pulses([I2, 1j * SX], 0.1)
GROUP_2Q = PulseGroup.from_pulses([np.eye(4)], 0.1)
HEISENBERG = TargetSpec(kind="two_qubit", wanted=np.eye(3))
NO_BATH = np.zeros((1, 1))
MODEL_1Q = SystemBathModel(SZ, SZ, couplings=(Coupling(system=SZ, bath=SX),))

# site: (builder of the matrix argument, a valid value, whether the argument has a fixed dimension, whether an infinite entry fails a value check)
SITES = {
    "OperatorBasis": (lambda m: OperatorBasis(elements=m), BASIS_1Q.elements, False, True),
    "AdjointRotation": (lambda m: AdjointRotation(matrix=m, source_dim=2), np.eye(3), True, True),
    "expand": (lambda m: expand(m, BASIS_1Q), SZ, True, True),
    "adjoint_of": (lambda m: adjoint_of(m, BASIS_1Q), I2, True, True),
    "unitary_from_rotation": (unitary_from_rotation, np.eye(3), True, True),
    "DensityMatrix": (DensityMatrix, I2 / 2, False, True),
    "Coupling-system": (lambda m: Coupling(system=m, bath=SX), SZ, False, True),
    "Coupling-bath": (lambda m: Coupling(system=SZ, bath=m), SX, False, True),
    "model-system_hamiltonian": (lambda m: SystemBathModel(system_hamiltonian=m, bath_hamiltonian=NO_BATH), SZ, False, True),
    "model-bath_hamiltonian": (lambda m: SystemBathModel(system_hamiltonian=SZ, bath_hamiltonian=m), SZ, False, True),
    "model-bath_initial": (lambda m: SystemBathModel(system_hamiltonian=SZ, bath_hamiltonian=SZ, bath_initial=m), I2 / 2, True, True),
    "model-coupling-system": (lambda m: SystemBathModel(SZ, SZ, couplings=(Coupling(system=m, bath=SX),)), SZ, True, True),
    "model-coupling-bath": (lambda m: SystemBathModel(SZ, SZ, couplings=(Coupling(system=SZ, bath=m),)), SX, True, True),
    "KrausSet": (lambda m: KrausSet(operators=m), np.array([I2, SZ]) / np.sqrt(2), False, True),
    "PulseGroup": (lambda m: PulseGroup.from_pulses(m, 0.1), np.array([I2, 1j * SX]), False, True),
    "symmetrize_hamiltonian": (lambda m: symmetrize_hamiltonian(m, GROUP_1Q), SZ, True, True),
    "TomographyData": (lambda m: TomographyData(lam=m, basis=BASIS_1Q), np.eye(4), True, True),
    "ChiMatrix": (lambda m: ChiMatrix(entries=m, time_tag=None, basis=BASIS_1Q), np.diag([1.0, 0, 0, 0]), True, True),
    "TargetSpec": (lambda m: TargetSpec(kind="two_qubit", wanted=m), np.diag([0.0, 1, 1, 1]), True, True),
    "modified_pair_matrix": (lambda m: modified_pair_matrix(GROUP_2Q, m), np.diag([0.0, 1, 1, 1]), True, False),
    "solve_two_qubit": (lambda m: solve_two_qubit(m, HEISENBERG, max_group_size=4), np.diag([0.0, 1, 1, 1]), True, True),
    "group_to_pulses": (lambda m: group_to_pulses([m], 2), np.eye(3), True, True),
    "StabilizerSpace": (lambda m: StabilizerSpace(generators=(m,)), SZ, False, True),
    "CoordinateVector-pair": (lambda m: CoordinateVector(m, build_pauli_basis(2)), np.diag([0.0, 1, 1, 1]), True, True),
}
STACKS = ("OperatorBasis", "KrausSet", "PulseGroup")
# the sites whose matrix is real: an imaginary part past round-off is refused, one within it dropped
REAL = ("AdjointRotation", "unitary_from_rotation", "TargetSpec", "modified_pair_matrix", "solve_two_qubit", "group_to_pulses",
        "CoordinateVector-pair")


def _ragged(valid):
    return [*valid[:-1], valid[-1][:-1]]  # the last row, or the last matrix of a stack, one row short


MALFORMED = {
    "ragged": _ragged,
    "non-numeric": lambda valid: np.full(valid.shape, "x"),
    "1-D": np.ravel,
    "non-square": lambda valid: valid[..., :-1],
    "wrong-dimension": lambda valid: np.pad(valid, [(0, 0)] * (valid.ndim - 2) + [(0, 1), (0, 1)]),
    "empty-stack": lambda valid: valid[:0],
}
SHAPE_CASES = [
    (site, kind)
    for site, (_, _, fixed_dim, _) in SITES.items()
    for kind in MALFORMED
    if (kind != "wrong-dimension" or fixed_dim) and (kind != "empty-stack" or site in STACKS)
]


@pytest.mark.parametrize("site", SITES)
def test_valid_value_passes_the_shape_check(site):
    build, valid, _, _ = SITES[site]
    build(valid)


@pytest.mark.parametrize("site,kind", SHAPE_CASES, ids=[f"{s}-{k}" for s, k in SHAPE_CASES])
def test_malformed_matrix_raises_shape_error(site, kind):
    build, valid, _, _ = SITES[site]
    with pytest.raises(ShapeError):
        build(MALFORMED[kind](valid))


@pytest.mark.parametrize("site", [s for s, (*_, checked) in SITES.items() if checked])
def test_infinite_entry_raises_domain_error(site):
    build, valid, _, _ = SITES[site]
    bad = np.array(valid, dtype=complex if np.iscomplexobj(valid) else float)
    bad[(-1,) * bad.ndim] = np.inf
    with pytest.raises(DomainError):
        build(bad)


@pytest.mark.parametrize("site", REAL)
def test_real_matrix_refuses_an_imaginary_part(site):
    build, valid, _, _ = SITES[site]
    build(np.asarray(valid) + 1e-14j)  # round-off: the real part is kept
    with pytest.raises(DomainError, match="real"):
        build(np.asarray(valid) * (1 + 1e-3j))


@pytest.mark.parametrize("psi", [[1, [0, 1]], [], [[1, 0]], 1.0, ["x", 0]], ids=["ragged", "empty", "2-D", "scalar", "non-numeric"])
def test_state_vector_shape(psi):
    with pytest.raises(ShapeError, match="1-D vector"):
        DensityMatrix.from_state_vector(psi)


@pytest.mark.parametrize("psi", [[0, 0], [np.inf, 0], [np.nan, 1], [1e300, 1e300]], ids=["zero", "inf", "nan", "overflowing"])
def test_state_vector_norm(psi):
    with pytest.raises(DomainError, match="norm"):
        DensityMatrix.from_state_vector(psi)


# vector site: (builder of the vector argument, its valid value, whether its length is fixed)
VECTOR_SITES = {
    "axis_angle_unitary": (lambda v: axis_angle_unitary(v, 0.3), [1.0, 0.0, 0.0], True),
    "axis_angle_rotation": (lambda v: axis_angle_rotation(v, 0.3), [1.0, 0.0, 0.0], True),
    "AxisAngle": (lambda v: AxisAngle(axis=v, angle=0.3), [1.0, 0.0, 0.0], True),
    "TargetSpec-single_qubit": (lambda v: TargetSpec(kind="single_qubit", wanted=v), [1.0, 2.0, 4.0], True),
    "TargetSpec-storage": (lambda v: TargetSpec(kind="storage", wanted=v), [0.0, 0.0, 0.0], False),
    "TargetSpec-encoded": (lambda v: TargetSpec(kind="encoded", wanted=v), [1.0, 2.0, 4.0], False),
    "EffectiveGenerator": (lambda v: EffectiveGenerator(v, BASIS_1Q), [1.0, 2.0, 3.0], True),
    "CoordinateVector": (lambda v: CoordinateVector(v, BASIS_1Q), [1.0, 2.0, 3.0], True),
    "solve_storage": (solve_storage, [1.0, 2.0, 4.0], True),
    "solve_single_qubit_gate": (lambda v: solve_single_qubit_gate(v, TargetSpec(kind="single_qubit", wanted=[0.0, 0.0, 0.1])), [1.0, 2.0, 4.0], True),
    "axis_orthogonal_to": (lambda v: axis_orthogonal_to([v]), [1.0, 2.0, 4.0], True),
    "modified_vector": (lambda v: modified_vector(GROUP_1Q, v), [1.0, 2.0, 4.0], True),
}
MALFORMED_VECTORS = {
    "ragged": lambda valid: [valid[0], valid[1:], valid[-1]],
    "non-numeric": lambda valid: ["x", *valid[1:]],
    "2-D": lambda valid: [valid],
    "scalar": lambda valid: valid[0],
    "wrong-length": lambda valid: [*valid, 0.0],
    "short": lambda valid: valid[:-1],
}
VECTOR_CASES = [
    (site, kind)
    for site, (_, _, fixed_length) in VECTOR_SITES.items()
    for kind in MALFORMED_VECTORS
    if fixed_length or kind not in ("wrong-length", "short")
]


@pytest.mark.parametrize("site", VECTOR_SITES)
def test_valid_vector_passes_the_shape_check(site):
    build, valid, _ = VECTOR_SITES[site]
    build(valid)


@pytest.mark.parametrize("site,kind", VECTOR_CASES, ids=[f"{s}-{k}" for s, k in VECTOR_CASES])
def test_malformed_vector_raises_shape_error(site, kind):
    build, valid, _ = VECTOR_SITES[site]
    with pytest.raises(ShapeError):
        build(MALFORMED_VECTORS[kind](valid))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("site", VECTOR_SITES)
def test_non_finite_vector_raises_domain_error(site, value):
    build, valid, _ = VECTOR_SITES[site]
    with pytest.raises(DomainError, match="finite"):
        build([value, *valid[1:]])


@pytest.mark.parametrize("site", VECTOR_SITES)
def test_real_vector_refuses_an_imaginary_part(site):
    build, valid, _ = VECTOR_SITES[site]
    build(np.asarray(valid) + 1e-14j)  # round-off: the real part is kept
    with pytest.raises(DomainError, match="real"):
        build(np.asarray(valid) * (1 + 1e-3j) + 1e-3j)


# channel site: a channel of one system qubit, given the state under test
CHANNEL_SITES = {
    "reduced_state": lambda rho: reduced_state(MODEL_1Q, rho, 0.1),
    "apply_bb_cycle": lambda rho: apply_bb_cycle(MODEL_1Q, GROUP_1Q, 1, rho),
    "KrausSet.apply": KrausSet(operators=np.array([I2, SZ]) / np.sqrt(2)).apply,
    "ChiMatrix.apply": ChiMatrix(entries=np.diag([1.0, 0, 0, 0]), time_tag=None, basis=BASIS_1Q).apply,
}
MALFORMED_STATES = {
    "ragged": [[0.5, 0.0], [0.0]],
    "non-numeric": np.full((2, 2), "x"),
    "wrong-dimension": np.eye(3) / 3,
    "non-square": np.ones((2, 3)) / 2,
    "1-D": np.ones(2) / 2,
    "scalar": 0.5,
}


@pytest.mark.parametrize("site", CHANNEL_SITES)
def test_valid_state_passes_the_shape_check(site):
    channel = CHANNEL_SITES[site]
    want = channel(I2 / 2)
    got = channel(DensityMatrix(I2 / 2))
    assert np.array_equal(getattr(got, "matrix", got), getattr(want, "matrix", want))


@pytest.mark.parametrize("kind", MALFORMED_STATES)
@pytest.mark.parametrize("site", CHANNEL_SITES)
def test_malformed_state_raises_shape_error(site, kind):
    with pytest.raises(ShapeError, match="initial state dimension does not match the system"):
        CHANNEL_SITES[site](MALFORMED_STATES[kind])
