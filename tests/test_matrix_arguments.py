"""Every matrix and vector argument of the library, malformed in each way: a wrong shape raises ``ShapeError``, an infinite entry ``DomainError``.

Each site is a builder that passes its one argument as the matrix under
test, with a valid value of that argument.  The malformed values are
derived from the valid one; the session's warnings-as-errors setting turns
a ``RuntimeWarning`` on the way to the error into a failure.
"""

import numpy as np
import pytest

from bbforge.bb_synthesis import StabilizerSpace, TargetSpec, group_to_pulses, modified_pair_matrix, solve_two_qubit
from bbforge.errors import DomainError, ShapeError
from bbforge.open_system_sim import Coupling, DensityMatrix, KrausSet, PulseGroup, SystemBathModel, symmetrize_hamiltonian
from bbforge.operator_algebra import (
    AdjointRotation,
    AxisAngle,
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
}
STACKS = ("OperatorBasis", "KrausSet", "PulseGroup")


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


@pytest.mark.parametrize("psi", [[1, [0, 1]], [], [[1, 0]], 1.0, ["x", 0]], ids=["ragged", "empty", "2-D", "scalar", "non-numeric"])
def test_state_vector_shape(psi):
    with pytest.raises(ShapeError, match="1-D vector"):
        DensityMatrix.from_state_vector(psi)


@pytest.mark.parametrize("psi", [[0, 0], [np.inf, 0], [np.nan, 1], [1e300, 1e300]], ids=["zero", "inf", "nan", "overflowing"])
def test_state_vector_norm(psi):
    with pytest.raises(DomainError, match="norm"):
        DensityMatrix.from_state_vector(psi)


# vector site: (builder of the vector argument, its valid value)
VECTOR_SITES = {
    "axis_angle_unitary": (lambda v: axis_angle_unitary(v, 0.3), [1.0, 0.0, 0.0]),
    "axis_angle_rotation": (lambda v: axis_angle_rotation(v, 0.3), [1.0, 0.0, 0.0]),
    "AxisAngle": (lambda v: AxisAngle(axis=v, angle=0.3), [1.0, 0.0, 0.0]),
    "TargetSpec-single_qubit": (lambda v: TargetSpec(kind="single_qubit", wanted=v), [1.0, 2.0, 4.0]),
    "EffectiveGenerator": (lambda v: EffectiveGenerator(v, BASIS_1Q), [1.0, 2.0, 3.0]),
}
MALFORMED_VECTORS = {
    "ragged": lambda valid: [valid[0], valid[1:], valid[-1]],
    "non-numeric": lambda valid: ["x", *valid[1:]],
    "2-D": lambda valid: [valid],
    "scalar": lambda valid: valid[0],
    "wrong-length": lambda valid: [*valid, 0.0],
}


@pytest.mark.parametrize("site", VECTOR_SITES)
def test_valid_vector_passes_the_shape_check(site):
    build, valid = VECTOR_SITES[site]
    build(valid)


@pytest.mark.parametrize("kind", MALFORMED_VECTORS)
@pytest.mark.parametrize("site", VECTOR_SITES)
def test_malformed_vector_raises_shape_error(site, kind):
    build, valid = VECTOR_SITES[site]
    with pytest.raises(ShapeError):
        build(MALFORMED_VECTORS[kind](valid))
