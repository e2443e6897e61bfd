"""Empirical determination of bang-bang decoupling pulses.

Pipeline: simulate an open system, reconstruct its process matrix by
tomography, extract the short-time effective generator, solve the
averaged-rotation conditions for a pulse set, convert rotations back to
unitaries, verify by re-simulation, and optionally optimize with an offline
learning loop.
"""

from .bb_synthesis import (
    ErrorReport,
    StabilizerSpace,
    SynthesisResult,
    TargetSpec,
    check_encoded,
    error_report,
    group_to_pulses,
    parity_kick_group,
    solve_single_qubit_gate,
    solve_storage,
    solve_two_qubit,
)
from .errors import (
    BBForgeError,
    CapacityError,
    DegenerateTimeError,
    DomainError,
    InconsistencyError,
    InfeasibleError,
    InfeasibleMagnitudeError,
    NonRepresentableError,
    ShapeError,
)
from .open_system_sim import (
    Coupling,
    DensityMatrix,
    KrausSet,
    PulseGroup,
    SystemBathModel,
    apply_bb_cycle,
    kraus_from_model,
    model_from_dict,
    model_to_dict,
    propagate,
    reduced_state,
    symmetrize_hamiltonian,
)
from .operator_algebra import (
    AdjointRotation,
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
from .optimizer import (
    CostFunction,
    GenerationRecord,
    LearningLoopConfig,
    enumerate_candidate_groups,
    evaluate_cost,
    learning_loop,
)
from .tomography import (
    ChiMatrix,
    EffectiveGenerator,
    TomographyData,
    chi_from_lambda,
    extract_generator,
    run_qpt,
)

__version__ = "0.1.0"
