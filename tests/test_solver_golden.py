"""Bit-exact digests of seeded two-qubit solves and of the two-qubit catalogue.

The solver digest pins every bit of what ``solve_two_qubit`` returns or
raises over seeded pair matrices, targets and size bounds: the mode, the
pulses, the residual, and ``best_residual`` when no candidate reaches the
target.  Any change to the candidates, their order or the mode order shows
here.  Both digests were computed with the solver that built every
candidate's pulse group before trying any, and the solver that builds each
group only when it is tried must give them too.  The solver digest was
re-taken when candidates began to be scored per qubit, as
``mean_k Ra_k^T X Rb_k`` from one-qubit images, and distances read off
coordinates: every outcome kept its mode, pulses and accept/reject, and 20
of the 176 moved by at most 2.3e-16.  Float bits depend on the
numpy build; they were taken with numpy 2.4.6 and its bundled OpenBLAS on
x86-64.
"""

import hashlib

import numpy as np

from bbforge.bb_synthesis import TargetSpec, solve_two_qubit
from bbforge.errors import InfeasibleError
from bbforge.optimizer import enumerate_candidate_groups

SIZE_BOUNDS = (2, 3, 4, 6)

TARGETS = {
    "pair-storage": np.zeros((4, 4)),
    "heisenberg": np.eye(3),
    "zz": np.diag([0.0, 0.0, 1.0]),
    "margin-and-block": np.array([[0, 0, 0, 0.1], [0, 0, 0, 0], [0, 0, 0, 0], [0.1, 0, 0, 0.2]]),
}


def pair_matrix(family: str, seed: int) -> np.ndarray:
    """A seeded pair matrix: Z dephasing with ZZ, sparse random or dense random."""
    rng = np.random.default_rng(seed)
    if family == "dephasing":
        m = np.zeros((4, 4))
        m[3, 0], m[0, 3], m[3, 3] = rng.normal(size=3)
    elif family == "sparse":
        m = np.where(rng.random((4, 4)) < 0.3, rng.normal(size=(4, 4)), 0.0)
    else:
        m = rng.normal(size=(4, 4))
    m[0, 0] = 0.0
    return m


# The sparse seeds are ones where putting the catalogue before the tailored
# kicks changes the first pulse set found, so the digest pins that order.
MATRICES = (
    [np.zeros((4, 4))]
    + [pair_matrix("dephasing", seed) for seed in range(4)]
    + [pair_matrix("sparse", seed) for seed in (5, 14, 24, 27)]
    + [pair_matrix("dense", seed) for seed in range(2)]
)


def solve_outcomes():
    """Every seeded solve as (case id, SynthesisResult or InfeasibleError)."""
    for k, xi_pair in enumerate(MATRICES):
        for name, wanted in TARGETS.items():
            target = TargetSpec(kind="two_qubit", wanted=wanted)
            for bound in SIZE_BOUNDS:
                try:
                    outcome = solve_two_qubit(xi_pair, target, max_group_size=bound, delta_t=0.05)
                except InfeasibleError as exc:
                    outcome = exc
                yield f"{k}/{name}/{bound}", outcome


def outcomes_digest() -> str:
    h = hashlib.sha256()
    for case, outcome in solve_outcomes():
        h.update(case.encode())
        if isinstance(outcome, InfeasibleError):
            h.update(b"infeasible")
            h.update(np.float64(outcome.best_residual).tobytes())
            continue
        h.update(outcome.mode.encode())
        h.update(np.array([outcome.group.delta_t, outcome.residual.scalar_distance]).tobytes())
        h.update(np.asarray(outcome.residual.error_vector.coords).tobytes())
        for p in outcome.group.pulses:
            h.update(p.tobytes())
    return h.hexdigest()


def catalogue_digest() -> str:
    h = hashlib.sha256()
    for bound in (2, 3, 4, 8):
        for group in enumerate_candidate_groups(4, bound, delta_t=0.05):
            h.update(np.int64(group.size).tobytes())
            for p in group.pulses:
                h.update(p.tobytes())
    return h.hexdigest()


SOLVER_DIGEST = "07f49751647f3c8c005964b47830c610e2bf9bae493f34c8bb1622be5c5bedf4"
CATALOGUE_DIGEST = "96b939076c821da34a51c4f546f55ad538582931ac01c40acc165592e74783b8"


def test_seeded_two_qubit_solves_are_pinned():
    assert outcomes_digest() == SOLVER_DIGEST


def test_two_qubit_catalogue_is_pinned():
    assert catalogue_digest() == CATALOGUE_DIGEST
