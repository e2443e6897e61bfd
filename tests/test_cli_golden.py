"""Byte-exact digests of every artifact the five subcommands write.

Two fixed configs, a one-qubit storage experiment and a two-qubit
Heisenberg experiment, each with one bath qubit, run through ``simulate``,
``tomography``, ``synthesize``, ``verify`` and ``optimize`` in that order
(``verify`` reads the group ``synthesize`` wrote).  Artifacts carry floats
at 17 significant digits, so any change to the pipeline's arithmetic shows
here.  Four digests were re-taken when chi's trace-preservation residual
began to be read off ``lam``, distances off coordinates and two-qubit
candidates scored from one-qubit images: both ``chi.json`` files (the
``residual`` field), ``storage-1q``'s ``generations.csv`` (one residual
distance, last digit) and ``heisenberg-2q``'s ``synthesis.json`` (one
round-off entry of the error vector).  Every other value, pulse and
artifact stayed as it was.  Three were re-taken when the matrix-unit
responses began to be recombined by one matmul and the cycle propagator
stopped building ``g (x) I_B``: both ``chi.json`` files (``storage-1q``'s
``skew_norm`` 0 -> 6.4e-20, ``heisenberg-2q``'s ``skew_norm`` and
``residual`` in their last digits; every chi entry bit for bit) and
``storage-1q``'s ``generations.csv`` (``mean_J`` in the last two digits;
``best_J`` bit for bit).  Float bits depend on the numpy build; the
digests were taken with numpy 2.4.6 and its bundled OpenBLAS on x86-64.
"""

import hashlib
import json

import numpy as np
import pytest

from bbforge.cli import main
from bbforge.open_system_sim import Coupling, SystemBathModel, model_to_dict

from conftest import SX, SZ, on_qubit

SUBCOMMANDS = {
    "simulate": ("trajectory.csv",),
    "tomography": ("chi.json",),
    "synthesize": ("synthesis.json",),
    "verify": ("verify.json",),
    "optimize": ("generations.csv", "best_group.json"),
}
RUN_SECTIONS = {
    "simulate": {"time_max": 1.0, "steps": 20},
    "synthesis": {"max_group_size": 4, "delta_t": 0.05},
    "verify": {"group_path": "out/synthesis.json", "total_time": 1.0},
}
PLUS_I = np.outer([1, 1j], [1, -1j]) / 2


def storage_1q() -> dict:
    model = SystemBathModel(
        system_hamiltonian=0.35 * SZ,
        bath_hamiltonian=0.45 * SZ,
        couplings=(Coupling(system=0.12 * SZ, bath=SX, name="zx"),),
        bath_initial=PLUS_I,
    )
    return {
        "model": model_to_dict(model),
        "probe_time": 0.01,
        "target": {"kind": "storage"},
        **RUN_SECTIONS,
        "loop": {"population": 8, "generations": 3, "tolerance": 0.0, "seed": 11},
    }


def heisenberg_2q() -> dict:
    model = SystemBathModel(
        system_hamiltonian=0.3 * on_qubit(SZ, 0, 2) + 0.2 * on_qubit(SZ, 1, 2),
        bath_hamiltonian=0.5 * SZ,
        couplings=(
            Coupling(system=0.1 * on_qubit(SZ, 0, 2), bath=SX, name="z1x"),
            Coupling(system=0.15 * on_qubit(SZ, 1, 2), bath=SX, name="z2x"),
        ),
        bath_initial=PLUS_I,
    )
    return {
        "model": model_to_dict(model),
        "probe_time": 0.01,
        "target": {"kind": "two_qubit", "wanted": np.eye(3).tolist()},
        **RUN_SECTIONS,
        "loop": {"population": 6, "generations": 2, "tolerance": 0.0, "seed": 5},
    }


# config: {artifact: sha256}
GOLDEN = {
    "storage-1q": {
        "best_group.json": "c3096739244cf68a587e75f1622a3f692f74be25be94dabfc9ecf1044c4778aa",
        "chi.json": "907ce90ebbcd1abd3e36830ac0ae953427574d278b9bef842ba89f236a0c70e7",
        "generations.csv": "cc6cbb26fc64412d36646373756c74984fee7e4cdc7f4b42f842d4e98d734289",
        "synthesis.json": "83aea058e3d79743b11a5ed25934e8a9ca81076a9a6efc9aebfb666f87fdc322",
        "trajectory.csv": "136be6af0d94669ab245f5030421ca6a44df909b3506621c366389b6fc8eb677",
        "verify.json": "bbd5962f9f12d366f416ecfe2b8a988fec50ddc398e24e5af598608903613cb0",
    },
    "heisenberg-2q": {
        "best_group.json": "12e7f9cbb864036101dc9dbd1bb7a7e78a5df144158489697d96b355aeeb1949",
        "chi.json": "bed5d5ecae1e8ba1f3e01c4d7040b57332864d1ef397de43f0529c03c7f2fcc6",
        "generations.csv": "4217c5b1041fc5bbcf35b018813ad79c922a09216eeb0835acd35a7cfe3ee46f",
        "synthesis.json": "b1477f3cc343b771706abbbca92a92bbe7864b411ee566725230a59f5ccf22e6",
        "trajectory.csv": "f54c1a9885657012ff56fe8acf171758f7c2f530e1a10a4ce3ce132ce8326501",
        "verify.json": "604a6e750d4239402effd2896557dfd02a4e22ec8d6e1c9289f2bad5f2b34600",
    },
}
CONFIGS = {"storage-1q": storage_1q, "heisenberg-2q": heisenberg_2q}


def artifact_digests(tmp_path, config: dict) -> dict:
    """Run every subcommand on ``config`` in ``tmp_path``; the sha256 of each artifact they write."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    digests = {}
    for sub, artifacts in SUBCOMMANDS.items():
        code = main(["--config", str(path), "--out", str(out), sub])
        assert code == (4 if sub == "optimize" else 0), sub  # tolerance 0 runs out the loop budget
        for name in artifacts:
            digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_artifacts_are_pinned(tmp_path, case):
    assert artifact_digests(tmp_path, CONFIGS[case]()) == GOLDEN[case]
