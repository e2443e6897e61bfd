"""Self-test of the benchmark: minimal runs complete and every check fires."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from checks import (  # noqa: E402
    artifact_problems,
    chi_problems,
    digest_problems,
    loop_problems,
    synthesis_problems,
)
from tracer import Tracer  # noqa: E402
from worker import E2E_METRICS, LAYER_METRICS, timed_run, traced_run  # noqa: E402
from workloads import SUBCOMMANDS, SX, SZ, CliWorkload, LoopWorkload, PipelineWorkload  # noqa: E402

import bbforge  # noqa: E402
from bbforge import cli, open_system_sim, optimizer, tomography  # noqa: E402


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s": "s", **E2E_METRICS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS


def _assert_clean(samples):
    assert samples
    assert [p for s in samples for p in s.problems] == []


@pytest.mark.parametrize("system_qubits, bath_qubits", [(1, 2), (2, 1)])
def test_minimal_loop_run(system_qubits, bath_qubits):
    wl = LoopWorkload("loop", 5, system_qubits, bath_qubits, generations=1, trace_ops=1)
    samples, metrics, own = timed_run(wl, seconds=0.0, min_ops=1)
    _assert_clean(samples)
    assert set(metrics) == set(E2E_METRICS)
    assert own["best_cost"][0] > 0


def test_minimal_pipeline_run():
    samples, metrics, own = timed_run(PipelineWorkload(5), seconds=0.0, min_ops=1)
    _assert_clean(samples)
    assert 0 < own["pulsed_error_p50"][0] < 1


def test_minimal_cli_run(tmp_path):
    wl = CliWorkload(5, BENCH.parent, tmp_path)
    wl.commands = wl.commands[: len(SUBCOMMANDS)]
    samples, metrics, own = timed_run(wl, seconds=0.0, min_ops=2 * len(SUBCOMMANDS))
    _assert_clean(samples)
    assert own["cli_pass_s"][0] > 0


def test_minimal_traced_run_sees_every_expected_span():
    wl = LoopWorkload("loop", 5, 1, 2, generations=1, trace_ops=1)
    samples, metrics, silent = traced_run(wl, ops=1)
    _assert_clean(samples)
    assert silent == []
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["optimizer.evaluate_cost.calls"]["value"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop-1q", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_patches_every_namespace_and_restores():
    original = tomography.run_qpt
    original_init = vars(open_system_sim.PulseGroup)["__init__"]
    with Tracer():
        wrapped = tomography.run_qpt
        assert wrapped is not original
        assert optimizer.run_qpt is wrapped
        assert cli.run_qpt is wrapped
        assert bbforge.run_qpt is wrapped
        assert vars(open_system_sim.PulseGroup)["__init__"] is not original_init
    assert tomography.run_qpt is original
    assert optimizer.run_qpt is original
    assert cli.run_qpt is original
    assert bbforge.run_qpt is original
    assert vars(open_system_sim.PulseGroup)["__init__"] is original_init


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1), ("b", 2.0, 5.0, 0), ("b", 6.0, 7.0, 0)]
    spans = tracer.summary()["spans"]
    assert spans["a"]["self_s"] == pytest.approx(6.0)
    assert spans["b"]["calls"] == 2
    assert spans["b"]["self_s"] == pytest.approx(4.0)


def _dephasing_chi():
    model = open_system_sim.SystemBathModel(
        system_hamiltonian=0.5 * SZ,
        bath_hamiltonian=np.zeros((2, 2)),
        couplings=(open_system_sim.Coupling(system=0.2 * SZ, bath=SX),),
    )
    kraus = open_system_sim.kraus_from_model(model, 0.01)
    basis = bbforge.build_pauli_basis(1)
    chi = tomography.chi_from_lambda(tomography.run_qpt(kraus.apply, basis, time_tag=0.01))
    states = [np.eye(2) / 2, np.array([[1, 0], [0, 0]], dtype=complex), np.full((2, 2), 0.5, dtype=complex)]
    return chi, kraus, states


def test_chi_check_fires_on_a_perturbed_chi():
    chi, kraus, states = _dephasing_chi()
    assert chi_problems(chi.apply, kraus.apply, states) == []
    bumped = tomography.ChiMatrix(
        entries=chi.entries + 1e-6 * np.eye(4), time_tag=chi.time_tag, basis=chi.basis
    )
    assert chi_problems(bumped.apply, kraus.apply, states)


def test_artifact_checks_fire_on_a_flipped_byte():
    data = b'{"a": [1, 2, 3]}\n'
    first = {}
    assert digest_problems("x.json", data, first) == []
    assert digest_problems("x.json", data, first) == []
    flipped = bytearray(data)
    flipped[7] ^= 0x01
    assert digest_problems("x.json", bytes(flipped), first)
    broken = bytearray(data)
    broken[0] ^= 0x01
    assert artifact_problems("x.json", data) == []
    assert artifact_problems("x.json", bytes(broken))
    assert artifact_problems("t.csv", b"t,d\n0,1\n1,2\n") == []
    assert artifact_problems("t.csv", b"t,d\n0,1\n1\n")


def test_loop_check_fires_when_best_cost_goes_up_or_budget_is_short():
    assert loop_problems([3.0, 2.0, 2.0], 3) == []
    assert loop_problems([3.0, 2.0, 2.5], 3)
    assert loop_problems([3.0, 2.0], 3)


def test_synthesis_check_fires_on_each_condition():
    assert synthesis_problems("running", 1e-12, 0.01, 0.5) == []
    assert synthesis_problems("direct", 1e-12, 0.01, 0.5)
    assert synthesis_problems("running", 1e-8, 0.01, 0.5)
    assert synthesis_problems("running", 1e-12, 0.5, 0.5)
