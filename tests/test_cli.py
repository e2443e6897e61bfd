import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bbforge.cli import MAX_VERIFY_CYCLES, main
from bbforge.open_system_sim import Coupling, SystemBathModel, _matrix_to_pairs, model_to_dict

from conftest import I2, SX, SZ


def dephasing_config(g=1.0):
    model = SystemBathModel(system_hamiltonian=g / 2 * SZ, bath_hamiltonian=np.zeros((1, 1)))
    return {
        "model": model_to_dict(model),
        "probe_time": 0.01,
        "target": {"kind": "storage"},
        "synthesis": {"max_group_size": 8, "delta_t": 0.05},
        "loop": {
            "population": 32,
            "generations": 20,
            "tolerance": 1e-6,
            "seed": 42,
            "delta_t": 0.05,
        },
    }


def heisenberg_config():
    model = SystemBathModel(
        system_hamiltonian=0.3 * np.kron(SZ, np.eye(2)) + 0.2 * np.kron(np.eye(2), SZ),
        bath_hamiltonian=np.zeros((1, 1)),
    )
    return {
        "model": model_to_dict(model),
        "probe_time": 0.01,
        "target": {"kind": "two_qubit", "wanted": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        "synthesis": {"max_group_size": 8, "delta_t": 0.05, "ansatz": "local_products"},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSimulate:
    def test_dephasing_trajectory(self, tmp_path):
        model = SystemBathModel(
            system_hamiltonian=np.zeros((2, 2)),
            bath_hamiltonian=0.5 * SZ,
            couplings=(Coupling(system=0.25 * SZ, bath=SX),),
        )
        cfg = {"model": model_to_dict(model), "simulate": {"time_max": 1.0, "steps": 20}}
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "simulate"])
        assert code == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "time,trace_distance"
        assert len(lines) == 22
        dist = [float(line.split(",")[1]) for line in lines[1:]]
        assert dist[0] < 1e-12
        assert dist[5] <= dist[10] + 1e-9

    def test_zero_hamiltonian_constant(self, tmp_path):
        model = SystemBathModel(system_hamiltonian=np.zeros((2, 2)), bath_hamiltonian=np.zeros((1, 1)))
        cfg = {"model": model_to_dict(model), "simulate": {"time_max": 1.0, "steps": 5}}
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"), "simulate"])
        assert code == 0
        lines = (tmp_path / "o" / "trajectory.csv").read_text().strip().splitlines()
        assert all(float(line.split(",")[1]) < 1e-12 for line in lines[1:])

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["--config", str(bad), "--out", str(tmp_path), "simulate"])
        assert code == 2
        assert "parse failure" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        code = main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path), "simulate"])
        assert code == 2


class TestTomography:
    def test_dephasing_chi_value(self, tmp_path):
        code = main(["--config", write_config(tmp_path, dephasing_config()), "--out", str(tmp_path / "out"), "tomography"])
        assert code == 0
        chi = json.loads((tmp_path / "out" / "chi.json").read_text())
        assert chi["basis"] == ["I", "X", "Y", "Z"]
        im_z0 = chi["entries"][3][0][1]
        assert abs(im_z0 + 1.0 * 0.01 / 2) < 1e-6
        assert chi["residual"] < 1e-9

    def test_identity_model(self, tmp_path):
        model = SystemBathModel(system_hamiltonian=np.zeros((2, 2)), bath_hamiltonian=np.zeros((1, 1)))
        cfg = {"model": model_to_dict(model), "probe_time": 0.01}
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "tomography"])
        assert code == 0
        chi = json.loads((tmp_path / "out" / "chi.json").read_text())
        assert abs(chi["entries"][0][0][0] - 1.0) < 1e-12
        flat = np.array(chi["entries"], dtype=float)
        assert np.abs(flat).sum() == pytest.approx(1.0, abs=1e-10)

    def test_probe_time_override(self, tmp_path):
        code = main([
            "--config", write_config(tmp_path, dephasing_config()),
            "--out", str(tmp_path / "out"),
            "--probe-time", "0.02",
            "tomography",
        ])
        assert code == 0
        chi = json.loads((tmp_path / "out" / "chi.json").read_text())
        assert chi["time_tag"] == 0.02

    def test_reproducible_bytes(self, tmp_path):
        cfg = write_config(tmp_path, dephasing_config())
        main(["--config", cfg, "--out", str(tmp_path / "a"), "tomography"])
        main(["--config", cfg, "--out", str(tmp_path / "b"), "tomography"])
        assert (tmp_path / "a" / "chi.json").read_bytes() == (tmp_path / "b" / "chi.json").read_bytes()

    def test_legacy_coupling_order_key_ignored(self, tmp_path):
        # model files written before the key was dropped still carry it
        plain = dephasing_config()
        legacy = dephasing_config()
        legacy["model"]["coupling_order"] = 1
        assert main(["--config", write_config(tmp_path, plain, "plain.json"), "--out", str(tmp_path / "a"), "tomography"]) == 0
        assert main(["--config", write_config(tmp_path, legacy, "legacy.json"), "--out", str(tmp_path / "b"), "tomography"]) == 0
        assert (tmp_path / "a" / "chi.json").read_bytes() == (tmp_path / "b" / "chi.json").read_bytes()

    def test_inconsistency_maps_to_exit_3(self, tmp_path, monkeypatch):
        # a complete fixed basis always inverts, so force the error path
        from bbforge.errors import InconsistencyError
        import bbforge.cli as cli_mod

        def boom(data):
            raise InconsistencyError("forced")

        monkeypatch.setattr(cli_mod, "chi_from_lambda", boom)
        code = main(["--config", write_config(tmp_path, dephasing_config()), "--out", str(tmp_path / "o"), "tomography"])
        assert code == 3

    def test_linalg_error_maps_to_exit_1(self, tmp_path, monkeypatch, capsys):
        import bbforge.cli as cli_mod

        def boom(args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli_mod, "cmd_tomography", boom)
        code = main(["--config", write_config(tmp_path, dephasing_config()), "--out", str(tmp_path / "o"), "tomography"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "numerical error: SVD did not converge\n"
        assert "Traceback" not in err


class TestSynthesize:
    def test_dephasing_parity_kick_summary(self, tmp_path, capsys):
        code = main(["--config", write_config(tmp_path, dephasing_config()), "--out", str(tmp_path / "out"), "synthesize"])
        assert code == 0
        out = capsys.readouterr().out
        assert "size 2" in out
        payload = json.loads((tmp_path / "out" / "synthesis.json").read_text())
        assert payload["group_size"] == 2
        axis = payload["axis_angles"][1]["axis"]
        assert abs(axis[2]) < 1e-9  # kick stays in the x-y plane
        assert abs(payload["axis_angles"][1]["angle"] - np.pi / 2) < 1e-9

    def test_heisenberg_pulse_reported(self, tmp_path):
        code = main(["--config", write_config(tmp_path, heisenberg_config()), "--out", str(tmp_path / "out"), "synthesize"])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "synthesis.json").read_text())
        assert payload["group_size"] == 2
        pulse = np.array([[complex(re, im) for re, im in row] for row in payload["pulses"][1]])
        want = -np.kron(SX, SX)
        overlap = np.vdot(want.ravel(), pulse.ravel())
        phase = overlap / abs(overlap)
        assert np.linalg.norm(pulse - phase * want) < 1e-8

    def test_zero_noise_trivial_group(self, tmp_path):
        model = SystemBathModel(system_hamiltonian=np.zeros((2, 2)), bath_hamiltonian=np.zeros((1, 1)))
        cfg = {"model": model_to_dict(model), "probe_time": 0.01, "target": {"kind": "storage"}}
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "synthesize"])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "synthesis.json").read_text())
        assert payload["group_size"] == 1

    @pytest.mark.parametrize(
        "target",
        [
            {"kind": "single_qubit", "wanted": [0.0, 0.0, 0.25]},
            {"kind": "single_qubit", "wanted": [0.0, 0.0, 0.25], "stabilizer": [_matrix_to_pairs(SZ)]},
            {"kind": "encoded", "stabilizer": [_matrix_to_pairs(SZ)]},
        ],
        ids=["single_qubit", "single_qubit-stabilizer", "encoded"],
    )
    def test_one_qubit_targets(self, tmp_path, target):
        cfg = dephasing_config()
        cfg["target"] = target
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "synthesize"])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "synthesis.json").read_text())
        assert payload["residual"]["scalar_distance"] < 1e-9
        if "stabilizer" in target:
            assert payload["stabilizer_distance"] == pytest.approx(0.0, abs=1e-9)
        else:
            assert "stabilizer_distance" not in payload


class TestVerify:
    def test_verify_improves(self, tmp_path):
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        model = SystemBathModel(
            system_hamiltonian=np.zeros((2, 2)),
            bath_hamiltonian=0.5 * SZ,
            couplings=(Coupling(system=0.25 * SZ, bath=SX),),
            bath_initial=np.outer(plus, plus.conj()),
        )
        cfg = dephasing_config()
        cfg["model"] = model_to_dict(model)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["--config", cfg_path, "--out", str(tmp_path / "out"), "synthesize"]) == 0
        cfg["verify"] = {"group_path": "out/synthesis.json", "total_time": 1.0, "delta_t": 0.05}
        cfg_path = write_config(tmp_path, cfg, "config2.json")
        assert main(["--config", cfg_path, "--out", str(tmp_path / "out"), "verify"]) == 0
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["pulsed_error"] < 0.25 * report["unpulsed_error"]

    def test_missing_group_exit_2(self, tmp_path):
        cfg = dephasing_config()
        cfg["verify"] = {"group_path": "nothere.json"}
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"), "verify"])
        assert code == 2

    def test_overflowing_cycle_count_exit_2(self, tmp_path, capsys):
        cfg = full_config()
        cfg["verify"].update(delta_t=1e-300, total_time=1e300)
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "verify"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: verify.total_time / cycle time must be positive and finite")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def kick_on_bath_config(total_time):
        """A parity kick at cycle time 0.1 on one system qubit coupled through Z (x) X to one bath qubit."""
        cfg = storage_bath_config()
        cfg["verify"] = {"group": {"pulses": [_matrix_to_pairs(I2), _matrix_to_pairs(1j * SX)], "delta_t": 0.05},
                         "total_time": total_time}
        return cfg

    # both counts used to reach apply_bb_cycle, whose reduced state then failed the unit-trace check (exit 1)
    @pytest.mark.parametrize("total_time", [262144 * 0.1, 1e300], ids=["262144-cycles", "1e300"])
    def test_cycle_count_above_cap_exit_2(self, tmp_path, capsys, total_time):
        code = main(["--config", write_config(tmp_path, self.kick_on_bath_config(total_time)), "--out", str(tmp_path / "out"), "verify"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: verify.total_time / cycle time is") and f"above the cap of {MAX_VERIFY_CYCLES}" in err
        assert not (tmp_path / "out").exists()

    def test_cycle_count_at_cap_runs(self, tmp_path):
        code = main(["--config", write_config(tmp_path, self.kick_on_bath_config(MAX_VERIFY_CYCLES * 0.1)), "--out", str(tmp_path / "out"), "verify"])
        assert code == 0
        assert json.loads((tmp_path / "out" / "verify.json").read_text())["cycles"] == MAX_VERIFY_CYCLES

    def test_group_of_wrong_dimension_exit_2(self, tmp_path, capsys):
        cfg = heisenberg_config()
        cfg["verify"] = {"group": {"pulses": [_matrix_to_pairs(I2), _matrix_to_pairs(1j * SX)], "delta_t": 0.05}}
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "verify"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: verify group pulses are 2x2, the system is 4x4")


class TestOptimize:
    def test_dephasing_converges(self, tmp_path):
        code = main([
            "--config", write_config(tmp_path, dephasing_config()),
            "--out", str(tmp_path / "out"),
            "optimize",
        ])
        assert code == 0
        lines = (tmp_path / "out" / "generations.csv").read_text().strip().splitlines()
        assert lines[0] == "generation,best_J,mean_J,group_size,converged"
        assert lines[-1].endswith("true")
        assert len(lines) - 1 <= 20
        best = json.loads((tmp_path / "out" / "best_group.json").read_text())
        assert best["converged"] is True
        assert best["group_size"] == 2

    def test_budget_exhausted_exit_4(self, tmp_path):
        plus_y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        model = SystemBathModel(
            system_hamiltonian=np.zeros((2, 2)),
            bath_hamiltonian=0.5 * SZ,
            couplings=(Coupling(system=0.25 * SZ, bath=SX),),
            bath_initial=np.outer(plus_y, plus_y.conj()),
        )
        cfg = {
            "model": model_to_dict(model),
            "probe_time": 0.01,
            "target": {"kind": "storage"},
            "loop": {"population": 4, "generations": 1, "tolerance": 0.0, "seed": 1, "delta_t": 0.05},
        }
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "optimize"])
        assert code == 4
        best = json.loads((tmp_path / "out" / "best_group.json").read_text())
        assert best["converged"] is False
        assert best["best_cost"] > 0

    def test_two_qubit_target_on_one_qubit_exit_2(self, tmp_path, capsys):
        cfg = {**dephasing_config(), "target": heisenberg_config()["target"]}
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "optimize"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: the loop's two-qubit target needs qubits i < j < 1")
        assert not (tmp_path / "out").exists()

    def test_single_qubit_target_on_two_qubits(self, tmp_path):
        # the loop solves a single-qubit target on qubit 0 and leaves qubit 1 to the search
        cfg = {
            **heisenberg_config(),
            "target": {"kind": "single_qubit", "wanted": [0.0, 0.0, -0.25]},
            "loop": {"population": 4, "generations": 2, "tolerance": 0.0, "seed": 1, "delta_t": 0.05},
        }
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "optimize"])
        assert code == 4
        best = json.loads((tmp_path / "out" / "best_group.json").read_text())
        assert len(best["pulses"][0]) == 4

    def test_seed_override_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, dephasing_config())
        main(["--config", cfg, "--out", str(tmp_path / "a"), "--seed", "7", "optimize"])
        main(["--config", cfg, "--out", str(tmp_path / "b"), "--seed", "7", "optimize"])
        assert (tmp_path / "a" / "generations.csv").read_bytes() == (tmp_path / "b" / "generations.csv").read_bytes()
        assert (tmp_path / "a" / "best_group.json").read_bytes() == (tmp_path / "b" / "best_group.json").read_bytes()

    def test_two_scenario_learning_ends_on_y_axis(self, tmp_path):
        model = SystemBathModel(
            system_hamiltonian=0.5 * SZ + 0.025 * SX,
            bath_hamiltonian=np.zeros((2, 2)),
            couplings=(Coupling(system=0.025 * SX, bath=SX, name="bitflip"),),
        )
        cfg = {
            "model": model_to_dict(model),
            "probe_time": 0.01,
            "target": {"kind": "storage"},
            "loop": {
                "population": 32,
                "generations": 20,
                "tolerance": 1e-3,
                "seed": 42,
                "delta_t": 0.01,
                "detection_floor": 0.1,
            },
        }
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "optimize"])
        assert code == 0
        best = json.loads((tmp_path / "out" / "best_group.json").read_text())
        assert best["group_size"] == 2
        pulse = np.array([[complex(re, im) for re, im in row] for row in best["pulses"][1]])
        from bbforge.operator_algebra import adjoint_of, build_pauli_basis, unitary_from_rotation

        aa = unitary_from_rotation(adjoint_of(pulse, build_pauli_basis(1)))
        assert np.linalg.norm(aa.axis - np.array([0.0, 1.0, 0.0])) < 1e-8

    def test_model_path_reference(self, tmp_path):
        cfg = dephasing_config()
        model_data = cfg.pop("model")
        (tmp_path / "model.json").write_text(json.dumps(model_data))
        cfg["model_path"] = "model.json"
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "tomography"])
        assert code == 0


# (command, config path) for every config number a command reads
NON_FINITE_FIELDS = [
    ("simulate", ("simulate", "time_max")),
    ("synthesize", ("synthesis", "delta_t")),
    ("verify", ("verify", "total_time")),
    ("tomography", ("model", "system_hamiltonian", 0, 0, 0)),
    ("tomography", ("probe_time",)),
]


def full_config():
    cfg = dephasing_config()
    cfg["simulate"] = {"time_max": 1.0, "steps": 5}
    cfg["verify"] = {"group": {"pulses": [_matrix_to_pairs(I2), _matrix_to_pairs(1j * SX)], "delta_t": 0.05}}
    return cfg


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", sorted({c for c, _ in NON_FINITE_FIELDS}))
    def test_finite_config_runs(self, tmp_path, command):
        code = main(["--config", write_config(tmp_path, full_config()), "--out", str(tmp_path / "out"), command])
        assert code == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("command,path", NON_FINITE_FIELDS, ids=[".".join(map(str, p)) for _, p in NON_FINITE_FIELDS])
    def test_config_field_exit_2(self, tmp_path, capsys, command, path, value):
        cfg = full_config()
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), command])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_overflowing_literal_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(full_config()).replace('"probe_time": 0.01', '"probe_time": 1e999'))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), "tomography"]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_probe_time_override_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, full_config())
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "--probe-time", "nan", "tomography"]) == 2

    def test_model_file_exit_2(self, tmp_path):
        cfg = full_config()
        model_data = cfg.pop("model")
        model_data["bath_hamiltonian"][0][0][1] = float("nan")
        (tmp_path / "model.json").write_text(json.dumps(model_data))
        cfg["model_path"] = "model.json"
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "tomography"]) == 2

    @pytest.mark.parametrize("text", ['{"pulses": [[[NaN, 0]]]}', "{ not json", ""], ids=["nan", "malformed", "empty"])
    def test_group_file_exit_2(self, tmp_path, text):
        cfg = full_config()
        cfg["verify"] = {"group_path": "group.json", "total_time": 1.0}
        (tmp_path / "group.json").write_text(text)
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "verify"]) == 2


# (command, config path, value) for config numbers of the wrong type or out of range
BAD_CONFIG_VALUES = [
    ("tomography", ("probe_time",), "abc"),
    ("tomography", ("probe_time",), 0),
    ("simulate", ("simulate", "steps"), "x"),
    ("simulate", ("simulate", "steps"), 0),
    ("simulate", ("simulate", "time_max"), 10**400),
    ("simulate", ("simulate", "time_max"), -1),
    ("synthesize", ("synthesis", "delta_t"), [1]),
    ("synthesize", ("synthesis", "delta_t"), 0),
    ("synthesize", ("synthesis", "max_group_size"), "x"),
    ("synthesize", ("synthesis", "max_group_size"), 1),
    ("synthesize", ("synthesis", "qubit"), "x"),
    ("synthesize", ("synthesis", "qubit"), -1),
    ("synthesize", ("synthesis", "qubit"), 1),
    ("verify", ("verify", "delta_t"), 0),
    ("verify", ("verify", "delta_t"), "x"),
    ("verify", ("verify", "total_time"), -1),
    ("verify", ("verify", "total_time"), {}),
    ("verify", ("verify", "group", "delta_t"), 0),
    ("optimize", ("loop", "delta_t"), 0),
    ("optimize", ("loop", "delta_t"), -1),
    ("optimize", ("loop", "cycles"), 0),
    ("optimize", ("loop", "quadrature"), 0),
    ("optimize", ("loop", "probe_time"), 0),
    ("optimize", ("loop", "probe_time"), -1),
    ("optimize", ("loop", "population"), 2.5),
    ("optimize", ("loop", "generations"), 1.5),
    ("optimize", ("loop", "cycles"), 1.5),
    ("optimize", ("loop", "group_size_bound"), 2.5),
    ("optimize", ("loop", "quadrature"), 1.5),
    ("optimize", ("loop", "seed"), "x"),
    ("optimize", ("loop", "seed"), -1),
    ("optimize", ("loop", "delta_t"), 10**400),
    ("optimize", ("loop", "detection_floor"), "x"),
    ("optimize", ("loop", "detection_floor"), 1.5),
    ("optimize", ("loop", "detection_floor"), True),
    ("optimize", ("loop", "tolerance"), True),
    ("optimize", ("loop", "mutation_rate"), True),
    ("simulate", ("initial_state",), [[1, 2]]),
    ("simulate", ("initial_state",), [[[1, 0]]]),
    ("verify", ("verify", "group"), {"delta_t": 0.05}),
    ("verify", ("verify", "group", "pulses"), []),
    ("verify", ("verify", "group_path"), [1]),
    ("simulate", ("model",), [1]),
    ("simulate", ("simulate",), 5),
    ("synthesize", ("synthesis",), [1]),
    ("synthesize", ("target",), [1]),
    ("verify", ("verify",), "group.json"),
    ("optimize", ("loop",), [1]),
    ("synthesize", ("synthesis", "ansatz"), "general"),
    ("tomography", ("model", "bath_intial"), [[[1, 0]]]),
    ("verify", ("verify", "group", "pulses"), [_matrix_to_pairs(np.eye(4))]),
    ("synthesize", ("target", "stabilizer"), [_matrix_to_pairs(np.kron(SZ, SZ))]),
    ("synthesize", ("target",), {"kind": "encoded", "wanted": [0.0] * 15}),
    ("synthesize", ("target",), {"kind": "storage", "wanted": [0.0] * 15}),
    # a count is an integer and a time a number, never a bool or a string
    ("simulate", ("simulate", "steps"), 2.5),
    ("simulate", ("simulate", "time_max"), "1.0"),
    ("synthesize", ("synthesis", "max_group_size"), 2.5),
    ("synthesize", ("synthesis", "qubit"), 0.5),
    ("synthesize", ("synthesis", "delta_t"), True),
    ("verify", ("verify", "total_time"), "1"),
    ("optimize", ("loop", "delta_t"), True),
    ("optimize", ("loop", "generations"), True),
    # a misspelt key in each config object
    ("tomography", ("probe_tme",), 0.01),
    ("synthesize", ("target", "wantd"), [0.0, 0.0, 0.0]),
    ("simulate", ("simulate", "step"), 5),
    ("synthesize", ("synthesis", "max_group_sise"), 2),
    ("verify", ("verify", "total_tme"), 1.0),
    ("optimize", ("loop", "populaton"), 4),
    # an integer literal beyond the float range
    ("verify", ("verify", "group", "pulses"), [[[[10**400, 0]]]]),
    ("simulate", ("initial_state",), [[[10**400, 0]]]),
    ("synthesize", ("target", "wanted"), [10**400, 0, 0]),
    ("simulate", ("simulate", "steps"), 10**400),
    # a ragged matrix: one row of its [re, im] pair grid short
    ("simulate", ("model", "system_hamiltonian"), [[[0.5, 0], [0, 0]], [[0, 0]]]),
    ("synthesize", ("target",), {"kind": "two_qubit", "wanted": [[1, 0, 0], [0, 1, 0], [0, 0]]}),
    ("synthesize", ("target", "stabilizer"), [[[[1, 0], [0, 0]], [[0, 0]]]]),
    ("verify", ("verify", "group", "pulses"), [_matrix_to_pairs(I2), [[[0, 0], [1, 0]], [[1, 0]]]]),
]


class TestConfigValues:
    @pytest.mark.parametrize(
        "command,path,value",
        BAD_CONFIG_VALUES,
        ids=[f"{'.'.join(map(str, p))}={v!r}"[:40] for _, p, v in BAD_CONFIG_VALUES],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, command, path, value):
        cfg = full_config()
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), command])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("pair", [5, [1, 0], [0, 2], ["a", 1], [0, 1.5]], ids=repr)
    def test_bad_pair_exit_2(self, tmp_path, capsys, pair):
        cfg = heisenberg_config()
        cfg["synthesis"]["pair"] = pair
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "synthesize"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: synthesis.pair ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synthesize", "optimize"])
    def test_two_qubit_identity_entry_exit_2(self, tmp_path, capsys, command):
        # entry [0, 0] of a pair target is the identity string, which no pulse set can produce
        cfg = heisenberg_config()
        cfg["target"]["wanted"] = np.diag([0.5, 1.0, 1.0, 1.0]).tolist()
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), command])
        assert code == 2
        assert "[0, 0]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["5", '"model"'])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), "simulate"]) == 2
        assert capsys.readouterr().err.startswith("config error:")


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs every subcommand in one fresh interpreter and reports exit codes and loaded scipy modules
PIPELINE_SCRIPT = """
import json, sys
from bbforge.cli import main
config, out = sys.argv[1:]
codes = [main(["--config", config, "--out", out, c]) for c in ("simulate", "tomography", "synthesize", "verify", "optimize")]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def storage_bath_config():
    model = SystemBathModel(
        system_hamiltonian=0.3 * SZ,
        bath_hamiltonian=0.5 * SZ,
        couplings=(Coupling(system=0.1 * SZ, bath=SX),),
        bath_initial=np.outer([1, 1j], [1, -1j]) / 2,
    )
    return {"model": model_to_dict(model), "probe_time": 0.01, "target": {"kind": "storage"}}


class TestImportPath:
    """The CLI's default path must not load scipy, which dominates a cold start."""

    def test_import_loads_no_scipy(self):
        loaded = _fresh_python("-c", "import json, sys, bbforge.cli; print(json.dumps(sorted(sys.modules)))")
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    @pytest.mark.parametrize("config", [storage_bath_config, heisenberg_config], ids=["storage-1q", "heisenberg-2q"])
    def test_every_subcommand_loads_no_scipy(self, tmp_path, config):
        cfg = config()
        cfg.update(
            simulate={"time_max": 1.0, "steps": 5},
            synthesis={"max_group_size": 4, "delta_t": 0.05},
            verify={"group_path": "out/synthesis.json", "total_time": 1.0},
            loop={"population": 6, "generations": 2, "tolerance": 0.0, "seed": 7},
        )
        report = _fresh_python("-c", PIPELINE_SCRIPT, write_config(tmp_path, cfg), str(tmp_path / "out"))
        assert report["codes"][:4] == [0, 0, 0, 0] and report["codes"][4] in (0, 4)
        assert report["scipy"] == []
