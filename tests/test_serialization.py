import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbforge.open_system_sim import Coupling, PulseGroup, SystemBathModel, kraus_from_model, model_from_dict, model_to_dict
from bbforge.operator_algebra import build_pauli_basis
from bbforge.serialization import dump_json, dumps_json, write_csv
from bbforge.tomography import ChiMatrix, chi_from_lambda, run_qpt

from conftest import random_density, random_hermitian, random_unitary


@pytest.mark.parametrize(
    "write",
    [
        lambda path, x: dump_json({"value": x}, path),
        lambda path, x: write_csv(path, ["value"], [(1.0,), (x,)]),
    ],
    ids=["json", "csv"],
)
def test_failed_write_keeps_previous_artifact(tmp_path, write):
    path = tmp_path / "artifact"
    write(path, 0.5)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write(path, float("nan"))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_write_replaces_previous_artifact(tmp_path):
    path = tmp_path / "artifact.json"
    dump_json({"value": 1}, path)
    dump_json({"value": 2}, path)
    assert path.read_text() == '{\n  "value": 2\n}\n'
    write_csv(path, ["a", "b"], [(1, True), (0.25, "x")])
    assert path.read_text() == "a,b\n1,true\n0.25,x\n"


# JSON round trips: an artifact read back gives the same object, bit for bit, and the same bytes.


def _through_json(data: dict) -> dict:
    return json.loads(dumps_json(data))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), qubits=st.integers(1, 2), size=st.integers(1, 4), delta_t=st.floats(1e-300, 1e300))
def test_group_json_roundtrip(seed, qubits, size, delta_t):
    rng = np.random.default_rng(seed)
    dim = 2**qubits
    group = PulseGroup.from_pulses([np.eye(dim)] + [random_unitary(dim, rng) for _ in range(size - 1)], delta_t)
    clone = PulseGroup.from_dict(_through_json(group.to_dict()))
    assert clone.delta_t == group.delta_t and clone.size == group.size
    assert all(np.array_equal(a, b) for a, b in zip(clone.pulses, group.pulses))
    assert dumps_json(clone.to_dict()) == dumps_json(group.to_dict())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ns=st.sampled_from([2, 4]), nb=st.integers(1, 4), named=st.booleans())
def test_model_json_roundtrip(seed, ns, nb, named):
    rng = np.random.default_rng(seed)
    model = SystemBathModel(
        system_hamiltonian=random_hermitian(ns, rng),
        bath_hamiltonian=random_hermitian(nb, rng),
        couplings=(Coupling(system=random_hermitian(ns, rng), bath=random_hermitian(nb, rng), name="c" if named else ""),),
        bath_initial=random_density(nb, rng),
    )
    data = model_to_dict(model)
    clone = model_from_dict(_through_json(data))
    for field in ("system_hamiltonian", "bath_hamiltonian", "bath_initial"):
        assert np.array_equal(getattr(clone, field), getattr(model, field))
    assert np.array_equal(clone.couplings[0].system, model.couplings[0].system)
    assert np.array_equal(clone.couplings[0].bath, model.couplings[0].bath)
    assert dumps_json(model_to_dict(clone)) == dumps_json(data)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), qubits=st.integers(1, 2), t=st.floats(1e-4, 1.0))
def test_chi_json_roundtrip(seed, qubits, t):
    rng = np.random.default_rng(seed)
    dim = 2**qubits
    model = SystemBathModel(system_hamiltonian=random_hermitian(dim, rng), bath_hamiltonian=random_hermitian(2, rng),
                            couplings=(Coupling(system=random_hermitian(dim, rng), bath=random_hermitian(2, rng)),))
    chi = chi_from_lambda(run_qpt(kraus_from_model(model, t).apply, build_pauli_basis(qubits), time_tag=t))
    clone = ChiMatrix.from_dict(_through_json(chi.to_dict()))
    assert np.array_equal(clone.entries, chi.entries)
    assert (clone.time_tag, clone.skew_norm, clone.residual) == (chi.time_tag, chi.skew_norm, chi.residual)
    assert dumps_json(clone.to_dict()) == dumps_json(chi.to_dict())
