import pytest

from bbforge.serialization import dump_json, write_csv


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
