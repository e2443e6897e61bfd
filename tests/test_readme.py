"""README's library quick start and minimal config, run as written, so that the examples cannot drift from the code."""

import re
from pathlib import Path

import numpy as np
import pytest

from bbforge.cli import main
from bbforge.operator_algebra import unitary_from_rotation

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_block(lang: str, after: str) -> str:
    """The first ``lang`` code block of README after the text ``after``."""
    return re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, README.index(after)).group(1)


def test_quick_start(capsys):
    namespace = {}
    exec(readme_block("python", "## Library quick start"), namespace)
    np.testing.assert_allclose(namespace["gen"].coords, [0.0, 0.0, -0.5], rtol=0, atol=1e-4)  # first order at t = 0.01
    group = namespace["result"].group
    assert group.size == 2
    np.testing.assert_allclose(unitary_from_rotation(group.rotations[1]).axis, [1.0, 0.0, 0.0], rtol=0, atol=1e-12)
    size, distance = capsys.readouterr().out.split()
    assert int(size) == 2 and float(distance) <= 1e-9


# verify needs a pulse group, which the minimal config does not carry
@pytest.mark.parametrize("command,code", [("simulate", 0), ("tomography", 0), ("synthesize", 0), ("optimize", 0), ("verify", 2)])
def test_minimal_config(tmp_path, command, code):
    config = tmp_path / "experiment.json"
    config.write_text(readme_block("json", "A minimal config:"))
    assert main(["--config", str(config), "--out", str(tmp_path / "out"), command]) == code
