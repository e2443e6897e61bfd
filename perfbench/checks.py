"""Output checks.  Each returns a list of problems; an empty list passes."""

from __future__ import annotations

import csv
import hashlib
import io
import json

import numpy as np

CHI_TOL = 1e-9
RESIDUAL_TOL = 1e-9


def cost_digest(best_costs) -> str:
    """Digest of a loop's best-cost sequence, exact to the last bit."""
    return hashlib.sha256(",".join(repr(float(c)) for c in best_costs).encode()).hexdigest()


def loop_problems(best_costs, generations: int) -> list[str]:
    """The whole budget ran and the best cost never went up."""
    problems = []
    if len(best_costs) != generations:
        problems.append(f"loop ran {len(best_costs)} of {generations} generations")
    for g in range(1, len(best_costs)):
        if best_costs[g] > best_costs[g - 1]:
            problems.append(f"best cost rose at generation {g}: {best_costs[g - 1]!r} -> {best_costs[g]!r}")
            break
    return problems


def chi_problems(chi_apply, channel, states) -> list[str]:
    """The process matrix reproduces the probed channel on every state."""
    worst = max(float(np.linalg.norm(chi_apply(rho) - channel(rho))) for rho in states)
    if not worst <= CHI_TOL:
        return [f"chi misses the channel by {worst:.3e} (> {CHI_TOL:g})"]
    return []


def synthesis_problems(mode: str, residual: float, pulsed_error: float, unpulsed_error: float) -> list[str]:
    problems = []
    if mode != "running":
        problems.append(f"solver used {mode!r} mode, expected 'running'")
    if not residual <= RESIDUAL_TOL:
        problems.append(f"solver residual {residual:.3e} > {RESIDUAL_TOL:g}")
    if not pulsed_error < unpulsed_error:
        problems.append(f"pulsed error {pulsed_error:.3e} not below unpulsed {unpulsed_error:.3e}")
    return problems


def artifact_problems(name: str, data: bytes) -> list[str]:
    """A JSON artifact parses; a CSV artifact is rectangular with a header."""
    try:
        text = data.decode()
        if name.endswith(".json"):
            json.loads(text)
            return []
        rows = list(csv.reader(io.StringIO(text)))
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"{name} does not parse: {exc}"]
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        return [f"{name} is not a rectangular CSV with a header and data"]
    return []


def digest_problems(name: str, data: bytes, first: dict) -> list[str]:
    """Repeated invocations write byte-identical artifacts.

    ``first`` maps artifact names to the digest seen first in this run and
    is updated in place.
    """
    digest = hashlib.sha256(data).hexdigest()
    expected = first.setdefault(name, digest)
    if digest != expected:
        return [f"{name} sha256 {digest[:12]} differs from the first invocation's {expected[:12]}"]
    return []
