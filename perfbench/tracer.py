"""Spans and counts around calls into bbforge's public functions.

The benchmark never edits the package.  ``Tracer.install`` replaces each
traced function with a recording wrapper in every ``bbforge.*`` namespace
that holds it, because modules bind their dependencies with
``from .x import f``; patching only the defining module would miss most
calls.  Spans are kept in memory as ``(name, start, end, parent)`` and
summarised when the run ends.  A layer's self time is its span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time

# Every bbforge module that does work.  All are imported before patching,
# so none binds a wrapper that uninstall would leave behind.
LAYERS = ("operator_algebra", "open_system_sim", "tomography", "bb_synthesis", "optimizer", "cli", "serialization")

# Layer functions wrapped by the traced run: (module, function).
TRACED_FUNCTIONS = (
    ("operator_algebra", "build_pauli_basis"),
    ("operator_algebra", "adjoint_of"),
    ("open_system_sim", "propagate"),
    ("open_system_sim", "bb_propagator"),
    ("open_system_sim", "kraus_from_model"),
    ("open_system_sim", "apply_bb_cycle"),
    ("open_system_sim", "reduced_state"),
    ("tomography", "run_qpt"),
    ("tomography", "chi_from_lambda"),
    ("tomography", "extract_generator"),
    ("bb_synthesis", "solve_two_qubit"),
    ("bb_synthesis", "error_report"),
    ("optimizer", "evaluate_cost"),
    ("optimizer", "learning_loop"),
    ("serialization", "dump_json"),
    ("serialization", "write_csv"),
)

# PulseGroup construction is one span, whether entered via from_pulses,
# with_delta_t or the dataclass constructor.
PULSE_GROUP = "open_system_sim.PulseGroup"


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile, 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _pulses_key(group) -> bytes:
    h = hashlib.sha256(repr(float(group.delta_t)).encode())
    for p in group.pulses:
        h.update(p.tobytes())
    return h.digest()


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._seen_groups: list[set] = [set()]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def record(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self._span(name, fn, args, kwargs)

    def _span(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_call_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                return hook(name, fn, args, kwargs)
            return self._span(name, fn, args, kwargs)

        return wrapper

    # Per-function hooks add the counts a plain span cannot see.

    def _call_tomography_run_qpt(self, name, fn, args, kwargs):
        args = list(args)
        channel = args[0] if args else kwargs.pop("channel")

        def counted(rho):
            self.count(name + ".probes")
            return channel(rho)

        if args:
            args[0] = counted
        else:
            kwargs["channel"] = counted
        return self._span(name, fn, args, kwargs)

    def _call_optimizer_evaluate_cost(self, name, fn, args, kwargs):
        group = args[1] if len(args) > 1 else kwargs["group"]
        key = _pulses_key(group)
        seen = self._seen_groups[-1]
        if key in seen:
            self.count(name + ".repeats")
        seen.add(key)
        return self._span(name, fn, args, kwargs)

    def _call_optimizer_learning_loop(self, name, fn, args, kwargs):
        self._seen_groups.append(set())
        try:
            best, records = self._span(name, fn, args, kwargs)
        finally:
            self._seen_groups.pop()
        self.count(name + ".generations", len(records))
        return best, records

    def _call_bb_synthesis_solve_two_qubit(self, name, fn, args, kwargs):
        result = self._span(name, fn, args, kwargs)
        self.count(name + ".accepted")
        return result

    def _write_hook(self, name, fn, args, kwargs, path):
        result = self._span(name, fn, args, kwargs)
        self.count(name + ".bytes", os.path.getsize(path))
        return result

    def _call_serialization_dump_json(self, name, fn, args, kwargs):
        return self._write_hook(name, fn, args, kwargs, args[1] if len(args) > 1 else kwargs["path"])

    def _call_serialization_write_csv(self, name, fn, args, kwargs):
        return self._write_hook(name, fn, args, kwargs, args[0] if args else kwargs["path"])

    # -- installing ------------------------------------------------------

    def _reentrant(self, fn):
        """PulseGroup constructor paths nest; only the outermost is a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._innermost() == PULSE_GROUP:
                return fn(*args, **kwargs)
            return self._span(PULSE_GROUP, fn, args, kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every traced function in every bbforge namespace holding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module("bbforge." + layer)
        wrappers = {}
        for module_name, fn_name in TRACED_FUNCTIONS:
            fn = getattr(sys.modules["bbforge." + module_name], fn_name)
            wrappers[fn] = self._wrap(f"{module_name}.{fn_name}", fn)
        modules = [m for name, m in sys.modules.items() if name == "bbforge" or name.startswith("bbforge.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

        pulse_group = sys.modules["bbforge.open_system_sim"].PulseGroup
        init = pulse_group.__dict__["__init__"]
        from_pulses = pulse_group.__dict__["from_pulses"]
        self._patch(pulse_group, "__init__", self._reentrant(init))
        self._patch(pulse_group, "from_pulses", classmethod(self._reentrant(from_pulses.__func__)))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summarising -----------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls, self time and durations, plus counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        names: dict[str, dict] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            entry = names.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
            entry["durations"].append(end - start)
        return {"spans": names, "counters": dict(self.counters)}


def merge_summaries(summaries) -> dict:
    """Combine summaries from several traced processes."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for s in summaries:
        for name, entry in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
            acc["durations"].extend(entry["durations"])
        for key, value in s["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"spans": spans, "counters": counters}


def span_stats(summary: dict, name: str) -> dict:
    """calls, self_s, total_s, p50_ms and p99_ms for one span name (zeros when absent)."""
    entry = summary["spans"].get(name, {"calls": 0, "self_s": 0.0, "durations": []})
    return {
        "calls": entry["calls"],
        "self_s": entry["self_s"],
        "total_s": sum(entry["durations"]),
        "p50_ms": _percentile(entry["durations"], 50) * 1e3,
        "p99_ms": _percentile(entry["durations"], 99) * 1e3,
    }
