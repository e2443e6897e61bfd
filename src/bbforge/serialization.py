"""Deterministic JSON and CSV writers.

Floats are rendered with 17 significant digits so that identical inputs
produce byte-identical artifacts across runs and platforms.  A file is
rendered in full, written beside its destination and renamed into place,
so a failed write leaves any previous artifact intact.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

__all__ = ["dumps_json", "dump_json", "format_float", "write_csv"]


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in serialized output")
    return format(float(x), ".17g")


def _render(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{k}": {_render(v, indent, level + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float, str, bool, type(None))) for v in obj)
        if flat:
            return "[" + ", ".join(_render(v, indent, 0) for v in obj) + "]"
        items = [pad_in + _render(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if hasattr(obj, "item"):  # numpy scalars
        return _render(obj.item(), indent, level)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj, indent: int = 2) -> str:
    return _render(obj, indent, 0) + "\n"


def _write_atomic(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def dump_json(obj, path) -> None:
    _write_atomic(path, dumps_json(obj))


def _csv_cell(cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return format_float(cell)
    return str(cell)


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)] + [",".join(_csv_cell(cell) for cell in row) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")
