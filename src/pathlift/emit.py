"""Deterministic CSV/JSON emission: fixed float formatting, sorted keys, no clocks.

JSON writes a non-finite float as the string of its CSV text ("inf", "-inf",
"nan"), so every file parses as strict JSON, and -0.0 as ``-0.0``, which a
JSON reader takes for a float where it would read ``-0`` as the integer 0.

CSV is written by columns (arrays or lists, each converted once with
``.tolist()``), every row with one ``%``-format for the whole file.  Its
``%.17g`` equals ``fmt_float`` on every double: NaN, +-inf, +-0 and subnormals.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["fmt_float", "dumps_json", "write_json", "csv_rows", "write_csv"]


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _render(obj) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        body = ",".join(f"{json.dumps(str(k))}:{_render(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, bool | np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        text = fmt_float(obj)
        return ("-0.0" if text == "-0" else text) if math.isfinite(obj) else f'"{text}"'
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def dumps_json(obj) -> str:
    return _render(obj) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps_json(obj), encoding="utf-8")


def csv_rows(columns, fmt=None) -> list[str]:
    """The lines ``fmt % row`` of the rows of `columns` (ValueError if ragged).

    `fmt` is the row format, such as ``"%d,%.17g,%s"``; it defaults to ``%.17g`` columns."""
    fmt = fmt or ",".join(["%.17g"] * len(columns))
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return list(map(fmt.__mod__, zip(*cols, strict=True)))


def write_csv(path, header, columns, fmt=None) -> None:
    """Write `columns` under `header`, one line per row (see csv_rows)."""
    lines = [",".join(header), *csv_rows(columns, fmt)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
