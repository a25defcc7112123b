"""Aggregation helpers and deterministic CSV/JSON emission.

Everything here must be byte-stable: same inputs, same bytes out. No
timestamps, no absolute paths, sorted JSON keys, fixed column orders.
A JSON output is exactly the bytes of `json.dumps(payload, sort_keys=True,
indent=2)` plus a newline; `render_json` writes them without the stdlib's
pure-Python indent path.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ValidationError

#: The histogram subcommand's default speedup bucket edges (powers of two);
#: the last bucket is open-ended.
DEFAULT_SPEEDUP_EDGES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def speedup_histogram(
    values: Iterable[float],
    edges: Sequence[float] = DEFAULT_SPEEDUP_EDGES,
) -> tuple[tuple[float, float, int], ...]:
    """Bucket counts over speedups: [e0,e1), [e1,e2), ..., [e_last, inf)."""
    edges = tuple(edges)
    if not all(map(math.isfinite, edges)):  # NaN compares false, so it would pass the sortedness check
        raise ValidationError(f"bucket edges must be finite numbers, got {edges}")
    if len(edges) < 1 or list(edges) != sorted(edges):
        raise ValidationError("bucket edges must be sorted and non-empty")
    bounds = [(edges[k], edges[k + 1]) for k in range(len(edges) - 1)]
    bounds.append((edges[-1], float("inf")))
    counts = [0] * len(bounds)
    for value in values:
        for idx, (lo, hi) in enumerate(bounds):
            if lo <= value < hi:
                counts[idx] += 1
                break
    return tuple((lo, hi, count) for (lo, hi), count in zip(bounds, counts))


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValidationError("mean of empty sequence")
    return sum(values) / len(values)


def fmt(value) -> str:
    """Stable scalar formatting for CSV cells."""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(cell) for cell in row])
    return buf.getvalue()


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _render(value, level: int) -> str:
    """`value` as `json.dumps(value, sort_keys=True, indent=2)` writes it at
    nesting depth `level`. Exact JSON types take the fast paths; anything
    else (non-str keys, subclasses, unknown types) is handed to the stdlib,
    re-indented, so it converts or raises as the stdlib does."""
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = "\n" + "  " * (level + 1)
        types = set(map(type, value))
        if types == {int}:
            body = map(int.__repr__, value)
        elif (types == {tuple} or types == {list}) and all(value) and set(map(type, chain.from_iterable(value))) == {int}:
            # Non-empty rows of ints, such as abort triples: one %-template per
            # row width. Tuple rows are the template's arguments as they are.
            row_inner = inner + "  "
            widths = set(map(len, value))
            rows = {width: "[" + row_inner + ("," + row_inner).join(["%d"] * width) + inner + "]" for width in widths}
            body = [rows[len(row)] % row for row in (value if types == {tuple} else map(tuple, value))]
        else:
            body = [_render(item, level + 1) for item in value]
        return "[" + inner + ("," + inner).join(body) + inner[:-2] + "]"
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        inner = "\n" + "  " * (level + 1)
        body = [encode_basestring_ascii(key) + ": " + _render(item, level + 1) for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(body) + inner[:-2] + "}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * level)


def render_json(payload) -> str:
    """`json.dumps(payload, sort_keys=True, indent=2) + "\\n"`, byte for byte."""
    try:
        return _render(payload, 0) + "\n"
    except RecursionError:  # a cycle or very deep nesting: the stdlib's error, or its bytes
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(path: Path, payload) -> None:
    write_text(path, render_json(payload))
