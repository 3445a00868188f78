"""Canonical JSON encoding for instance and result files.

The on-disk format is deterministic byte-for-byte: object keys are
sorted, floats are printed with 17 significant digits (the shortest
width guaranteeing exact double-precision round trips), and matrices are
arrays of row arrays whose complex entries are two-element [re, im]
arrays.  Inside the library a matrix is always an ndarray: rows exist
only where a file is read (:func:`decode_matrix`) or written (an ndarray
handed to :func:`dumps_canonical`).  Lists of scalars print on one line
so matrices stay diff-able; non-finite numbers are rejected rather than
written.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "dumps_canonical",
    "decode_matrix",
    "decode_real",
    "decode_int",
]

_INDENT = "  "

# the types json.load gives a number; bool is its own type, so true and false are not numbers
_NUMBERS = {int, float}


def _format_real(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("non-finite numbers cannot be serialized")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def _is_flat_list(x) -> bool:
    """Lists of numbers render on a single line."""
    return isinstance(x, (list, tuple)) and all(
        isinstance(e, (int, float, np.integer, np.floating)) and not isinstance(e, bool) for e in x
    )


def _render(obj, depth: int) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_real(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, np.ndarray):
        return _render_matrix(obj, depth)
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if _is_flat_list(items):
            return "[" + ", ".join(_render(e, depth + 1) for e in items) + "]"
        pad = _INDENT * (depth + 1)
        body = (",\n").join(pad + _render(e, depth + 1) for e in items)
        return "[\n" + body + "\n" + _INDENT * depth + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = _INDENT * (depth + 1)
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {type(key).__name__}")
            parts.append(pad + json.dumps(key) + ": " + _render(obj[key], depth + 1))
        return "{\n" + ",\n".join(parts) + "\n" + _INDENT * depth + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_matrix(m: np.ndarray, depth: int) -> str:
    """A matrix as rows of [re, im] entries, each row on one line (an empty matrix is ``[]``).

    One finiteness check, ``+ 0.0`` to turn -0.0 into 0.0, and one
    ``"%.17g"`` row template (the formatting :func:`_format_real` applies)
    per row.
    """
    a = _as_matrix(m)
    if not a.shape[0]:
        return "[]"
    parts = np.ascontiguousarray(a).view(np.float64)
    if not np.all(np.isfinite(parts)):
        raise ValueError("non-finite numbers cannot be serialized")
    row = "[" + ", ".join(["[%.17g, %.17g]"] * a.shape[1]) + "]"
    pad = _INDENT * (depth + 1)
    body = ",\n".join(pad + row % tuple(values) for values in (parts + 0.0).tolist())
    return "[\n" + body + "\n" + _INDENT * depth + "]"


def dumps_canonical(obj) -> str:
    """Serialize to the canonical text form, with a trailing newline."""
    return _render(obj, 0) + "\n"


def _as_matrix(m) -> np.ndarray:
    """Complex 2-D view of ``m``; a 1-D array is a column."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of dimension {a.ndim}")
    return a


def _scalars(rows) -> list | None:
    """The entries' (re, im) scalars in row order, or None unless every scalar is a number.

    An array entry is a pair and must have two elements; any other entry is a real entry paired with 0.
    """
    try:
        parts = [x for row in rows for e in row for re, im in (e if type(e) is list else (e, 0),) for x in (re, im)]
    except ValueError:  # an array entry of other than two elements does not unpack
        return None
    return parts if set(map(type, parts)) <= _NUMBERS else None


def decode_matrix(rows, what: str = "matrix") -> np.ndarray:
    """The complex matrix of a row-array encoding as ``json.load`` gives it.

    An entry is a number (a real entry) or an [re, im] array of two numbers.
    ValueError on a structural fault (not an array of equally long row
    arrays), else on the first bad entry in row order, else on a non-finite
    value.  Valid input is converted in one pass: its (re, im) scalars
    become one float64 array, viewed as complex128.
    """
    if not isinstance(rows, list):
        raise ValueError(f"{what}: expected an array of row arrays")
    for row in rows:
        if not isinstance(row, list):
            raise ValueError(f"{what}: each row must be an array")
        if len(row) != len(rows[0]):
            raise ValueError(f"{what}: rows have inconsistent lengths")
    parts = _scalars(rows)
    if parts is None:
        bad = next(e for row in rows for e in row if _scalars([[e]]) is None)
        reason = "boolean is not a number" if type(bad) is bool else "entries must be numbers or [re, im] pairs"
        raise ValueError(f"{what}: {reason}")
    try:
        a = np.array(parts, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{what}: entries must be finite") from exc
    if not np.isfinite(a).all():
        raise ValueError(f"{what}: entries must be finite")
    return a.view(np.complex128).reshape(len(rows), len(rows[0]) if rows else 0)


def decode_real(value, what: str = "value") -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what}: expected a real number")
    try:
        x = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{what}: must be finite") from exc
    if not np.isfinite(x):
        raise ValueError(f"{what}: must be finite")
    return x


def decode_int(value, what: str = "value") -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what}: expected an integer")
    return int(value)
