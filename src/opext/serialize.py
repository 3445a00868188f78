"""Canonical JSON encoding for instance and result files.

The on-disk format is deterministic byte-for-byte: object keys are
sorted, floats are printed with 17 significant digits (the shortest
width guaranteeing exact double-precision round trips), complex numbers
are two-element [re, im] arrays, and matrices are arrays of row arrays.
Lists of scalars print on one line so matrices stay diff-able; non-finite
numbers are rejected rather than written.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "dumps_canonical",
    "encode_matrix",
    "decode_matrix",
    "decode_real",
    "decode_int",
]

_INDENT = "  "


def _format_real(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("non-finite numbers cannot be serialized")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def _is_pair(x) -> bool:
    return (
        isinstance(x, (list, tuple))
        and len(x) == 2
        and all(isinstance(e, (int, float, np.integer, np.floating)) and not isinstance(e, bool) for e in x)
    )


def _is_flat_list(x) -> bool:
    """Lists of numbers or [re, im] pairs render on a single line."""
    return isinstance(x, (list, tuple)) and all(
        (isinstance(e, (int, float, np.integer, np.floating)) and not isinstance(e, bool)) or _is_pair(e)
        for e in x
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
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return f"[{_format_real(z.real)}, {_format_real(z.imag)}]"
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
    """``_render(encode_matrix(m), depth)`` formatted straight from the array.

    One finiteness check, ``+ 0.0`` to turn -0.0 into 0.0, and one
    ``"%.17g"`` row template (the formatting :func:`_format_real` applies)
    per row; the text is byte-identical to the list route.
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


def encode_matrix(m) -> list:
    """Matrix as rows of [re, im] entries (empty matrix encodes as [])."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in _as_matrix(m)]


def _entry_to_complex(entry, what: str) -> complex:
    if isinstance(entry, bool):
        raise ValueError(f"{what}: boolean is not a number")
    try:
        if isinstance(entry, (int, float)):
            return complex(float(entry), 0.0)
        if _is_pair(entry):
            return complex(float(entry[0]), float(entry[1]))
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{what}: entries must be finite") from exc
    raise ValueError(f"{what}: entries must be numbers or [re, im] pairs")


def decode_matrix(rows, what: str = "matrix") -> np.ndarray:
    """Parse the row-array encoding back into a complex matrix.

    Accepts plain numbers as real entries.  Raises ValueError on ragged
    rows, non-numeric entries, or non-finite values.
    """
    if not isinstance(rows, list):
        raise ValueError(f"{what}: expected an array of row arrays")
    if not rows:
        return np.zeros((0, 0), dtype=np.complex128)
    parsed = []
    width = None
    for row in rows:
        if not isinstance(row, list):
            raise ValueError(f"{what}: each row must be an array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"{what}: rows have inconsistent lengths")
        parsed.append([_entry_to_complex(e, what) for e in row])
    a = np.array(parsed, dtype=np.complex128) if width else np.zeros((len(parsed), 0), dtype=np.complex128)
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{what}: entries must be finite")
    return a


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
