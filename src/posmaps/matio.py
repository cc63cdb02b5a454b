"""Matrix file format: JSON with explicit (re, im) pairs.

Schema: {"rows": int, "cols": int, "data": [[re, im], ...]} with data in
row-major order and re, im JSON numbers (the reader refuses strings and
booleans).  Non-finite values are rejected on both read and write; the
reader also refuses the JSON Infinity/NaN literals.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ToolkitError
from .numlin import as_cmatrix


def save_matrix(path, m) -> None:
    m = as_cmatrix(m)
    if not np.isfinite(m).all():
        raise ToolkitError("refusing to write non-finite entries")
    doc = {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }
    with open(Path(path), "w", encoding="utf-8") as f:
        json.dump(doc, f, allow_nan=False, sort_keys=True)
        f.write("\n")


def _reject_constant(token: str):
    raise ToolkitError(f"non-finite literal {token!r} in matrix file")


def load_matrix(path) -> np.ndarray:
    with open(Path(path), "r", encoding="utf-8") as f:
        try:
            doc = json.load(f, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ToolkitError(f"not a matrix file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ToolkitError("matrix file must be a JSON object")
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    except KeyError as exc:
        raise ToolkitError(f"matrix file missing field {exc}") from exc
    if not all(isinstance(v, int) and not isinstance(v, bool) and v > 0
               for v in (rows, cols)):
        raise ToolkitError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise DimensionMismatch(
            f"expected {rows * cols} entries, got {len(data) if isinstance(data, list) else 'non-list'}")
    out = np.empty(rows * cols, dtype=np.complex128)
    for k, entry in enumerate(data):
        if (not isinstance(entry, list)) or len(entry) != 2:
            raise ToolkitError(f"entry {k} is not an [re, im] pair")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in entry):
            raise ToolkitError(f"entry {k} is not a pair of numbers")
        try:
            re, im = float(entry[0]), float(entry[1])
        except OverflowError as exc:  # an integer literal beyond float range
            raise ToolkitError(f"entry {k} is not finite") from exc
        if not (np.isfinite(re) and np.isfinite(im)):
            raise ToolkitError(f"entry {k} is not finite")
        out[k] = complex(re, im)
    return out.reshape(rows, cols)
