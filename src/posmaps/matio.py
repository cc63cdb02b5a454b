"""Matrix file format: JSON with explicit (re, im) pairs.

Schema: {"rows": int, "cols": int, "data": [[re, im], ...]} with data in
row-major order and re, im JSON numbers (the reader refuses strings and
booleans).  Non-finite values are rejected on both read and write; the
reader also refuses the JSON Infinity/NaN literals.

The writer streams: it encodes SAVE_CHUNK_ENTRIES entries at a time, each
chunk with one C-encoder call, so it never holds the whole matrix as Python
objects or text.  The reader type-scans every entry (a list of two
elements, each exactly int or float) before one `np.array`.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ToolkitError
from .numlin import as_cmatrix

# Entries that save_matrix encodes per json.dumps call: at most about 1.6 MB
# of Python floats and text at a time, whatever the size of the matrix.
SAVE_CHUNK_ENTRIES = 4096


def save_matrix(path, m) -> None:
    """Write m with the bytes of one json.dumps(doc, sort_keys=True) and a newline."""
    m = as_cmatrix(m)
    if not np.isfinite(m).all():
        raise ToolkitError("refusing to write non-finite entries")
    head, foot = json.dumps({"cols": int(m.shape[1]), "data": [],
                             "rows": int(m.shape[0])}, sort_keys=True).split("[]")
    with open(Path(path), "w", encoding="utf-8") as f:
        f.write(head + "[")
        for k in range(0, m.size, SAVE_CHUNK_ENTRIES):
            # a flat slice is a contiguous row-major copy whatever m's layout;
            # its float64 view holds (re, im) of each entry in turn
            pairs = m.flat[k:k + SAVE_CHUNK_ENTRIES].view(np.float64).reshape(-1, 2)
            f.write((", " if k else "") + json.dumps(pairs.tolist(), allow_nan=False)[1:-1])
        f.write("]" + foot + "\n")


def _reject_constant(token: str):
    raise ToolkitError(f"non-finite literal {token!r} in matrix file")


def _entry_error(data: list) -> ToolkitError:
    """The error naming the first malformed entry; runs only on a bad file."""
    for k, entry in enumerate(data):
        if type(entry) is not list or len(entry) != 2:
            return ToolkitError(f"entry {k} is not an [re, im] pair")
        if not set(map(type, entry)) <= {int, float}:
            return ToolkitError(f"entry {k} is not a pair of numbers")
        try:
            finite = all(map(math.isfinite, entry))
        except OverflowError:  # an integer literal beyond float range
            finite = False
        if not finite:
            return ToolkitError(f"entry {k} is not finite")
    return ToolkitError("matrix data is malformed")


def load_matrix(path) -> np.ndarray:
    with open(Path(path), "r", encoding="utf-8") as f:
        try:
            doc = json.load(f, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ToolkitError(f"not a matrix file: {exc}") from exc
        except RecursionError as exc:  # the decoder recurses per nesting level
            raise ToolkitError("not a matrix file: nested too deeply") from exc
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
    # the scan is not optional: np.array would convert "1.5" and true silently
    if not (set(map(type, data)) == {list} and set(map(len, data)) == {2}
            and set(map(type, chain.from_iterable(data))) <= {int, float}):
        raise _entry_error(data)
    try:
        pairs = np.array(data, dtype=float)
    except OverflowError as exc:
        raise _entry_error(data) from exc
    if not np.isfinite(pairs).all():  # a literal such as 1e400 parses to inf
        raise _entry_error(data)
    # row k of pairs is (re, im) of entry k: the memory layout of complex128
    return pairs.view(np.complex128).reshape(rows, cols)
