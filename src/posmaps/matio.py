"""Matrix file format: JSON with explicit (re, im) pairs.

Schema: {"rows": int, "cols": int, "data": [[re, im], ...]} with data in
row-major order and re, im JSON numbers (the reader refuses strings and
booleans).  Non-finite values are rejected on both read and write; the
reader also refuses the JSON Infinity/NaN literals, any field other than
the three, and a repeated field.

The writer streams: it encodes SAVE_CHUNK_ENTRIES entries at a time, each
chunk with one C-encoder call, so it never holds the whole matrix as Python
objects or text.  The reader streams too: it reads the object one field at
a time, takes rows and cols only as scalars, and decodes the data array
about LOAD_CHUNK_CHARS of text at a time into one float64 (re, im) array.
Each chunk is type-scanned (a list of two elements, each exactly int or
float) before one `np.array`.  So the reader holds the result, at most
twice over while it grows, and one chunk of Python objects and text.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ToolkitError
from .numlin import as_cmatrix

# Entries that save_matrix encodes per json.dumps call: at most about 1.6 MB
# of Python floats and text at a time, whatever the size of the matrix.
SAVE_CHUNK_ENTRIES = 4096
# Characters of the data array that load_matrix decodes per json call, and
# that it reads from the file at a time: at most about 1 MB of Python lists
# and floats at a time, whatever the size of the file.
LOAD_CHUNK_CHARS = 64 * 1024
FIELDS = ("rows", "cols", "data")


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


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_WS = json.decoder.WHITESPACE
# an entry's `]` followed by the array's: the first one closes a valid data
# array, whose entries hold no other brackets
_DATA_END = re.compile(r"\][ \t\n\r]*\]")
# a character that no number, separator or whitespace of a data array holds
_NOT_NUMERIC = re.compile(r"[^-+.0-9eE,\[ \t\n\r]")


class _Reader:
    """The text of a matrix file, read a block at a time.

    buf holds the text read and not yet dropped, pos the next index to
    parse; base, lines and line_start place buf[0] in the file, so that an
    error names the line, column and character that json.load would.
    """

    def __init__(self, f):
        self.f, self.buf, self.pos, self.eof = f, "", 0, False
        self.base = self.lines = self.line_start = 0

    def fill(self, ahead: int = LOAD_CHUNK_CHARS) -> None:
        """Drop the text before pos, then read until ahead characters follow it."""
        buf, pos = self.buf, self.pos
        newlines = buf.count("\n", 0, pos)
        if newlines:
            self.lines += newlines
            self.line_start = self.base + buf.rfind("\n", 0, pos) + 1
        self.base += pos
        parts = [buf[pos:]]
        have = len(parts[0])
        while have < ahead and not self.eof:
            block = self.f.read(max(ahead - have, LOAD_CHUNK_CHARS))
            self.eof = not block
            parts.append(block)
            have += len(block)
        self.buf, self.pos = "".join(parts), 0

    def read_past(self, far: int, start: int) -> None:
        """Read on, keeping pos, until a `]` follows buf[far] or the file ends.

        Only an entry longer than a chunk gets here.  In a valid data array
        the text from far to the next `]` then holds whitespace and parts of
        at most two entries: number characters, two commas and one `[`.  Any
        other text is refused as it is read, so the buffer grows only by
        ASCII text that decodes to a few Python objects.  The chunk at buf[0]
        starts at entry start, so that the refusal can name its entry.
        """
        parts, text, values = [self.buf], self.buf[far:], 0
        while True:
            text = text.partition("]")[0]
            values += text.count(",") + text.count("[")
            if values > 3 or _NOT_NUMERIC.search(text):
                raise self.malformed(far, start)
            if self.eof or (len(parts) > 1 and "]" in parts[-1]):
                break
            text = self.f.read(LOAD_CHUNK_CHARS)
            self.eof = not text
            parts.append(text)
        self.buf = "".join(parts)

    def malformed(self, far: int, start: int) -> ToolkitError:
        """The error for text from far on that no entry of a data array holds.

        The chunk's entries up to the last `]` before far are decoded, at
        most one chunk of them: the first that is not a pair of finite
        numbers is named, else the entry after them, which holds the text.
        Text that does not decode as entries is only called malformed.
        """
        head = self.buf[:self.buf.rfind("]", 0, far) + 1]
        try:
            data, end = _DECODER.raw_decode(f"[{head}]")
        except (ValueError, RecursionError):
            end = -1
        if end != len(head) + 2:
            return ToolkitError("matrix data is malformed")
        if data:
            _pairs(data, start)
        return ToolkitError(f"entry {start + len(data)} is not an [re, im] pair")

    def peek(self) -> str:
        """The next character that is not whitespace ('' at the end); pos moves to it."""
        while True:
            self.pos = _WS.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos:self.pos + 1]
            self.fill()

    def error(self, msg: str, i: int) -> ToolkitError:
        """json's error for msg at buf[i], placed in the whole file."""
        newlines = self.buf.count("\n", 0, i)
        start = (self.base + self.buf.rfind("\n", 0, i) + 1 if newlines
                 else self.line_start)
        return ToolkitError(
            f"not a matrix file: {msg}: line {self.lines + newlines + 1} "
            f"column {self.base + i - start + 1} (char {self.base + i})")

    def decode(self, text: str, idx: int = 0, shift: int = 0):
        """_DECODER.raw_decode(text, idx); text[i] stands at buf[i + shift]."""
        try:
            return _DECODER.raw_decode(text, idx)
        except json.JSONDecodeError as exc:
            raise self.error(exc.msg, exc.pos + shift) from exc
        except RecursionError as exc:  # the decoder recurses per nesting level
            raise ToolkitError("not a matrix file: nested too deeply") from exc
        except ToolkitError:
            raise
        except ValueError as exc:  # an integer literal past int's digit limit
            raise ToolkitError(f"not a matrix file: {exc}") from exc

    def scalar(self):
        """The JSON value at pos, which must not open an array or object."""
        self.fill()
        value, self.pos = self.decode(self.buf, self.pos)
        return value

    def key(self) -> str:
        """The object key whose opening quote is at pos."""
        self.fill()
        try:
            key, self.pos = json.decoder.scanstring(self.buf, self.pos + 1)
        except json.JSONDecodeError as exc:
            raise self.error(exc.msg, exc.pos) from exc
        return key

    def cut(self, start: int) -> int:
        """Index just past the `]` that ends the next chunk of data entries.

        The chunk starts at pos, which this leaves at 0, with entry start.  It
        ends at the first `]` at least LOAD_CHUNK_CHARS past its start, unless
        the array closes sooner: then at the `]` of the array's last entry.
        """
        self.fill(2 * LOAD_CHUNK_CHARS)
        far = LOAD_CHUNK_CHARS
        end = _DATA_END.search(self.buf, 0, far)
        if end:
            return end.start() + 1
        c = self.buf.find("]", far)
        if c < 0 and not self.eof:
            self.read_past(far, start)
            c = self.buf.find("]", far)
        if c < 0:  # no `]` up to the end: decoding the rest reports the error
            return len(self.buf)
        end = _DATA_END.search(self.buf, 0, c + 1)
        return end.start() + 1 if end else c + 1


def _entry_error(data: list, start: int) -> ToolkitError:
    """The error naming the first malformed entry; runs only on a bad file."""
    for k, entry in enumerate(data, start):
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


def _pairs(data: list, start: int) -> np.ndarray:
    """The entries data[k] = [re, im] as float64 rows; data[0] is entry start."""
    # the scan is not optional: np.array would convert "1.5" and true silently
    if not (set(map(type, data)) == {list} and set(map(len, data)) == {2}
            and set(map(type, chain.from_iterable(data))) <= {int, float}):
        raise _entry_error(data, start)
    try:
        pairs = np.array(data, dtype=float)
    except OverflowError as exc:
        raise _entry_error(data, start) from exc
    if not np.isfinite(pairs).all():  # a literal such as 1e400 parses to inf
        raise _entry_error(data, start)
    return pairs


def _read_size(r: _Reader) -> int:
    """rows or cols, decoded only if it is a scalar."""
    value = None if r.peek() in ("[", "{", '"') else r.scalar()
    if type(value) is not int or value <= 0:
        raise ToolkitError("rows and cols must be positive integers")
    return value


def _read_chunk(r: _Reader, start: int) -> tuple[np.ndarray, int, int]:
    """(pairs, cut, end) for the chunk of data entries at pos, entry start on.

    The chunk is buf[:cut], and "[" + chunk + "]" decodes up to end; end
    falls short of cut + 2 iff the data array closed inside the chunk.  The
    Python objects are freed on return, before the next chunk is decoded.
    """
    cut = r.cut(start)
    data, end = r.decode("[" + r.buf[:cut] + "]", shift=-1)
    return _pairs(data, start), cut, end


def _read_data(r: _Reader, count, limit: int) -> np.ndarray:
    """The data array as float64 (re, im) rows, with at most limit rows reserved.

    count, the rows * cols the file declared before its data, only names
    what a data field that is not a list should have held.
    """
    if r.peek() != "[":
        raise DimensionMismatch(f"expected {count} entries, got non-list")
    r.pos += 1
    out, k, c = np.empty((0, 2)), 0, ","
    if r.peek() == "]":
        r.pos, c = r.pos + 1, "]"
    while c == ",":
        if r.peek() in ("", "]"):
            raise r.error("Expecting value", r.pos)
        pairs, cut, end = _read_chunk(r, k)
        if k + len(pairs) > len(out):
            out.resize((max(k + len(pairs), min(2 * len(out), limit)), 2),
                       refcheck=False)
        out[k:k + len(pairs)] = pairs
        k += len(pairs)
        if end <= cut + 1:  # the data array closed inside the chunk
            r.pos = end - 1
            break
        r.pos = cut
        c = r.peek()
        r.pos += 1
        if c not in (",", "]"):
            raise r.error("Expecting ',' delimiter", r.pos - 1)
    out.resize((k, 2), refcheck=False)
    return out


def _read_fields(r: _Reader, size: int) -> dict:
    """The fields of the file's top-level object, in a single pass."""
    c = r.peek()
    if c != "{":
        if c not in ("[", '"'):  # report text that is not JSON as json would
            r.scalar()
        raise ToolkitError("matrix file must be a JSON object")
    r.pos += 1
    fields, c = {}, ","
    if r.peek() == "}":
        r.pos, c = r.pos + 1, "}"
    while c == ",":
        if r.peek() != '"':
            raise r.error("Expecting property name enclosed in double quotes", r.pos)
        key = r.key()
        if key not in FIELDS:
            raise ToolkitError(f"unknown field {key!r} in matrix file")
        if key in fields:
            raise ToolkitError(f"repeated field {key!r} in matrix file")
        if r.peek() != ":":
            raise r.error("Expecting ':' delimiter", r.pos)
        r.pos += 1
        r.peek()
        if key == "data":
            count = (fields["rows"] * fields["cols"] if "rows" in fields
                     and "cols" in fields else "rows * cols")
            # every entry but the last takes 6 bytes of the file or more: "[0,0],"
            fields[key] = _read_data(r, count, size // 6 + 1 if size else sys.maxsize)
        else:
            fields[key] = _read_size(r)
        c = r.peek()
        r.pos += 1
        if c not in (",", "}"):
            raise r.error("Expecting ',' delimiter", r.pos - 1)
    if r.peek():
        raise r.error("Extra data", r.pos)
    return fields


def load_matrix(path) -> np.ndarray:
    with open(Path(path), "r", encoding="utf-8") as f:
        try:
            fields = _read_fields(_Reader(f), os.fstat(f.fileno()).st_size)
        except UnicodeDecodeError as exc:
            raise ToolkitError(f"not a matrix file: {exc}") from exc
    for key in FIELDS:
        if key not in fields:
            raise ToolkitError(f"matrix file missing field {key!r}")
    rows, cols, pairs = (fields[key] for key in FIELDS)
    if len(pairs) != rows * cols:
        raise DimensionMismatch(f"expected {rows * cols} entries, got {len(pairs)}")
    # row k of pairs is (re, im) of entry k: the memory layout of complex128
    return pairs.view(np.complex128).reshape(rows, cols)
