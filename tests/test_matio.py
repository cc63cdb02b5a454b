import json
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posmaps import (
    DimensionMismatch,
    ToolkitError,
    breuer_hall,
    choi,
    cli,
    load_matrix,
    make_rng,
    random_antisymmetric_unitary,
    save_matrix,
)
from posmaps import matio
from posmaps.matio import LOAD_CHUNK_CHARS, SAVE_CHUNK_ENTRIES

from oracles import load_matrix_json, save_matrix_per_entry


def test_roundtrip_exact(tmp_path):
    rng = make_rng(0)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    p = tmp_path / "m.json"
    save_matrix(p, m)
    assert np.array_equal(load_matrix(p), m)


def test_file_shape(tmp_path):
    p = tmp_path / "m.json"
    save_matrix(p, np.array([[1.0, 2.0j]]))
    doc = json.loads(p.read_text())
    assert doc == {"rows": 1, "cols": 2, "data": [[1.0, 0.0], [0.0, 2.0]]}
    assert p.read_text().endswith("\n")


def special_values():
    # signed zero, the smallest subnormal, near-overflow, a tiny negative,
    # integral values, and floats with a short and a 16-digit shortest repr
    v = np.array([-0.0, 5e-324, 1e308, -1e-300, 3.0, 1e16, 0.1, 1 / 3])
    m = np.empty(8, dtype=np.complex128)
    m.real, m.imag = v, v[::-1]
    return m.reshape(2, 4)


def random_7x5():
    rng = make_rng(3)
    return rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))


def transposed_7x5():
    # not C-contiguous: the writer must still go in row-major order
    return random_7x5().T


def bh_choi_16():
    return choi(breuer_hall(random_antisymmetric_unitary(make_rng(5), 16)))


def chunk_edge(entries):
    """A column of random entries with the special values across the first
    chunk boundary that it reaches."""
    rng = make_rng(entries)
    m = rng.standard_normal(entries) + 1j * rng.standard_normal(entries)
    edge = min(SAVE_CHUNK_ENTRIES, entries - 4)
    m[edge - 4:edge + 4] = special_values().ravel()
    return m.reshape(entries, 1)


@pytest.mark.parametrize("build", [special_values, random_7x5, transposed_7x5,
                                   bh_choi_16] + [
    pytest.param(lambda k=k: chunk_edge(k), id=f"entries={k}")
    for k in (SAVE_CHUNK_ENTRIES - 1, SAVE_CHUNK_ENTRIES, SAVE_CHUNK_ENTRIES + 1,
              2 * SAVE_CHUNK_ENTRIES + 1)])
def test_writer_bytes_match_per_entry_writer(tmp_path, build):
    m = build()
    save_matrix(tmp_path / "new.json", m)
    save_matrix_per_entry(tmp_path / "old.json", m)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
    got = load_matrix(tmp_path / "new.json")
    assert got.dtype == np.complex128 and got.shape == m.shape
    for part in ("real", "imag"):
        a, b = getattr(got, part), getattr(m, part)
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_peak_within_export_guard(tmp_path):
    # 24-character numbers, the longest that the writer emits; the writer
    # holds one chunk of them, however many entries the matrix has
    m = np.full((2 * SAVE_CHUNK_ENTRIES + 1, 3), -2.2250738585072014e-308 * (1 + 1j))
    peak = traced_peak(lambda: save_matrix(tmp_path / "m.json", m))
    assert peak <= (cli.SAVE_BYTES_PER_ENTRY * m.size
                    + cli.SAVE_BYTES_PER_CHUNK_ENTRY * SAVE_CHUNK_ENTRIES)


def test_load_peak_within_load_guard(tmp_path):
    # [0,0] entries with no spaces: the most Python objects per file byte
    p = tmp_path / "m.json"
    p.write_text('{"rows":256,"cols":256,"data":[%s]}' % ",".join(["[0,0]"] * 65536))
    peak = traced_peak(lambda: load_matrix(p))
    assert peak <= cli._load_bytes(p.stat().st_size)


def load_or_error(p):
    try:
        return load_matrix(p)
    except ToolkitError as exc:
        return exc


@pytest.mark.parametrize("text, bound", [
    # [0,0] entries with no spaces: the most entries per file byte, 16 B of
    # result for 6 B of file, plus one chunk of Python lists (2.0 MB)
    ('{"rows":512,"cols":512,"data":[%s]}' % ",".join(["[0,0]"] * 512 ** 2), None),
    # the longest numbers the writer emits: 0.6x their file
    ('{"rows":65536,"cols":1,"data":[%s]}' % ", ".join(
        ["[-2.2250738585072014e-308, -2.2250738585072014e-308]"] * 65536), 0.7),
    # a non-BMP character widens a str to 4 B a character; this key is
    # refused after one block is read, where json.load held 24x the file
    ('{"\U0001F600": 1, "rows":256,"cols":256,"data":[%s]}'
     % ",".join(["[0,0]"] * 65536), 0),
    # one entry longer than a chunk: its text is held three times
    ('{"rows":1,"cols":1,"data":[[1.%s, 0]]}' % ("0" * 2 ** 21), None),
    # non-numbers past a chunk are refused as they are read
    ('{"rows":1,"cols":1,"data":[%s]}' % ",".join(["{}"] * 2 ** 19), 0),
    ('{"rows":1,"cols":1,"data":[%s]}' % ",".join(["1.5"] * 2 ** 19), 0),
], ids=["compact", "24-characters", "non-BMP-key", "long-entry", "objects",
        "flat-numbers"])
def test_load_peak_factors(tmp_path, text, bound):
    p = tmp_path / "m.json"
    p.write_text(text, encoding="utf-8")
    size = p.stat().st_size
    peak = traced_peak(lambda: load_or_error(p))
    assert peak <= cli._load_bytes(size)
    if bound is not None:  # the share of the file, beyond one chunk
        assert peak - cli.LOAD_BYTES_PER_CHUNK <= bound * size


def same_values(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and all(
        np.array_equal(getattr(a, part), getattr(b, part))
        and np.array_equal(np.signbit(getattr(a, part)), np.signbit(getattr(b, part)))
        for part in ("real", "imag"))


def both_loaders(text: str, chunk: int = LOAD_CHUNK_CHARS):
    """(load_matrix_json's outcome, load_matrix's) on a file holding text.

    An outcome is the matrix or the exception raised; load_matrix reads
    the data array chunk characters at a time.
    """
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "m.json"
        p.write_text(text, encoding="utf-8")
        try:
            old = load_matrix_json(p)
        except Exception as exc:  # the old loader let some ValueErrors out
            old = exc
        with mock.patch.object(matio, "LOAD_CHUNK_CHARS", chunk):
            new = load_or_error(p)
    return old, new


NUMBERS = ["0", "-0", "-0.0", "3", "-2", "0.1", "1e5", "1E-5", "-1.25e+3",
           "5e-324", "1.7976931348623157e308", "12345678901234567890",
           "1%s" % ("0" * 400), "1e400", "-1e400"]
NOT_NUMBERS = ["true", "null", '"1.5"', '"\U0001F600"', "NaN", "Infinity",
               "-Infinity", "[0]", "{}", '{"re": 0}', "[]"]
SPACE = st.sampled_from(["", " ", "\n", "\t", " \r\n "])


@st.composite
def numbers(draw):
    return draw(st.one_of(
        st.sampled_from(NUMBERS),
        st.integers(-10 ** 20, 10 ** 20).map(str),
        st.floats(allow_nan=False, allow_infinity=False).map(repr)))


@st.composite
def entries(draw):
    if draw(st.integers(0, 9)):
        return "[%s%s%s,%s%s%s]" % (draw(SPACE), draw(numbers()), draw(SPACE),
                                    draw(SPACE), draw(numbers()), draw(SPACE))
    bad = draw(st.sampled_from(NOT_NUMBERS))
    return draw(st.sampled_from([bad, f"[{bad}, 0]", f"[0, {bad}]", "[0]",
                                 "[0, 0, 0]", draw(numbers())]))


@st.composite
def matrix_files(draw):
    """(text, breaks_a_new_rule): a matrix file, valid or near it."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    count = draw(st.one_of(st.just(rows * cols), st.integers(0, 20)))
    fields = {
        "rows": str(rows), "cols": str(cols),
        "data": "[%s%s%s]" % (draw(SPACE), ",".join(
            draw(SPACE) + draw(entries()) + draw(SPACE) for _ in range(count)),
            draw(SPACE))}
    for key in ("rows", "cols", "data"):
        if not draw(st.integers(0, 12)):
            fields[key] = draw(st.sampled_from(
                ["0", "-1", "1.5", "2.0", "true", "null", '"2"', "[2]", "{}",
                 "1%s" % ("0" * 30), "Infinity"]))
    keys = draw(st.permutations(sorted(fields)))
    if not draw(st.integers(0, 9)):
        keys = keys[1:]
    extra = draw(st.sampled_from([[]] * 8 + [["rows"], ["data"], ["note"]]))
    fields["note"] = "[1, 2]"
    names = {k: '"%s"' % k for k in fields} | {"rows": draw(
        st.sampled_from(['"rows"', '"\\u0072ows"']))}
    keys = list(keys) + extra
    text = "{%s}%s" % (",".join(
        "%s%s%s:%s%s%s" % (draw(SPACE), names[k], draw(SPACE), draw(SPACE),
                           fields[k], draw(SPACE))
        for k in keys), draw(SPACE))
    if not draw(st.integers(0, 4)):  # one character inserted, dropped or cut
        i = draw(st.integers(0, len(text)))
        text = draw(st.sampled_from([
            text[:i] + draw(st.sampled_from(list('[]{},:" 0x\n-e.'))) + text[i:],
            text[:i] + text[i + 1:], text[:i]]))
    return text, "note" in keys or len(set(keys)) < len(keys)


@given(matrix_files(), st.sampled_from([1, 2, 3, 5, 8, 13, 64, LOAD_CHUNK_CHARS]))
@settings(max_examples=400, deadline=None)
def test_loader_matches_json_load(case, chunk):
    # both raise, or both return the same bits; a file with an unknown or a
    # repeated field is refused, where json.load kept the last value
    text, new_rule = case
    old, new = both_loaders(text, chunk)
    if new_rule:
        assert isinstance(new, ToolkitError)
    elif isinstance(old, np.ndarray):
        assert isinstance(new, np.ndarray) and same_values(old, new)
    else:
        assert isinstance(new, ToolkitError)


def chunk_starts(text):
    """The entry index at which each chunk of the data array starts."""
    starts = []
    real = matio._read_chunk

    def spy(r, start):
        starts.append(start)
        return real(r, start)

    with mock.patch.object(matio, "_read_chunk", spy):
        old, new = both_loaders(text)
    assert same_values(old, new)
    return starts


def fixed_width(k):
    """Entry k, 16 characters wide for k < 10,000."""
    return "[%.4f,%.4f]" % (1 + k / 1e4, -1 - k / 1e4)


def compact_file(count, entry=fixed_width):
    return '{"rows":%d,"cols":1,"data":[%s]}' % (count, ",".join(map(entry, range(count))))


def test_chunks_cut_after_an_entry():
    # the first `]` 64 KiB or more into a chunk ends it: entry i of 17
    # characters with its comma ends at 17 i + 15, so 3,856 entries make a
    # chunk; then counts around one and two chunks
    per_chunk = chunk_starts(compact_file(9000))[1]
    assert per_chunk == -(-(LOAD_CHUNK_CHARS - 15) // 17) + 1 == 3856
    for count in (per_chunk - 1, per_chunk, per_chunk + 1, 2 * per_chunk,
                  2 * per_chunk + 1):
        starts = chunk_starts(compact_file(count))
        assert starts == list(range(0, count, per_chunk))


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("entry, why", [
    ("[0]", "is not an [re, im] pair"),
    ("[0, null]", "is not a pair of numbers"),
    ("[0, 1e400]", "is not finite"),
])
def test_bad_entry_at_a_chunk_edge_is_named(offset, entry, why):
    per_chunk = chunk_starts(compact_file(9000))[1]
    bad = per_chunk + offset
    text = compact_file(9000, lambda k: entry if k == bad else fixed_width(k))
    old, new = both_loaders(text)
    assert str(old) == str(new) == f"entry {bad} {why}"


@pytest.mark.parametrize("where", [0.1, 0.5, 0.99])
@pytest.mark.parametrize("junk", ["x", ",", "]", "}", ":"])
def test_syntax_error_names_the_same_place(where, junk):
    # an indented file has a line per number: line and column must count
    # across chunks as json.load counts them
    rng = make_rng(0)
    m = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    doc = {"rows": 60, "cols": 60,
           "data": np.column_stack([m.real.ravel(), m.imag.ravel()]).tolist()}
    text = json.dumps(doc, indent=1)
    i = text.index(",", int(where * len(text)))
    old, new = both_loaders(text[:i] + junk + text[i:])
    assert str(old).startswith("not a matrix file:") and str(old) == str(new)


@pytest.mark.parametrize("text, why", [
    ('{"rows": 1, "cols": 1, "data": [[0, 0]], "note": "x"}', "unknown field 'note'"),
    ('{"rows": 1, "cols": 1, "data": [[0, 0]], "rows": 1}', "repeated field 'rows'"),
    ('{"rows": 1, "\\u0072ows": 1, "cols": 1, "data": [[0, 0]]}', "repeated field 'rows'"),
    ('{"data": [[0, 0]], "data": [[0, 0]], "rows": 1, "cols": 1}', "repeated field 'data'"),
])
def test_load_refuses_unknown_and_repeated_fields(tmp_path, text, why):
    with pytest.raises(ToolkitError, match=re.escape(why)):
        load_matrix(write(tmp_path, text))


def test_unknown_field_is_refused_before_its_value(tmp_path):
    # json.load held ~25x this 1.8 MB array before it ignored it
    p = write(tmp_path, '{"note": [%s], "rows": 1, "cols": 1, "data": [[0, 0]]}'
              % ",".join(["[0,0]"] * 300_000))
    with pytest.raises(ToolkitError, match="unknown field 'note'"):
        load_matrix(p)
    assert traced_peak(lambda: load_or_error(p)) < 2 * 1024 ** 2


@pytest.mark.parametrize("value", ["[" * 100_000 + "]" * 100_000, "[1]",
                                   '{"n": %s}' % ("[" * 100_000 + "]" * 100_000)])
def test_load_refuses_nonscalar_size_undecoded(tmp_path, value):
    # a deep list here made json.load say "nested too deeply"
    p = write(tmp_path, '{"rows": %s, "cols": 1, "data": [[0, 0]]}' % value)
    with mock.patch.object(matio._DECODER, "raw_decode",
                           side_effect=AssertionError("decoded")):
        with pytest.raises(ToolkitError, match="rows and cols must be positive integers"):
            load_matrix(p)


def test_load_refuses_overlong_integer(tmp_path):
    # json.load let int's digit-limit ValueError out of the loader
    p = write(tmp_path, '{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 5000))
    with pytest.raises(ToolkitError, match="not a matrix file"):
        load_matrix(p)


def test_load_refuses_invalid_utf8(tmp_path):
    p = tmp_path / "m.json"
    p.write_bytes(b'{"rows": 1, "cols": 1, "data": [[0, 0]]}\xff')
    with pytest.raises(ToolkitError, match="not a matrix file"):
        load_matrix(p)


def test_save_rejects_nonfinite(tmp_path):
    with pytest.raises(ToolkitError):
        save_matrix(tmp_path / "m.json", np.array([[np.nan]]))
    with pytest.raises(ToolkitError):
        save_matrix(tmp_path / "m.json", np.array([[np.inf]]))


def write(tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    return p


def test_load_rejects_infinity_literal(tmp_path):
    p = write(tmp_path, '{"rows": 1, "cols": 1, "data": [[Infinity, 0.0]]}')
    with pytest.raises(ToolkitError):
        load_matrix(p)


def test_load_rejects_malformed(tmp_path):
    for text in (
        "not json",
        "[1, 2]",
        '{"rows": 1, "cols": 1}',
        '{"rows": 0, "cols": 1, "data": []}',
        '{"rows": 1.5, "cols": 1, "data": [[0, 0]]}',
        '{"rows": 1, "cols": 1, "data": [[0, 0, 0]]}',
        '{"rows": 1, "cols": 1, "data": [0]}',
        '{"rows": 1, "cols": 1, "data": [[null, 0]]}',
        '{"rows": 1, "cols": 1, "data": [["a", 0]]}',
        '{"rows": true, "cols": 1, "data": [[0, 0]]}',
        '{"rows": 1, "cols": 1, "data": [["1.5", true]]}',
        '{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 400),
        '{"rows": 1, "cols": 1, "data": [[0, true]]}',
        '{"rows": 1, "cols": 1, "data": [[0, "1"]]}',
        '{"rows": 1, "cols": 1, "data": [[0, 1e400]]}',
        '{"rows": 1, "cols": 1, "data": [[0, -1e400]]}',
        '{"rows": 1, "cols": 1, "data": [[0, [0]]]}',
        '{"rows": 1, "cols": 1, "data": [[0, {}]]}',
        '{"rows": 1, "cols": 1, "data": [{"re": 0}]}',
        '{"rows": 1, "cols": 2, "data": [[0, 0], [0]]}',
        '{"rows": 1, "cols": 2, "data": [[0, 0], [0, 0, 0]]}',
        '{"rows": 1, "cols": 1, "data": [[0, 1%s]]}' % ("0" * 400),
    ):
        with pytest.raises(ToolkitError):
            load_matrix(write(tmp_path, text))


@pytest.mark.parametrize("entry, why", [
    ("[0]", "is not an [re, im] pair"),
    ("[0, null]", "is not a pair of numbers"),
    ("[0, 1e400]", "is not finite"),
    ("[1%s, 0]" % ("0" * 400), "is not finite"),
])
def test_load_names_the_bad_entry(tmp_path, entry, why):
    p = write(tmp_path, '{"rows": 2, "cols": 2, "data": [[0, 0], [1, 2], '
                        '[0.5, -1], %s]}' % entry)
    with pytest.raises(ToolkitError, match=re.escape(f"entry 3 {why}")):
        load_matrix(p)


def test_load_rejects_deep_nesting(tmp_path):
    # the JSON decoder recurses once per level and would hit the recursion
    # limit; a matrix file nests three levels deep
    depth = 100_000
    p = write(tmp_path, '{"rows": 1, "cols": 1, "data": %s%s}'
              % ("[" * depth, "]" * depth))
    with pytest.raises(ToolkitError, match="nested too deeply"):
        load_matrix(p)


def test_load_rejects_length_mismatch(tmp_path):
    p = write(tmp_path, '{"rows": 2, "cols": 2, "data": [[1, 0]]}')
    with pytest.raises(DimensionMismatch):
        load_matrix(p)


def test_load_accepts_integer_entries(tmp_path):
    p = write(tmp_path, '{"rows": 1, "cols": 1, "data": [[3, -2]]}')
    assert load_matrix(p)[0, 0] == 3 - 2j
