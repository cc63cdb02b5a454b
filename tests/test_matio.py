import json
import re
import tracemalloc

import numpy as np
import pytest

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
from posmaps.matio import SAVE_CHUNK_ENTRIES

from oracles import save_matrix_per_entry


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
    assert peak <= cli.LOAD_BYTES_PER_FILE_BYTE * p.stat().st_size


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
