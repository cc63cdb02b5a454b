import json

import numpy as np
import pytest

from posmaps import (
    DimensionMismatch,
    ToolkitError,
    load_matrix,
    make_rng,
    save_matrix,
)


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
    ):
        with pytest.raises(ToolkitError):
            load_matrix(write(tmp_path, text))


def test_load_rejects_length_mismatch(tmp_path):
    p = write(tmp_path, '{"rows": 2, "cols": 2, "data": [[1, 0]]}')
    with pytest.raises(DimensionMismatch):
        load_matrix(p)


def test_load_accepts_integer_entries(tmp_path):
    p = write(tmp_path, '{"rows": 1, "cols": 1, "data": [[3, -2]]}')
    assert load_matrix(p)[0, 0] == 3 - 2j
