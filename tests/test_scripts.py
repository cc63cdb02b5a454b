"""The experiment scripts, run in-process through their main(argv)."""

import csv
import importlib.util
import io
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(capsys, name, *argv):
    code = load_script(name).main(list(argv))
    out = capsys.readouterr().out
    reader = csv.DictReader(io.StringIO(out))
    return code, reader.fieldnames, list(reader)


@pytest.mark.parametrize("budget, saturated, samples", [
    (None, "True", "94"),
    # 50 samples reach the closed form but not the saturation window: the
    # run proves nothing, so the script must not report a mismatch
    (50, "False", "50"),
])
def test_dn_table(capsys, budget, saturated, samples):
    argv = ["--n", "4"] + ([] if budget is None else ["--budget", str(budget)])
    code, header, rows = run_script(capsys, "dn_table", *argv)
    assert code == 0
    assert header == ["n", "Dn", "bound", "measured", "saturated", "samples",
                      "seconds"]
    assert len(rows) == 1
    row = rows[0]
    del row["seconds"]
    assert row == {"n": "4", "Dn": "60", "bound": "60", "measured": "60",
                   "saturated": saturated, "samples": samples}


@pytest.mark.parametrize("budget, saturated, verdict", [
    (None, "True", "exposed-certificate"),
    (50, "False", "inconclusive"),
])
def test_bh_exposedness_scan(capsys, budget, saturated, verdict):
    argv = ["--n", "4", "--draws", "2"]
    argv += [] if budget is None else ["--budget", str(budget)]
    code, header, rows = run_script(capsys, "bh_exposedness_scan", *argv)
    assert code == 0
    assert header == ["draw", "n", "unital_residual", "irreducible", "N_dim",
                      "target", "saturated", "verdict", "seconds"]
    assert [row["draw"] for row in rows] == ["0", "1"]
    for row in rows:
        assert float(row["unital_residual"]) <= 1e-12
        assert {k: row[k] for k in ("n", "irreducible", "N_dim", "target",
                                    "saturated", "verdict")} == {
            "n": "4", "irreducible": "True", "N_dim": "60", "target": "60",
            "saturated": saturated, "verdict": verdict}


@pytest.mark.parametrize("name, argv", [
    ("dn_table", ["--n", ","]),
    ("dn_table", ["--n", "4,x"]),
    ("bh_exposedness_scan", ["--draws", "0"]),
])
def test_nothing_to_tabulate_is_usage_error(capsys, name, argv):
    with pytest.raises(SystemExit) as exc:
        load_script(name).main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("name, argv", [
    ("dn_table", ["--n", "4,5"]),
    ("bh_exposedness_scan", ["--n", "5", "--draws", "1"]),
])
def test_rejected_input_exits_2(capsys, name, argv):
    # exit 1 means a saturated mismatch, so a bad input must not use it
    assert load_script(name).main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith("error: ") and "even dimension" in last


@pytest.mark.parametrize("name", ["dn_table", "bh_exposedness_scan"])
def test_negative_seed_exits_2(capsys, name):
    assert load_script(name).main(["--n", "4", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("name, argv", [
    ("dn_table", ["--n", "4"]),
    ("bh_exposedness_scan", ["--n", "4", "--draws", "1"]),
])
def test_unwritable_out_exits_2_before_any_row(capsys, tmp_path, name, argv):
    out = tmp_path / "no" / "dir" / "x.csv"
    assert load_script(name).main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the only stderr line is the error: no row was computed first
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_scan_applies_verify_rule(capsys, monkeypatch):
    # a draw that bh-random-exposed would FAIL is UNEXPECTED, even with
    # the N-dimension saturated at the target
    from posmaps import commutant
    monkeypatch.setattr(commutant, "is_irreducible", lambda phi: False)
    code, _, rows = run_script(capsys, "bh_exposedness_scan",
                               "--n", "4", "--draws", "1")
    assert code == 1
    assert rows[0]["N_dim"] == rows[0]["target"] == "60"
    assert (rows[0]["irreducible"], rows[0]["verdict"]) == ("False", "UNEXPECTED")
