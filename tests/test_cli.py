import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import posmaps
from posmaps import (antisym, cli, commutant, load_matrix, matio, posmap,
                     robertson_map, save_matrix, choi, transpose_map, u0,
                     witness)
from posmaps.cli import CHECKS, bh_exposedness, main
from posmaps.reports import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    VerificationReport,
    exit_code,
    render_reports,
    render_text,
)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def residual(bound):
    return pytest.approx(0.0, abs=bound)


SPAN_TOLS = {"herm": 1e-12, "kernel": 1e-10, "rank": 1e-09}

# `verify all --format json --seed 0`: every status, integer decision and
# tolerance is exact; floats are compared with approx
VERIFY_ALL_SEED0 = [
    ("bh-random-exposed", {"achieved_dim": 60, "irreducible": True, "n": 4,
                           "saturated": True, "strong_spanning_target": 60,
                           "unital_residual": residual(1e-14)},
     {"achieved_dim": 60, "irreducible": True, "unital_residual": 0.0},
     SPAN_TOLS | {"unital": 1e-12}),
    ("canonical-form-roundtrip", {"decompositions": 75,
                                  "max_residual": residual(1e-13)},
     {"max_residual": 0.0}, {"reconstruction": 1e-08}),
    ("dn-table", {"rows": [[4, 60, 60, 60], [6, 196, 210, 196], [8, 456, 504, 456]]},
     {"measured_equals_Dn": True}, {"rank": 1e-09}),
    ("example1-transpose", {"printed_variant_rank": 6, "rank": 6}, {"rank": 6},
     {"rank": 1e-09}),
    ("example2-reduction", {"rank": 6}, {"rank": 6}, {"rank": 1e-09}),
    ("positivity-sample",
     {"min_value_n4": pytest.approx(0.0024904284354351075, rel=1e-9),
      "min_value_n6": pytest.approx(0.01781143601129919, rel=1e-9),
      "trials": 10_000},
     {"min_value": ">= -1e-10"}, {"kernel": 1e-10}),
    ("prop3-robertson-60", {"count": 60, "rank": 60}, {"rank": 60},
     {"rank": 1e-09}),
    ("reduction-n-fails", {"achieved_dim": 18, "n": 3, "saturated": True,
                           "target_dim": 24},
     {"achieved_dim": 18, "below_target": True}, SPAN_TOLS),
    ("robertson-irreducible", {"commutant_dim": 1, "contains_identity": True},
     {"commutant_dim": 1}, {"rank": 1e-09}),
    ("robertson-strong-spanning", {"achieved_dim": 60, "samples_used": 98,
                                   "saturated": True},
     {"achieved_dim": 60}, SPAN_TOLS),
]


class TestVerify:
    def test_all_json_frozen(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--format", "json",
                           "--seed", "0")
        assert code == 0
        assert json.loads(out) == [
            {"check_name": name, "status": "PASS", "measured": measured,
             "expected": expected, "tolerances": tolerances, "seed": 0,
             "runtime_ms": None}
            for name, measured, expected, tolerances in VERIFY_ALL_SEED0]

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_each_check_passes_at_defaults(self, capsys, check):
        args = ["verify", check]
        if check in ("dn-table", "canonical-form-roundtrip", "positivity-sample"):
            args += ["--n", "4"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out.startswith(f"[PASS] {check}")

    def test_all_runs_every_check_sorted(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--n", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(CHECKS)
        names = [ln.split()[1] for ln in lines]
        assert names == sorted(CHECKS)
        assert all(ln.startswith("[PASS]") for ln in lines)

    def test_bh_n6_inconclusive(self, capsys):
        code, out, _ = run(capsys, "verify", "bh-random-exposed", "--n", "6")
        assert code == 0
        assert out.startswith("[INCONCLUSIVE]")
        code2, _, _ = run(capsys, "verify", "bh-random-exposed", "--n", "6",
                          "--strict")
        assert code2 == 3

    def test_stdout_byte_identical(self, capsys):
        argv = ("verify", "example1-transpose", "--format", "json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_timings_go_to_stderr_only(self, capsys):
        _, out1, err1 = run(capsys, "verify", "example2-reduction")
        _, out2, err2 = run(capsys, "verify", "example2-reduction", "--timings")
        assert out1 == out2
        assert err1 == ""
        assert "example2-reduction" in err2 and "ms" in err2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "prop3-robertson-60",
                           "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 1
        assert docs[0]["status"] == "PASS"
        assert docs[0]["measured"]["rank"] == 60
        assert docs[0]["runtime_ms"] is None
        assert docs[0]["check_name"] == "prop3-robertson-60"

    def test_example1_reports_printed_variant(self, capsys):
        _, out, _ = run(capsys, "verify", "example1-transpose",
                        "--format", "json")
        doc = json.loads(out)[0]
        assert doc["measured"] == {"rank": 6, "printed_variant_rank": 6}

    def test_csv_dn_table(self, capsys):
        code, out, _ = run(capsys, "verify", "dn-table", "--n", "4,6",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,Dn,bound,measured"
        assert lines[1] == "4,60,60,60"
        assert lines[2] == "6,196,210,196"

    def test_csv_generic(self, capsys):
        code, out, _ = run(capsys, "verify", "example2-reduction",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,status,measured,expected,seed"
        assert lines[1].startswith("example2-reduction,PASS,")

    def test_csv_layout_chosen_by_check_name(self):
        # a "rows" key alone does not make a report a dn-table
        r = VerificationReport(check_name="other", status=PASS,
                               measured={"rows": [[1, 2]]})
        lines = render_reports([r], "csv").splitlines()
        assert lines[0] == "check,status,measured,expected,seed"
        assert lines[1].startswith("other,PASS,")

    def test_bh_exposedness_fails_reducible_map(self, monkeypatch):
        # unitality and irreducibility gate the verdict whatever the span
        # reaches; the exposedness scan judges its draws by the same rule
        monkeypatch.setattr(commutant, "is_irreducible", lambda phi: False)
        status, measured, _, _ = bh_exposedness(u0(4), 0, None)
        assert status == FAIL
        assert measured["irreducible"] is False
        assert measured["achieved_dim"] == measured["strong_spanning_target"]

    def test_seed_from_env_and_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("SEED", "7")
        _, out, _ = run(capsys, "verify", "example1-transpose",
                        "--format", "json")
        assert json.loads(out)[0]["seed"] == 7
        _, out, _ = run(capsys, "verify", "example1-transpose",
                        "--seed", "9", "--format", "json")
        assert json.loads(out)[0]["seed"] == 9

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SEED", "zzz")
        code, _, err = run(capsys, "verify", "example1-transpose")
        assert code == 2
        assert "SEED" in err

    def test_negative_seed_is_usage_error(self, capsys, monkeypatch):
        # exit 1 is the FAIL code, so a seed the RNG rejects must not use it
        code, out, err = run(capsys, "verify", "bh-random-exposed",
                             "--seed", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "seed" in err
        monkeypatch.setenv("SEED", "-2")
        code, out, err = run(capsys, "span", "--map", "robertson")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "seed" in err

    def test_negative_seed_without_draws_still_runs(self, capsys):
        code, out, _ = run(capsys, "verify", "example1-transpose",
                           "--seed", "-1")
        assert code == 0
        assert out.startswith("[PASS] example1-transpose")
        assert out.rstrip().endswith("seed=-1")

    def test_unknown_check_usage_error(self, capsys):
        assert run(capsys, "verify", "no-such-check")[0] == 2

    def test_reduction_check_needs_n3(self, capsys):
        code, _, err = run(capsys, "verify", "reduction-n-fails", "--n", "2")
        assert code == 2
        assert "n >= 3" in err

    @pytest.mark.parametrize("check", ["bh-random-exposed", "reduction-n-fails",
                                       "dn-table", "canonical-form-roundtrip",
                                       "positivity-sample"])
    def test_empty_n_list_is_usage_error(self, capsys, check):
        code, out, err = run(capsys, "verify", check, "--n", ",")
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("check", ["bh-random-exposed",
                                       "reduction-n-fails", "all"])
    def test_n_list_for_single_n_check_is_usage_error(self, capsys, check):
        code, out, err = run(capsys, "verify", check, "--n", "4,6")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        named = "bh-random-exposed" if check == "all" else check
        assert named in err

    def test_dn_table_budget_exhaustion_inconclusive(self, capsys):
        argv = ("verify", "dn-table", "--n", "4", "--budget", "50")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.startswith("[INCONCLUSIVE] dn-table")
        assert '"rows": [[4, 60, 60, 60]]' in out
        code, _, _ = run(capsys, *argv, "--strict")
        assert code == 3


class TestSpan:
    def test_transpose_N(self, capsys):
        code, out, _ = run(capsys, "span", "--map", "transpose", "--kind", "N")
        assert code == 0
        assert "achieved_dim=6" in out and "saturated=True" in out

    def test_reduction_M_n3(self, capsys):
        code, out, _ = run(capsys, "span", "--map", "reduction", "--kind", "M",
                           "--n", "3")
        assert code == 0
        assert "achieved_dim=6" in out

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "span", "--map", "robertson",
                           "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["achieved_dim"] == 60 and d["kind"] == "N"
        assert d["map_name"] == "robertson"
        assert d["tolerances"]["rank"] == 1e-9

    def test_robertson_json_frozen(self, capsys):
        code, out, _ = run(capsys, "span", "--map", "robertson",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "achieved_dim": 60, "ambient_dim": 64, "kind": "N",
            "map_name": "robertson", "samples_used": 98, "saturated": True,
            "seed": 0, "target_dim": 60, "tolerances": SPAN_TOLS}

    def test_strict_budget_exhaustion(self, capsys):
        code, out, _ = run(capsys, "span", "--map", "robertson",
                           "--budget", "2", "--strict")
        assert code == 3
        assert "saturated=False" in out

    def test_custom_tolerance_flows_through(self, capsys):
        _, out, _ = run(capsys, "span", "--map", "transpose",
                        "--tol-rank", "1e-7", "--format", "json")
        assert json.loads(out)["tolerances"]["rank"] == 1e-7

    @pytest.mark.parametrize("flags", [
        ("--kind", "M", "--tol-rank", "0"),
        ("--kind", "M", "--tol-rank", "nan"),
        ("--kind", "M", "--tol-rank", "-1"),
        ("--kind", "M", "--tol-rank", "1"),
        ("--kind", "M", "--tol-kernel", "nan"),
        ("--kind", "M", "--tol-kernel", "-1"),
        ("--kind", "M", "--tol-kernel", "inf"),
    ])
    def test_invalid_tolerance_is_usage_error(self, capsys, flags):
        # each of these used to report a saturated span, some of them
        # above the a-priori bound
        code, out, err = run(capsys, "span", "--map", "transpose", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: tolerances must be finite")

    @pytest.mark.parametrize("argv", [
        # these printed achieved_dim=64 above the bound 60 with exit 0, and
        # achieved_dim=4 against the frozen 3
        ("--map", "robertson", "--kind", "N", "--tol-kernel", "2", "--strict"),
        ("--map", "reduction", "--n", "2", "--kind", "M", "--tol-kernel", "1"),
    ])
    def test_kernel_cut_of_one_or_more_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "span", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: tolerances must be finite") and "kernel < 1" in err

    def test_kernel_cut_help_names_its_range(self, capsys):
        code, out, _ = run(capsys, "span", "--help")
        help_text = " ".join(out.split())
        assert code == 0 and "Phi(P_x); finite, > 0 and < 1" in help_text

    def test_unknown_map(self, capsys):
        assert run(capsys, "span", "--map", "bogus")[0] == 2

    def test_robertson_wrong_n(self, capsys):
        assert run(capsys, "span", "--map", "robertson", "--n", "6")[0] == 2


class TestSizeGuard:
    """Inputs whose arrays would pass MAX_ARRAY_BYTES exit 2 before allocating."""

    @pytest.fixture
    def no_build(self, monkeypatch):
        # a guard that lets one of these inputs through fails the test here,
        # instead of asking the machine for tens of GB
        def refuse(*args, **kwargs):
            raise AssertionError("reached an allocation past the guard")
        for owner, attr in ((posmap, "transpose_map"), (posmap, "reduction_map"),
                            (posmap, "breuer_hall"), (posmap, "map_from_action"),
                            (posmap, "positivity_sample_test"),
                            (matio, "save_matrix"), (matio, "load_matrix"),
                            (antisym, "random_antisymmetric_unitary"),
                            (witness, "estimate_N_dim"), (witness, "estimate_M_dim")):
            monkeypatch.setattr(owner, attr, refuse)

    @pytest.mark.parametrize("argv", [
        ("map-export", "--map", "transpose", "--n", "200", "--out", "x.json"),
        ("map-export", "--map", "breuer-hall", "--n", "200", "--form", "choi",
         "--out", "x.json"),
        ("span", "--map", "transpose", "--n", "200", "--kind", "M"),
        ("verify", "dn-table", "--n", "30"),
        ("verify", "dn-table", "--n", "4,6,30"),
        ("verify", "bh-random-exposed", "--n", "24"),
        ("verify", "reduction-n-fails", "--n", "24"),
        ("verify", "positivity-sample", "--n", "200"),
        ("verify", "canonical-form-roundtrip", "--n", "20000"),
        ("verify", "all", "--n", "30"),
        # a 1.8 GiB superop, but 2.4 GiB with the sampled states
        ("verify", "positivity-sample", "--n", "105"),
    ])
    def test_oversized_input_exits_2(self, capsys, tmp_path, monkeypatch,
                                     no_build, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "GiB limit" in err
        assert not (tmp_path / "x.json").exists()

    def test_n_span_checked_after_the_superop(self, capsys):
        # n=30 passes the superop check (13 MB) but not the N span buffer
        code, out, err = run(capsys, "span", "--map", "breuer-hall", "--n", "30")
        assert code == 2 and out == ""
        assert "N span needs 10.9 GiB" in err

    def test_file_map_span_checked(self, capsys, tmp_path, monkeypatch):
        # the n=9 file (66 kB) passes the load check (4.4 MB), its N span
        # (8.5 MB) does not
        path = tmp_path / "t9.json"
        save_matrix(path, transpose_map(9).superop)
        assert cli._load_bytes(path.stat().st_size) < 16 * 9 ** 6
        monkeypatch.setattr(cli, "MAX_ARRAY_BYTES", 16 * 9 ** 6 - 1)
        code, _, err = run(capsys, "span", "--map", f"file:{path}", "--kind", "N")
        assert code == 2 and "N span" in err
        code, out, _ = run(capsys, "span", "--map", f"file:{path}", "--kind", "M")
        assert code == 0 and "achieved_dim=80" in out

    def test_export_counts_matio(self, capsys, tmp_path, monkeypatch, no_build):
        # the superop and its Choi copy fit at n=90 (2.10 GB), but not with
        # save_matrix's finiteness mask of 1 B per entry
        assert cli._export_bytes(89) <= cli.MAX_ARRAY_BYTES < cli._export_bytes(90)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "map-export", "--map", "transpose",
                             "--n", "90", "--out", "x.json")
        assert (code, out) == (2, "")
        assert "exporting the n=90 map" in err and "GiB limit" in err
        assert not (tmp_path / "x.json").exists()

    def test_file_checked_before_load(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "rob.json"
        save_matrix(path, robertson_map().superop)
        limit = cli._load_bytes(path.stat().st_size)
        monkeypatch.setattr(cli, "MAX_ARRAY_BYTES", limit - 1)
        with monkeypatch.context() as patch:
            patch.setattr(matio, "load_matrix", lambda p: pytest.fail("loaded"))
            code, out, err = run(capsys, "span", "--map", f"file:{path}",
                                 "--kind", "M")
        assert (code, out) == (2, "")
        assert "loading" in err and "GiB limit" in err
        monkeypatch.setattr(cli, "MAX_ARRAY_BYTES", limit)
        code, out, _ = run(capsys, "span", "--map", f"file:{path}", "--kind", "M")
        assert code == 0 and "achieved_dim=16" in out

    @pytest.mark.parametrize("check, largest_ok", [
        ("dn-table", 22), ("bh-random-exposed", 22), ("reduction-n-fails", 22),
        ("positivity-sample", 99), ("canonical-form-roundtrip", 11585)])
    def test_limit_is_tight(self, capsys, monkeypatch, check, largest_ok):
        ran = []
        runner, ns, largest = CHECKS[check]
        monkeypatch.setitem(CHECKS, check, (
            lambda seed, n, budget: ran.append(n) or (cli.PASS, {}, {}, {}),
            ns, largest))
        assert run(capsys, "verify", check, "--n", str(largest_ok))[0] == 0
        assert run(capsys, "verify", check, "--n", str(largest_ok + 1))[0] == 2
        assert len(ran) == 1

    def test_positivity_sample_default_output(self, capsys):
        # sharing the trial count with the guard leaves the output as it was
        code, out, _ = run(capsys, "verify", "positivity-sample", "--format", "json")
        assert code == 0
        assert out == run(capsys, "verify", "positivity-sample", "--n", "4,6",
                          "--format", "json")[1]
        (report,) = json.loads(out)
        assert report["status"] == "PASS"
        assert report["measured"] == {
            "min_value_n4": pytest.approx(0.0024904284354351075, rel=1e-9),
            "min_value_n6": pytest.approx(0.01781143601129919, rel=1e-9),
            "trials": 10_000}


class TestMapExport:
    def test_superop_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "rob.json"
        code, _, _ = run(capsys, "map-export", "--map", "robertson",
                         "--out", str(out_path))
        assert code == 0
        assert np.array_equal(load_matrix(out_path), robertson_map().superop)

    def test_choi_is_hermitian(self, capsys, tmp_path):
        out_path = tmp_path / "rob_choi.json"
        code, _, _ = run(capsys, "map-export", "--map", "robertson",
                         "--form", "choi", "--out", str(out_path))
        assert code == 0
        c = load_matrix(out_path)
        assert np.abs(c - c.conj().T).max() <= 1e-14
        assert np.array_equal(c, choi(robertson_map()))

    def test_span_from_exported_file_both_forms(self, capsys, tmp_path):
        sup = tmp_path / "sup.json"
        ch = tmp_path / "choi.json"
        run(capsys, "map-export", "--map", "robertson", "--out", str(sup))
        run(capsys, "map-export", "--map", "robertson", "--form", "choi",
            "--out", str(ch))
        code, out, _ = run(capsys, "span", "--map", f"file:{sup}")
        assert code == 0 and "achieved_dim=60" in out
        code, out, _ = run(capsys, "span", "--map", f"file:{ch}",
                           "--file-form", "choi")
        assert code == 0 and "achieved_dim=60" in out

    def test_breuer_hall_seeded_export_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "map-export", "--map", "breuer-hall", "--n", "6",
            "--seed", "5", "--out", str(a))
        run(capsys, "map-export", "--map", "breuer-hall", "--n", "6",
            "--seed", "5", "--out", str(b))
        assert a.read_text() == b.read_text()

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_export_n32_peak_memory(self, tmp_path):
        # the 1,048,576-entry superop is 16.8 MB, and the export adds about
        # 17 MB of VmHWM to a warmed-up interpreter, where a writer that held
        # every entry as Python objects and text added 196 MB of ru_maxrss
        out = tmp_path / "t.json"
        grown = rss_growth_mb(TestPeakMemory.WARM, (
            "assert main(['map-export', '--map', 'transpose', '--n', "
            f"'32', '--out', {str(out)!r}]) == 0"))
        assert grown < 64
        assert np.array_equal(load_matrix(out), transpose_map(32).superop)

    def test_unwritable_path(self, capsys, tmp_path):
        code, out, err = run(capsys, "map-export", "--map", "robertson",
                             "--out", str(tmp_path / "no" / "dir" / "x.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "span", "--map",
                             f"file:{tmp_path / 'no' / 'x.json'}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_non_matrix_file_rejected(self, capsys, tmp_path):
        p = tmp_path / "junk.json"
        for text in ("{}", '{"rows": 1, "cols": 1, "data": [[null, 0]]}',
                     '{"rows": 1, "cols": 1, "data": [["1", 0]]}',
                     '{"rows": 1, "cols": 1, "data": [[true, 0]]}'):
            p.write_text(text)
            code, _, err = run(capsys, "span", "--map", f"file:{p}")
            assert code == 2
            assert err.startswith("error:")


    def test_deeply_nested_file_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "deep.json"
        depth = 100_000
        p.write_text('{"rows": 1, "cols": 1, "data": %s%s}'
                     % ("[" * depth, "]" * depth))
        code, out, err = run(capsys, "span", "--map", f"file:{p}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "nested too deeply" in err


def rss_growth_mb(setup: str, measured: str) -> float:
    """Peak resident growth, in MB, of a fresh interpreter over measured after setup.

    Reads VmHWM, the peak of the process's own address space: ru_maxrss
    starts a child at its parent's peak, which may already be the larger.
    """
    hwm = "int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import posmaps\nfrom posmaps.cli import main\n{setup}\n"
         f"before = {hwm}\n{measured}\nprint({hwm} - before)"],
        check=True, capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": str(Path(posmaps.__file__).resolve().parent.parent)})
    return int(proc.stdout.split()[-1]) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
class TestPeakMemory:
    # each command first runs a small span, so that imports and BLAS
    # buffers are counted before the measurement starts
    WARM = "assert main(['span', '--map', 'transpose', '--kind', 'M']) == 0"

    def test_file_span_reads_in_chunks(self, tmp_path):
        # the n=16 Choi file is 3.2 MB with 65,536 entries (1 MB as complex);
        # the span adds 3.6 MB, where a loader that held every entry as a
        # Python list added 13.5 MB
        path = tmp_path / "c16.json"
        save_matrix(path, choi(posmap.breuer_hall(
            antisym.random_antisymmetric_unitary(np.random.default_rng(5), 16))))
        grown = rss_growth_mb(self.WARM, (
            f"assert main(['span', '--map', 'file:{path}', '--file-form', "
            "'choi', '--kind', 'M']) == 0"))
        assert grown < 8

    def test_span_basis_is_not_copied_to_grow(self):
        # the n=12 N basis is 1508 x 1728 complex, 41.7 MB, and the span
        # adds 48 MB; a buffer that doubled held its old 1024 rows and their
        # copy at once, and added 61 MB
        grown = rss_growth_mb(self.WARM, (
            "assert main(['span', '--map', 'breuer-hall', '--n', '12']) == 0"))
        assert 16 * 1508 * 1728 / 1e6 < grown < 54


class TestEntryPoints:
    def test_module_invocation(self):
        # run from the directory that holds the package under test, so that
        # `-m` finds it without an install or PYTHONPATH
        proc = subprocess.run(
            [sys.executable, "-m", "posmaps", "verify", "example1-transpose"],
            capture_output=True, text=True,
            cwd=Path(posmaps.__file__).resolve().parent.parent)
        assert proc.returncode == 0
        assert proc.stdout.startswith("[PASS]")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class TestReports:
    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            VerificationReport(check_name="x", status="MAYBE")

    def test_json_roundtrip_drops_runtime(self):
        r = VerificationReport(check_name="x", status=PASS,
                               measured={"a": 1}, seed=3)
        doc = json.loads(json.dumps(r.to_dict()))
        assert doc == {"check_name": "x", "status": PASS,
                       "measured": {"a": 1}, "expected": {},
                       "tolerances": {}, "seed": 3, "runtime_ms": None}

    def test_render_text_shape(self):
        r = VerificationReport(check_name="demo", status=FAIL,
                               measured={"v": 2}, expected={"v": 1}, seed=0)
        line = render_text(r)
        assert line.startswith("[FAIL] demo ")
        assert line.endswith("seed=0")

    def test_exit_codes(self):
        ok = VerificationReport(check_name="a", status=PASS)
        bad = VerificationReport(check_name="b", status=FAIL)
        meh = VerificationReport(check_name="c", status=INCONCLUSIVE)
        assert exit_code([ok, ok]) == 0
        assert exit_code([ok, bad, meh]) == 1
        assert exit_code([ok, meh]) == 0
        assert exit_code([ok, meh], strict=True) == 3

    def test_csv_escaping(self):
        r = VerificationReport(check_name="a", status=PASS,
                               measured={"note": 'has,comma"quote'})
        out = render_reports([r], "csv")
        assert '""quote' in out

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_reports([], "xml")
