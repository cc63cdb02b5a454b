"""Command-line interface: named verifications, span estimation, map export.

Exit codes: 0 all PASS, 1 any FAIL, 2 usage error, 3 any INCONCLUSIVE when
--strict is set.  Output on stdout is byte-identical for identical flags and
seeds; wall-clock timings, when requested, go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import antisym, commutant, matio, numlin, posmap, reports, witness
from .errors import ToolkitError
from .numlin import DEFAULT_TOLS, Tolerances, make_rng
from .reports import FAIL, INCONCLUSIVE, PASS, VerificationReport

# Largest array, in bytes, a command may ask for.  Each command checks the
# shapes its --n (or its input file) implies before it allocates them.
MAX_ARRAY_BYTES = 2 * 1024 ** 3
# matio's peaks under tracemalloc (numpy 2.4.6).  A save holds a 1 B
# finiteness mask per entry, then one chunk of matio.SAVE_CHUNK_ENTRIES
# entries as Python floats and text (397 B per entry for 24-character
# numbers).  A load holds 24.1x the size of a file of [0,0] entries with
# no spaces, the worst case.
SAVE_BYTES_PER_ENTRY = 1
SAVE_BYTES_PER_CHUNK_ENTRY = 450
LOAD_BYTES_PER_FILE_BYTE = 25


def _check_bytes(what: str, nbytes: int) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        raise ToolkitError(
            f"{what} needs {nbytes / 1024 ** 3:.1f} GiB, above the "
            f"{MAX_ARRAY_BYTES / 1024 ** 3:.0f} GiB limit")


def _superop_bytes(n: int) -> int:
    """A complex n^2 x n^2 superoperator (or Choi matrix)."""
    return 16 * n ** 4


def _export_bytes(n: int) -> int:
    """The superoperator, its Choi copy, and save_matrix's mask and chunk."""
    return (2 * _superop_bytes(n) + SAVE_BYTES_PER_ENTRY * n ** 4
            + SAVE_BYTES_PER_CHUNK_ENTRY * matio.SAVE_CHUNK_ENTRIES)


# Sampled states per n in `verify positivity-sample`.
POSITIVITY_TRIALS = 10_000


def _positivity_bytes(n: int) -> int:
    """The superop and what positivity_sample_test holds beside it.

    The x and y draws, POSITIVITY_TRIALS x n complex each, with at most two
    temporaries of that size while drawing; then one batch of px, wy and
    px @ superop.T, each posmap.SAMPLE_BATCH_ROWS x n^2 complex.
    """
    return (_superop_bytes(n) + 4 * 16 * POSITIVITY_TRIALS * n
            + 3 * 16 * posmap.SAMPLE_BATCH_ROWS * n ** 2)


def _span_bytes(n: int, kind: str = "N") -> int:
    """A span buffer at its cap: ambient^2 complex entries, ambient n^3 or n^2."""
    return 16 * n ** (6 if kind == "N" else 4)


def _family_rank_check(family: str, expect: int, printed: str | None = None,
                       count: int | None = None):
    """Runner for the rank of a published kernel-pair family.

    printed names a variant of the family (Example 1's list with the last y
    as printed) whose rank is reported alongside without an expectation;
    count, when given, is reported as the size of the family.
    """
    def run(seed, ns, budget):
        rank = numlin.family_rank(witness.paper_family(family))
        measured = {"rank": rank}
        if printed is not None:
            measured["printed_variant_rank"] = numlin.family_rank(
                witness.paper_family(printed))
        if count is not None:
            measured["count"] = count
        return (PASS if rank == expect else FAIL, measured, {"rank": expect},
                {"rank": DEFAULT_TOLS.rank})
    return run


def _robertson_irreducible(seed, ns, budget):
    res = commutant.commutant_of_range(posmap.robertson_map())
    return (PASS if res.dim == 1 else FAIL,
            {"commutant_dim": res.dim,
             "contains_identity": res.contains_identity},
            {"commutant_dim": 1}, {"rank": DEFAULT_TOLS.rank})


def _robertson_strong_spanning(seed, ns, budget):
    rep = witness.estimate_N_dim(posmap.robertson_map(), budget=budget,
                                 seed=seed)
    return (rep.verdict(rep.target_dim),
            {"achieved_dim": rep.achieved_dim,
             "samples_used": rep.samples_used,
             "saturated": rep.saturated},
            {"achieved_dim": rep.target_dim}, rep.tolerances)


def bh_exposedness(u: antisym.AntisymmetricUnitary, seed: int,
                   budget: int | None):
    """Breuer-Hall map of U: unitality, irreducibility, N-dimension.

    The N-dimension is compared against the closed-form count; only at n=4
    does that count reach the strong-spanning target, so for larger n a
    matching dimension is reported INCONCLUSIVE (the exposedness criterion
    is silent there), while a mismatched saturated dimension, a map that is
    not unital or a reducible range is a FAIL.  Returns the runner tuple
    (status, measured, expected, tolerances); `bh-random-exposed` and
    scripts/bh_exposedness_scan.py both judge their draws by it.
    """
    n = u.n
    phi = posmap.breuer_hall(u)
    # Phi_U(I) - I = (I - U U^dag) / (n - 2), so the unitality cut is the
    # one that certified U as unitary
    unital = float(np.abs(phi.apply(np.eye(n)) - np.eye(n)).max())
    irred = commutant.is_irreducible(phi)
    rep = witness.estimate_N_dim(phi, budget=budget, seed=seed)
    expect = witness.dn_formula(n)
    status = rep.verdict(expect)
    if status == PASS and rep.achieved_dim < rep.target_dim:
        status = INCONCLUSIVE
    if not irred or unital > antisym.ANTISYM_TOL:
        status = FAIL
    return (status,
            {"n": n, "unital_residual": unital, "irreducible": irred,
             "achieved_dim": rep.achieved_dim,
             "strong_spanning_target": rep.target_dim,
             "saturated": rep.saturated},
            {"achieved_dim": expect, "irreducible": True,
             "unital_residual": 0.0},
            rep.tolerances | {"unital": antisym.ANTISYM_TOL})


def _bh_random_exposed(seed, n, budget):
    """bh_exposedness of one U = V u0 V^T drawn from the seed."""
    u = antisym.random_antisymmetric_unitary(make_rng(seed), n)
    return bh_exposedness(u, seed, budget)


def _reduction_n_fails(seed, n, budget):
    """Strong spanning must fall short for the reduction map beyond n=2.

    The generators x (x) xbar (x) x only fill a space of dimension
    n^2 (n+1) / 2, strictly below the (n^2 - 1) n target for n >= 3.
    """
    if n < 3:
        raise ToolkitError("reduction-n-fails needs --n >= 3")
    rep = witness.estimate_N_dim(posmap.reduction_map(n), budget=budget,
                                 seed=seed)
    expect = n * n * (n + 1) // 2
    return (rep.verdict(expect),
            {"n": n, "achieved_dim": rep.achieved_dim,
             "target_dim": rep.target_dim, "saturated": rep.saturated},
            {"achieved_dim": expect, "below_target": True},
            rep.tolerances)


def _dn_table(seed, ns, budget):
    """Measured N-dimension of random Breuer-Hall maps against the closed form."""
    rng = make_rng(seed)
    rows, statuses = [], []
    for n in ns:
        u = antisym.random_antisymmetric_unitary(rng, n)
        rep = witness.estimate_N_dim(posmap.breuer_hall(u), budget=budget,
                                     seed=seed)
        formula = witness.dn_formula(n)
        rows.append([n, formula, witness.dn_bound(n), rep.achieved_dim])
        statuses.append(rep.verdict(formula))
    return (reports.worst(statuses), {"rows": rows},
            {"measured_equals_Dn": True}, {"rank": DEFAULT_TOLS.rank})


def _canonical_form_roundtrip(seed, ns, budget):
    """Decompose random antisymmetric unitaries and reconstruct."""
    rng = make_rng(seed)
    worst = 0.0
    count = 0
    for n in ns:
        for _ in range(25):
            u = antisym.random_antisymmetric_unitary(rng, n)
            form = antisym.canonical_decompose(u)
            resid = float(np.abs(u.matrix - form.reconstruct()).max())
            worst = max(worst, resid)
            count += 1
        ref = antisym.canonical_decompose(antisym.u0(n))
        worst_alpha = max(abs(a) for a in ref.alphas)
        worst = max(worst, worst_alpha)
    return (PASS if worst <= antisym.DECOMPOSE_TOL else FAIL,
            {"max_residual": worst, "decompositions": count},
            {"max_residual": 0.0}, {"reconstruction": antisym.DECOMPOSE_TOL})


def _positivity_sample(seed, ns, budget):
    """Sampled positivity of random Breuer-Hall maps, by default at n = 4 and 6."""
    rng = make_rng(seed)
    measured = {}
    ok = True
    for n in ns:
        u = antisym.random_antisymmetric_unitary(rng, n)
        res = posmap.positivity_sample_test(posmap.breuer_hall(u),
                                            trials=POSITIVITY_TRIALS, seed=seed)
        measured[f"min_value_n{n}"] = res.min_value
        ok = ok and res.min_value >= -DEFAULT_TOLS.kernel
    return (PASS if ok else FAIL, measured | {"trials": POSITIVITY_TRIALS},
            {"min_value": f">= {-DEFAULT_TOLS.kernel}"},
            {"kernel": DEFAULT_TOLS.kernel})


# check name -> (runner, default --n, bytes of the largest array at one n).
# A runner maps (seed, ns, budget) to (status, measured, expected,
# tolerances).  ns is () for checks that ignore --n, and a single int for
# checks that take exactly one value.
CHECKS = {
    "example1-transpose": (
        _family_rank_check("example1", 6, printed="example1-printed"), (),
        None),
    "example2-reduction": (_family_rank_check("example2", 6), (), None),
    "prop3-robertson-60": (_family_rank_check("prop3", 60, count=60), (),
                           None),
    "robertson-irreducible": (_robertson_irreducible, (), None),
    "robertson-strong-spanning": (_robertson_strong_spanning, (), None),
    "bh-random-exposed": (_bh_random_exposed, 4, _span_bytes),
    "reduction-n-fails": (_reduction_n_fails, 3, _span_bytes),
    "dn-table": (_dn_table, (4, 6, 8), _span_bytes),
    "canonical-form-roundtrip": (_canonical_form_roundtrip, (4, 6, 8),
                                 lambda n: 16 * n * n),
    "positivity-sample": (_positivity_sample, (4, 6), _positivity_bytes),
}


def run_check(name: str, seed: int, n_arg: str | None,
              budget: int | None) -> VerificationReport:
    """Run one named check and wrap its outcome in a report.

    --n is parsed only for checks that read it.  There an explicit list with
    no entries is a usage error: running such a check over nothing would
    report a PASS that checked nothing.  So is a list of several values for a
    check that takes one, which would otherwise check only the first.  Every
    value is checked against MAX_ARRAY_BYTES before the check runs.
    """
    runner, ns, largest = CHECKS[name]
    if ns and n_arg is not None:
        try:
            values = tuple(int(tok) for tok in n_arg.split(",") if tok.strip())
        except ValueError as exc:
            raise ToolkitError(f"bad n list {n_arg!r}") from exc
        if not values:
            raise ToolkitError(f"{name} needs at least one --n value")
        for n in values:
            _check_bytes(f"{name} at n={n}", largest(n))
        if isinstance(ns, int):
            if len(values) > 1:
                raise ToolkitError(
                    f"{name} takes exactly one --n value, got {n_arg!r}")
            values = values[0]
        ns = values
    status, measured, expected, tolerances = runner(seed, ns, budget)
    return VerificationReport(name, status, measured, expected, tolerances,
                              seed)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="posmaps",
        description="Numerical checks for positive maps on matrix algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a named check (or 'all')")
    v.add_argument("check", choices=sorted(CHECKS) + ["all"])
    v.add_argument("--n", dest="n_arg", default=None,
                   help="dimension or comma-separated list, check-dependent")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--budget", type=int, default=None)
    v.add_argument("--format", choices=["text", "json", "csv"], default="text")
    v.add_argument("--strict", action="store_true",
                   help="exit 3 when any result is INCONCLUSIVE")
    v.add_argument("--timings", action="store_true",
                   help="print wall-clock times to stderr")

    s = sub.add_parser("span", help="estimate a span dimension for a map")
    s.add_argument("--map", required=True, dest="map_spec",
                   help="transpose | reduction | robertson | breuer-hall | file:<path>")
    s.add_argument("--kind", choices=["M", "N"], default="N")
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--budget", type=int, default=None)
    s.add_argument("--tol-rank", type=float, default=DEFAULT_TOLS.rank)
    s.add_argument("--tol-kernel", type=float, default=DEFAULT_TOLS.kernel,
                   help="relative to the largest eigenvalue of Phi(P_x)")
    s.add_argument("--format", choices=["text", "json"], default="text")
    s.add_argument("--strict", action="store_true")
    s.add_argument("--file-form", choices=["superop", "choi"], default="superop",
                   help="how to interpret a file: map matrix")

    e = sub.add_parser("map-export", help="write a map matrix to a file")
    e.add_argument("--map", required=True, dest="map_spec")
    e.add_argument("--n", type=int, default=None)
    e.add_argument("--form", choices=["superop", "choi"], default="superop")
    e.add_argument("--out", required=True)
    e.add_argument("--seed", type=int, default=None)
    return p


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ToolkitError(f"bad SEED environment value {env!r}") from exc
    return 0


def _resolve_map(spec: str, n: int | None, seed: int,
                 file_form: str = "superop") -> posmap.MapRep:
    if n is not None:
        _check_bytes(f"the n={n} superoperator", _superop_bytes(n))
    if spec == "transpose":
        return posmap.transpose_map(n if n is not None else 2)
    if spec == "reduction":
        return posmap.reduction_map(n if n is not None else 2)
    if spec == "robertson":
        if n not in (None, 4):
            raise ToolkitError("the robertson map is n=4 only")
        return posmap.robertson_map()
    if spec == "breuer-hall":
        dim = n if n is not None else 4
        u = antisym.random_antisymmetric_unitary(make_rng(seed), dim)
        return posmap.breuer_hall(u)
    if spec.startswith("file:"):
        path = spec[5:]
        _check_bytes(f"loading {path}",
                     LOAD_BYTES_PER_FILE_BYTE * os.path.getsize(path))
        m = matio.load_matrix(path)
        if m.shape[0] != m.shape[1]:
            raise ToolkitError(f"map matrix must be square, got {m.shape}")
        if file_form == "choi":
            return posmap.map_from_choi(m, name="file_choi")
        side = round(m.shape[0] ** 0.5)
        if side * side != m.shape[0]:
            raise ToolkitError(f"superop side {m.shape[0]} is not a square")
        return posmap.MapRep(n=side, superop=m, name="file_superop")
    raise ToolkitError(f"unknown map {spec!r}")


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    names = sorted(CHECKS) if args.check == "all" else [args.check]
    out = []
    for name in names:
        t0 = time.perf_counter()
        out.append(run_check(name, seed, args.n_arg, args.budget))
        if args.timings:
            ms = (time.perf_counter() - t0) * 1000.0
            print(f"{name}: {ms:.1f} ms", file=sys.stderr)
    print(reports.render_reports(out, args.format))
    return reports.exit_code(out, strict=args.strict)


def _cmd_span(args) -> int:
    seed = _resolve_seed(args.seed)
    phi = _resolve_map(args.map_spec, args.n, seed, args.file_form)
    _check_bytes(f"the n={phi.n} {args.kind} span", _span_bytes(phi.n, args.kind))
    tols = Tolerances(rank=args.tol_rank, kernel=args.tol_kernel)
    est = witness.estimate_N_dim if args.kind == "N" else witness.estimate_M_dim
    rep = est(phi, budget=args.budget, seed=seed, tols=tols)
    d = rep.to_dict()
    if args.format == "json":
        print(json.dumps(d, sort_keys=True))
    else:
        print(" ".join(f"{k}={d[k]}" for k in sorted(d) if k != "tolerances"))
    if args.strict and not rep.saturated:
        return 3
    return 0


def _cmd_map_export(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.n is not None:
        _check_bytes(f"exporting the n={args.n} map", _export_bytes(args.n))
    phi = _resolve_map(args.map_spec, args.n, seed)
    m = posmap.choi(phi) if args.form == "choi" else phi.superop
    matio.save_matrix(args.out, m)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "span":
            return _cmd_span(args)
        if args.command == "map-export":
            return _cmd_map_export(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def entry() -> None:
    sys.exit(main())
