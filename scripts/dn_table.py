#!/usr/bin/env python3
"""Tabulate the saturated N-dimension of random Breuer-Hall maps.

For each even n the script draws U = V u0 V^T with Haar V, runs the
randomized strong-spanning estimator, and reports the achieved dimension
next to the closed form n(n+1)(5n-2)/6 and the (n^2-1)n target bound.
Writes CSV to stdout or --out.  Exits 1 only when a saturated run misses
the closed form; a run that stops by budget proves nothing either way.
Exits 2 on a usage error, an unwritable --out or a rejected input, such as
an odd n.
"""

import argparse
import contextlib
import csv
import sys
import time

from posmaps import (
    breuer_hall,
    dn_bound,
    dn_formula,
    estimate_N_dim,
    make_rng,
    random_antisymmetric_unitary,
)
from posmaps.errors import ToolkitError
from posmaps.reports import FAIL, INCONCLUSIVE, PASS

LABELS = {PASS: "ok", INCONCLUSIVE: "inconclusive", FAIL: "MISMATCH"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", default="4,6,8",
                   help="comma-separated even dimensions (default 4,6,8; "
                        "n=12 takes a few seconds)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="max sample vectors per run (default 10 n^3)")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = p.parse_args(argv)
    try:
        args.n = [int(tok) for tok in args.n.split(",") if tok.strip()]
    except ValueError:
        p.error(f"bad --n list {args.n!r}")
    if not args.n:
        p.error("--n needs at least one dimension")
    return args


def tabulate(args) -> tuple[list[dict], list[str]]:
    """One CSV row and one span verdict per n; progress lines go to stderr."""
    rng = make_rng(args.seed)
    rows, verdicts = [], []
    for n in args.n:
        phi = breuer_hall(random_antisymmetric_unitary(rng, n))
        t0 = time.perf_counter()
        rep = estimate_N_dim(phi, budget=args.budget, seed=args.seed)
        dt = time.perf_counter() - t0
        rows.append({
            "n": n,
            "Dn": dn_formula(n),
            "bound": dn_bound(n),
            "measured": rep.achieved_dim,
            "saturated": rep.saturated,
            "samples": rep.samples_used,
            "seconds": f"{dt:.3f}",
        })
        verdicts.append(rep.verdict(dn_formula(n)))
        print(f"n={n}: measured {rep.achieved_dim} vs formula {dn_formula(n)} "
              f"(bound {dn_bound(n)}) [{LABELS[verdicts[-1]]}] {dt:.2f}s", file=sys.stderr)
    return rows, verdicts


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        # opened first, so that an unwritable --out fails before any row
        with (open(args.out, "w", newline="") if args.out
              else contextlib.nullcontext(sys.stdout)) as sink:
            rows, verdicts = tabulate(args)
            w = csv.DictWriter(sink, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if FAIL in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
