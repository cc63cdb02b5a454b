#!/usr/bin/env python3
"""Scan random Breuer-Hall maps for the exposedness certificate inputs.

Each draw is judged by the rule of `posmaps verify bh-random-exposed`
(posmaps.cli.bh_exposedness): unitality residual, irreducibility of the
range, and the saturated N-dimension against the closed form and the
(n^2-1)n target.  At n=4 the target is reached and the certificate
applies ("exposed-certificate"); for larger n the dimension settles at the
closed form below the target, so the scan reports "short" instead.  A run
that stops by budget is "inconclusive".  A draw that verify would FAIL (a
saturated dimension off the closed form, a map that is not unital or a
reducible range) is "UNEXPECTED" and makes the script exit 1.  A usage
error, an unwritable --out or a rejected input, such as an odd n, makes it
exit 2.
"""

import argparse
import contextlib
import csv
import sys
import time

from posmaps import make_rng, random_antisymmetric_unitary
from posmaps.cli import bh_exposedness
from posmaps.errors import ToolkitError
from posmaps.reports import FAIL, INCONCLUSIVE, PASS


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, default=4, help="even dimension >= 4")
    p.add_argument("--draws", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = p.parse_args(argv)
    if args.draws < 1:
        p.error(f"--draws must be >= 1, got {args.draws}")
    return args


def scan(args) -> list[dict]:
    """One CSV row per draw; progress lines go to stderr."""
    rng = make_rng(args.seed)
    rows = []
    for k in range(args.draws):
        u = random_antisymmetric_unitary(rng, args.n)
        t0 = time.perf_counter()
        status, m, _, _ = bh_exposedness(u, args.seed + k, args.budget)
        dt = time.perf_counter() - t0
        verdict = {PASS: "exposed-certificate", FAIL: "UNEXPECTED",
                   INCONCLUSIVE: "short" if m["saturated"] else "inconclusive"}[status]
        rows.append({
            "draw": k,
            "n": m["n"],
            "unital_residual": f"{m['unital_residual']:.3e}",
            "irreducible": m["irreducible"],
            "N_dim": m["achieved_dim"],
            "target": m["strong_spanning_target"],
            "saturated": m["saturated"],
            "verdict": verdict,
            "seconds": f"{dt:.3f}",
        })
        print(f"draw {k}: N={m['achieved_dim']}/{m['strong_spanning_target']} "
              f"irreducible={m['irreducible']} "
              f"unital={m['unital_residual']:.1e} -> {verdict}", file=sys.stderr)
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        # opened first, so that an unwritable --out fails before any draw
        with (open(args.out, "w", newline="") if args.out
              else contextlib.nullcontext(sys.stdout)) as sink:
            rows = scan(args)
            w = csv.DictWriter(sink, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if any(r["verdict"] == "UNEXPECTED" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
