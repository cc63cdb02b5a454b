#!/usr/bin/env python3
"""Scan random Breuer-Hall maps for the exposedness certificate inputs.

Each draw checks the three ingredients the criterion needs: unitality
residual, irreducibility of the range, and the saturated N-dimension
against the (n^2-1)n target.  At n=4 the target is reached and the
certificate applies; for larger n the dimension settles at the closed
form below the target, so the scan reports "short" instead.  A run that
stops by budget is "inconclusive"; a saturated dimension off the closed form
is "UNEXPECTED" and makes the script exit 1.  A usage error or a rejected
input, such as an odd n, makes it exit 2.
"""

import argparse
import csv
import sys
import time

import numpy as np

from posmaps import (
    breuer_hall,
    dn_formula,
    estimate_N_dim,
    is_irreducible,
    make_rng,
    random_antisymmetric_unitary,
)
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


def main(argv=None) -> int:
    args = parse_args(argv)
    n = args.n
    rng = make_rng(args.seed)
    rows = []
    for k in range(args.draws):
        try:
            phi = breuer_hall(random_antisymmetric_unitary(rng, n))
            unital = float(np.abs(phi.apply(np.eye(n)) - np.eye(n)).max())
            t0 = time.perf_counter()
            irred = is_irreducible(phi)
            rep = estimate_N_dim(phi, budget=args.budget, seed=args.seed + k)
            dt = time.perf_counter() - t0
        except ToolkitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # PASS: saturated at the closed form, which reaches the target at n=4 only
        certified = rep.achieved_dim == rep.target_dim and irred and unital <= 1e-12
        verdict = {PASS: "exposed-certificate" if certified else "short",
                   INCONCLUSIVE: "inconclusive",
                   FAIL: "UNEXPECTED"}[rep.verdict(dn_formula(n))]
        rows.append({
            "draw": k,
            "n": n,
            "unital_residual": f"{unital:.3e}",
            "irreducible": irred,
            "N_dim": rep.achieved_dim,
            "target": rep.target_dim,
            "saturated": rep.saturated,
            "verdict": verdict,
            "seconds": f"{dt:.3f}",
        })
        print(f"draw {k}: N={rep.achieved_dim}/{rep.target_dim} "
              f"irreducible={irred} unital={unital:.1e} -> {verdict}",
              file=sys.stderr)
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.DictWriter(sink, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    finally:
        if args.out:
            sink.close()
    return 1 if any(r["verdict"] == "UNEXPECTED" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
