#!/usr/bin/env python3
"""posmaps certificate benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One caller drives posmaps in a closed
loop: each certificate starts after the previous one returns.  The timed
loop runs whole rounds of the workload (see workloads.py) until --seconds
have passed.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates an untraced and a traced pass over round 0 and
reports the per-layer metrics of tracing.py.  Human-readable lines come
first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
# set-ups per run: this process and SETUPS - 1 fresh ones, median reported
SETUPS = 3
SETUP_TIMEOUT_S = 150
END_TO_END_UNITS = {"setup_s": "s", "certs_per_s": "1/s", "cert_p50_s": "s",
                    "cert_tail_s": "s", "peak_rss_mb": "MB"}
# The end-to-end metrics of the result line.  cert_p50_s is printed only:
# on cli-session it spread further between runs than any bound allows
# (see README.md).
RESULT_METRICS = ("setup_s", "certs_per_s", "cert_tail_s", "peak_rss_mb")


def load(workload: str, seed: int, workdir: str):
    """Import posmaps from this checkout's sources and generate the inputs."""
    if not os.path.isfile(os.path.join(SRC, "posmaps", "__init__.py")):
        raise SystemExit(f"error: no posmaps sources under {SRC}")
    sys.path.insert(0, SRC)
    import posmaps
    import workloads

    if os.path.dirname(os.path.abspath(posmaps.__file__)) != os.path.join(SRC, "posmaps"):
        raise SystemExit(f"error: posmaps imported from {posmaps.__file__}, not {SRC}")
    return workloads.WORKLOADS[workload](seed % 2 ** 64, workdir)


def set_up(workload: str, seed: int, workdir: str):
    """Import, input generation and one untimed warm-up certificate."""
    start = time.perf_counter()
    wl = load(workload, seed, workdir)
    wl.warmup.run()
    return wl, time.perf_counter() - start


def fresh_setup_s(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=SETUP_TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_round(certs, tracer=None) -> list[tuple]:
    """Run certificates one after another: (label, ok, decision, wall s)."""
    out = []
    for i, cert in enumerate(certs):
        if tracer is not None:
            tracer.cert = i
        start = time.perf_counter()
        try:
            ok, decision = cert.run()
        except Exception as exc:  # a raising certificate counts as failed
            print(f"certificate {cert.label!r} raised {exc!r}", file=sys.stderr)
            ok, decision = False, ("raised", type(exc).__name__)
        out.append((cert.label, ok, decision, time.perf_counter() - start))
    return out


def digest(results) -> str:
    decisions = [[label, decision] for label, _, decision, _ in results]
    return hashlib.sha256(json.dumps(decisions).encode()).hexdigest()[:16]


def tail(walls: list[float], pct: float) -> tuple[float, int]:
    """(time at the pct-th percentile by nearest rank, samples beyond it)."""
    xs = sorted(walls)
    k = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[k - 1], len(xs) - k


def blas_threads() -> str:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} ({var})"
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return f"{fn()} (default)"
    return "default"


def machine_line() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} "
            f"blas_threads={blas_threads()} nproc={len(os.sched_getaffinity(0))}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(wl, seconds: float):
    results, rounds = [], 0
    start = time.perf_counter()
    while True:
        results += run_round(wl.round(rounds))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return results, rounds, time.perf_counter() - start


def end_to_end(wl, args, setups: list[float]):
    results, rounds, elapsed = timed_run(wl, args.seconds)
    walls = [r[3] for r in results]
    failed = sum(not r[1] for r in results)
    tail_s, beyond = tail(walls, wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(setups),
        "certs_per_s": len(walls) / elapsed,
        "cert_p50_s": statistics.median(walls),
        "cert_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "certs_per_s": f"{len(walls)} certificates, {rounds} rounds in {elapsed:.2f} s",
        "cert_p50_s": f"n={len(walls)}",
        "cert_tail_s": f"p{wl.tail_pct:g}, n={len(walls)}, {beyond} beyond",
        "peak_rss_mb": "this process",
    }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]} ({notes[name]})")
    print(f"failed_frac {failed / len(walls):.6g} ratio ({failed}/{len(walls)})")
    n0 = len(wl.round(0))
    print(f"digest round0 {digest(results[:n0])}")
    for label, ok, decision, _ in results[:n0]:
        print(f"  decision {label}: {json.dumps(decision)}{'' if ok else '  MISMATCH'}")
    return len(walls), failed, True, {
        k: {"value": metrics[k], "unit": END_TO_END_UNITS[k]} for k in RESULT_METRICS}


def prediction(text: str, holds: bool) -> None:
    print(f"prediction {text}: {'confirmed' if holds else 'FAILED'}")


def traced(wl, args):
    import tracing

    plain_walls, traced_walls, per_round, tracers = [], [], [], []
    attempted = failed = 0
    same = True
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        plain = run_round(wl.round(0))
        t1 = time.perf_counter()
        tracer = tracing.Tracer()
        with tracer.installed():
            traced_res = run_round(wl.round(0), tracer)
        t2 = time.perf_counter()
        plain_walls.append(t1 - t0)
        traced_walls.append(t2 - t1)
        tracers.append(tracer)
        per_round.append(tracing.layer_metrics(tracer))
        attempted += len(plain) + len(traced_res)
        failed += sum(not r[1] for r in plain + traced_res)
        same = same and digest(plain) == digest(traced_res)
        print(f"digest round0 untraced {digest(plain)} traced {digest(traced_res)}")

    missing = sorted(wl.required - set().union(*(t.fired() for t in tracers)))
    if missing:
        raise SystemExit(f"error: entry points never called on {wl.name}: "
                         + ", ".join(missing))
    units = dict(tracing.METRICS)
    counts = {m for m, u in tracing.METRICS if u == "count"}
    repeat = all({m: r[m] for m in counts} == {m: per_round[0][m] for m in counts}
                 for r in per_round)
    metrics = {m: per_round[0][m] if m in counts
               else statistics.median(r[m] for r in per_round)
               for m in units}
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(plain_walls) - 1.0)
    units["trace.overhead_frac"] = "ratio"
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"traced rounds {len(tracers)}; counts repeat exactly: {repeat}; "
          f"traced and untraced digests equal: {same}")

    spans = tracers[0].spans
    for i, cert in enumerate(wl.round(0)):
        mine = [s for s in spans if s[4] == i and s[3] < 0]
        print(f"  traced {cert.label}: {sum(e - s for _, s, e, _, _ in mine):.4f} s")
    selfs = tracing.self_times(spans)
    top = max(selfs, key=selfs.get)
    print(f"largest self time: {top} {selfs[top]:.4f} s")
    if wl.name == "strong-span":
        prediction("numlin.try_add has the largest self time", top == "numlin.try_add")
        prediction("numlin.nullspace.calls == 0", metrics["numlin.nullspace.calls"] == 0)
    if wl.name == "irreducibility":
        prediction("numlin.nullspace has the largest self time", top == "numlin.nullspace")
        prediction("numlin.try_add.calls == 0", metrics["numlin.try_add.calls"] == 0)

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.json"), "w") as f:
        json.dump({"machine": machine_line(),
                   "certificates": [c.label for c in wl.round(0)],
                   "span_fields": ["name", "start", "end", "parent", "cert"],
                   "rounds": [t.spans for t in tracers]}, f)
    return attempted, failed, same and repeat, {
        k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["strong-span", "irreducibility", "cli-session"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once and print the set-up time (used internally)")
    args = p.parse_args()

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"machine: {machine_line()}")
        print(f"workload={wl.name} seed={args.seed} trace={args.trace} "
              f"closed loop, 1 caller, {len(wl.round(0))} certificates per round")
        if args.trace:
            attempted, failed, consistent, metrics = traced(wl, args)
        else:
            setups = [setup_s] + [fresh_setup_s(args) for _ in range(SETUPS - 1)]
            attempted, failed, consistent, metrics = end_to_end(wl, args, setups)
    print(json.dumps({"correct": consistent and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
