"""Spans and per-layer metrics for the benchmark's traced run.

Tracer.installed() replaces each entry point below with a wrapper at the
name its callers resolve at call time (a module global or a class
attribute), so no source file of posmaps changes.  Each call records a
span (name, start, end, parent span, certificate id) in memory; the run
writes them out when it ends.  A span's self time is its duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter

import numpy as np

from posmaps import antisym, cli, commutant, matio, numlin, posmap, reports, witness

BUILD = ("posmap.breuer_hall", "posmap.transpose_map", "posmap.reduction_map",
         "posmap.robertson_map", "posmap.map_from_action")
ESTIMATE = ("witness.estimate_N_dim", "witness.estimate_M_dim")

# (owner, attribute, span name)
ENTRY_POINTS = (
    (witness, "estimate_N_dim", "witness.estimate_N_dim"),
    (witness, "estimate_M_dim", "witness.estimate_M_dim"),
    (witness, "kernel_of_state", "witness.kernel_of_state"),
    (witness, "hermitian_eig", "numlin.hermitian_eig"),
    (numlin.SpanAccumulator, "try_add", "numlin.try_add"),
    (numlin, "family_rank", "numlin.family_rank"),
    (commutant, "nullspace", "numlin.nullspace"),
    (commutant, "commutant_of_range", "commutant.commutant_of_range"),
    (posmap.MapRep, "apply", "posmap.apply"),
    *((posmap, name.split(".")[1], name) for name in BUILD),
    (posmap, "positivity_sample_test", "posmap.positivity_sample_test"),
    (antisym, "canonical_decompose", "antisym.canonical_decompose"),
    (antisym, "random_antisymmetric_unitary", "antisym.random_antisymmetric_unitary"),
    (matio, "save_matrix", "matio.save_matrix"),
    (matio, "load_matrix", "matio.load_matrix"),
    (reports, "render_reports", "reports.render_reports"),
    (cli, "main", "cli.main"),
)


def _count_try_add(counts, args, result):
    acc = args[0]
    counts["numlin.try_add.accepted"] += int(result)
    counts["numlin.try_add.basis_entries"] += (acc.dim - int(result)) * acc.ambient_dim


def _count_nullspace(counts, args, result):
    rows, cols = np.shape(args[0])
    counts["numlin.nullspace.matrix_entries"] += rows * cols


def _count_estimate(counts, args, result):
    counts["witness.samples_used"] += result.samples_used


def _count_kernel(counts, args, result):
    counts["witness.kernel_vectors"] += result.shape[1]


def _count_commutant(counts, args, result):
    counts["commutant.dim_total"] += result.dim


def _count_file(counts, args, result):
    counts["matio.bytes"] += os.path.getsize(args[0])


# span name -> counter update run after the call returns
COUNTERS = {
    "numlin.try_add": _count_try_add,
    "numlin.nullspace": _count_nullspace,
    "witness.estimate_N_dim": _count_estimate,
    "witness.estimate_M_dim": _count_estimate,
    "witness.kernel_of_state": _count_kernel,
    "commutant.commutant_of_range": _count_commutant,
    "matio.save_matrix": _count_file,
    "matio.load_matrix": _count_file,
}


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, cert)
        self.counts: Counter = Counter()
        self.cert: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.cert)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in ENTRY_POINTS]
        try:
            for (owner, attr, name), (_, _, fn) in zip(ENTRY_POINTS, saved):
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def fired(self) -> set[str]:
        return {s[0] for s in self.spans}


def _layer_of(name: str) -> str:
    if name in BUILD:
        return "posmap.build"
    if name in ESTIMATE:
        return "witness.estimate"
    return name


def self_times(spans) -> dict[str, float]:
    """Self time summed per layer."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for (name, start, end, _, _), c in zip(spans, child):
        out[_layer_of(name)] += end - start - c
    return dict(out)


def _outermost(spans, layer: str) -> list[tuple]:
    """Spans of the layer that no other span of the same layer encloses."""
    inside = [False] * len(spans)
    out = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or _layer_of(spans[parent][0]) == layer
        if _layer_of(name) == layer and not inside[i]:
            out.append(spans[i])
    return out


# (metric, unit); `.s` is the time inside the layer, `.self_s` that time
# minus the wrapped calls it makes
METRICS = (
    ("numlin.try_add.calls", "count"),
    ("numlin.try_add.accepted", "count"),
    ("numlin.try_add.accept_ratio", "ratio"),
    ("numlin.try_add.basis_entries", "count"),
    ("numlin.try_add.s", "s"),
    ("numlin.hermitian_eig.calls", "count"),
    ("numlin.hermitian_eig.s", "s"),
    ("numlin.nullspace.calls", "count"),
    ("numlin.nullspace.s", "s"),
    ("numlin.nullspace.matrix_entries", "count"),
    ("numlin.family_rank.calls", "count"),
    ("numlin.family_rank.s", "s"),
    ("witness.estimate.calls", "count"),
    ("witness.estimate.self_s", "s"),
    ("witness.samples_used", "count"),
    ("witness.kernel_of_state.calls", "count"),
    ("witness.kernel_of_state.self_s", "s"),
    ("witness.kernel_vectors", "count"),
    ("posmap.apply.calls", "count"),
    ("posmap.apply.s", "s"),
    ("posmap.build.calls", "count"),
    ("posmap.build.s", "s"),
    ("posmap.positivity_sample_test.s", "s"),
    ("commutant.commutant_of_range.calls", "count"),
    ("commutant.commutant_of_range.self_s", "s"),
    ("commutant.dim_total", "count"),
    ("antisym.random_antisymmetric_unitary.calls", "count"),
    ("antisym.random_antisymmetric_unitary.s", "s"),
    ("antisym.canonical_decompose.calls", "count"),
    ("antisym.canonical_decompose.s", "s"),
    ("matio.save_matrix.s", "s"),
    ("matio.load_matrix.s", "s"),
    ("matio.bytes", "count"),
    ("reports.render_reports.s", "s"),
    ("cli.main.self_s", "s"),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every metric of METRICS for one traced round."""
    spans, selfs = tracer.spans, self_times(tracer.spans)
    out = {}
    for metric, _ in METRICS:
        layer, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = len(_outermost(spans, layer))
        elif stat == "s":
            out[metric] = sum(e - s for _, s, e, _, _ in _outermost(spans, layer))
        elif stat == "self_s":
            out[metric] = selfs.get(layer, 0.0)
        elif metric == "numlin.try_add.accept_ratio":
            calls = len(_outermost(spans, "numlin.try_add"))
            out[metric] = tracer.counts["numlin.try_add.accepted"] / calls if calls else 0.0
        else:
            out[metric] = tracer.counts[metric]
    return out
