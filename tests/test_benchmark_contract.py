"""The benchmark's tracer contract: every wrapped entry point still exists.

perfbench/ wraps posmaps functions by (owner, attribute) and requires some
of them to fire in each workload.  A refactor that renames or drops one of
them, or that stops calling one (say, a span estimator that bypasses
SpanAccumulator.try_add), would otherwise surface only on a traced benchmark
run.  The benchmark files are imported, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")


@pytest.mark.parametrize("owner, attr, name", tracing.ENTRY_POINTS,
                         ids=[e[2] for e in tracing.ENTRY_POINTS])
def test_entry_point_resolves(owner, attr, name):
    assert callable(getattr(owner, attr, None)), name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_required_spans_are_wrapped(tmp_path, workload):
    spans = {name for _, _, name in tracing.ENTRY_POINTS}
    w = workloads.WORKLOADS[workload](1, str(tmp_path))
    assert w.required <= spans
    assert w.required


def test_strong_span_certificate_fires_every_required_span(tmp_path):
    w = workloads.WORKLOADS["strong-span"](1, str(tmp_path))
    cert = w.round(0)[0]
    assert cert.label == "bh-N n=4"
    tracer = tracing.Tracer()
    with tracer.installed():
        ok, decision = cert.run()
    assert ok
    assert w.required <= tracer.fired()
    # one accepted try_add per direction of the 60-dimensional N span
    assert tracer.counts["numlin.try_add.accepted"] == 60


def test_strong_span_kernels_are_two_dimensional(tmp_path):
    # every Breuer-Hall kernel is span{x, U xbar}, so a stacked harvest
    # reports 2 kernel vectors per sample; a direct sum of the wrong shape
    # would break this count, which the traced benchmark reads
    w = workloads.WORKLOADS["strong-span"](1, str(tmp_path))
    cert = w.round(0)[0]
    tracer = tracing.Tracer()
    with tracer.installed():
        ok, _ = cert.run()
    assert ok
    assert tracer.counts["witness.samples_used"] > 0
    assert tracer.counts["witness.kernel_vectors"] == 2 * tracer.counts["witness.samples_used"]


def test_cli_session_round_trips_the_matrix_file(tmp_path):
    w = workloads.WORKLOADS["cli-session"](1, str(tmp_path))
    certs = {cert.label: cert for cert in w.round(0)}
    tracer = tracing.Tracer()
    with tracer.installed():
        exported, _ = certs["map-export"].run()
        spanned, _ = certs["span file"].run()
    assert exported and spanned
    assert {"matio.save_matrix", "matio.load_matrix"} <= tracer.fired()
    assert tracer.counts["matio.bytes"] > 0
