"""Certificate workloads of the posmaps benchmark.

A certificate builds a map from a pre-generated input, runs one check (or
one CLI invocation) and compares the outcome with an expectation that does
not come from the code under test.  A workload is a pool of rounds drawn
from the seed: round r holds the same certificates on every run with the
same seed, so the decisions of round 0 form a digest that two commits can
compare.  Every map is built and every check is called through a module
attribute at call time, so the wrappers of the traced run see each call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from posmaps import antisym, cli, commutant, numlin, posmap, witness

# Rounds generated at set-up.  A run that outlasts the pool starts over at
# round 0; at this commit a run uses at most a dozen.
POOL_ROUNDS = 64

SPAN_NS = (4, 6, 8, 10)

# The named checks of `posmaps verify`, listed here rather than read from
# the CLI so that a renamed or dropped check fails the benchmark.
VERIFY_CHECKS = (
    "bh-random-exposed",
    "canonical-form-roundtrip",
    "dn-table",
    "example1-transpose",
    "example2-reduction",
    "positivity-sample",
    "prop3-robertson-60",
    "reduction-n-fails",
    "robertson-irreducible",
    "robertson-strong-spanning",
)
EXPORT_N = 16


@dataclass(frozen=True)
class Cert:
    """One certificate; run() returns (matches expectation, decision values)."""

    label: str
    run: Callable[[], tuple[bool, tuple]]


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: list[list[Cert]]
    warmup: Cert
    # wrapped entry points that must fire in a traced round
    required: frozenset[str]
    # Percentile of cert_tail_s.  Where a run has enough samples, it is the
    # highest percentile with at least 10 samples beyond it.  Where that
    # rule would miss the slowest kind of certificate, it is the maximum.
    # It is fixed because each round mixes certificates of very different
    # sizes: a rule that follows the sample count would jump between kinds
    # of certificate whenever a change lets more rounds fit in a run.
    tail_pct: float

    def round(self, r: int) -> list[Cert]:
        return self.rounds[r % len(self.rounds)]


def dn_expected(n: int) -> int:
    """N-dimension of a Breuer-Hall map: n (n+1) (5n-2) / 6."""
    return n * (n + 1) * (5 * n - 2) // 6


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


def _span_cert(u, seed: int):
    rep = witness.estimate_N_dim(posmap.breuer_hall(u), seed=seed)
    ok = rep.saturated and rep.achieved_dim == dn_expected(u.n)
    return ok, (rep.achieved_dim, rep.samples_used, rep.saturated)


def strong_span(seed: int, workdir: str) -> Workload:
    rng = numlin.make_rng(seed)
    rounds = []
    for _ in range(POOL_ROUNDS):
        certs = []
        for n in SPAN_NS:
            u = antisym.random_antisymmetric_unitary(rng, n)
            s = _seed(rng)
            certs.append(Cert(f"bh-N n={n}", lambda u=u, s=s: _span_cert(u, s)))
        rounds.append(certs)
    required = {"witness.estimate_N_dim", "witness.kernel_of_state",
                "numlin.hermitian_eig", "numlin.try_add", "posmap.apply",
                "posmap.breuer_hall", "posmap.map_from_action"}
    return Workload("strong-span", rounds, rounds[0][-1], frozenset(required), 100)


def _commutant_cert(build, expect: int):
    dim = commutant.commutant_of_range(build()).dim
    return dim == expect, (dim,)


def _pinching(p: np.ndarray) -> posmap.MapRep:
    n = p.shape[0]
    q = np.eye(n) - p
    return posmap.map_from_action(n, lambda x: p @ x @ p + q @ x @ q,
                                  f"pinching_{n}")


def irreducibility(seed: int, workdir: str) -> Workload:
    rng = numlin.make_rng(seed)
    rounds = []
    for _ in range(POOL_ROUNDS):
        u6 = antisym.random_antisymmetric_unitary(rng, 6)
        u8 = antisym.random_antisymmetric_unitary(rng, 8)
        v = numlin.random_haar_unitary(rng, 8)[:, :4]
        p = v @ v.conj().T  # rank-4 projector; its pinching commutes with P and Q
        rounds.append([
            Cert("bh n=6", lambda u=u6: _commutant_cert(
                lambda: posmap.breuer_hall(u), 1)),
            Cert("bh n=8", lambda u=u8: _commutant_cert(
                lambda: posmap.breuer_hall(u), 1)),
            Cert("transpose n=8", lambda: _commutant_cert(
                lambda: posmap.transpose_map(8), 1)),
            Cert("trace n=8", lambda: _commutant_cert(
                lambda: posmap.trace_map(8), 64)),
            Cert("pinching n=8", lambda p=p: _commutant_cert(
                lambda: _pinching(p), 2)),
        ])
    required = {"commutant.commutant_of_range", "numlin.nullspace",
                "posmap.apply", "posmap.breuer_hall", "posmap.transpose_map",
                "posmap.map_from_action"}
    return Workload("irreducibility", rounds, rounds[0][1], frozenset(required), 100)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _verify_cert(check: str, seed: int):
    code, text = _cli(["verify", check, "--seed", str(seed)])
    statuses = re.findall(r"(?m)^\[(\w+)\]", text)
    return code == 0 and statuses == ["PASS"], (code, statuses, _sha(text.encode()))


def _export_cert(path: str, seed: int):
    code, text = _cli(["map-export", "--map", "breuer-hall", "--n", str(EXPORT_N),
                       "--form", "choi", "--out", path, "--seed", str(seed)])
    with open(path, "rb") as f:
        content = f.read()
    return code == 0 and text == "", (code, _sha(content))


def _file_span_cert(path: str, seed: int):
    code, text = _cli(["span", "--map", f"file:{path}", "--file-form", "choi",
                       "--kind", "M", "--seed", str(seed)])
    fields = dict(tok.split("=", 1) for tok in text.split())
    ok = (code == 0 and fields.get("achieved_dim") == str(EXPORT_N ** 2)
          and fields.get("saturated") == "True")
    return ok, (code, _sha(text.encode()))


def cli_session(seed: int, workdir: str) -> Workload:
    rng = numlin.make_rng(seed)
    path = os.path.join(workdir, "map_choi.json")
    rounds = []
    for _ in range(POOL_ROUNDS):
        s = _seed(rng)
        certs = [Cert(f"verify {c}", lambda c=c, s=s: _verify_cert(c, s))
                 for c in VERIFY_CHECKS]
        certs.append(Cert("map-export", lambda s=s: _export_cert(path, s)))
        certs.append(Cert("span file", lambda s=s: _file_span_cert(path, s)))
        rounds.append(certs)
    warmup = rounds[0][VERIFY_CHECKS.index("dn-table")]
    required = {"cli.main", "reports.render_reports", "matio.save_matrix",
                "matio.load_matrix", "witness.estimate_N_dim",
                "witness.estimate_M_dim", "witness.kernel_of_state",
                "numlin.hermitian_eig", "numlin.try_add", "numlin.family_rank",
                "numlin.nullspace", "commutant.commutant_of_range",
                "posmap.apply", "posmap.breuer_hall", "posmap.robertson_map",
                "posmap.reduction_map", "posmap.map_from_action",
                "posmap.positivity_sample_test",
                "antisym.random_antisymmetric_unitary",
                "antisym.canonical_decompose"}
    return Workload("cli-session", rounds, warmup, frozenset(required), 95)


WORKLOADS = {
    "strong-span": strong_span,
    "irreducibility": irreducibility,
    "cli-session": cli_session,
}
