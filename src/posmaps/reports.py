"""Verification reports: a three-valued, serializable check outcome.

Status is PASS, FAIL, or INCONCLUSIVE.  The third value exists because the
spanning criteria are sufficient only: running out of sampling budget below
the target dimension is not a refutation and must not be reported as one.

Rendered reports are byte-identical for identical flags and seeds, so they
carry no wall-clock data: the serialized runtime_ms key is always null, and
timings go to stderr when requested.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

_STATUSES = (PASS, INCONCLUSIVE, FAIL)  # in rising severity


@dataclass
class VerificationReport:
    check_name: str
    status: str
    measured: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"bad status {self.status!r}")

    def to_dict(self) -> dict:
        # timings are reported out of band
        return asdict(self) | {"runtime_ms": None}


def render_text(report: VerificationReport) -> str:
    parts = [f"[{report.status}] {report.check_name}"]
    for label, data in (("measured", report.measured),
                        ("expected", report.expected),
                        ("tolerances", report.tolerances)):
        if data:
            parts.append(f"{label}={json.dumps(data, sort_keys=True)}")
    parts.append(f"seed={report.seed}")
    return " ".join(parts)


def _csv_escape(value) -> str:
    s = json.dumps(value, sort_keys=True) if isinstance(value, (dict, list)) else str(value)
    if any(c in s for c in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def render_reports(reports: list[VerificationReport], fmt: str = "text") -> str:
    if fmt == "text":
        return "\n".join(render_text(r) for r in reports)
    if fmt == "json":
        return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)
    if fmt == "csv":
        if reports and all(r.check_name == "dn-table" for r in reports):
            # one row per (n, Dn, bound, measured) tuple
            lines = ["n,Dn,bound,measured"]
            for r in reports:
                for row in r.measured["rows"]:
                    lines.append(",".join(str(v) for v in row))
            return "\n".join(lines)
        lines = ["check,status,measured,expected,seed"]
        for r in reports:
            lines.append(",".join([
                r.check_name, r.status,
                _csv_escape(r.measured), _csv_escape(r.expected),
                str(r.seed),
            ]))
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")


def worst(statuses) -> str:
    """The most severe status: FAIL over INCONCLUSIVE over PASS; PASS if none."""
    return max(statuses, key=_STATUSES.index, default=PASS)


def exit_code(reports: list[VerificationReport], strict: bool = False) -> int:
    """0 all PASS; 1 any FAIL; 3 any INCONCLUSIVE under strict."""
    status = worst(r.status for r in reports)
    if status == FAIL:
        return 1
    return 3 if strict and status == INCONCLUSIVE else 0
