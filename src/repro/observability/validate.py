"""Schema validation CLI: ``python -m repro.observability.validate``.

Validates two artefact kinds through the shared static-analysis
taxonomy (:mod:`repro.analysis.findings`):

* Chrome trace-event JSON (rule ``X001``) — strict ``B``/``E``
  nesting, monotone timestamps, counter-track sanity;
* Prometheus text-format v0.0.4 expositions (rule ``X002``) — files
  ending in ``.prom`` or ``.txt``: legal metric names, ``# TYPE``
  headers preceding their samples, parseable sample values, cumulative
  histogram buckets with a ``+Inf`` bound matching ``_count``, and no
  duplicate samples.

Exit codes: 0 when every file is clean, 1 when any file has findings
(each printed), 2 on usage errors.  CI runs this against the smoke
trace and the ``--telemetry-out`` exposition the hotpath job emits.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from repro.analysis.findings import EXIT_INPUT, FindingReport
from repro.observability.export import validate_trace_report

__all__ = [
    "main",
    "validate_exposition_file",
    "validate_exposition_report",
]

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_TYPE_RE = re.compile(
    r"^# TYPE\s+(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)\s+(?P<kind>\S+)\s*$"
)
_VALID_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}
_LE_RE = re.compile(r'le="(?P<bound>[^"]+)"')


def _parse_value(text: str) -> "float | None":
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    try:
        return float(text)
    except ValueError:
        return None


def validate_exposition_file(path: "str | Path") -> list[str]:
    """Check a text exposition; returns a problem list (empty = valid)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [f"cannot load {path}: {exc}"]
    problems: list[str] = []
    types: dict[str, str] = {}
    seen_samples: set[str] = set()
    #: histogram family -> list of (bound, cumulative) in file order
    buckets: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, float] = {}
    sums: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE"):
                match = _TYPE_RE.match(line)
                if match is None:
                    problems.append(f"line {lineno}: malformed TYPE line")
                    continue
                kind = match.group("kind")
                if kind not in _VALID_TYPES:
                    problems.append(
                        f"line {lineno}: unknown metric type {kind!r}"
                    )
                types[match.group("name")] = kind
            elif not line.startswith("# HELP"):
                problems.append(
                    f"line {lineno}: unknown comment directive"
                )
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        value = _parse_value(match.group("value"))
        if value is None:
            problems.append(
                f"line {lineno}: bad sample value {match.group('value')!r}"
            )
            continue
        sample_key = f"{name}{{{match.group('labels') or ''}}}"
        if sample_key in seen_samples:
            problems.append(f"line {lineno}: duplicate sample {sample_key}")
        seen_samples.add(sample_key)
        # which family does this sample belong to?
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                family = base
                break
        if family not in types:
            problems.append(
                f"line {lineno}: sample {name} without a # TYPE header"
            )
            continue
        if types.get(family) == "histogram" and name == f"{family}_bucket":
            labels = match.group("labels") or ""
            le = _LE_RE.search(labels)
            if le is None:
                problems.append(
                    f"line {lineno}: histogram bucket without le label"
                )
                continue
            bound = _parse_value(le.group("bound"))
            if bound is None:
                problems.append(
                    f"line {lineno}: bad le bound {le.group('bound')!r}"
                )
                continue
            buckets.setdefault(family, []).append((bound, value))
        elif name == f"{family}_count" and types.get(family) == "histogram":
            counts[family] = value
        elif name == f"{family}_sum" and types.get(family) == "histogram":
            sums.add(family)
    for family, series in buckets.items():
        bounds = [b for b, _ in series]
        values = [v for _, v in series]
        if bounds != sorted(bounds):
            problems.append(f"{family}: bucket bounds not ascending")
        if values != sorted(values):
            problems.append(f"{family}: bucket counts not cumulative")
        if not bounds or bounds[-1] != float("inf"):
            problems.append(f"{family}: missing +Inf bucket")
        elif family in counts and values[-1] != counts[family]:
            problems.append(
                f"{family}: +Inf bucket {values[-1]} != _count "
                f"{counts[family]}"
            )
        if family not in counts:
            problems.append(f"{family}: missing _count sample")
        if family not in sums:
            problems.append(f"{family}: missing _sum sample")
    return problems


def validate_exposition_report(path: "str | Path") -> FindingReport:
    """Findings-model view of :func:`validate_exposition_file`."""
    report = FindingReport()
    for problem in validate_exposition_file(path):
        report.add("X002", problem, source=str(path))
    return report


def main(argv: "list[str] | None" = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(
            "usage: python -m repro.observability.validate "
            "TRACE.json|TELEMETRY.prom ..."
        )
        return EXIT_INPUT
    combined = FindingReport()
    for path in paths:
        if Path(path).suffix in (".prom", ".txt"):
            report = validate_exposition_report(path)
        else:
            report = validate_trace_report(path)
        combined.extend(report)
        if report.findings:
            print(f"{path}: INVALID")
            for finding in report:
                print(f"  - {finding.message}")
        else:
            print(f"{path}: ok")
    return combined.exit_code


if __name__ == "__main__":
    sys.exit(main())
