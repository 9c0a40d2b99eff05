"""Arithmetic of the end-to-end benchmark: order statistics, span self
time and the contig-set comparator.

Kept free of any import from the program under test, so the numbers
the benchmark reports do not depend on the code they judge.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

#: percentiles tried, highest first, when picking the reportable tail
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle two when even)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(values: Sequence[float]) -> "tuple[float, float] | None":
    """The highest percentile that has at least ``MIN_BEYOND`` samples
    strictly above its nearest-rank position.

    Returns ``(percentile, value)``, or ``None`` when the sample is too
    small for any tail percentile to be backed by ten samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return pct, float(ordered[rank - 1])
    return None


def self_times(spans: Iterable[Mapping]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover.

    Each span is a mapping with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.  Children may overlap each other or stick out
    of their parent; only the covered part of the parent's own interval
    is subtracted, once.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[int, float] = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cursor = lo
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (hi - lo) - covered
    return out


def parse_fasta_sequences(text: str) -> list[str]:
    """Sequences of a FASTA text, wrapped lines joined, in file order."""
    seqs: list[str] = []
    current: "list[str] | None" = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if current is not None:
                seqs.append("".join(current))
            current = []
        elif current is None:
            raise ValueError("FASTA sequence line before the first header")
        else:
            current.append(line)
    if current is not None:
        seqs.append("".join(current))
    return seqs


def same_contigs(got: Iterable[str], want: Iterable[str]) -> bool:
    """True when two contig sets are equal as multisets of sequences.

    Record order does not matter; a missing, extra, duplicated or
    shortened contig does.
    """
    return Counter(got) == Counter(want)

