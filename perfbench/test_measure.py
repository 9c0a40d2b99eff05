"""Tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    median,
    parse_fasta_sequences,
    same_contigs,
    self_times,
    tail_percentile,
)


def test_median_odd_even_and_unsorted():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([7]) == 7.0
    with pytest.raises(ValueError):
        median([])


def test_tail_percentile_needs_ten_samples_beyond():
    # 10 samples: no percentile has ten above it
    assert tail_percentile([float(i) for i in range(10)]) is None
    # 20 samples: p50 leaves 10 above (rank 10), p75 leaves only 5
    assert tail_percentile([float(i) for i in range(1, 21)]) == (50.0, 10.0)
    # 40 samples: p75 (rank 30) leaves 10 above, p90 only 4
    values = [float(i) for i in range(40, 0, -1)]
    assert tail_percentile(values) == (75.0, 30.0)
    # 1000 samples: p99 (rank 990) leaves 10 above, p99.9 only 1
    assert tail_percentile([float(i) for i in range(1, 1001)]) == (99.0, 990.0)


def span(id_, parent, start, end):
    return {"id": id_, "parent": parent, "start": start, "end": end}


def test_self_time_of_nested_span_tree():
    spans = [
        span(0, None, 0.0, 10.0),  # process
        span(1, 0, 0.0, 2.0),      # imports
        span(2, 0, 3.0, 9.0),      # pipeline
        span(3, 2, 3.0, 7.0),      # hashmap
        span(4, 2, 7.5, 8.5),      # traverse
        span(5, 4, 7.5, 8.0),      # adjacency
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 2.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 0.5, 5: 0.5})
    # self times partition the root's interval
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 5.0),
        span(2, 0, 4.0, 6.0),    # overlaps child 1 on [4, 5]
        span(3, 0, 9.0, 12.0),   # sticks out of the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_comparator_accepts_reordered_records():
    want = ["ACGTACGT", "TTTTGGGG", "CCCA"]
    text = ">c2\nCCCA\n>c0\nACGT\nACGT\n>c1\nTTTTGGGG\n"
    assert same_contigs(parse_fasta_sequences(text), want)


@pytest.mark.parametrize(
    "got",
    [
        ["ACGTACGT", "TTTTGGGG"],             # a contig missing
        ["ACGTACG", "TTTTGGGG", "CCCA"],      # a contig shortened
        ["ACGTACGT", "TTTTGGGG", "CCCA", "CCCA"],  # a contig duplicated
        ["TGCATGCA", "TTTTGGGG", "CCCA"],     # bases reordered in a contig
        [],
    ],
)
def test_comparator_rejects_truncated_or_altered_sets(got):
    assert not same_contigs(got, ["ACGTACGT", "TTTTGGGG", "CCCA"])


def test_fasta_parser_rejects_sequence_before_header():
    with pytest.raises(ValueError):
        parse_fasta_sequences("ACGT\n>c0\nACGT\n")
    assert parse_fasta_sequences("") == []
