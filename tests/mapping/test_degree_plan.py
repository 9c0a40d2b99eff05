"""Property tests: the one-pass degree planner equals the per-chunk edge walk.

:class:`~repro.mapping.adjacency.DegreePlan` replaces one full edge walk
per (chunk, direction) with a single pass.  For every chunk it must
reproduce :func:`adjacency_rows_for_chunk` exactly: the row count, the
column sums (the bulk engine's whole input) and the rows themselves in
first-arrival order (the scalar engine's input) — including chunks that
have no in-edges or no out-edges.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.debruijn import DeBruijnGraph
from repro.core import PimAssembler
from repro.genome.kmer import pack_kmer
from repro.genome.sequence import DnaSequence
from repro.mapping.adjacency import (
    DegreePlan,
    adjacency_rows_for_chunk,
    degree_vectors_pim,
)


def assert_plan_matches_walk(graph, width):
    nodes = sorted(graph.nodes())
    plan = DegreePlan(graph, width)
    assert plan.nodes == nodes
    assert plan.chunks == -(-len(nodes) // width)
    for chunk in range(plan.chunks):
        chunk_nodes = nodes[chunk * width : (chunk + 1) * width]
        for direction in ("in", "out"):
            walk = adjacency_rows_for_chunk(graph, chunk_nodes, direction)
            assert plan.row_count(direction, chunk) == len(walk)
            expected = (
                np.sum(walk, axis=0)
                if walk
                else np.zeros(len(chunk_nodes), dtype=np.int64)
            )
            assert np.array_equal(plan.column_sums(direction, chunk), expected)
            rows = plan.rows(direction, chunk)
            assert len(rows) == len(walk)
            for got, want in zip(rows, walk):
                assert np.array_equal(got, want)


def star_graph():
    """ACG -> CG{A,C,G,T}: a source-only hub and four sink-only leaves."""
    graph = DeBruijnGraph(k=4)
    for base in "ACGT":
        graph.add_kmer(pack_kmer(DnaSequence("ACG" + base)))
    return graph


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=3, max_value=5),
    kmers=st.lists(st.integers(min_value=0, max_value=4**5 - 1), max_size=80),
    width=st.sampled_from([1, 2, 3, 5, 8, 64]),
)
def test_plan_matches_per_chunk_edge_walk(k, kmers, width):
    graph = DeBruijnGraph(k=k)
    for kmer in kmers:
        graph.add_kmer(kmer % 4**k)
    assert_plan_matches_walk(graph, width)


def test_chunks_without_in_or_out_edges():
    graph = star_graph()
    plan = DegreePlan(graph, 1)
    hub = plan.nodes.index(pack_kmer(DnaSequence("ACG")))
    assert plan.row_count("in", hub) == 0  # the hub's chunk has no in-edges
    assert plan.row_count("out", hub) == 4
    leaves = [c for c in range(plan.chunks) if c != hub]
    assert all(plan.row_count("out", c) == 0 for c in leaves)
    assert all(plan.row_count("in", c) == 1 for c in leaves)
    for width in (1, 2, 3, 5):
        assert_plan_matches_walk(graph, width)


def test_repeated_edges_count_once_like_the_walk():
    graph = DeBruijnGraph(k=3)
    for kmer in (5, 5, 9, 5, 22):
        graph.add_kmer(kmer)
    assert_plan_matches_walk(graph, 2)


def test_degree_vectors_span_several_chunks_on_both_engines():
    graph = DeBruijnGraph(k=5)
    rng = np.random.default_rng(4)
    for kmer in rng.integers(0, 4**5, size=120).tolist():
        graph.add_kmer(int(kmer))
    results = []
    for engine in ("scalar", "bulk"):
        pim = PimAssembler.small(subarrays=4, rows=256, cols=16)
        in_deg, out_deg = degree_vectors_pim(pim, graph, engine=engine)
        results.append((in_deg, out_deg, pim.stats.totals().commands))
    assert graph.num_nodes > 3 * 16  # several row-width chunks
    assert results[0] == results[1]
    in_deg, out_deg, _ = results[0]
    for node in graph.nodes():
        sources = {e.source for e in graph.edges() if e.target == node}
        targets = {e.target for e in graph.out_edges(node)}
        assert in_deg[node] == len(sources)
        assert out_deg[node] == len(targets)
