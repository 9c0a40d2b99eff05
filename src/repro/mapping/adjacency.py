"""Adjacency-matrix mapping and bulk degree computation (paper Fig. 8).

The traversal stage needs every vertex's in/out degree.  The paper maps
the (sub-)graph's adjacency matrix onto consecutive sub-array rows and
sums them with parallel in-memory addition: "PIM-Assembler takes every
three rows to perform a parallel in-memory addition ... results written
back to the reserved space ... then multi-bit addition of resultant
data ... concluded after 2 x m cycles".

That is a carry-save (Wallace) reduction in bit-plane space:

* every adjacency row is a weight-0 bit plane of column-wise partial
  sums;
* a 3:2 compression turns three weight-w planes into one weight-w sum
  plane and one weight-(w+1) carry plane (:meth:`Controller.compress_3to2`);
* when at most two planes remain per weight, a final bit-serial ripple
  add (2 cycles/bit) produces the degree vector.

:func:`wallace_column_sum` implements exactly that schedule on the
functional simulator; :func:`degree_vectors_pim` applies it to a de
Bruijn graph chunk by chunk (each chunk covers up to one row width of
vertices, the ``n <= f = min(a, b)`` allocation rule of Section III).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Sequence

import numpy as np

from typing import TYPE_CHECKING

from repro.core.isa import RowAddress
from repro.errors import AllocationError
from repro.runtime.watchdog import checkpoint

if TYPE_CHECKING:  # import cycle: assembly.pipeline uses this module
    from repro.assembly.debruijn import DeBruijnGraph
from repro.core.platform import PimAssembler


class _ScratchRows:
    """Free-list of physical data rows inside one scratch sub-array."""

    def __init__(self, pim: PimAssembler, subarray_key: tuple[int, int, int]) -> None:
        self.pim = pim
        self.key = subarray_key
        sub = pim.device.subarray_at(subarray_key)
        self._free = list(range(sub.geometry.data_rows - 1, -1, -1))

    def take(self) -> RowAddress:
        if not self._free:
            raise AllocationError(f"scratch sub-array {self.key} exhausted")
        bank, mat, sub = self.key
        return RowAddress(bank=bank, mat=mat, subarray=sub, row=self._free.pop())

    def give(self, address: RowAddress) -> None:
        self._free.append(address.row)


def wallace_column_sum(
    pim: PimAssembler,
    rows: Sequence[np.ndarray],
    subarray_key: tuple[int, int, int] = (0, 0, 0),
    engine: str = "scalar",
) -> np.ndarray:
    """Column-wise sum of many 0/1 rows via in-memory carry-save adds.

    Args:
        pim: the platform (a scratch sub-array is used for all work).
        rows: bit vectors (each at most one row wide).
        subarray_key: which sub-array to compute in.
        engine: ``"scalar"`` executes every compression through the
            controller; ``"bulk"`` computes the sum as one bit-plane
            expression and charges the identical command counts in one
            batch (falls back to scalar under live sum/TRA fault
            rates, whose per-op draw order is part of the contract).

    Returns:
        int64 vector of per-column sums (width = row width).
    """
    if engine not in ("scalar", "bulk"):
        raise ValueError("engine must be 'scalar' or 'bulk'")
    if not rows:
        raise ValueError("need at least one row")
    if engine == "bulk":
        return _wallace_column_sum_bulk(pim, rows, subarray_key)
    scratch = _ScratchRows(pim, subarray_key)
    ctrl = pim.controller
    width = pim.row_bits

    # Stage the input rows as weight-0 planes.
    buckets: dict[int, list[RowAddress]] = defaultdict(list)
    for bits in rows:
        arr = np.asarray(bits, dtype=np.uint8).ravel()
        if arr.size > width:
            raise ValueError(f"row of {arr.size} bits exceeds width {width}")
        if arr.size < width:
            arr = np.pad(arr, (0, width - arr.size))
        addr = scratch.take()
        ctrl.write_row(addr, arr)
        buckets[0].append(addr)

    # Carry-save reduction: 3 planes of weight w -> sum(w) + carry(w+1).
    changed = True
    while changed:
        changed = False
        for weight in sorted(buckets):
            while len(buckets[weight]) >= 3:
                checkpoint()  # per-compression cancellation point
                r1 = buckets[weight].pop()
                r2 = buckets[weight].pop()
                r3 = buckets[weight].pop()
                sum_row = scratch.take()
                carry_row = scratch.take()
                ctrl.compress_3to2(r1, r2, r3, sum_row, carry_row)
                for r in (r1, r2, r3):
                    scratch.give(r)
                buckets[weight].append(sum_row)
                buckets[weight + 1].append(carry_row)
                changed = True

    # At most two planes per weight remain: form two words and ripple-add.
    max_weight = max(buckets)
    bits_needed = max_weight + 1
    zero = np.zeros(width, dtype=np.uint8)

    def plane_or_zero(weight: int, index: int) -> RowAddress:
        planes = buckets.get(weight, [])
        if index < len(planes):
            return planes[index]
        addr = scratch.take()
        ctrl.write_row(addr, zero)
        return addr

    a_planes = [plane_or_zero(w, 0) for w in range(bits_needed)]
    b_planes = [plane_or_zero(w, 1) for w in range(bits_needed)]
    sum_planes = [scratch.take() for _ in range(bits_needed)]
    carry_row = scratch.take()
    ctrl.ripple_add(a_planes, b_planes, sum_planes, carry_row)

    # Read the result back (sum planes LSB-first plus the final carry).
    total = np.zeros(width, dtype=np.int64)
    for i, plane in enumerate(sum_planes):
        total += ctrl.read_row(plane).astype(np.int64) << i
    total += ctrl.read_row(carry_row).astype(np.int64) << bits_needed
    return total


def _wallace_schedule(n_rows: int) -> tuple[int, int, int]:
    """(compressions, result bits, zero planes) of the scalar schedule.

    Replays :func:`wallace_column_sum`'s control flow over plane
    *counts* only, so the bulk path can charge the exact command
    counts the scalar reduction issues without touching the device.
    """
    counts: dict[int, int] = {0: n_rows}
    compressions = 0
    changed = True
    while changed:
        changed = False
        for weight in sorted(counts):
            while counts[weight] >= 3:
                counts[weight] -= 2  # three planes in, one sum out
                counts[weight + 1] = counts.get(weight + 1, 0) + 1
                compressions += 1
                changed = True
    bits_needed = max(counts) + 1
    zero_planes = sum(2 - counts.get(w, 0) for w in range(bits_needed))
    return compressions, bits_needed, zero_planes


def _wallace_column_sum_bulk(
    pim: PimAssembler,
    rows: Sequence[np.ndarray],
    subarray_key: tuple[int, int, int],
) -> np.ndarray:
    """Bulk bit-plane evaluation of :func:`wallace_column_sum`.

    The column sums are one NumPy reduction; the ledger is charged the
    scalar schedule's exact command and verify counts as one batch.
    The scratch sub-array's transient row contents are not replayed
    (the scalar path overwrites them freely and nothing reads them
    back); runs with live sum/TRA fault rates use the scalar path so
    the RNG stream stays per-op exact.
    """
    if _sum_faults_live(pim):
        return wallace_column_sum(pim, rows, subarray_key, engine="scalar")

    width = pim.row_bits
    staged = []
    for bits in rows:
        arr = np.asarray(bits, dtype=np.uint8).ravel()
        if arr.size > width:
            raise ValueError(f"row of {arr.size} bits exceeds width {width}")
        if arr.size < width:
            arr = np.pad(arr, (0, width - arr.size))
        staged.append(arr)
    _charge_wallace_bulk(pim, len(staged), subarray_key)
    return np.stack(staged).astype(np.int64).sum(axis=0)


def _sum_faults_live(pim: PimAssembler) -> bool:
    """True when sum/TRA faults draw per op (bulk must replay scalar)."""
    faults = pim.controller.faults
    return (
        faults is not None
        and faults.enabled
        and (faults.sum_rate > 0.0 or faults.tra_rate > 0.0)
    )


def _charge_wallace_bulk(
    pim: PimAssembler, n_rows: int, subarray_key: tuple[int, int, int]
) -> None:
    """Charge the scalar Wallace schedule of ``n_rows`` rows as one
    gang batch (one flush)."""
    from repro.core.bitplane import BulkEngine

    checkpoint()  # per-reduction cancellation point (bulk path)
    compressions, bits_needed, zero_planes = _wallace_schedule(n_rows)
    engine = BulkEngine(pim)
    sched = engine.scheduler
    sched.charge("MEM_WR", subarray_key, n_rows + zero_planes)
    sched.charge("LATCH_LD", subarray_key, compressions)
    # scalar equivalence: the final ripple_add zeroes its carry row
    # with one charged AAP (RowClone off the constant row)
    sched.charge("AAP1", subarray_key, 1)
    sched.fused_add(subarray_key, compressions + bits_needed)
    sched.charge("MEM_RD", subarray_key, bits_needed + 1)
    if pim.controller._verifying() is not None:
        engine.charge_verify(2 * (compressions + bits_needed))
    engine.flush()


def adjacency_rows_for_chunk(
    graph: DeBruijnGraph,
    chunk_nodes: Sequence[int],
    direction: str = "in",
) -> list[np.ndarray]:
    """Build the 0/1 adjacency rows whose column sum is a degree vector.

    ``direction="in"``: one row per *source* vertex with a 1 in column
    ``j`` when an edge points to ``chunk_nodes[j]``; the column sum is
    the chunk's in-degree vector.  ``direction="out"``: one row per
    *target* with 1s at its in-neighbours among the chunk — the column
    sum is the out-degree vector.
    """
    if direction not in ("in", "out"):
        raise ValueError("direction must be 'in' or 'out'")
    column = {node: i for i, node in enumerate(chunk_nodes)}
    rows: dict[int, np.ndarray] = {}
    width = len(chunk_nodes)
    for edge in graph.edges():
        if direction == "in":
            key_node, chunk_node = edge.source, edge.target
        else:
            key_node, chunk_node = edge.target, edge.source
        if chunk_node not in column:
            continue
        row = rows.get(key_node)
        if row is None:
            row = np.zeros(width, dtype=np.uint8)
            rows[key_node] = row
        row[column[chunk_node]] = 1
    return list(rows.values())


class DegreePlan:
    """Every chunk's adjacency rows, planned from ONE pass over the edges.

    :func:`adjacency_rows_for_chunk` walks every edge once per chunk and
    direction.  The plan walks them once in total and keeps, per
    direction, the distinct ``(chunk, row vertex, column)`` incidences
    as index arrays sorted by chunk, with each row vertex ranked by
    first arrival in edge order — so per chunk it yields the row count
    and the column sums (the bulk engine's whole input) with
    ``np.bincount``, or the rows themselves in the edge walk's order
    (the scalar engine's input).

    Column ``i`` of chunk ``c`` is vertex ``nodes[c * width + i]`` of
    the sorted vertex list.
    """

    def __init__(self, graph: DeBruijnGraph, width: int) -> None:
        self.nodes = sorted(graph.nodes())
        self.width = width
        self.chunks = -(-len(self.nodes) // width)
        ends = np.asarray(
            [(e.source, e.target) for e in graph.edges()], dtype=np.uint64
        ).reshape(-1, 2)
        index = np.searchsorted(np.asarray(self.nodes, np.uint64), ends)
        self._plans = {
            "in": self._direction(index[:, 0], index[:, 1]),
            "out": self._direction(index[:, 1], index[:, 0]),
        }

    def _direction(self, row_node: np.ndarray, col_node: np.ndarray) -> dict:
        n, width = max(len(self.nodes), 1), self.width
        # distinct (row vertex, column vertex) incidences, first arrival
        # first — a repeated edge sets the same bit again
        pair, first = np.unique(row_node * n + col_node, return_index=True)
        pair = pair[np.argsort(first)]
        row_node, col = pair // n, pair % n
        chunk = col // width
        # rank each chunk's row vertices by first arrival
        row_key, row_first, row_of = np.unique(
            chunk * n + row_node, return_index=True, return_inverse=True
        )
        by_arrival = np.lexsort((row_first, row_key // n))
        rank = np.empty_like(by_arrival)
        rank[by_arrival] = np.arange(by_arrival.size)
        rows_per_chunk = np.bincount(row_key // n, minlength=self.chunks)
        row_start = np.concatenate(([0], np.cumsum(rows_per_chunk)))
        row = rank[row_of.reshape(-1)] - row_start[chunk]
        by_chunk = np.argsort(chunk, kind="stable")
        return {
            "rows": rows_per_chunk,
            "col_sums": np.bincount(col, minlength=len(self.nodes)),
            "row": row[by_chunk],
            "col": (col % width)[by_chunk],
            "start": np.searchsorted(
                chunk[by_chunk], np.arange(self.chunks + 1)
            ),
        }

    def row_count(self, direction: str, chunk: int) -> int:
        return int(self._plans[direction]["rows"][chunk])

    def column_sums(self, direction: str, chunk: int) -> np.ndarray:
        """The chunk's degree vector: column sums of its rows."""
        lo = chunk * self.width
        return self._plans[direction]["col_sums"][lo : lo + self.width]

    def rows(self, direction: str, chunk: int) -> list[np.ndarray]:
        """The chunk's rows, identical to (and in the order of)
        :func:`adjacency_rows_for_chunk` over the same chunk."""
        plan = self._plans[direction]
        lo, hi = plan["start"][chunk], plan["start"][chunk + 1]
        width = min(self.width, len(self.nodes) - chunk * self.width)
        block = np.zeros((self.row_count(direction, chunk), width), np.uint8)
        block[plan["row"][lo:hi], plan["col"][lo:hi]] = 1
        return list(block)


def degree_vectors_pim(
    pim: PimAssembler,
    graph: DeBruijnGraph,
    subarray_key: tuple[int, int, int] = (0, 0, 0),
    engine: str = "scalar",
) -> tuple[dict[int, int], dict[int, int]]:
    """In/out degrees of every vertex via in-memory column sums.

    Chunks the vertex set by the row width (the ``n <= f`` rule) and
    accumulates each chunk's degree vectors with
    :func:`wallace_column_sum`, fed from one :class:`DegreePlan` edge
    pass.  ``engine="bulk"`` charges each chunk's whole reduction as
    one batch and takes the column sums straight from the plan.

    Warning:
        the scratch sub-array's data rows are freely overwritten — run
        this *after* any hash-table contents in that sub-array have
        been read back (the pipeline's traverse phase does).

    Returns:
        ``(in_degree, out_degree)`` dictionaries over packed node keys.
    """
    if engine not in ("scalar", "bulk"):
        raise ValueError("engine must be 'scalar' or 'bulk'")
    width = pim.row_bits
    plan = DegreePlan(graph, width)
    nodes = plan.nodes
    planned = engine == "bulk" and not _sum_faults_live(pim)
    degrees = {d: np.zeros(len(nodes), dtype=np.int64) for d in ("in", "out")}
    for chunk in range(plan.chunks):
        lo = chunk * width
        hi = min(lo + width, len(nodes))
        for direction in ("in", "out"):
            checkpoint()  # per-chunk cancellation point
            n_rows = plan.row_count(direction, chunk)
            if not n_rows:
                continue
            if planned:
                _charge_wallace_bulk(pim, n_rows, subarray_key)
                sums = plan.column_sums(direction, chunk)
            else:
                sums = wallace_column_sum(
                    pim, plan.rows(direction, chunk), subarray_key, engine
                )
            degrees[direction][lo:hi] = sums[: hi - lo]
    return (
        dict(zip(nodes, degrees["in"].tolist())),
        dict(zip(nodes, degrees["out"].tolist())),
    )


def planes_needed(row_count: int) -> int:
    """Bit planes needed to hold a column sum of ``row_count`` rows."""
    if row_count <= 0:
        raise ValueError("row_count must be positive")
    return max(1, math.ceil(math.log2(row_count + 1)))
