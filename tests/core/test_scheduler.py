"""Trace-driven scheduling: makespan bounds, parallelism audit."""

import numpy as np
import pytest

from repro.core import CommandTrace, PimAssembler
from repro.core.scheduler import (
    BatchedAapScheduler,
    TraceScheduler,
    audit_parallelism,
)
from repro.core.trace import ChargeLog
from repro.core.trace import CommandTrace as Trace


def traced_pim(**kwargs):
    pim = PimAssembler.small(**kwargs)
    trace = CommandTrace()
    pim.controller.attach_trace(trace)
    return pim, trace


class TestBounds:
    def test_serial_trace_makespan_equals_serial_time(self, rng):
        """Commands on one sub-array cannot overlap."""
        pim, trace = traced_pim()
        a = pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        b = pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        pim.pim_xnor(a, b)
        report = audit_parallelism(trace)
        assert report.makespan_ns == pytest.approx(report.serial_ns)
        assert report.parallel_speedup == pytest.approx(1.0)

    def test_parallel_mats_overlap(self, rng):
        """The same work spread over 4 MATs (own GRBs) overlaps."""
        pim, trace = traced_pim(subarrays=1, mats=4)
        for m in range(4):
            a = pim.store_row(
                rng.integers(0, 2, 32).astype(np.uint8), (0, m, 0)
            )
            b = pim.store_row(
                rng.integers(0, 2, 32).astype(np.uint8), (0, m, 0)
            )
            pim.pim_xnor(a, b)
        report = audit_parallelism(trace)
        assert report.parallel_speedup > 3.0
        assert report.makespan_ns < report.serial_ns

    def test_shared_grb_limits_single_mat_parallelism(self, rng):
        """Sub-arrays of ONE MAT share a GRB: the alternating
        host-write / scan pattern serialises through it."""
        pim, trace = traced_pim(subarrays=4, mats=1)
        for s in range(4):
            a = pim.store_row(
                rng.integers(0, 2, 32).astype(np.uint8), (0, 0, s)
            )
            b = pim.store_row(
                rng.integers(0, 2, 32).astype(np.uint8), (0, 0, s)
            )
            pim.pim_xnor(a, b)
        report = audit_parallelism(trace)
        assert 1.0 < report.parallel_speedup < 3.0

    def test_makespan_never_below_critical_resource(self, rng):
        pim, trace = traced_pim()
        for s in range(3):
            for _ in range(2):
                pim.store_row(
                    rng.integers(0, 2, 32).astype(np.uint8), (0, 0, s)
                )
        report = audit_parallelism(trace)
        assert report.makespan_ns >= report.critical_resource_ns - 1e-9
        assert report.makespan_ns <= report.serial_ns + 1e-9

    def test_grb_serialises_host_io_within_a_mat(self, rng):
        """MEM ops to different sub-arrays of one MAT share the GRB."""
        pim, trace = traced_pim()
        pim.store_row(rng.integers(0, 2, 32).astype(np.uint8), (0, 0, 0))
        pim.store_row(rng.integers(0, 2, 32).astype(np.uint8), (0, 0, 1))
        report = audit_parallelism(trace)
        # two MEM_WRs through one GRB: no overlap despite distinct
        # sub-arrays
        assert report.makespan_ns == pytest.approx(report.serial_ns)

    def test_empty_trace(self):
        report = audit_parallelism(Trace())
        assert report.makespan_ns == 0.0
        assert report.commands == 0
        assert report.utilisation == 0.0

    def test_unknown_mnemonic_rejected(self):
        trace = Trace()
        trace.record("WARP", (0, 0, 0), (0,))
        with pytest.raises(ValueError):
            TraceScheduler().schedule(trace)


class TestPropertyBounds:
    from hypothesis import given, settings, strategies as st

    commands = st.lists(
        st.tuples(
            st.sampled_from(["AAP1", "AAP2", "AAP3", "MEM_WR", "MEM_RD", "DPU"]),
            st.integers(0, 3),  # subarray index
            st.integers(0, 1),  # mat index
        ),
        min_size=1,
        max_size=60,
    )

    @given(commands=commands)
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounds_hold_for_any_trace(self, commands):
        trace = Trace()
        for mnemonic, sub, mat in commands:
            trace.record(mnemonic, (0, mat, sub), (0,))
        report = audit_parallelism(trace)
        assert report.makespan_ns <= report.serial_ns + 1e-6
        assert report.makespan_ns >= report.critical_resource_ns - 1e-6
        assert sum(report.per_subarray_busy_ns.values()) == pytest.approx(
            report.serial_ns
        )

    @given(commands=commands)
    @settings(max_examples=20, deadline=None)
    def test_speedup_bounded_by_resource_count(self, commands):
        trace = Trace()
        for mnemonic, sub, mat in commands:
            trace.record(mnemonic, (0, mat, sub), (0,))
        report = audit_parallelism(trace)
        resources = len(report.per_subarray_busy_ns)
        assert report.parallel_speedup <= resources + 1e-6


class TestAlgorithmAudit:
    def test_hashmap_exposes_partition_parallelism(self):
        """The hash-partitioned counter must schedule much faster than
        its serial command stream."""
        from repro.assembly import PimKmerCounter
        from repro.genome import synthetic_chromosome

        pim, trace = traced_pim(subarrays=2, rows=256, cols=64, mats=4)
        counter = PimKmerCounter(pim, 9)
        counter.add_sequence(synthetic_chromosome(500, seed=888))
        report = audit_parallelism(trace)
        assert report.parallel_speedup > 2.0
        assert 0.0 < report.utilisation <= 1.0

    def test_wallace_reduction_is_serial(self, rng):
        """A single-sub-array reduction exposes no parallelism."""
        from repro.mapping import wallace_column_sum

        pim, trace = traced_pim(subarrays=1, rows=256, cols=32)
        rows = [rng.integers(0, 2, 32).astype(np.uint8) for _ in range(9)]
        wallace_column_sum(pim, rows)
        report = audit_parallelism(trace)
        assert report.parallel_speedup == pytest.approx(1.0)


class _RecordingLedger:
    def __init__(self):
        self.records = []

    def record(self, command, time_ns, energy_nj, count):
        self.records.append((command, time_ns, energy_nj, count))


class TestChargeMany:
    """``charge_many`` is the per-call loop, to the last bit."""

    COLUMNS = ("MEM_WR", "MEM_RD", "AAP1", "AAP1", "AAP2", "DPU", "DPU")

    def run(self, keys, counts, vector, prior=()):
        ledger, log = _RecordingLedger(), ChargeLog()
        sched = BatchedAapScheduler(ledger, log=log)
        for mnemonic, key, count in prior:
            sched.charge(mnemonic, key, count)
        if vector:
            sched.charge_many(
                np.asarray(keys),
                [(m, counts[:, j]) for j, m in enumerate(self.COLUMNS)],
            )
        else:
            for i, key in enumerate(keys):
                for j, mnemonic in enumerate(self.COLUMNS):
                    sched.charge(mnemonic, tuple(key), int(counts[i, j]))
        report = sched.flush()
        return ledger.records, log.charges, log.flushes, report

    @pytest.mark.parametrize("seed", range(6))
    def test_identical_records_log_and_report(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        # several sub-arrays per MAT, several MATs and banks, sparse counts
        keys = np.stack(
            [
                rng.integers(0, 2, n),
                rng.integers(0, 3, n),
                rng.permutation(np.arange(n) % 64),
            ],
            axis=1,
        )
        keys = np.unique(keys, axis=0)
        counts = rng.integers(0, 50, (keys.shape[0], len(self.COLUMNS)))
        counts[rng.random(counts.shape) < 0.4] = 0
        assert self.run(keys, counts, True) == self.run(keys, counts, False)

    def test_all_zero_and_leading_zero_columns(self):
        keys = np.array([[0, 0, 0], [0, 0, 1], [1, 0, 0]])
        counts = np.zeros((3, len(self.COLUMNS)), dtype=np.int64)
        assert self.run(keys, counts, True) == self.run(keys, counts, False)
        counts[2, 1] = 5  # MEM_RD first appears after other mnemonics
        counts[1, 5] = 2
        counts[0, 0] = 1
        assert self.run(keys, counts, True) == self.run(keys, counts, False)

    def test_partly_filled_batch_merges_in_call_order(self):
        keys = np.array([[0, 0, 0], [0, 1, 2]])
        counts = np.arange(14).reshape(2, 7) % 5
        prior = [("AAP2", (0, 1, 2), 3), ("MEM_WR", (0, 0, 0), 1)]
        assert self.run(keys, counts, True, prior) == self.run(
            keys, counts, False, prior
        )
