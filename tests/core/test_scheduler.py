"""Gang scheduling: makespan bounds of ``charge_stream`` on recorded
traces, and ``charge_many`` == the per-call ``charge`` loop."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CommandTrace, PimAssembler
from repro.core.scheduler import BatchedAapScheduler, charge_stream
from repro.core.timing import DEFAULT_TIMING, command_latency_table
from repro.core.trace import ChargeLog
from repro.core.trace import CommandTrace as Trace


def traced_pim(**kwargs):
    pim = PimAssembler.small(**kwargs)
    trace = CommandTrace()
    pim.controller.attach_trace(trace)
    return pim, trace


def resource_busy(trace):
    """Reference busy time per resource, entry by entry: a command holds
    its sub-array, host I/O also holds the MAT's GRB, and a DPU op holds
    only the MAT's DPU."""
    latency = command_latency_table(DEFAULT_TIMING)
    busy = defaultdict(float)
    for entry in trace:
        ns = latency[entry.mnemonic]
        bank, mat, _ = entry.subarray
        if entry.mnemonic == "DPU":
            busy[("dpu", bank, mat)] += ns
            continue
        busy[entry.subarray] += ns
        if entry.mnemonic in ("MEM_RD", "MEM_WR"):
            busy[("grb", bank, mat)] += ns
    return busy


def random_row(rng):
    return rng.integers(0, 2, 32).astype(np.uint8)


class TestBounds:
    def test_serial_trace_makespan_equals_serial_time(self, rng):
        """Commands on one sub-array cannot overlap."""
        pim, trace = traced_pim()
        a = pim.store_row(random_row(rng))
        b = pim.store_row(random_row(rng))
        pim.pim_xnor(a, b)
        report = charge_stream(trace)
        assert report.makespan_ns == pytest.approx(report.serial_ns)
        assert report.coalescing_speedup == pytest.approx(1.0)

    def test_parallel_mats_overlap(self, rng):
        """The same work spread over 4 MATs (own GRBs) overlaps."""
        pim, trace = traced_pim(subarrays=1, mats=4)
        for m in range(4):
            a = pim.store_row(random_row(rng), (0, m, 0))
            b = pim.store_row(random_row(rng), (0, m, 0))
            pim.pim_xnor(a, b)
        report = charge_stream(trace)
        assert report.coalescing_speedup == pytest.approx(4.0)
        assert report.makespan_ns < report.serial_ns

    def test_shared_grb_limits_single_mat_parallelism(self, rng):
        """Sub-arrays of ONE MAT share a GRB: once host writes dominate,
        they serialise through it and four sub-arrays give less than 4x."""
        pim, trace = traced_pim(subarrays=4, mats=1)
        for s in range(4):
            a, b, _, _ = (
                pim.store_row(random_row(rng), (0, 0, s)) for _ in range(4)
            )
            pim.pim_xnor(a, b)
        report = charge_stream(trace)
        assert 1.0 < report.coalescing_speedup < 4.0
        assert report.makespan_ns == pytest.approx(
            resource_busy(trace)[("grb", 0, 0)]
        )

    def test_makespan_never_below_critical_resource(self, rng):
        pim, trace = traced_pim()
        for s in range(3):
            for _ in range(2):
                pim.store_row(random_row(rng), (0, 0, s))
        report = charge_stream(trace)
        assert report.makespan_ns == pytest.approx(
            max(resource_busy(trace).values())
        )
        assert report.makespan_ns <= report.serial_ns + 1e-9

    def test_grb_serialises_host_io_within_a_mat(self, rng):
        """MEM ops to different sub-arrays of one MAT share the GRB."""
        pim, trace = traced_pim()
        pim.store_row(random_row(rng), (0, 0, 0))
        pim.store_row(random_row(rng), (0, 0, 1))
        report = charge_stream(trace)
        # two MEM_WRs through one GRB: no overlap despite distinct
        # sub-arrays
        assert report.makespan_ns == pytest.approx(report.serial_ns)

    def test_empty_trace(self):
        report = charge_stream(Trace())
        assert report.makespan_ns == 0.0
        assert report.serial_ns == 0.0
        assert report.commands == 0
        assert report.coalescing_speedup == 1.0

    def test_unknown_mnemonic_rejected(self):
        trace = Trace()
        trace.record("WARP", (0, 0, 0), (0,))
        with pytest.raises(ValueError):
            charge_stream(trace)


class TestPropertyBounds:
    commands = st.lists(
        st.tuples(
            st.sampled_from(["AAP1", "AAP2", "AAP3", "MEM_WR", "MEM_RD", "DPU"]),
            st.integers(0, 3),  # subarray index
            st.integers(0, 1),  # mat index
        ),
        min_size=1,
        max_size=60,
    )

    @staticmethod
    def record(commands):
        trace = Trace()
        for mnemonic, sub, mat in commands:
            trace.record(mnemonic, (0, mat, sub), (0,))
        return trace

    @given(commands=commands)
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounds_hold_for_any_trace(self, commands):
        trace = self.record(commands)
        report = charge_stream(trace)
        busy = resource_busy(trace)
        latency = command_latency_table(DEFAULT_TIMING)
        assert report.commands == len(commands)
        assert report.serial_ns == pytest.approx(
            sum(latency[m] for m, _, _ in commands)
        )
        assert report.makespan_ns <= report.serial_ns + 1e-6
        # the makespan is the busiest resource, no more, no less
        assert report.makespan_ns == pytest.approx(max(busy.values()))

    @given(commands=commands)
    @settings(max_examples=20, deadline=None)
    def test_speedup_bounded_by_resource_count(self, commands):
        trace = self.record(commands)
        report = charge_stream(trace)
        resources = len(resource_busy(trace))
        assert report.coalescing_speedup <= resources + 1e-6


class TestAlgorithmAudit:
    def test_hashmap_exposes_partition_parallelism(self):
        """The hash-partitioned counter must schedule much faster than
        its serial command stream."""
        from repro.assembly import PimKmerCounter
        from repro.genome import synthetic_chromosome

        pim, trace = traced_pim(subarrays=2, rows=256, cols=64, mats=4)
        counter = PimKmerCounter(pim, 9)
        counter.add_sequence(synthetic_chromosome(500, seed=888))
        report = charge_stream(trace)
        assert report.coalescing_speedup > 2.0
        assert report.commands == len(trace)

    def test_wallace_reduction_is_serial(self, rng):
        """A single-sub-array reduction exposes no parallelism."""
        from repro.mapping import wallace_column_sum

        pim, trace = traced_pim(subarrays=1, rows=256, cols=32)
        rows = [random_row(rng) for _ in range(9)]
        wallace_column_sum(pim, rows)
        report = charge_stream(trace)
        assert report.coalescing_speedup == pytest.approx(1.0)


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
