"""Bulk bit-plane engine: the batched scheduler and the fault gate."""

import pytest

from repro.core import PimAssembler
from repro.core.bitplane import sampling_free
from repro.core.faults import FaultModel
from repro.core.scheduler import BatchedAapScheduler
from repro.core.stats import StatsLedger
from repro.core.timing import DEFAULT_TIMING, command_latency_table


class TestBatchedScheduler:
    def make(self):
        ledger = StatsLedger()
        return ledger, BatchedAapScheduler(ledger)

    def test_counts_and_energy_are_exact(self):
        ledger, sched = self.make()
        sched.charge("AAP1", (0, 0, 0), 5)
        sched.charge("DPU", (0, 0, 0), 3)
        sched.flush()
        totals = ledger.totals()
        assert totals.commands == {"AAP1": 5, "DPU": 3}

    def test_single_subarray_batch_keeps_serial_time(self):
        """No overlap inside one sub-array: makespan == serial sum."""
        ledger, sched = self.make()
        sched.charge("AAP1", (0, 0, 0), 4)
        sched.charge("AAP2", (0, 0, 0), 4)
        report = sched.flush()
        assert report.makespan_ns == pytest.approx(report.serial_ns)
        latency = command_latency_table(DEFAULT_TIMING)
        expected = 4 * latency["AAP1"] + 4 * latency["AAP2"]
        assert ledger.totals().time_ns == pytest.approx(expected)

    def test_disjoint_subarrays_coalesce(self):
        """The same work across N sub-arrays gangs into ~1/N the time."""
        ledger, sched = self.make()
        for s in range(8):
            sched.charge("AAP1", (0, 0, s), 10)
        report = sched.flush()
        assert report.coalescing_speedup == pytest.approx(8.0)
        latency = command_latency_table(DEFAULT_TIMING)
        assert ledger.totals().time_ns == pytest.approx(10 * latency["AAP1"])
        # energy stays per-command: no free lunch on power
        assert ledger.totals().commands == {"AAP1": 80}

    def test_dpu_overlaps_subarray_aaps(self):
        """The DPU reduce of row i runs while row i+1 activates."""
        ledger, sched = self.make()
        sched.charge("AAP1", (0, 0, 0), 6)
        sched.charge("DPU", (0, 0, 0), 6)
        report = sched.flush()
        latency = command_latency_table(DEFAULT_TIMING)
        assert report.makespan_ns == pytest.approx(
            6 * max(latency["AAP1"], latency["DPU"])
        )
        assert report.serial_ns == pytest.approx(
            6 * (latency["AAP1"] + latency["DPU"])
        )

    def test_grb_serialises_mat_transfers(self):
        """Host reads of two sub-arrays of one MAT share the GRB."""
        ledger, sched = self.make()
        sched.charge("MEM_RD", (0, 0, 0), 5)
        sched.charge("MEM_RD", (0, 0, 1), 5)
        report = sched.flush()
        assert report.makespan_ns == pytest.approx(report.serial_ns)

    def test_unknown_mnemonic_rejected(self):
        _, sched = self.make()
        with pytest.raises(ValueError):
            sched.charge("WARP", (0, 0, 0), 1)

    def test_flush_resets_state(self):
        ledger, sched = self.make()
        sched.charge("AAP1", (0, 0, 0), 2)
        sched.flush()
        assert sched.pending_commands == 0
        report = sched.flush()
        assert report.commands == 0
        assert report.serial_ns == 0.0


class TestSamplingFree:
    """The one gate deciding when a bulk step must replay the scalar
    path: true exactly when no covered mechanism has a live rate."""

    @pytest.mark.parametrize("compute2", [0.0, 0.05])
    @pytest.mark.parametrize("tra", [0.0, 0.01])
    @pytest.mark.parametrize("sum_rate", [-1.0, 0.0, 0.02])
    @pytest.mark.parametrize("copy", [0.0, 0.03])
    def test_matches_per_mechanism_rates(self, compute2, tra, sum_rate, copy):
        pim = PimAssembler.small(subarrays=1)
        faults = FaultModel(
            compute2_rate=compute2, tra_rate=tra, sum_rate=sum_rate,
            copy_rate=copy,
        )
        pim.controller.faults = faults
        assert sampling_free(pim, "compute2", "copy") == (
            faults.compute2_rate == 0.0 and faults.copy_rate == 0.0
        )
        assert sampling_free(pim, "sum", "tra") == (
            faults.sum_rate == 0.0 and faults.tra_rate == 0.0
        )

    def test_no_fault_model_is_sampling_free(self):
        pim = PimAssembler.small(subarrays=1)
        pim.controller.faults = None
        assert sampling_free(pim, "compute2", "copy", "sum", "tra")
