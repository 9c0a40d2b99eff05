"""Bulk bit-plane execution engine.

The paper's throughput comes from *bulk* bit-parallelism: one AAP
command computes a full 256-bit row, and every (bank, MAT) pair runs
the same command on its own sub-array simultaneously.  The scalar
controller models each command as an individual Python call, so the
simulator's wall-clock scales with op count rather than with the
modeled DRAM cycles.  The bulk engine restores the proportionality for
the two workload stages that dominate an ``assemble`` run:

* the hashmap (:meth:`repro.assembly.hashmap.PimKmerCounter._add_packed_bulk`)
  plans a whole insert round with array operations and reaches the
  scalar end state through whole-store scatters on the packed
  :class:`~repro.core.storage.BitPlaneStore` tensor;
  :meth:`BulkEngine.finish_scans` leaves every touched sub-array's
  compute rows as its last scalar scan would, and
  :meth:`BulkEngine.read_fields` reads the counters back in one gather;
* the degree computation (:mod:`repro.mapping.adjacency`) sums the
  adjacency rows with one NumPy reduction.

Both charge the scalar path's exact per-mnemonic command counts through
the :class:`~repro.core.scheduler.BatchedAapScheduler` each
:class:`BulkEngine` owns, which coalesces independent per-sub-array
streams into gang issues;
:meth:`BulkEngine.charge_verify` adds the verify checks of a resilience
engine and :meth:`BulkEngine.flush` books the batch on the ledger.

Equivalence contract
====================

For a fixed seed the bulk engine is bit-identical to the scalar
controller in everything the workloads observe: functional results,
stored row contents (including the temp/x1/x2/x3 compute-row end
state of a scan), resilience event counts, and per-mnemonic ledger
*command counts*.  Two things intentionally differ:

* **modeled time** — the batched scheduler charges the gang makespan
  instead of the serial sum, which is the point of the engine;
* **transient host-path state** — the GRB's last-loaded contents are
  not replayed (every charged ``MEM_RD``/``MEM_WR`` is still counted).

The bulk engine never samples faults itself.  When a step's fault
mechanisms have live rates (:func:`sampling_free` is false), the caller
replays the scalar controller instead, which keeps the per-op RNG
stream exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scheduler import BatchedAapScheduler, BatchReport

__all__ = ["BulkEngine", "sampling_free"]


def sampling_free(pim, *mechanisms: str) -> bool:
    """True when none of the fault mechanisms would draw from the RNG.

    The scalar path skips sampling entirely for zero-rate mechanisms,
    so a bulk step may only replace it when every mechanism the step
    covers is silent (the stream equivalence rule of
    :mod:`repro.core.faults`); otherwise it must replay the scalar path.
    """
    faults = pim.controller.faults
    if faults is None or not faults.enabled:
        return True
    return all(faults.rate_for(m) <= 0.0 for m in mechanisms)


@dataclass
class BulkEngine:
    """Charged whole-array helpers for the bulk hashmap and degree paths.

    Wraps a platform, owns the batched scheduler that charges its
    ledger, and mirrors the scalar controller's verify charging and
    compute-row end state.  The caller-visible results and side effects
    match the scalar path per the module-level equivalence contract.
    """

    pim: "object"  # PimAssembler (typed loosely: platform imports core)

    def __post_init__(self) -> None:
        ctrl = self.pim.controller
        self.scheduler = BatchedAapScheduler(
            ctrl.ledger,
            timing=ctrl.timing,
            energy=ctrl.energy,
            log=getattr(ctrl, "charge_log", None),
        )

    def charge_verify(self, count: int) -> None:
        """Charge ``count`` parity checks exactly as the scalar path."""
        if count > 0:
            ctrl = self.pim.controller
            ctrl._charge_verify(ctrl.resilience, count=count)

    def flush(self) -> BatchReport:
        """Book the pending command batch on the ledger."""
        return self.scheduler.flush()

    def finish_scans(
        self,
        slots: np.ndarray,
        temp_row: int,
        query_words: np.ndarray,
        last_row_words: np.ndarray,
        has_last: np.ndarray,
    ) -> None:
        """Leave many sub-arrays' compute rows as their sequential scans
        would, in one scatter.

        For each store slot, temp and x1 hold its last query; where
        ``has_last`` (at least one candidate was scanned), x2 holds the
        last scanned row and x3 its XNOR against the query (the trailing
        uncharged rowclone+compute2 of the scalar ``compare_scan``).
        All operands are ``(n, words)`` packed words; the XNOR's
        complement is tail-masked per the pack boundary rule.
        """
        store = self.pim.device.store
        geometry = self.pim.geometry.bank.mat.subarray
        slots = np.asarray(slots, dtype=np.intp)
        has = np.asarray(has_last, dtype=bool)
        n, m = slots.size, int(has.sum())
        x_last = last_row_words[has]
        xnor = ~(query_words[has] ^ x_last) & store.col_mask_words
        rows = np.repeat(
            [temp_row] + [geometry.compute_row(i) for i in (1, 2, 3)],
            [n, n, m, m],
        )
        store.set_rows_at(
            np.concatenate([slots, slots, slots[has], slots[has]]),
            rows,
            np.concatenate([query_words, query_words, x_last, xnor]),
        )

    # ----- host readback ----------------------------------------------------

    def read_fields(
        self,
        subarray_keys: np.ndarray,
        slots: np.ndarray,
        rows: np.ndarray,
        bit_offsets: np.ndarray,
        width: int,
    ) -> np.ndarray:
        """Host readback of many bit fields as one packed gather.

        Equivalent to one ``controller.read_row`` per field (the scalar
        engine's counter readback): the same ``MEM_RD`` count at the
        same serial (not gang-scheduled) cost, and one ``MEM_RD`` trace
        entry per field when a command trace is attached.  ``slots``
        are the store slots of the ``(n, 3)`` ``subarray_keys``.
        """
        ctrl = self.pim.controller
        count = int(np.asarray(rows).size)
        if ctrl._trace is not None:
            for key, row in zip(
                map(tuple, np.asarray(subarray_keys).tolist()),
                np.asarray(rows).tolist(),
            ):
                ctrl._record_trace("MEM_RD", key, (row,))
        if count:
            ctrl._charge(
                "MEM_RD",
                count * ctrl.timing.t_read_row,
                ctrl.energy.e_read_row,
                gang=count,
            )
        return self.pim.device.store.read_fields(
            slots, rows, bit_offsets, width
        )
