"""Stage 1 — k-mer analysis: the PIM-friendly Hashmap procedure.

This is the paper's reconstructed ``Hashmap(S, k)`` (Fig. 5b) running on
the functional simulator:

* every k-mer of the input is written to the sub-array's **temp row**
  (``MEM_insert``),
* a **parallel in-memory comparison** (``PIM_XNOR`` + the DPU's AND
  unit, Fig. 7) checks it against stored k-mer rows,
* on a hit, the frequency counter in the value region is updated
  (``PIM_Add``-class update; counter fields are 8-bit packed, so the
  non-bulk variant runs on the MAT's DPU),
* on a miss, the temp row is RowCloned into the next free k-mer row and
  its counter set to 1.

K-mers are distributed over sub-arrays by a hash partition — the
paper's *correlated partitioning*, which keeps every query local to one
sub-array and lets different sub-arrays serve different queries
concurrently.

:class:`SoftwareKmerCounter` is the golden model (a plain dict); the
test suite asserts the PIM path produces identical tables.

Execution engines
=================

``engine="scalar"`` (the default, and the golden model) walks the
Hashmap loop k-mer by k-mer through the controller.  ``engine="bulk"``
inserts each round's k-mers into every sub-array at once through the
bulk bit-plane engine (:mod:`repro.core.bitplane`): slot assignment,
scan lengths and counter evolution are derived with vectorised NumPy
over the whole round, memory reaches the identical end state through
whole-store gathers/scatters, and the ledger is charged the identical
per-mnemonic command counts in one gang-scheduled batch.  Runs with
live compare/copy fault rates replay the scalar per-op path so the
fault RNG stream stays exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.bitplane import BulkEngine
from repro.core.isa import RowAddress
from repro.core.platform import PimAssembler
from repro.core.storage import pack_rows
from repro.errors import TableFullError
from repro.genome.kmer import (
    iter_kmers,
    kmer_to_row_bits,
    pack_kmer,
    packed_kmers_array,
    packed_to_row_bits,
    unpack_kmer,
)
from repro.genome.reads import Read
from repro.genome.sequence import DnaSequence
from repro.mapping.hashing import kmer_partition, kmer_partition_array
from repro.mapping.kmer_layout import KmerLayout, scaled_layout
from repro.runtime.watchdog import checkpoint

__all__ = [
    "PimKmerCounter",
    "SoftwareKmerCounter",
    "kmer_partition",
]


@dataclass(frozen=True)
class _SubarrayTable:
    """Host-side handle of one sub-array's table region."""

    key: tuple[int, int, int]
    layout: KmerLayout


class SoftwareKmerCounter:
    """Golden-model k-mer counter (plain dictionary)."""

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self._counts: Counter = Counter()

    def add_sequence(self, sequence: DnaSequence) -> None:
        for kmer in iter_kmers(sequence, self.k):
            self._counts[pack_kmer(kmer)] += 1

    def add_reads(self, reads: Iterable[Read]) -> None:
        for read in reads:
            self.add_sequence(read.sequence)

    def counts(self) -> Counter:
        return Counter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)


class PimKmerCounter:
    """The Hashmap procedure on the PIM-Assembler functional simulator.

    Args:
        pim: the platform instance (owns timing/energy accounting).
        k: k-mer length; ``2k`` must fit one row (k <= 128 bases at 256
            columns).
        subarray_keys: which sub-arrays hold table partitions; defaults
            to every sub-array of the device.
        saturating: clamp counters at the 8-bit maximum instead of
            raising (real hardware saturates; the golden-model
            comparison requires counts below the limit).
        engine: ``"scalar"`` (per-op golden model) or ``"bulk"``
            (batched bit-plane execution; identical tables, end state
            and command counts, gang-scheduled time).
    """

    def __init__(
        self,
        pim: PimAssembler,
        k: int,
        subarray_keys: Sequence[tuple[int, int, int]] | None = None,
        saturating: bool = True,
        engine: str = "scalar",
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if engine not in ("scalar", "bulk"):
            raise ValueError("engine must be 'scalar' or 'bulk'")
        geometry = pim.geometry.bank.mat.subarray
        layout = scaled_layout(geometry)
        if k > layout.max_kmer_bases:
            raise ValueError(
                f"k={k} needs {2 * k} bit lines; rows have {geometry.cols}"
            )
        self.pim = pim
        self.k = k
        self.saturating = saturating
        self.engine = engine
        self._bulk = BulkEngine(pim) if engine == "bulk" else None
        # default to the *usable* sub-arrays: partitions never land on
        # storage the resilience engine already quarantined
        keys = (
            list(subarray_keys)
            if subarray_keys is not None
            else pim.usable_subarray_keys()
        )
        if not keys:
            raise ValueError("at least one sub-array is required")
        self._tables = [_SubarrayTable(key=key, layout=layout) for key in keys]
        self._table_keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
        #: occupied k-mer slots per partition
        self._occupied = np.zeros(len(keys), dtype=np.int64)
        #: store slot per partition, -1 until its sub-array is touched
        self._store_slots = np.full(len(keys), -1, dtype=np.int64)
        # host shadow of the table (readback ordering and scrub repair
        # only; matching is done in-memory): the packed k-mer, partition
        # and slot of every insert, in insertion order
        self._log_keys: list[int] = []
        self._log_parts: list[int] = []
        self._log_slots: list[int] = []
        self._valid_bits = 2 * k
        self._mask = np.zeros(geometry.cols, dtype=np.uint8)
        self._mask[: self._valid_bits] = 1
        # global sorted key index over all partitions (bulk-path lookup):
        # bulk rounds merge their inserts into it; scalar inserts mark
        # it dirty for one rebuild from the log
        self._index_dirty = False
        self._idx_keys = np.empty(0, dtype=np.uint64)
        self._idx_slot = np.empty(0, dtype=np.int64)

    # ----- addressing helpers ---------------------------------------------------

    def _addr(self, table: _SubarrayTable, row: int) -> RowAddress:
        bank, mat, sub = table.key
        return RowAddress(bank=bank, mat=mat, subarray=sub, row=row)

    @property
    def partitions(self) -> int:
        return len(self._tables)

    @property
    def layout(self) -> KmerLayout:
        return self._tables[0].layout

    # ----- the Hashmap procedure ---------------------------------------------------

    def add_kmer(self, kmer: DnaSequence) -> None:
        """One iteration of the Hashmap loop (Fig. 5b)."""
        if len(kmer) != self.k:
            raise ValueError(f"expected a {self.k}-mer, got {len(kmer)} bases")
        self._add_packed_scalar(pack_kmer(kmer), kmer)

    def _add_packed_scalar(
        self, packed: int, kmer: DnaSequence | None = None
    ) -> None:
        checkpoint()  # per-k-mer cancellation point (hashmap inner loop)
        if kmer is None:
            kmer = unpack_kmer(packed, self.k)
        part = kmer_partition(packed, self.partitions)
        table = self._tables[part]
        occupied = int(self._occupied[part])
        ctrl = self.pim.controller
        layout = table.layout

        # MEM_insert the query into the temp region.
        temp = self._addr(table, layout.temp_row(0))
        bits = kmer_to_row_bits(kmer, self.pim.row_bits)
        ctrl.write_row(temp, bits)

        # Parallel in-memory comparison against the occupied k-mer rows
        # (PIM_XNOR + DPU AND reduce, Fig. 7); the scan stops at the
        # first match, as the DPU's outcome gates the next command.
        match_slot = ctrl.compare_scan(
            temp,
            start_row=layout.kmer_row(0) if occupied else 0,
            n_rows=occupied,
            valid_bits=self._valid_bits,
        )

        if match_slot is not None:
            self._increment(table, match_slot)
        else:
            self._insert_new(part, temp, packed)

    def add_sequence(self, sequence: DnaSequence) -> None:
        if self._bulk is not None:
            packed = packed_kmers_array(sequence, self.k)
            if packed.size:
                self._add_packed_bulk(packed)
            return
        for kmer in iter_kmers(sequence, self.k):
            self.add_kmer(kmer)

    def add_sequences(self, sequences: "Sequence[DnaSequence]") -> None:
        """Insert many sequences as ONE bulk round (scalar: k-mer loop).

        Arrival order is the concatenation order, identical to calling
        :meth:`add_sequence` per item — so tables, contigs and command
        counts match; only the bulk gang schedule (time) coarsens.
        """
        if self._bulk is not None:
            arrays = [packed_kmers_array(seq, self.k) for seq in sequences]
            arrays = [arr for arr in arrays if arr.size]
            if arrays:
                self._add_packed_bulk(np.concatenate(arrays))
            return
        for sequence in sequences:
            self.add_sequence(sequence)

    def add_reads(self, reads: Iterable[Read]) -> None:
        if self._bulk is not None:
            arrays = [
                packed_kmers_array(read.sequence, self.k) for read in reads
            ]
            arrays = [arr for arr in arrays if arr.size]
            if arrays:
                # one batch per round: per-partition arrival order is
                # the global read order, exactly as the scalar loop
                self._add_packed_bulk(np.concatenate(arrays))
            return
        for read in reads:
            self.add_sequence(read.sequence)

    # ----- the bulk path ---------------------------------------------------------

    def _rebuild_index(self) -> None:
        """Rebuild the global sorted key index from the insert log.

        Partition identity is a pure function of the packed k-mer, so
        one device-wide sorted array resolves any key to its table slot
        in a single :func:`np.searchsorted`.  Bulk rounds keep the index
        current by merging; this full rebuild serves only scalar-path
        inserts (fallback replays) and :meth:`from_state`.
        """
        keys = np.asarray(self._log_keys, dtype=np.uint64)
        order = np.argsort(keys, kind="stable")
        self._idx_keys = keys[order]
        self._idx_slot = np.asarray(self._log_slots, dtype=np.int64)[order]
        self._index_dirty = False

    def _replay_scalar(self, packed: np.ndarray) -> None:
        for value in packed.tolist():
            self._add_packed_scalar(int(value))

    def _slots_of(self, parts: np.ndarray) -> np.ndarray:
        """Store slot per partition, instantiating untouched sub-arrays
        in ascending partition order (at most once per partition).

        Instantiation can grow the store tensor: never hold a word view
        across this call.
        """
        fresh = np.unique(parts[self._store_slots[parts] < 0])
        for part in fresh.tolist():
            sub = self.pim.device.subarray_at(self._tables[part].key)
            self._store_slots[part] = sub.slot
        return self._store_slots

    def _add_packed_bulk(self, packed: np.ndarray) -> None:
        """Batch-insert a round of packed k-mers across ALL sub-arrays.

        The scalar loop's observable behaviour is reproduced exactly:
        slot assignment follows first arrival, scan lengths follow the
        stop-at-first-match protocol, counters saturate per hit, and
        the ledger receives the identical command counts — charged as
        one gang-scheduled batch per round instead of op by op.

        The round is whole-array work with no per-key, per-partition or
        per-command Python loop: one ``np.unique`` over the round, one
        sorted-index lookup for known keys, one lexsort for first-arrival
        slot assignment, one pack + scatter of the new k-mer rows, one
        counter gather/scatter, one compute-row scatter for every touched
        sub-array's scan end state, one vector charge of per-partition
        ``np.bincount`` counts, and one merge into the sorted index.
        """
        checkpoint()  # per-round cancellation point (bulk hashmap path)
        ctrl = self.pim.controller
        faults = ctrl.faults
        if (
            faults is not None
            and faults.enabled
            and (faults.compute2_rate > 0.0 or faults.copy_rate > 0.0)
        ):
            # live scan/copy fault rates: the per-op RNG draw order is
            # part of the contract, so replay the exact scalar path
            self._replay_scalar(packed)
            return
        n_parts = self.partitions
        layout = self.layout
        uniq, first_idx, inv = np.unique(
            packed, return_index=True, return_inverse=True
        )
        uparts = kmer_partition_array(uniq, n_parts).astype(np.int64)

        # resolve known keys against the global sorted index
        if self._index_dirty:
            self._rebuild_index()
        if self._idx_keys.size:
            pos = np.minimum(
                np.searchsorted(self._idx_keys, uniq),
                self._idx_keys.size - 1,
            )
            known = self._idx_keys[pos] == uniq
            uniq_slot = np.where(known, self._idx_slot[pos], -1)
        else:
            known = np.zeros(uniq.size, dtype=bool)
            uniq_slot = np.full(uniq.size, -1, dtype=np.int64)

        # new keys claim slots in first-arrival order per partition
        new_u = np.flatnonzero(~known)
        occ0 = self._occupied
        new_per_part = np.bincount(uparts[new_u], minlength=n_parts)
        if (occ0 + new_per_part > layout.kmer_rows).any():
            # some partition would raise TableFullError mid-stream;
            # nothing has been applied yet, so replay the whole round
            # through the scalar path and let the error fire at the
            # exact arrival — with the exact partial table state — the
            # golden model produces
            self._replay_scalar(packed)
            return
        order = np.lexsort((first_idx[new_u], uparts[new_u]))
        nu = new_u[order]  # partition-major, arrival-ordered
        nu_parts = uparts[nu]
        seg_starts = np.concatenate(
            ([0], np.cumsum(new_per_part)[:-1])
        )
        nu_slots = occ0[nu_parts] + (
            np.arange(nu.size, dtype=np.int64) - seg_starts[nu_parts]
        )
        uniq_slot[nu] = nu_slots

        # per-arrival scan lengths: a miss at insertion slot s scanned
        # all s occupied rows; a hit at slot s stopped after s + 1 rows
        slots = uniq_slot[inv]
        kparts = uparts[inv]
        is_miss = np.zeros(packed.size, dtype=bool)
        is_miss[first_idx[new_u]] = True
        scanned = np.where(is_miss, slots, slots + 1)

        # instantiate every touched sub-array BEFORE taking any packed
        # view: store growth reallocates the tensor
        arr_p = np.bincount(kparts, minlength=n_parts)
        touched = np.flatnonzero(arr_p)
        sslot_of = self._slots_of(touched)
        store = self.pim.device.store

        # counter evolution: value(key) ends at min(start + hits, max),
        # incrementing (1 DPU add + 1 MEM_WR) only below saturation and
        # reading (1 MEM_RD) on every hit
        cpr = layout.counters_per_row
        cbits = layout.counter_bits
        vrows = layout.value_base + uniq_slot // cpr
        vbits = (uniq_slot % cpr) * cbits
        occurrences = np.bincount(inv, minlength=uniq.size).astype(np.int64)
        start_vals = np.ones(uniq.size, dtype=np.int64)  # inserts write 1
        kn = np.flatnonzero(known)
        if kn.size:
            start_vals[kn] = store.read_fields(
                sslot_of[uparts[kn]], vrows[kn], vbits[kn], cbits
            )
        hits_per_key = occurrences - (~known).astype(np.int64)
        final_vals = np.minimum(start_vals + hits_per_key, layout.counter_max)
        if not self.saturating and (
            start_vals + hits_per_key > layout.counter_max
        ).any():
            # would raise OverflowError mid-stream: same scalar replay
            self._replay_scalar(packed)
            return

        # ---- functional end state -------------------------------------
        # one row-bit expansion for the new k-mer rows and for every
        # touched sub-array's last query (the scan end state below)
        last_pos = np.full(n_parts, -1, dtype=np.int64)
        np.maximum.at(last_pos, kparts, np.arange(packed.size, dtype=np.int64))
        t_last = last_pos[touched]
        new_keys = uniq[nu]
        rows = packed_to_row_bits(
            np.concatenate([new_keys, packed[t_last]]),
            self.k,
            self.pim.row_bits,
        )
        if nu.size:
            store.write_rows_at(
                sslot_of[nu_parts],
                layout.kmer_row(0) + nu_slots,
                rows[: nu.size],
            )
        if uniq.size:
            store.write_fields(
                sslot_of[uparts], vrows, vbits, cbits, final_vals
            )
        # leave each touched sub-array's compute rows as its last
        # arriving k-mer's scan would (the gather runs after the row
        # scatter above: the last scanned row may be a fresh insert)
        t_slots = sslot_of[touched]
        last_scanned = scanned[t_last]
        has_last = last_scanned > 0
        last_rows = store.tensor[
            t_slots,
            layout.kmer_row(0) + np.where(has_last, last_scanned - 1, 0),
        ]
        self._bulk.finish_scans(
            t_slots,
            layout.temp_row(0),
            pack_rows(rows[nu.size :]),
            last_rows,
            has_last,
        )

        # ---- host shadow: occupancy, insert log, merged sorted index --
        self._occupied = occ0 + new_per_part
        if nu.size:
            self._log_keys.extend(new_keys.tolist())
            self._log_parts.extend(nu_parts.tolist())
            self._log_slots.extend(nu_slots.tolist())
            by_key = np.argsort(new_keys, kind="stable")
            at = np.searchsorted(self._idx_keys, new_keys[by_key])
            self._idx_keys = np.insert(self._idx_keys, at, new_keys[by_key])
            self._idx_slot = np.insert(self._idx_slot, at, nu_slots[by_key])

        # ---- charging: identical command counts in one gang batch, in
        # the ascending partition order of the scalar-equivalent walk --
        miss_p = np.bincount(kparts[is_miss], minlength=n_parts)
        hits_p = arr_p - miss_p
        scan_p = np.bincount(
            kparts, weights=scanned.astype(np.float64), minlength=n_parts
        ).astype(np.int64)
        inc_p = np.bincount(
            uparts,
            weights=(final_vals - start_vals).astype(np.float64),
            minlength=n_parts,
        ).astype(np.int64)
        arr_t, miss_t, scan_t, inc_t = (
            v[touched] for v in (arr_p, miss_p, scan_p, inc_p)
        )
        sched = self._bulk.scheduler
        sched.charge_many(
            self._table_keys[touched],
            [
                ("MEM_WR", arr_t + miss_t + inc_t),
                ("MEM_RD", hits_p[touched]),
                ("AAP1", arr_t + miss_t),
                *((m, scan_t) for m in sched.FUSED_COMPARE),
                ("DPU", inc_t),
            ],
        )
        if ctrl._verifying() is not None:
            for count in scan_t.tolist():
                self._bulk.charge_verify(count)
        self._bulk.flush()

    # ----- table updates ---------------------------------------------------------------

    def _insert_new(self, part: int, temp: RowAddress, packed: int) -> None:
        """MEM_insert(k_mer, 1): claim the next free slot."""
        table = self._tables[part]
        layout = table.layout
        slot = int(self._occupied[part])
        if slot >= layout.kmer_rows:
            raise TableFullError(
                f"sub-array {table.key} k-mer region full "
                f"({layout.kmer_rows} slots)"
            )
        ctrl = self.pim.controller
        ctrl.copy(temp, self._addr(table, layout.kmer_row(slot)))
        self._write_counter(table, slot, 1)
        self._occupied[part] += 1
        self._log_keys.append(packed)
        self._log_parts.append(part)
        self._log_slots.append(slot)
        self._index_dirty = True

    def _increment(self, table: _SubarrayTable, slot: int) -> None:
        """New_freq = PIM_Add(k_mer, 1); MEM_insert(k_mer, New_freq).

        Counter fields are 8-bit packed (32 per value row), so the
        update is the DPU's non-bulk read-modify-write path.
        """
        current = self._read_counter(table, slot)
        if current >= table.layout.counter_max:
            if self.saturating:
                return
            raise OverflowError(
                f"counter for slot {slot} exceeded "
                f"{table.layout.counter_max}"
            )
        new_value = self.pim.controller.dpu_scalar_add(
            table.key, current, 1, bits=table.layout.counter_bits
        )
        self._write_counter(table, slot, new_value)

    # ----- counter field access -----------------------------------------------------------

    def _read_counter(self, table: _SubarrayTable, slot: int) -> int:
        row, bit = table.layout.value_position(slot)
        data = self.pim.controller.read_row(self._addr(table, row))
        field = data[bit : bit + table.layout.counter_bits]
        return int(field @ (1 << np.arange(table.layout.counter_bits)))

    def _write_counter(self, table: _SubarrayTable, slot: int, value: int) -> None:
        layout = table.layout
        if not 0 <= value <= layout.counter_max:
            raise ValueError(f"counter value {value} out of range")
        row, bit = layout.value_position(slot)
        addr = self._addr(table, row)
        sub = self.pim.device.subarray_at(table.key)
        data = sub.read_row(row)  # host shadow read for the RMW merge
        bits = (value >> np.arange(layout.counter_bits)) & 1
        data[bit : bit + layout.counter_bits] = bits.astype(np.uint8)
        self.pim.controller.write_row(addr, data)

    # ----- scrubbing -------------------------------------------------------------------------

    def scrub(self) -> tuple[int, int]:
        """Verify every resident k-mer row; repair the ones that drifted.

        The table lives in the arrays for the whole assembly run, so a
        scrub pass between pipeline stages bounds how long a corrupted
        slot (a faulted insert RowClone, a retention upset) can poison
        queries.  Each occupied row is parity-checked
        (:meth:`~repro.core.controller.Controller.scrub_row`, charged
        as ``VRF`` cycles); a mismatching row is rewritten from the
        host shadow through the GRB (one ``MEM_WR``) when the active
        policy retries, and recorded as uncorrected otherwise.

        Returns:
            ``(checked, repaired)`` row counts.
        """
        ctrl = self.pim.controller
        engine = ctrl.resilience
        checked = repaired = 0
        # Scrub repairs legitimately MEM_WR straight into the k-mer
        # region; the marks tell the trace verifier to suspend its
        # table-region write rule for this window.
        ctrl.mark("scrub:begin")
        for table, keys in zip(self._tables, self._slot_keys):
            for slot, packed in enumerate(keys):
                row = table.layout.kmer_row(slot)
                addr = self._addr(table, row)
                expected = kmer_to_row_bits(
                    unpack_kmer(packed, self.k),
                    self.pim.row_bits,
                )
                checked += 1
                if ctrl.scrub_row(addr, expected):
                    continue
                if engine is not None:
                    engine.note_detected()
                if engine is None or engine.policy.retry:
                    ctrl.write_row(addr, expected)
                    repaired += 1
                    if engine is not None:
                        engine.note_corrected()
                else:
                    engine.note_uncorrected(table.key, row)
        ctrl.mark("scrub:end")
        if engine is not None:
            engine.note_scrub(checked, repaired)
        # one repair stream: table-scrub repairs feed the integrity
        # counters too, so `inspect` and the ECC metrics agree
        integrity = self.pim.integrity
        if integrity is not None:
            integrity.note_table_scrub(checked, repaired)
        return checked, repaired

    # ----- readback --------------------------------------------------------------------------

    def _table_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(partitions, slots, keys)`` of every stored k-mer, in
        partition-major slot order."""
        parts = np.asarray(self._log_parts, dtype=np.int64)
        slots = np.asarray(self._log_slots, dtype=np.int64)
        order = np.lexsort((slots, parts))
        keys = np.asarray(self._log_keys, dtype=np.uint64)
        return parts[order], slots[order], keys[order]

    @property
    def _slot_keys(self) -> list[list[int]]:
        """Per-partition slot -> packed k-mer lists (the host shadow)."""
        parts, _, keys = self._table_order()
        bounds = np.cumsum(np.bincount(parts, minlength=self.partitions))
        return [chunk.tolist() for chunk in np.split(keys, bounds[:-1])]

    def counts(self) -> Counter:
        """Read the full table back as {packed k-mer: frequency}.

        The scalar engine reads each counter through the controller;
        the bulk engine gathers them all at once with the identical
        ``MEM_RD`` charge (see :meth:`BulkEngine.read_fields`).
        """
        parts, slots, keys = self._table_order()
        if self._bulk is None:
            values = [
                self._read_counter(self._tables[p], s)
                for p, s in zip(parts.tolist(), slots.tolist())
            ]
        else:
            layout = self.layout
            cpr = layout.counters_per_row
            values = self._bulk.read_fields(
                self._table_keys[parts],
                self._slots_of(parts)[parts],
                layout.value_base + slots // cpr,
                (slots % cpr) * layout.counter_bits,
                layout.counter_bits,
            ).tolist()
        return Counter(dict(zip(keys.tolist(), values)))

    def stored_kmer(self, partition: int, slot: int) -> DnaSequence:
        """Decode a stored k-mer row straight from memory (for tests)."""
        table = self._tables[partition]
        row = self.pim.controller.read_row(
            self._addr(table, table.layout.kmer_row(slot))
        )
        return DnaSequence.from_bits(row[: self._valid_bits])

    def __len__(self) -> int:
        return len(self._log_keys)

    @property
    def occupancy(self) -> list[int]:
        return self._occupied.tolist()

    # ----- checkpointing ----------------------------------------------------------

    def state_dict(self) -> dict:
        """Host-side table metadata for the job journal.

        The in-memory row/counter *bits* travel in the platform
        snapshot (:meth:`repro.core.platform.PimAssembler.state_dict`);
        this records the partition keys, occupancy, and slot→k-mer
        shadow needed to re-attach a counter to restored memory —
        including any rows a fault left corrupt, which a rebuild from
        the shadow alone would silently repair.
        """
        return {
            "k": self.k,
            "saturating": self.saturating,
            "keys": [list(table.key) for table in self._tables],
            "occupied": self._occupied.tolist(),
            "slot_keys": self._slot_keys,
        }

    @classmethod
    def from_state(
        cls, pim: PimAssembler, state: dict, engine: str = "scalar"
    ) -> "PimKmerCounter":
        """Re-attach a counter to a platform restored from a snapshot.

        ``engine`` may differ from the snapshotting run's (the job
        runtime's degradation ladder downgrades bulk → scalar); the
        table protocol is engine-agnostic, so this is safe.
        """
        counter = cls(
            pim,
            int(state["k"]),
            subarray_keys=[tuple(key) for key in state["keys"]],
            saturating=bool(state["saturating"]),
            engine=engine,
        )
        counter._occupied = np.asarray(state["occupied"], dtype=np.int64)
        for part, keys in enumerate(state["slot_keys"]):
            counter._log_keys.extend(int(value) for value in keys)
            counter._log_parts.extend([part] * len(keys))
            counter._log_slots.extend(range(len(keys)))
        counter._index_dirty = True
        return counter
