"""Gang scheduling of AAP command streams: the one model of parallel issue.

The scalar controller charges each command's latency as if the machine
were a single queue; real DRAM overlaps commands to *different*
sub-arrays and banks.  :class:`BatchedAapScheduler` prices a batch of
commands against a resource model — every sub-array serialises its own
stream, every MAT's GRB serialises host reads/writes, DPU reduces run
on their MAT's DPU — and reports the *makespan*: the busiest resource's
serial time, i.e. the wall-clock of a controller that exploits all
sub-array parallelism.

The same model serves two callers:

* **the bulk engine** (:mod:`repro.core.bitplane`) queues each round's
  command counts and books the gang makespan on the ledger at
  :meth:`BatchedAapScheduler.flush`;
* **recorded traces** — :func:`charge_stream` queues every entry of a
  :class:`~repro.core.trace.CommandTrace` and returns the serial time,
  the makespan and ``coalescing_speedup = serial / makespan``, the
  sub-array parallelism an algorithm's command stream exposes (the
  hash-partitioned hashmap is near its partition count; a
  single-sub-array reduction is 1).

The makespan never exceeds the serial sum, and ``serial / makespan``
never exceeds the number of resources; ``tests/core/test_scheduler.py``
pins both bounds.

:func:`replay_optimized` re-issues an optimised trace document through
a controller, honouring its gang annotations (the ``--aap-opt`` path).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.timing import DEFAULT_TIMING, command_cost_table
from repro.observability.metrics import inc, observe


@dataclass(frozen=True)
class BatchReport:
    """Outcome of flushing one command batch to the ledger."""

    serial_ns: float
    makespan_ns: float
    commands: int

    @property
    def coalescing_speedup(self) -> float:
        """serial / makespan — parallelism exposed by gang coalescing."""
        if self.makespan_ns <= 0:
            return 1.0
        return self.serial_ns / self.makespan_ns


class BatchedAapScheduler:
    """Coalesces independent per-sub-array op streams into gang issues.

    The scalar controller charges every command as if the machine were
    one queue.  The bulk engine instead queues *counts* of commands per
    (mnemonic, resource) pair and flushes them in one pass: commands
    against different sub-arrays share command slots (gang issue, the
    SIMD execution of Section III), so wall-clock time is the busiest
    resource's serial time, computed in O(resources) rather than
    O(commands).

    Resources:

    * each sub-array serialises its own AAP/SUM/LATCH stream;
    * each MAT's GRB serialises host reads/writes (which also occupy
      the source/target sub-array);
    * each MAT's DPU runs reduce ops — a *separate* resource, which is
      what makes the XNOR→AND fusion free: the DPU reduce of row ``i``
      overlaps the AAP of row ``i+1``.

    Charging: at :meth:`flush` the batch's makespan is computed, and
    each mnemonic is recorded with its full energy and command count
    but with its serial time scaled by ``makespan / serial`` so the
    phase totals add up to the gang-scheduled wall-clock (documented in
    ``docs/CALIBRATION.md``).  Per-command costs come from the cached
    :func:`repro.core.timing.command_cost_table`.
    """

    def __init__(self, ledger, timing=None, energy=None, log=None) -> None:
        from repro.core.energy import DEFAULT_ENERGY  # energy imports timing

        self.ledger = ledger
        self.timing = timing or DEFAULT_TIMING
        self.energy = energy or DEFAULT_ENERGY
        self.costs = command_cost_table(self.timing, self.energy)
        #: optional :class:`repro.core.trace.ChargeLog` (duck-typed:
        #: anything with ``charge()``/``flush()``) fed for audit.
        self.log = log
        self._busy: dict[tuple, float] = defaultdict(float)
        self._time_ns: Counter = Counter()
        self._energy_nj: Counter = Counter()
        self._counts: Counter = Counter()

    # ----- queueing -------------------------------------------------------

    def charge(
        self,
        mnemonic: str,
        subarray_key: tuple[int, int, int],
        count: int = 1,
    ) -> None:
        """Queue ``count`` commands of one kind against one sub-array."""
        if count <= 0:
            return
        try:
            time_ns, energy_nj = self.costs[mnemonic]
        except KeyError:
            raise ValueError(
                f"no cost model for mnemonic {mnemonic!r}"
            ) from None
        total_ns = count * time_ns
        if self.log is not None:
            self.log.charge(mnemonic, subarray_key, count, total_ns)
        self._time_ns[mnemonic] += total_ns
        self._energy_nj[mnemonic] += count * energy_nj
        self._counts[mnemonic] += count
        if mnemonic == "DPU":
            self._busy[("dpu", *subarray_key[:2])] += total_ns
        else:
            self._busy[subarray_key] += total_ns
            if mnemonic in ("MEM_RD", "MEM_WR"):
                self._busy[("grb", *subarray_key[:2])] += total_ns

    def charge_many(
        self,
        subarray_keys: np.ndarray,
        columns: Sequence[tuple[str, np.ndarray]],
    ) -> None:
        """Queue per-sub-array count vectors in one call.

        ``subarray_keys`` is an ``(n, 3)`` array; each ``(mnemonic,
        counts)`` column holds ``n`` counts.  Equivalent, to the last
        bit, to::

            for i, key in enumerate(subarray_keys):
                for mnemonic, counts in columns:
                    self.charge(mnemonic, tuple(key), counts[i])

        Per-mnemonic time/energy and every resource's busy total
        accumulate in that row-major order (``np.add.accumulate`` and
        ``np.add.at`` are sequential), mnemonics join the batch in order
        of first non-zero charge (which fixes the ledger record order of
        the flush), and the charge log gets the same records — also on
        top of charges already queued in the batch.
        """
        keys = np.asarray(subarray_keys, dtype=np.int64).reshape(-1, 3)
        names = [mnemonic for mnemonic, _ in columns]
        counts = np.stack(
            [np.asarray(c, dtype=np.int64) for _, c in columns], axis=1
        )
        try:
            cost = np.array([self.costs[m] for m in names], dtype=np.float64)
        except KeyError as exc:
            raise ValueError(
                f"no cost model for mnemonic {exc.args[0]!r}"
            ) from None
        counts = np.maximum(counts, 0)  # charge() ignores count <= 0
        time_ns = counts * cost[:, 0]
        energy_nj = counts * cost[:, 1]
        if self.log is not None:
            key_list = [tuple(k) for k in keys.tolist()]
            for i, j in zip(*np.nonzero(counts)):
                self.log.charge(
                    names[j], key_list[i], int(counts[i, j]),
                    float(time_ns[i, j]),
                )

        n_cols = len(names)
        first: dict[str, int] = {}
        for j, mnemonic in enumerate(names):
            rows = np.flatnonzero(counts[:, j])
            if rows.size:
                at = int(rows[0]) * n_cols + j
                first[mnemonic] = min(first.get(mnemonic, at), at)
        for mnemonic in sorted(first, key=first.__getitem__):
            cols = [j for j, m in enumerate(names) if m == mnemonic]
            self._counts[mnemonic] += int(counts[:, cols].sum())
            for total, added in (
                (self._time_ns, time_ns), (self._energy_nj, energy_nj)
            ):
                stream = np.concatenate(
                    ([total[mnemonic]], added[:, cols].ravel())
                )
                total[mnemonic] = float(np.add.accumulate(stream)[-1])

        # resources: the distinct sub-arrays, then each MAT's GRB and DPU
        dims = tuple(keys.max(axis=0) + 1) if keys.size else (1, 1, 1)
        _, sub_at, sub_of = np.unique(
            np.ravel_multi_index(keys.T, dims),
            return_index=True,
            return_inverse=True,
        )
        _, mat_at, mat_of = np.unique(
            np.ravel_multi_index(keys[:, :2].T, dims[:2]),
            return_index=True,
            return_inverse=True,
        )
        subs, mats = keys[sub_at], keys[mat_at, :2]
        sub_of, mat_of = sub_of.reshape(-1), mat_of.reshape(-1)
        n_subs, n_mats = subs.shape[0], mats.shape[0]
        is_dpu = np.array([m == "DPU" for m in names])
        is_io = np.array([m in ("MEM_RD", "MEM_WR") for m in names])
        owner = np.where(
            is_dpu[None, :],
            (n_subs + n_mats + mat_of)[:, None],
            sub_of[:, None],
        )
        mat_list = mats.tolist()
        resources = (
            [tuple(k) for k in subs.tolist()]
            + [("grb", b, m) for b, m in mat_list]
            + [("dpu", b, m) for b, m in mat_list]
        )
        busy = np.array([self._busy.get(res, 0.0) for res in resources])
        np.add.at(busy, owner.ravel(), time_ns.ravel())
        grb = np.broadcast_to((n_subs + mat_of)[:, None], counts.shape)
        np.add.at(busy, grb[:, is_io].ravel(), time_ns[:, is_io].ravel())
        self._busy.update(
            (res, total)
            for res, total in zip(resources, busy.tolist())
            if total > 0
        )

    # ----- op-fusion pass --------------------------------------------------

    #: the per-candidate-row mnemonics of a compare scan, in charge
    #: order: the AAP copy and AAP XNOR on the sub-array and the AND
    #: reduce on the MAT's DPU — a separate resource, so the reduce of
    #: row ``i`` hides behind the activations of row ``i+1`` (fusion
    #: rule 1)
    FUSED_COMPARE = ("AAP1", "AAP2", "DPU")

    def fused_add(
        self, subarray_key: tuple[int, int, int], bit_planes: int
    ) -> None:
        """Carry+sum pairs for ``bit_planes`` positions as one batch.

        The 2-cycle-per-bit pair (SUM + TRA) of the ripple adder issues
        back to back without per-op dispatch (fusion rule 2).
        """
        self.charge("SUM", subarray_key, bit_planes)
        self.charge("AAP3", subarray_key, bit_planes)

    # ----- flushing ----------------------------------------------------------

    @property
    def pending_commands(self) -> int:
        return sum(self._counts.values())

    def flush(self) -> BatchReport:
        """Charge the queued batch to the ledger as one gang schedule."""
        serial = float(sum(self._time_ns.values()))
        makespan = max(self._busy.values(), default=0.0)
        commands = self.pending_commands
        if self.log is not None and commands:
            self.log.flush(serial, makespan, commands)
        scale = (makespan / serial) if serial > 0 else 0.0
        for mnemonic, count in self._counts.items():
            self.ledger.record(
                mnemonic,
                time_ns=self._time_ns[mnemonic] * scale,
                energy_nj=self._energy_nj[mnemonic],
                count=count,
            )
        self._busy.clear()
        self._time_ns.clear()
        self._energy_nj.clear()
        self._counts.clear()
        if commands:
            inc("pim.batch.flushes")
            observe("pim.batch.commands", commands)
            observe("pim.batch.makespan_ns", makespan)
            observe(
                "pim.batch.speedup",
                (serial / makespan) if makespan > 0 else 1.0,
            )
        return BatchReport(
            serial_ns=serial, makespan_ns=makespan, commands=commands
        )


# --------------------------------------------------------------------------
# Optimised-trace replay (the `--aap-opt` path)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GangReplayReport:
    """Outcome of replaying a gang-annotated optimised stream."""

    commands: int
    gang_slots: int
    ganged_commands: int
    skipped: int

    @property
    def command_slots(self) -> int:
        """Issue slots consumed: singles plus one per gang."""
        return self.commands - self.ganged_commands + self.gang_slots


class _NullLedger:
    """Absorbs charges when only the schedule report is wanted."""

    def record(self, *args: object, **kwargs: object) -> None:
        pass


def charge_stream(trace, timing=None, energy=None, log=None) -> BatchReport:
    """Price a recorded stream through the batched gang scheduler.

    Every command is queued against its (mnemonic, resource) pair and
    the batch is flushed once — the returned :class:`BatchReport`
    carries the serial time and the gang-coalesced makespan the bulk
    engine's resource model assigns the stream.  Nothing is charged to
    a real ledger; this is the one way to price a recorded trace
    (``optimize-trace``, the benchmarks and the trace-analysis example
    quote their serial time and makespan from it).

    Raises:
        ValueError: on a mnemonic without a cost model.
    """
    scheduler = BatchedAapScheduler(
        _NullLedger(), timing=timing, energy=energy, log=log
    )
    for entry in trace:
        scheduler.charge(entry.mnemonic, entry.subarray)
    return scheduler.flush()


def replay_optimized(doc, controller) -> GangReplayReport:
    """Replay an optimised trace document, honouring its gang slots.

    ``meta["gangs"]`` windows (``[start, length]`` into the entry list,
    as emitted by the optimiser's gang-merge pass and validated by the
    equivalence judge's E005 rule) are issued through the controller's
    gang paths — one command slot, energy per member; everything else
    replays entry by entry like :func:`repro.core.trace.replay`,
    skipping ``MEM_RD``/``DPU`` observations.

    Raises:
        ValueError: on a gang window naming a non-gangable mnemonic or
            mixing mnemonics (malformed annotations; run the
            equivalence checker first).
    """
    from repro.core.isa import RowAddress, SAOp
    from repro.core.trace import replay_entry

    def addr(entry, row: int) -> RowAddress:
        bank, mat, sub = entry.subarray
        return RowAddress(bank=bank, mat=mat, subarray=sub, row=row)

    entries = doc.trace.entries()
    gang_at: dict[int, int] = {}
    for start, length in doc.meta.get("gangs") or []:
        gang_at[int(start)] = int(length)

    commands = slots = ganged = skipped = 0
    i = 0
    while i < len(entries):
        length = gang_at.get(i, 0)
        if length >= 2 and i + length <= len(entries):
            members = entries[i : i + length]
            mnemonics = {m.mnemonic for m in members}
            if len(mnemonics) != 1:
                raise ValueError(
                    f"gang at entry {i} mixes mnemonics {sorted(mnemonics)}"
                )
            mnemonic = members[0].mnemonic
            if mnemonic == "AAP1":
                controller.gang_copy(
                    [
                        (addr(e, e.rows[0]), addr(e, e.rows[1]))
                        for e in members
                    ]
                )
            elif mnemonic == "AAP2":
                controller.gang_compute2(
                    [
                        (
                            addr(e, e.rows[0]),
                            addr(e, e.rows[1]),
                            addr(e, e.rows[2]),
                        )
                        for e in members
                    ],
                    SAOp.XNOR2,
                )
            else:
                raise ValueError(
                    f"gang at entry {i} has non-gangable mnemonic "
                    f"{mnemonic!r}"
                )
            slots += 1
            ganged += length
            commands += length
            i += length
            continue
        if replay_entry(entries[i], controller):
            commands += 1
        else:
            skipped += 1
        i += 1
    return GangReplayReport(
        commands=commands,
        gang_slots=slots,
        ganged_commands=ganged,
        skipped=skipped,
    )
