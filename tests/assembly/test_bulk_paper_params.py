"""Differential test: bulk == scalar after every round at paper parameters.

k = 22 and 101 bp reads with 1% substitution errors (the paper's read
shape, and the noisy regime where most rounds insert new k-mers).  The
bulk engine's whole-round plan — one pack + scatter of new rows, one
compute-row scatter, one vector charge, an incrementally merged index —
must leave exactly the scalar engine's observable state after each
round: every table sub-array's packed words (compute rows included),
the host shadow, the read-back table and the per-mnemonic ledger
counts.  With the SECDED sidecar on, every bulk scatter must also keep
the code bytes equal to a fresh encode.
"""

import numpy as np
import pytest

from repro.assembly.hashmap import PimKmerCounter
from repro.assembly.pipeline import _sized_device
from repro.core.integrity import encode_secded
from repro.genome.reads import ReadSimulator
from repro.genome.reference import synthetic_chromosome

K = 22


def paper_reads(seed, n_reads=36):
    reference = synthetic_chromosome(900, seed=seed)
    sim = ReadSimulator(read_length=101, error_rate=0.01, seed=seed)
    return [read.sequence for read in sim.sample(reference, n_reads)]


def rounds(reads):
    """Single-read rounds (the pipeline default) and multi-read rounds."""
    yield reads[:1]
    yield reads[1:2]
    yield reads[2:10]
    yield reads[10:11]
    yield reads[11:23]
    yield reads[23:]


def table_words(counter):
    device = counter.pim.device
    return [
        device.store.tensor[device.subarray_at(t.key).slot].copy()
        for t in counter._tables
    ]


def snapshot(counter):
    counts = counter.counts()  # both engines charge the same MEM_RD
    return {
        "words": table_words(counter),
        "slot_keys": counter._slot_keys,
        "occupancy": counter.occupancy,
        "counts": counts,
        "commands": dict(counter.pim.stats.totals().commands),
    }


@pytest.mark.parametrize("ecc", [False, True], ids=["ecc-off", "secded"])
@pytest.mark.parametrize("seed", [3, 11])
def test_bulk_matches_scalar_after_every_round(seed, ecc):
    reads = paper_reads(seed)
    counters = {}
    for engine in ("scalar", "bulk"):
        pim = _sized_device(reads, K)
        if ecc:
            pim.device.store.enable_ecc(encode_secded)
        counters[engine] = PimKmerCounter(pim, K, engine=engine)

    for batch in rounds(reads):
        for counter in counters.values():
            counter.add_sequences(batch)
        scalar, bulk = (snapshot(counters[e]) for e in ("scalar", "bulk"))
        for a, b in zip(scalar["words"], bulk["words"]):
            assert np.array_equal(a, b)
        for key in ("slot_keys", "occupancy", "counts", "commands"):
            assert scalar[key] == bulk[key], key

        counter = counters["bulk"]
        assert not counter._index_dirty
        merged = (counter._idx_keys.copy(), counter._idx_slot.copy())
        counter._rebuild_index()
        assert np.array_equal(merged[0], counter._idx_keys)
        assert np.array_equal(merged[1], counter._idx_slot)

        if ecc:
            store = counter.pim.device.store
            used = slice(0, store.n_slots)
            assert np.array_equal(
                store.ecc_plane[used], encode_secded(store.tensor[used])
            )

    # the noisy reads really exercised inserts, hits and multi-round growth
    assert len(counters["bulk"]) > 1000
    assert max(counters["bulk"].counts().values()) > 1


def test_counts_gather_charges_and_traces_like_per_slot_reads():
    """Bulk ``counts()`` = one gather, with the scalar readback's
    MEM_RD count, serial time, and one trace entry per slot."""
    from repro.core.trace import CommandTrace

    reads = paper_reads(5, n_reads=6)
    seen = {}
    for engine in ("scalar", "bulk"):
        pim = _sized_device(reads, K)
        counter = PimKmerCounter(pim, K, engine=engine)
        counter.add_sequences(reads)
        trace = CommandTrace()
        pim.controller.attach_trace(trace)
        before = pim.stats.totals()
        table = counter.counts()
        after = pim.stats.totals()
        pim.controller.attach_trace(None)
        reads_charged = after.commands["MEM_RD"] - before.commands.get(
            "MEM_RD", 0
        )
        seen[engine] = (
            table,
            reads_charged,
            after.time_ns - before.time_ns,
            [(e.mnemonic, e.subarray, e.rows) for e in trace],
        )
    assert seen["scalar"][0] == seen["bulk"][0]
    assert seen["scalar"][1] == seen["bulk"][1] == len(seen["bulk"][0])
    assert seen["scalar"][2] == pytest.approx(seen["bulk"][2], rel=1e-12)
    assert seen["scalar"][3] == seen["bulk"][3]
