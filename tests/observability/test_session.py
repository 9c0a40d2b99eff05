"""End-to-end session wiring: pipeline spans, sim clock, export."""

import pytest

from repro.assembly.pipeline import STAGE_NAMES, _sized_device, assemble_with_pim
from repro.observability.export import chrome_trace, validate_chrome_trace
from repro.observability.session import (
    ObservabilitySession,
    active_session,
    connect_ledger,
)
from repro.genome.reads import ReadSimulator
from repro.genome.reference import synthetic_chromosome


@pytest.fixture(scope="module")
def reads():
    reference = synthetic_chromosome(1200, seed=11)
    sim = ReadSimulator(read_length=70, seed=12)
    return sim.sample(reference, sim.reads_for_coverage(1200, 10.0))


def _traced_run(reads, **kwargs):
    session = ObservabilitySession()
    with session.activate():
        pim = _sized_device(reads, 15)
        result = assemble_with_pim(reads, 15, pim=pim, **kwargs)
    return session, pim, result


class TestSessionWiring:
    def test_platform_auto_connects_while_active(self, reads):
        session, pim, _ = _traced_run(reads)
        assert pim.stats._recorder is session

    def test_inactive_platform_stays_unconnected(self, reads):
        assert active_session() is None
        pim = _sized_device(reads, 15)
        assert pim.stats._recorder is None

    def test_connect_ledger_is_noop_without_session(self):
        class FakeLedger:
            def attach_recorder(self, recorder):
                raise AssertionError("must not be called")

        connect_ledger(FakeLedger())  # no active session -> no attach

    def test_sim_clock_matches_ledger_total(self, reads):
        # one clock: the session, the tracer and the power timeline all
        # read power.total_time_ns, the same += sum as the ledger root
        for engine in ("scalar", "bulk"):
            session, pim, result = _traced_run(reads, engine=engine)
            ledger_ns = pim.stats.totals().time_ns
            assert session.sim_time_ns == session.power.total_time_ns
            assert session.sim_time_ns == ledger_ns, engine
            assert session.tracer.sim_clock() == ledger_ns, engine
            assert session.sim_time_ns == pytest.approx(result.total_time_ns)


class TestStageSpanAgreement:
    """The acceptance criterion: per-stage span durations on the
    simulated clock agree with ``StatsLedger.totals(stage)``."""

    @pytest.mark.parametrize("engine", ["scalar", "bulk"])
    def test_stage_spans_agree_with_ledger(self, reads, engine):
        session, pim, _ = _traced_run(reads, engine=engine)
        for stage in STAGE_NAMES:
            (stage_span,) = session.tracer.spans(f"stage.{stage}")
            assert stage_span.lane == stage
            assert stage_span.sim_duration_ns == pytest.approx(
                pim.stats.totals(stage).time_ns
            ), stage

    def test_trace_validates_and_has_stage_lanes(self, reads):
        session, _, _ = _traced_run(reads)
        doc = chrome_trace(session.tracer)
        assert validate_chrome_trace(doc) == []
        lane_names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert set(STAGE_NAMES) <= lane_names

    def test_command_metrics_match_ledger(self, reads):
        session, pim, _ = _traced_run(reads)
        totals = pim.stats.totals()
        session.publish()  # the registry's pim.* copy-on-read
        reg = session.registry
        assert reg.counter("pim.commands.total").value == totals.total_commands
        assert reg.counter("pim.time_ns.total").value == pytest.approx(
            totals.time_ns
        )
        for mnemonic, count in totals.commands.items():
            assert reg.counter(f"pim.commands.{mnemonic}").value == count


class TestSpanGranularity:
    """Spans sit at stage/batch level: the span set does not depend on
    the host engine, and the span count does not grow with the reads
    (per-command detail lives in ``--aap-trace-out`` documents)."""

    def test_engines_open_the_same_span_names(self, reads):
        names = {}
        for engine in ("scalar", "bulk"):
            session, _, _ = _traced_run(reads, engine=engine)
            names[engine] = {s.name for s in session.tracer.spans()}
        assert names["scalar"] == names["bulk"]
        assert not any(name.startswith("pim.") for name in names["scalar"])

    def test_scalar_span_count_does_not_grow_with_reads(self, reads):
        counts = []
        for subset in (reads[: len(reads) // 2], reads):
            session, _, _ = _traced_run(subset, engine="scalar")
            counts.append(len(session.tracer.spans()))
        assert counts[0] == counts[1]


class TestBatchedFold:
    """The session folds queued records in batches; the result must be
    what folding each record on arrival gives, bit for bit."""

    def test_batches_match_per_record_feeding(self):
        import random

        from repro.observability.flightrec import FlightRecorder
        from repro.observability.power import PowerTimeline, lane_scope
        from repro.observability.session import FOLD_BATCH

        rng = random.Random(5)
        session = ObservabilitySession()
        timeline = PowerTimeline()
        flight = FlightRecorder()
        for index in range(int(2.5 * FOLD_BATCH)):
            record = (
                rng.choice(["AAP1", "AAP2", "MEM_RD", "LATCH_CLR"]),
                rng.randrange(1, 4),
                rng.choice([0.0, rng.random() * 400.0, 250_000.0]),
                rng.choice([0.0, rng.random() * 9.0]),
                rng.choice([None, "hashmap", "traverse"]),
            )
            lane = "tenant-a" if index % 1000 < 300 else None
            with lane_scope(lane):
                session.on_command(*record)
                timeline.on_command(*record)
            flight.on_command(
                *record, sim_ns=timeline.total_time_ns,
                lane=lane or record[4] or "job",
            )
            if index == FOLD_BATCH + 7:  # a read mid-run folds early
                assert session.sim_time_ns == timeline.total_time_ns
        power = session.power
        assert power.summary() == timeline.summary()
        assert power._bins == timeline._bins
        assert power._lane_bins == timeline._lane_bins
        assert power.stage_time_ns == timeline.stage_time_ns
        assert (
            session.flight.snapshot("x")["commands"]
            == flight.snapshot("x")["commands"]
        )


class TestConcurrentFeeding:
    def test_threads_lose_no_update(self, monkeypatch):
        # service workers are threads sharing one session; they queue
        # without a lock, and the session lock serialises the folds
        # (tiny batches: a fold every few records) and the copy
        import sys
        import threading

        import repro.observability.session as session_module

        monkeypatch.setattr(session_module, "FOLD_BATCH", 3)
        session = ObservabilitySession()
        threads, per_thread = 4, 5000

        def feed(worker):
            for _ in range(per_thread):
                session.on_command("AAP1", 1, 2.0, 1.0, f"w{worker}")

        def copy():
            for _ in range(200):
                session.publish()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=feed, args=(i,))
                for i in range(threads)
            ] + [threading.Thread(target=copy)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(previous)
        total = threads * per_thread
        session.publish()
        reg = session.registry
        assert session.power.events == total
        assert reg.counter("pim.commands.total").value == total
        assert session.sim_time_ns == 2.0 * total
        assert reg.counter("pim.energy_nj.total").value == 1.0 * total
        assert session.power.integral_nj() == 1.0 * total


class TestExport:
    def test_export_writes_requested_artifacts(self, reads, tmp_path):
        session, pim, _ = _traced_run(reads)
        written = session.export(
            trace_path=tmp_path / "trace.json",
            metrics_path=tmp_path / "metrics.json",
            pim=pim,
        )
        assert len(written) == 2
        assert (tmp_path / "trace.json").exists()
        assert (tmp_path / "metrics.json").exists()
        # occupancy snapshot landed in the gauges
        assert session.registry.gauge("pim.subarray.touched").value > 0

    def test_export_nothing_requested(self, reads):
        session, _, _ = _traced_run(reads)
        assert session.export() == []


class TestDisabledOverheadPath:
    def test_instrumented_run_works_without_session(self, reads):
        # the same instrumented code path, observability off
        result = assemble_with_pim(reads, 15)
        assert result.contigs
        assert active_session() is None
