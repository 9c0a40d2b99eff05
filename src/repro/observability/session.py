"""One-stop wiring of the observability layer around a run.

:class:`ObservabilitySession` bundles the pieces — a span
:class:`~repro.observability.spans.Tracer`, a
:class:`~repro.observability.metrics.MetricsRegistry`, a
:class:`~repro.observability.power.PowerTimeline`, a
:class:`~repro.observability.flightrec.FlightRecorder` — and
activates them together::

    session = ObservabilitySession()
    with session.activate():
        result = assemble_with_pim(reads, k=21)
    session.export(trace_path="t.json", metrics_path="m.json", pim=pim)

The session is the :class:`~repro.observability.metrics.Recorder` of
every connected stats ledger, and each ledger record is kept once:
:meth:`on_command` queues it, and the queue is folded in batches into
the power timeline (the one per-command accumulator) and the flight
ring; reading :attr:`power` or :attr:`flight` folds first.  The
timeline's ``total_time_ns`` is the simulated clock the tracer stamps
spans with, and the registry's ``pim.*`` command counters are copied
from the timeline whenever the registry is read (:meth:`publish`:
:meth:`export`, :meth:`write_telemetry`, and the serve loop before it
evaluates alert rules).  Ledgers connect through
:func:`connect_ledger`, which :class:`~repro.core.platform.PimAssembler`
calls at construction — a no-op unless a session is active, so the
default simulator keeps its zero-instrumentation cost and job resumes
(which rebuild the platform mid-run) reconnect automatically.

One lock serialises the fold and every read of the timeline into the
registry: the multi-tenant service runs real worker threads against a
single shared session, and the power timeline's conservation
invariant (bit-exact against the ledger) does not survive lost
updates.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager
from typing import Iterator

from repro.observability.export import (
    subarray_utilization,
    write_chrome_trace,
    write_metrics,
)
from repro.observability.exposition import write_exposition
from repro.observability.flightrec import (
    DEFAULT_COMMAND_CAPACITY,
    FlightRecorder,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.power import PowerTimeline, current_lane
from repro.observability.spans import Tracer

__all__ = ["ObservabilitySession", "active_session", "connect_ledger"]

#: the currently active session (single-threaded cooperative model)
_ACTIVE: "ObservabilitySession | None" = None

#: queued ledger records that trigger a fold
FOLD_BATCH = 4096


class ObservabilitySession:
    """Tracer + registry + power timeline + flight recorder, as one unit."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._power = PowerTimeline()
        self.tracer = Tracer(sim_clock=lambda: self.power.total_time_ns)
        self._flight = FlightRecorder()
        self.tracer.listener = self._flight
        self._lock = threading.Lock()
        self._pending: list[tuple] = []  # records not folded in yet

    # ----- the Recorder fed to every connected StatsLedger -------------------

    def on_command(
        self,
        command: str,
        count: int,
        time_ns: float,
        energy_nj: float,
        phase: "str | None",
    ) -> None:
        """Queue one ledger record, with this thread's lane.

        ``list.append`` is atomic, so queueing takes no lock; the lock
        is taken only to fold, every :data:`FOLD_BATCH` records.
        """
        pending = self._pending
        pending.append(
            (command, count, time_ns, energy_nj, phase, current_lane())
        )
        if len(pending) >= FOLD_BATCH:
            self._fold()

    def _fold(self) -> None:
        """Fold the queue, in order, into the timeline and the ring.

        Records queued meanwhile land after the copied ones and wait
        for the next fold.  Only the last ring-depth records are pushed
        onto the ring: it would evict the earlier ones anyway.
        """
        with self._lock:
            records = self._pending[:]
            del self._pending[: len(records)]
            stamped = self._power.fold(records, DEFAULT_COMMAND_CAPACITY)
            for record in stamped:
                self._flight.on_command(*record)

    @property
    def power(self) -> PowerTimeline:
        """The power timeline, every queued record folded in."""
        self._fold()
        return self._power

    @property
    def flight(self) -> FlightRecorder:
        """The flight recorder, every queued record folded in."""
        self._fold()
        return self._flight

    @property
    def sim_time_ns(self) -> float:
        """Cumulative simulated nanoseconds observed by this session."""
        return self.power.total_time_ns

    def publish(self) -> dict:
        """Copy counters and power gauges in; return the power summary."""
        self._fold()
        with self._lock:
            self._power.publish_counters(self.registry)
            self._power.publish_gauges(self.registry)
            return self._power.summary()

    # ----- lifecycle --------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["ObservabilitySession"]:
        """Install the session, its tracer and its registry globally."""
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        with ExitStack() as stack:
            stack.enter_context(self.tracer.activate())
            stack.enter_context(self.registry.activate())
            try:
                yield self
            finally:
                _ACTIVE = previous

    # ----- export -----------------------------------------------------------

    def snapshot_platform(self, pim) -> list[dict]:
        """Fold a platform's sub-array occupancy into gauges; return it."""
        records = subarray_utilization(pim)
        for record in records:
            key = f"{record['bank']}.{record['mat']}.{record['subarray']}"
            self.registry.gauge(f"pim.subarray.rows_used.{key}").set(
                record["rows_used"]
            )
        self.registry.gauge("pim.subarray.touched").set(len(records))
        if records:
            self.registry.gauge("pim.subarray.max_utilization").set(
                max(r["utilization"] for r in records)
            )
        return records

    def export(
        self,
        trace_path: "str | None" = None,
        metrics_path: "str | None" = None,
        pim=None,
        telemetry_path: "str | None" = None,
    ) -> list[str]:
        """Write the requested artefacts; returns the written paths."""
        written: list[str] = []
        heatmap = self.snapshot_platform(pim) if pim is not None else []
        power = self.publish()
        if trace_path:
            written.append(
                str(write_chrome_trace(trace_path, self.tracer,
                                       power=self.power))
            )
        if metrics_path:
            extra: dict = {"power": power}
            if heatmap:
                extra["subarray_heatmap"] = heatmap
            written.append(
                str(write_metrics(metrics_path, self.registry, extra=extra))
            )
        if telemetry_path:
            written.append(str(write_exposition(
                telemetry_path, self.registry, extra={"power": power}
            )))
        return written

    def write_telemetry(self, telemetry_path) -> str:
        """Periodic exposition write (the serve loop's per-round hook)."""
        extra = {"power": self.publish()}
        return str(write_exposition(telemetry_path, self.registry, extra=extra))


def active_session() -> "ObservabilitySession | None":
    """The session currently installed by :meth:`ObservabilitySession.activate`."""
    return _ACTIVE


def connect_ledger(ledger) -> None:
    """Attach the active session's recorder to a stats ledger.

    Called by :class:`~repro.core.platform.PimAssembler` when it builds
    (or rebuilds, on resume) its ledger; a cheap no-op when no session
    is active, so construction stays instrumentation-free by default.
    """
    if _ACTIVE is not None:
        ledger.attach_recorder(_ACTIVE)
