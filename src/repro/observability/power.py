"""Windowed power timeline built from the stats-ledger command stream.

The paper's headline comparisons are power numbers (Fig. 9b, Fig. 10),
but until now the simulator only reported energy as a single end-of-run
scalar.  :class:`PowerTimeline` turns the
:class:`~repro.core.stats.StatsLedger` command stream into a
*timeline*: energy binned over
simulated time, attributed per mnemonic and per **lane** (a pipeline
stage for single jobs, a service tenant under the multi-tenant
scheduler), and reported in watts with the exact formula
``energy_nj / time_ns + p_background_w`` that
:meth:`repro.core.energy.EnergyModel.power_w` uses (1 nJ / 1 ns = 1 W).

Conservation by construction
============================

The headline invariant — *the timeline integrates to the ledger's total
energy, exactly* — is kept bit-exact, not approximately:

* :attr:`total_energy_nj` is accumulated with the same ``+=`` sequence
  (same addends, same order) as the ledger's ROOT accumulator, so for a
  single-threaded run ``timeline.total_energy_nj ==
  ledger.totals().energy_nj`` holds under IEEE-754 equality, float
  non-associativity notwithstanding;
* per-phase accumulators mirror the ledger's per-phase ``+=`` order the
  same way, so ``stage_energy_nj[phase] ==
  ledger.totals(phase).energy_nj`` is also exact (and likewise
  ``stage_time_ns``);
* binning *spreads* each event's energy uniformly over its duration,
  charging the final bin with the residual ``energy - assigned`` rather
  than its proportional share, so every event deposits exactly its
  energy into the bins and the bin sum differs from the total only by
  float reassociation (checked with ``math.fsum`` in tests and by the
  ``--check`` gate of ``benchmarks/bench_power_timeline.py``).

The timeline is the session's one per-command accumulator and its
``total_time_ns`` the session's one simulated clock; the session feeds
it queued records in batches (:meth:`PowerTimeline.fold`), and the
registry's ``pim.*`` counters are copied from its mirrors on read
(:meth:`PowerTimeline.publish_counters`).

Lane attribution uses a thread-local :func:`lane_scope` (the service
worker enters ``lane_scope(tenant)`` around each job) falling back to
the ledger phase, so one timeline serves both the single-job and the
multi-tenant views.  The timeline takes no lock of its own: service
workers are real threads, and the session's lock serialises them.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "DEFAULT_BIN_NS",
    "PowerTimeline",
    "current_lane",
    "lane_scope",
]

#: default bin width, simulated nanoseconds (100 us — fine enough to
#: resolve stage transitions of the tier-1 workloads, coarse enough
#: that a paper-scale run stays a few thousand bins)
DEFAULT_BIN_NS = 100_000.0

#: lane charged when neither a lane scope nor a ledger phase is active
DEFAULT_POWER_LANE = "job"


class _LaneSlot(threading.local):
    # per-thread attribution lane; the class default spares the session
    # a raised-and-swallowed AttributeError per ledger record
    lane: "str | None" = None


_TLS = _LaneSlot()


@contextmanager
def lane_scope(name: str) -> Iterator[None]:
    """Attribute this thread's command energy to lane ``name``.

    The service worker wraps each dispatched job in
    ``lane_scope(tenant)`` so per-tenant energy shares fall out of the
    timeline without the ledger or the pipeline knowing about tenants.
    """
    previous = _TLS.lane
    _TLS.lane = name
    try:
        yield
    finally:
        _TLS.lane = previous


def current_lane() -> "str | None":
    """This thread's lane installed by :func:`lane_scope` (or ``None``)."""
    return _TLS.lane


class PowerTimeline:
    """Bins the command stream into per-lane / per-mnemonic energy.

    Args:
        bin_ns: bin width in simulated nanoseconds.
        p_background_w: standby+refresh+controller watts added to every
            reported power figure (the paper's background term).
        thermal_tau_ns: time constant of the thermal-proxy EWMA over
            bin powers; a sustained-power gauge that a single hot bin
            cannot spike the way it spikes :meth:`peak_power_w`.
    """

    def __init__(
        self,
        bin_ns: float = DEFAULT_BIN_NS,
        p_background_w: "float | None" = None,
        thermal_tau_ns: "float | None" = None,
    ) -> None:
        if p_background_w is None or thermal_tau_ns is None:
            # lazy: repro.core imports the observability session at
            # module load, so a top-level energy import would cycle
            from repro.core.energy import DEFAULT_ENERGY

            if p_background_w is None:
                p_background_w = DEFAULT_ENERGY.p_background_w
            if thermal_tau_ns is None:
                thermal_tau_ns = DEFAULT_ENERGY.thermal_tau_ns
        if bin_ns <= 0:
            raise ValueError("bin_ns must be positive")
        if thermal_tau_ns <= 0:
            raise ValueError("thermal_tau_ns must be positive")
        self.bin_ns = float(bin_ns)
        self.p_background_w = float(p_background_w)
        self.thermal_tau_ns = float(thermal_tau_ns)
        #: exact mirrors of the ledger accumulators (see module docs)
        self.total_energy_nj = 0.0
        self.total_time_ns = 0.0
        self.stage_energy_nj: dict[str, float] = {}
        self.stage_time_ns: dict[str, float] = {}
        self.lane_energy_nj: dict[str, float] = {}
        self.mnemonic_energy_nj: dict[str, float] = {}
        self.mnemonic_time_ns: dict[str, float] = {}
        self.mnemonic_count: dict[str, int] = {}
        #: bin index -> deposited energy (nJ), globally and per lane
        self._bins: dict[int, float] = {}
        self._lane_bins: dict[str, dict[int, float]] = {}
        self.events = 0

    # ----- feeding -----------------------------------------------------------

    def on_command(
        self,
        command: str,
        count: int,
        time_ns: float,
        energy_nj: float,
        phase: "str | None",
        lane: "str | None" = None,
    ) -> None:
        """Deposit one ledger record (the Recorder-shaped entry point)."""
        if lane is None:
            lane = _TLS.lane
        self.fold([(command, count, time_ns, energy_nj, phase, lane)])

    def fold(self, records: list, keep: int = 0) -> list:
        """Deposit ledger records in order; return the last ``keep`` stamped.

        A record is ``(command, count, time_ns, energy_nj, phase,
        lane)``; a ``None`` lane falls back to the phase, then ``"job"``,
        so pipeline stages form lanes by themselves.  A stamped record
        has ``sim_ns``, the clock after the record, before its lane: the
        flight ring's arguments.
        """
        bin_ns, bins, lane_bins = self.bin_ns, self._bins, {}
        stage_e, stage_t = self.stage_energy_nj, self.stage_time_ns
        mnem_e, mnem_t = self.mnemonic_energy_nj, self.mnemonic_time_ns
        mnem_c, lane_e = self.mnemonic_count, self.lane_energy_nj
        lane_name = None
        total_e, clock = self.total_energy_nj, self.total_time_ns
        cut, stamped = len(records) - keep, []
        for index, record in enumerate(records):
            command, count, time_ns, energy_nj, phase, lane = record
            if lane is None:
                lane = phase if phase is not None else DEFAULT_POWER_LANE
            total_e += energy_nj
            start = clock
            clock = start + time_ns
            if phase is not None:
                stage_e[phase] = stage_e.get(phase, 0.0) + energy_nj
                stage_t[phase] = stage_t.get(phase, 0.0) + time_ns
            lane_e[lane] = lane_e.get(lane, 0.0) + energy_nj
            mnem_e[command] = mnem_e.get(command, 0.0) + energy_nj
            mnem_t[command] = mnem_t.get(command, 0.0) + time_ns
            mnem_c[command] = mnem_c.get(command, 0) + count
            if lane != lane_name:
                lane_name = lane
                lane_bins = self._lane_bins.setdefault(lane, {})
            if energy_nj:
                first, last = int(start // bin_ns), int(clock // bin_ns)
                if first == last:  # the usual case: one bin
                    bins[first] = bins.get(first, 0.0) + energy_nj
                    lane_bins[first] = lane_bins.get(first, 0.0) + energy_nj
                else:
                    # spread uniformly; the last bin takes the residual,
                    # not its share: the event deposits exactly energy_nj
                    assigned = 0.0
                    for slot in range(first, last + 1):
                        if slot == last:
                            share = energy_nj - assigned
                        else:
                            lo = max(start, slot * bin_ns)
                            hi = min(clock, (slot + 1) * bin_ns)
                            share = energy_nj * ((hi - lo) / time_ns)
                            assigned += share
                        bins[slot] = bins.get(slot, 0.0) + share
                        lane_bins[slot] = lane_bins.get(slot, 0.0) + share
            if index >= cut:
                stamped.append(
                    (command, count, time_ns, energy_nj, phase, clock, lane)
                )
        self.events += len(records)
        self.total_energy_nj, self.total_time_ns = total_e, clock
        return stamped

    # ----- reading -----------------------------------------------------------

    def lanes(self) -> list[str]:
        return sorted(self._lane_bins)

    def integral_nj(self, lane: "str | None" = None) -> float:
        """Energy deposited into the bins (``math.fsum``, reassociated)."""
        bins = self._bins if lane is None else self._lane_bins.get(lane, {})
        return math.fsum(bins.values())

    def series(self, lane: "str | None" = None) -> list[tuple[float, float]]:
        """``(bin_start_ns, power_w)`` points, gaps filled with background.

        Power of a bin is its deposited energy over the bin width plus
        the background term; bins between the first and last touched
        bin that saw no energy still report background power, so the
        series is a gap-free step function a counter track can render.
        """
        bins = self._bins if lane is None else self._lane_bins.get(lane, {})
        if not bins:
            return []
        first, last = min(bins), max(bins)
        return [
            (
                index * self.bin_ns,
                bins.get(index, 0.0) / self.bin_ns + self.p_background_w,
            )
            for index in range(first, last + 1)
        ]

    def peak_power_w(self, lane: "str | None" = None) -> float:
        """Hottest single bin, in watts (background when empty)."""
        bins = self._bins if lane is None else self._lane_bins.get(lane, {})
        if not bins:
            return self.p_background_w
        return max(bins.values()) / self.bin_ns + self.p_background_w

    def thermal_proxy_w(self, lane: "str | None" = None) -> float:
        """Peak of an EWMA over bin powers — sustained-power proxy.

        The EWMA's smoothing factor comes from the thermal time
        constant (``alpha = 1 - exp(-bin_ns / tau_ns)``): one hot bin
        barely moves it, a sustained burn converges to the bin power.
        Deterministic — computed from the bins, no wall clock anywhere.
        """
        series = self.series(lane)
        if not series:
            return self.p_background_w
        alpha = 1.0 - math.exp(-self.bin_ns / self.thermal_tau_ns)
        ewma = self.p_background_w
        hottest = ewma
        for _, power_w in series:
            ewma += alpha * (power_w - ewma)
            if ewma > hottest:
                hottest = ewma
        return hottest

    def average_power_w(self) -> float:
        """Whole-run average: total energy over elapsed time + background."""
        if self.total_time_ns <= 0:
            return self.p_background_w
        return self.total_energy_nj / self.total_time_ns + self.p_background_w

    def top_mnemonics(self, k: int = 5) -> list[tuple[str, float]]:
        """The ``k`` mnemonics with the largest energy share, descending."""
        ranked = sorted(
            self.mnemonic_energy_nj.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:k]

    # ----- export ------------------------------------------------------------

    def summary(self) -> dict:
        """JSON-serializable rollup (no raw bins — those go to traces)."""
        return {
            "bin_ns": self.bin_ns,
            "p_background_w": self.p_background_w,
            "events": self.events,
            "total_energy_nj": self.total_energy_nj,
            "total_time_ns": self.total_time_ns,
            "average_power_w": self.average_power_w(),
            "peak_power_w": self.peak_power_w(),
            "thermal_proxy_w": self.thermal_proxy_w(),
            "lanes": {
                lane: {
                    "energy_nj": self.lane_energy_nj.get(lane, 0.0),
                    "peak_power_w": self.peak_power_w(lane),
                }
                for lane in self.lanes()
            },
            "stages": dict(sorted(self.stage_energy_nj.items())),
            "mnemonics": {
                name: {
                    "energy_nj": self.mnemonic_energy_nj[name],
                    "time_ns": self.mnemonic_time_ns[name],
                    "count": self.mnemonic_count[name],
                }
                for name in sorted(self.mnemonic_energy_nj)
            },
        }

    def publish_counters(self, registry) -> None:
        """Copy the per-command mirrors into the registry's ``pim.*``."""
        if not self.events:
            return
        named = {
            "pim.commands.total": float(sum(self.mnemonic_count.values())),
            "pim.time_ns.total": self.total_time_ns,
            "pim.energy_nj.total": self.total_energy_nj,
        }
        for name, count in self.mnemonic_count.items():
            named[f"pim.commands.{name}"] = float(count)
            named[f"pim.time_ns.{name}"] = self.mnemonic_time_ns[name]
            named[f"pim.energy_nj.{name}"] = self.mnemonic_energy_nj[name]
        for phase, time_ns in self.stage_time_ns.items():
            named[f"pim.stage_time_ns.{phase}"] = time_ns
        for name, value in named.items():
            registry.counter(name).value = value

    def publish_gauges(self, registry) -> None:
        """Write the peak/thermal/average gauges into a metrics registry."""
        registry.gauge("power.peak_w").set(self.peak_power_w())
        registry.gauge("power.thermal_proxy_w").set(self.thermal_proxy_w())
        registry.gauge("power.average_w").set(self.average_power_w())
        for lane in self.lanes():
            registry.gauge(f"power.lane_energy_nj.{lane}").set(
                self.lane_energy_nj.get(lane, 0.0)
            )
