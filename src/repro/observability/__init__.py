"""Unified observability: span tracing, metrics, Perfetto export.

One subsystem correlates everything the simulator can tell you about a
run on a single timeline:

* :mod:`repro.observability.spans` — zero-dependency structured span
  tracer (context-manager API, monotonic *and* simulated-ns clocks,
  parent/child nesting, attributes), wired through the pipeline
  stages, job retries, scheduler batches and controller dispatch;
* :mod:`repro.observability.metrics` — counters/gauges/histograms fed
  by the stats ledger through the narrow :class:`Recorder` protocol
  and by instrumentation points through module-level helpers;
* :mod:`repro.observability.export` — Chrome/Perfetto trace-event
  JSON (one lane per pipeline stage plus resilience/watchdog lanes),
  ``metrics.json`` snapshots, sub-array utilization heatmaps, and the
  schema validator CI runs;
* :mod:`repro.observability.session` — one-call activation wiring all
  of the above around a run (the CLI's ``--trace-out``/
  ``--metrics-out``);
* :mod:`repro.observability.inspect` — post-hoc ``repro inspect`` of
  a finished or crashed job directory;
* :mod:`repro.observability.power` — windowed per-lane/per-mnemonic
  power timeline off the ledger command stream, with a bit-exact
  conservation invariant against the ledger totals;
* :mod:`repro.observability.exposition` — zero-dependency Prometheus
  text-format v0.0.4 writer (the CLI's ``--telemetry-out``);
* :mod:`repro.observability.slo` — per-tenant SLO objectives, burn
  rates, and the alert-rule evaluator the serve loop runs each round;
* :mod:`repro.observability.flightrec` — bounded ring of recent
  commands/spans/events/alerts, dumped as ``flight.json`` on failure.

Everything is **off by default**: without an active session the
instrumentation points reduce to one global ``None`` check each, a
contract enforced by ``benchmarks/bench_observability_overhead.py``.
"""

from repro._lazy import lazy_exports

# public names resolve on first use (PEP 562): instrumented modules
# import only the spans/metrics helpers they call
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "export": (
            "chrome_trace",
            "format_subarray_heatmap",
            "subarray_utilization",
            "validate_chrome_trace",
            "validate_trace_file",
            "write_chrome_trace",
            "write_metrics",
        ),
        "exposition": ("render_prometheus", "write_exposition"),
        "flightrec": ("FlightRecorder",),
        "power": ("PowerTimeline", "current_lane", "lane_scope"),
        "slo": (
            "AlertEvaluator",
            "AlertEvent",
            "AlertRule",
            "SloObjective",
            "SloTracker",
        ),
        "inspect": (
            "format_stage_table",
            "format_top_commands",
            "inspect_job",
            "render_job_inspection",
        ),
        "metrics": (
            "MetricsRegistry",
            "Recorder",
            "active_registry",
            "inc",
            "observe",
            "set_gauge",
        ),
        "session": (
            "ObservabilitySession",
            "active_session",
            "connect_ledger",
        ),
        "spans": ("Span", "Tracer", "active_tracer", "event", "span"),
    },
)
