"""Crash-tolerant job runtime: checkpoints, watchdog deadlines, retries.

Three cooperating modules wrap :class:`~repro.assembly.pipeline.PimPipeline`
into resumable, deadline-bounded jobs:

* :mod:`repro.runtime.checkpoint` — content-hashed stage-boundary
  journal (`kill -9`-safe; resumes are bit-identical),
* :mod:`repro.runtime.watchdog` — cooperative cancellation checkpoints
  with per-stage / whole-job deadline budgets,
* :mod:`repro.runtime.jobs` — the :class:`JobRunner` retry ladder and
  degradation chain.

Every public name is resolved lazily from its submodule: the assembly
modules need only :func:`checkpoint`, and ``jobs`` imports the
assembly pipeline, so eager imports here would both slow every process
and make the import graph cyclic.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

# public names resolve on first use (PEP 562): the assembly hot path
# imports only the watchdog, not the journal
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "checkpoint": ("JobJournal", "RecordRef"),
        "watchdog": ("Watchdog", "active_watchdog", "checkpoint"),
        "jobs": (
            "JobConfig",
            "JobDecision",
            "JobOutcome",
            "JobReport",
            "JobRunner",
            "reads_fingerprint",
        ),
    },
)
