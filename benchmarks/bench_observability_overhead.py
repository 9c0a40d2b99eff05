"""Overhead contract for the observability layer.

Runs the same end-to-end PIM assembly three ways and compares
simulator wall-clock:

* **baseline** — observability disabled (no active session; every
  instrumented call site reduces to one module-global ``None`` check);
* **disabled** — identical, measured again after the observability
  modules are imported, to catch accidental import-time costs;
* **enabled** — a full ``ObservabilitySession`` active (spans +
  metrics + power timeline + flight ring recorded, nothing exported).

Methodology: the three variants are *interleaved* round-robin — one
baseline run, one disabled run, one enabled run, repeated — so slow
machine-level drift (thermal throttling, a background compile kicking
in halfway through) lands on every variant equally instead of biasing
whichever variant ran last.  Each variant is summarised by its
**median** wall time, and the signed overhead is reported against a
measured **noise floor**: the relative spread of the baseline samples
themselves.  An overhead below the noise floor is indistinguishable
from measurement noise — this is exactly the artifact the previous
best-of-N version produced, where a lucky late "disabled" sample
reported a nonsensical −5 % overhead.

The contract asserted with ``--check`` has two gates, both with the
same noise rule: the *disabled* path must stay within
``max(MAX_DISABLED_OVERHEAD, noise_floor)`` of baseline, and the
*enabled* path within ``max(MAX_ENABLED_OVERHEAD, noise_floor)`` —
observability is meant to be cheap enough to leave on.

Usage::

    PYTHONPATH=src python benchmarks/bench_observability_overhead.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

MAX_DISABLED_OVERHEAD = 0.05  # fractional wall-clock slowdown allowed
MAX_ENABLED_OVERHEAD = 0.10  # ... with a full session recording


def _make_reads(quick: bool):
    from repro.genome.reads import ReadSimulator
    from repro.genome.reference import synthetic_chromosome

    length = 1200 if quick else 4000
    reference = synthetic_chromosome(length, seed=31)
    sim = ReadSimulator(read_length=70, seed=32)
    return sim.sample(reference, sim.reads_for_coverage(length, 10.0))


def _run_assembly(reads, k: int):
    from repro.assembly.pipeline import assemble_with_pim

    return assemble_with_pim(reads, k=k)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes (CI smoke)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if the disabled path exceeds "
        f"max({MAX_DISABLED_OVERHEAD:.0%}, noise floor) or the enabled "
        f"path max({MAX_ENABLED_OVERHEAD:.0%}, noise floor) overhead",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="interleaved repeats per variant"
    )
    parser.add_argument(
        "-o",
        "--output",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_observability.json"
        ),
        help="where to write the JSON record",
    )
    args = parser.parse_args(argv)

    k = 15
    reads = _make_reads(args.quick)

    # import up front so "disabled" measures the shipping default (the
    # modules are resident, no session active) rather than import cost
    from repro.observability.session import ObservabilitySession

    def enabled():
        session = ObservabilitySession()
        with session.activate():
            _run_assembly(reads, k)
        return session

    # one untimed warm-up of each variant: fills allocator/OS caches
    # and touches every code path before any sample is taken
    _run_assembly(reads, k)
    enabled()

    samples: dict[str, list[float]] = {
        "baseline": [],
        "disabled": [],
        "enabled": [],
    }
    for _ in range(max(1, args.repeats)):
        samples["baseline"].append(_timed(lambda: _run_assembly(reads, k)))
        samples["disabled"].append(_timed(lambda: _run_assembly(reads, k)))
        samples["enabled"].append(_timed(enabled))

    medians = {name: statistics.median(s) for name, s in samples.items()}
    base = medians["baseline"]
    noise_floor = (
        (max(samples["baseline"]) - min(samples["baseline"])) / base
        if base > 0
        else 0.0
    )
    gate = max(MAX_DISABLED_OVERHEAD, noise_floor)
    enabled_gate = max(MAX_ENABLED_OVERHEAD, noise_floor)

    session = enabled()
    spans = len(session.tracer.spans())

    disabled_overhead = medians["disabled"] / base - 1.0
    enabled_overhead = medians["enabled"] / base - 1.0
    results = {
        "benchmark": "observability_overhead",
        "mode": "quick" if args.quick else "full",
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "max_enabled_overhead": MAX_ENABLED_OVERHEAD,
        "noise_floor": noise_floor,
        "gate": gate,
        "enabled_gate": enabled_gate,
        "params": {"reads": len(reads), "k": k, "repeats": args.repeats},
        "baseline": {
            "wall_s": medians["baseline"],
            "samples_s": samples["baseline"],
        },
        "disabled": {
            "wall_s": medians["disabled"],
            "samples_s": samples["disabled"],
            "overhead": disabled_overhead,
        },
        "enabled": {
            "wall_s": medians["enabled"],
            "samples_s": samples["enabled"],
            "overhead": enabled_overhead,
            "spans_recorded": spans,
            "sim_ns": session.tracer.sim_clock(),
        },
    }

    for name in ("baseline", "disabled", "enabled"):
        entry = results[name]
        overhead = entry.get("overhead")
        suffix = f" | overhead {overhead:+7.1%}" if overhead is not None else ""
        print(f"{name:>9}: {entry['wall_s'] * 1e3:8.1f} ms (median){suffix}")
    print(
        f"noise floor (baseline spread): {noise_floor:.1%} -> gates "
        f"disabled {gate:.1%}, enabled {enabled_gate:.1%}"
    )

    out = Path(args.output)
    out.write_text(json.dumps(results, indent=2) + "\n", encoding="ascii")
    print(f"wrote {out}")

    if args.check:
        failed = False
        for name, overhead, limit in (
            ("disabled", disabled_overhead, gate),
            ("enabled", enabled_overhead, enabled_gate),
        ):
            ok = overhead <= limit
            print(
                f"{'OK' if ok else 'FAIL'}: {name}-path overhead "
                f"{overhead:+.1%} {'within' if ok else 'exceeds'} gate "
                f"{limit:.1%}"
            )
            failed = failed or not ok
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
