"""One ``pim-assembler`` process, as the benchmark spawns it.

Usage::

    python child.py --report OUT.json [--trace] -- assemble READS -o OUT.fa ...

Runs ``repro.cli.main`` on the arguments after ``--`` exactly as the
``pim-assembler`` console script does, and afterwards writes ``OUT.json``
with the run's modeled totals (time, energy, per-mnemonic command
counts), read back from the device the CLI assembled on.

With ``--trace`` it also records spans around the public call each
layer exposes -- read parsing, device sizing, the three pipeline stages,
degree vectors, the contig walk, FASTA output and the observability
export -- by wrapping those functions in place before the CLI runs.  The
spans (name, start, end, parent) are kept in memory and written into
``OUT.json`` once, at the end.  No code inside the program is changed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


class SpanRecorder:
    """In-memory span list with a stack for parent links."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, start: "float | None" = None) -> dict:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() if start is None else start,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            record = self.open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.close(record)
            if on_result is not None:
                on_result(record, result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)


def _modeled(outcome) -> dict:
    """Modeled totals of one run, summed from the ledger's stage totals."""
    stages = (outcome.hashmap, outcome.debruijn, outcome.traverse)
    per_mnemonic: dict[str, int] = {}
    for stage in stages:
        for mnemonic, count in stage.commands.items():
            per_mnemonic[mnemonic] = per_mnemonic.get(mnemonic, 0) + count
    return {
        "modeled_ms": outcome.total_time_ns / 1e6,
        "modeled_energy_uj": outcome.total_energy_nj / 1e3,
        "aap_commands": sum(per_mnemonic.values()),
        "commands": per_mnemonic,
        "stages": {
            name: {
                "modeled_ms": stage.time_ns / 1e6,
                "commands": stage.total_commands,
            }
            for name, stage in zip(("hashmap", "debruijn", "traverse"), stages)
        },
        "kmer_table_size": outcome.kmer_table_size,
        "graph_nodes": outcome.graph.num_nodes,
        "graph_edges": outcome.graph.num_edges,
        "contigs": len(outcome.contigs),
    }


def _peak_rss_kb() -> int:
    """This process image's peak resident set, in KiB.

    ``VmHWM`` covers only the image since ``exec``.  ``ru_maxrss`` would
    also count the memory of the parent copy the process was forked
    from, which is the benchmark's own.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: child.py --report OUT.json [--trace] -- CLI-ARGS",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    report_path = own[own.index("--report") + 1]
    traced = "--trace" in own

    recorder = SpanRecorder()
    root = recorder.open("process", start=_T0) if traced else None
    imports = recorder.open("startup.import") if traced else None
    import repro.assembly
    import repro.assembly.pipeline as pipeline
    import repro.cli
    import repro.genome.io_fasta as io_fasta

    captured: dict = {}

    def keep_outcome(record, result, args, kwargs):
        captured["outcome"] = result

    if traced:
        # the CLI imports the session module only when telemetry is on;
        # importing it here is traced-run cost, kept out of wall_s
        from repro.observability.session import ObservabilitySession

        recorder.close(imports)
        exports: list[str] = []
        recorder.wrap(repro.cli, "_load_reads", "genome.parse",
                      lambda r, res, a, k: r.update(reads=len(res[0])))
        recorder.wrap(pipeline, "_sized_device", "platform.device")
        recorder.wrap(repro.assembly, "assemble_with_pim", "pipeline",
                      keep_outcome)
        recorder.wrap(pipeline.PimPipeline, "run_hashmap", "hashmap")
        recorder.wrap(pipeline.PimPipeline, "run_debruijn", "debruijn")
        recorder.wrap(pipeline.PimPipeline, "run_traverse", "traverse")
        recorder.wrap(pipeline, "degree_vectors_pim", "adjacency")
        recorder.wrap(pipeline, "assemble_contigs", "contigs")
        recorder.wrap(io_fasta, "write_fasta", "output.write")
        recorder.wrap(ObservabilitySession, "export", "observability.export",
                      lambda r, res, a, k: exports.extend(res))
    else:
        inner = repro.assembly.assemble_with_pim

        def assemble_with_pim(*args, **kwargs):
            result = inner(*args, **kwargs)
            keep_outcome(None, result, args, kwargs)
            return result

        repro.assembly.assemble_with_pim = assemble_with_pim

    code = repro.cli.main(cli_args)
    if traced:
        recorder.close(root)
    report: dict = {"exit": code, "peak_rss_kb": _peak_rss_kb()}
    if "outcome" in captured:
        report.update(_modeled(captured["outcome"]))
    if traced:
        report["spans"] = recorder.spans
        report["observability_bytes"] = sum(os.path.getsize(p) for p in exports)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
