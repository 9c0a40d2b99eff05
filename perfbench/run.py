"""End-to-end benchmark of ``pim-assembler assemble``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload noisy-bulk --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

For one workload and seed it generates a FASTQ read set, then spawns the
CLI on it as a fresh process, one at a time (a closed loop with one
client), until ``--seconds`` are used.  Every run's contigs and modeled
totals are checked; a crash, a timeout or a wrong output counts as a
failed run.  With ``--trace 1`` three more runs are made with spans
around each layer's public call (see ``child.py``), and the per-layer
metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check passed.  Workload choice, metric definitions
and the layer-to-metric predictions are in ``METHODOLOGY.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import (  # noqa: E402
    median,
    parse_fasta_sequences,
    same_contigs,
    self_times,
    tail_percentile,
)

K = 22
READ_LENGTH = 101
COVERAGE = 30.0
#: reads of human chromosome 14 at 101 bp (PAPER.md section 1.5)
CHR14_READS = 45_711_162
#: traced runs per ``--trace 1`` invocation; per-layer values are medians
TRACED_RUNS = 3
#: measured runs per invocation, whatever ``--seconds`` allows
MIN_RUNS = 3
#: a run still going after this many seconds is killed and failed
RUN_TIMEOUT_S = 60.0
#: scratch space, inside the checkout (listed in .gitignore)
OUT_DIR = ".perfbench_out"
#: ledger mnemonics reported per layer (core.cmd.<MNEMONIC>)
MNEMONICS = ("AAP1", "AAP2", "AAP3", "DPU", "MEM_RD", "MEM_WR", "SUM", "LATCH_LD")


@dataclass(frozen=True)
class Workload:
    genome_bp: int
    error_rate: float
    exec_engine: str
    observed: bool = False


#: two workloads, so that each invocation can measure for a long window
#: (see METHODOLOGY.md, "Workloads"); together they load every layer
WORKLOADS = {
    "noisy-bulk": Workload(1500, 0.01, "bulk"),
    "observed-scalar": Workload(500, 0.0, "scalar", observed=True),
}

#: end-to-end metrics and their units, in report order
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "reads_per_s": "1/s",
    "peak_rss_mb": "MB",
    "modeled_ms": "ms",
    "modeled_energy_uj": "uJ",
    "aap_commands": "count",
}


@dataclass
class RunResult:
    wall_s: float
    cpu_s: float
    report: dict
    problem: "str | None"

    @property
    def peak_rss_mb(self) -> float:
        return self.report["peak_rss_kb"] / 1024.0


def fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


# ----- inputs ----------------------------------------------------------------


def make_reads(workload: Workload, seed: int):
    from repro.genome.reads import ReadSimulator
    from repro.genome.reference import synthetic_chromosome

    genome = synthetic_chromosome(workload.genome_bp, seed=seed)
    sim = ReadSimulator(
        read_length=READ_LENGTH, seed=seed + 1, error_rate=workload.error_rate
    )
    return sim.sample(genome, sim.reads_for_coverage(workload.genome_bp, COVERAGE))


def write_fastq(path: Path, reads) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for read in reads:
            seq = str(read.sequence)
            fh.write(f"@{read.name}\n{seq}\n+\n{'I' * len(seq)}\n")


def software_contigs(reads) -> list[str]:
    from repro.assembly import assemble

    return [str(c.sequence) for c in assemble(reads, k=K).contigs]


# ----- one process -----------------------------------------------------------


def spawn(argv: list[str], env: dict, stdout: Path) -> "tuple[float, float, int, bool]":
    """Run ``argv`` to completion; returns ``(wall_s, cpu_s, exit_code,
    timed_out)``.  The child is reaped with ``os.wait4`` so its own CPU
    time is read; a timer kills it after ``RUN_TIMEOUT_S``."""
    timed_out = threading.Event()
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)

        def kill() -> None:
            timed_out.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(RUN_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, proc.returncode, timed_out.is_set()


class Runner:
    """Spawns CLI runs of one workload and checks each one's output."""

    def __init__(self, root: Path, work: Path, workload: Workload, seed: int):
        self.work = work
        self.workload = workload
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.reads = make_reads(workload, seed)
        self.fastq = work / "reads.fq"
        write_fastq(self.fastq, self.reads)
        self.reference = software_contigs(self.reads)
        self.modeled: "dict | None" = None
        self.count = 0

    def cli_args(self, tag: str, exec_engine: str) -> list[str]:
        args = ["assemble", str(self.fastq), "-o", str(self.work / f"{tag}.fa"),
                "-k", str(K), "--exec-engine", exec_engine]
        if self.workload.observed:
            args += ["--trace-out", str(self.work / f"{tag}.trace.json"),
                     "--metrics-out", str(self.work / f"{tag}.metrics.json"),
                     "--telemetry-out", str(self.work / f"{tag}.prom")]
        return args

    def run(self, traced: bool = False, exec_engine: "str | None" = None) -> RunResult:
        self.count += 1
        tag = f"run{self.count}"
        report_path = self.work / f"{tag}.report.json"
        argv = [sys.executable, str(HERE / "child.py"), "--report", str(report_path)]
        if traced:
            argv.append("--trace")
        argv += ["--", *self.cli_args(tag, exec_engine or self.workload.exec_engine)]
        wall, cpu, code, timed_out = spawn(argv, self.env, self.work / f"{tag}.log")
        report: dict = {}
        if timed_out:
            problem = f"timed out after {RUN_TIMEOUT_S:.0f} s"
        elif code != 0:
            problem = f"exit code {code}: " + self.tail_log(tag)
        else:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            problem = self.check(tag, report, parity=exec_engine is not None)
        return RunResult(wall, cpu, report, problem)

    def version(self) -> float:
        """Wall time of one fresh ``pim-assembler --version`` process."""
        argv = [sys.executable, "-m", "repro.cli", "--version"]
        wall, _, code, timed_out = spawn(argv, self.env, self.work / "version.log")
        if code != 0 or timed_out:
            fail("`pim-assembler --version` did not exit cleanly")
        return wall

    def tail_log(self, tag: str) -> str:
        text = (self.work / f"{tag}.log").read_text(encoding="utf-8", errors="replace")
        return " | ".join(text.strip().splitlines()[-3:])

    def check(self, tag: str, report: dict, parity: bool) -> "str | None":
        """Output check of one finished run; ``None`` when it passed."""
        try:
            got = parse_fasta_sequences((self.work / f"{tag}.fa").read_text(encoding="ascii"))
        except (OSError, ValueError) as exc:
            return f"unreadable contigs file: {exc}"
        if not same_contigs(got, self.reference):
            return (f"contigs differ from the software engine "
                    f"({len(got)} vs {len(self.reference)} sequences)")
        if parity:
            return None
        modeled = {key: report[key] for key in
                   ("modeled_ms", "modeled_energy_uj", "aap_commands", "commands")}
        if self.modeled is None:
            self.modeled = modeled
        elif modeled != self.modeled:
            return "modeled totals differ from the first run of this invocation"
        if self.workload.observed:
            return self.check_observability(tag)
        return None

    def check_observability(self, tag: str) -> "str | None":
        from repro.observability.validate import validate_exposition_file

        problems = validate_exposition_file(self.work / f"{tag}.prom")
        if problems:
            return "telemetry exposition invalid: " + "; ".join(problems[:3])
        for suffix in ("trace.json", "metrics.json"):
            try:
                json.loads((self.work / f"{tag}.{suffix}").read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                return f"{suffix} does not parse: {exc}"
        return None


# ----- measurement -------------------------------------------------------------


def measure_runs(runner: Runner, seconds: float) -> "tuple[list[RunResult], list[float]]":
    """Closed loop: the next run starts when the previous one ended, until
    another would not fit into ``seconds``.  At least ``MIN_RUNS`` are
    made, unless runs are so slow (or hang until killed) that twice
    ``seconds`` has passed.

    Each run is preceded by one timed ``--version`` process, so the
    set-up samples span the same window, and the same host load, as
    the runs.  Returns the runs and the set-up times.
    """
    results: list[RunResult] = []
    setup: list[float] = []
    start = time.perf_counter()
    while True:
        setup.append(runner.version())
        results.append(runner.run())
        elapsed = time.perf_counter() - start
        typical = median(setup) + median([r.wall_s for r in results])
        enough = len(results) >= MIN_RUNS or elapsed > 2 * seconds
        if enough and elapsed + typical > seconds:
            return results, setup


def engine_parity(runner: Runner, scalar: RunResult) -> "tuple[str, str | None]":
    """Compare a bulk run with a scalar run on the same reads: contigs,
    per-mnemonic command counts and energy must match; modeled time is
    reported side by side."""
    bulk = runner.run(exec_engine="bulk")
    if bulk.problem:
        return "", f"bulk run failed: {bulk.problem}"
    s, b = scalar.report, bulk.report
    line = (f"engine parity: scalar {s['modeled_ms']:.4f} ms vs bulk "
            f"{b['modeled_ms']:.4f} ms modeled; energy {s['modeled_energy_uj']:.6f}"
            f" vs {b['modeled_energy_uj']:.6f} uJ; commands {s['aap_commands']}"
            f" vs {b['aap_commands']}")
    if s["commands"] != b["commands"]:
        return line, "per-mnemonic command counts differ between engines"
    # summation order differs between engines: allow float64 rounding only
    if abs(s["modeled_energy_uj"] - b["modeled_energy_uj"]) > 1e-9 * s["modeled_energy_uj"]:
        return line, "energy differs between engines"
    return line, None


def layer_metrics(report: dict, kmers: int, wall_s: float, untraced_wall: float) -> dict:
    """Per-layer numbers of one traced run (self times in seconds)."""
    spans = report["spans"]
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    attrs: dict[str, dict] = {}
    for s in spans:
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + selfs[s["id"]]
        inclusive[s["name"]] = inclusive.get(s["name"], 0.0) + s["end"] - s["start"]
        attrs[s["name"]] = s
    stages = report["stages"]
    # host time of the layers that issue commands: the hashmap stage and
    # the traverse stage without its contig walk, which issues none
    issuing = by_name["hashmap"] + inclusive["traverse"] - inclusive.get("contigs", 0.0)
    out = {
        "startup.import_s": by_name["startup.import"],
        "genome.parse_s": by_name["genome.parse"],
        "genome.reads": attrs["genome.parse"]["reads"],
        "platform.device_s": by_name["platform.device"],
        "hashmap.s": by_name["hashmap"],
        "hashmap.kmers": kmers,
        "hashmap.distinct": report["kmer_table_size"],
        "hashmap.insert_ratio": report["kmer_table_size"] / kmers,
        "hashmap.modeled_ms": stages["hashmap"]["modeled_ms"],
        "hashmap.commands": stages["hashmap"]["commands"],
        "debruijn.s": by_name["debruijn"],
        "debruijn.nodes": report["graph_nodes"],
        "debruijn.edges": report["graph_edges"],
        "adjacency.s": by_name["adjacency"],
        "contigs.s": by_name["contigs"],
        "contigs.count": report["contigs"],
        "traverse.modeled_ms": stages["traverse"]["modeled_ms"],
        "traverse.commands": stages["traverse"]["commands"],
    }
    for mnemonic in MNEMONICS:
        out[f"core.cmd.{mnemonic}"] = report["commands"].get(mnemonic, 0)
    out["core.host_ns_per_cmd"] = issuing * 1e9 / report["aap_commands"]
    out["output.write_s"] = by_name["output.write"]
    out["observability.export_s"] = by_name.get("observability.export", 0.0)
    out["observability.bytes"] = report["observability_bytes"]
    out["trace.overhead"] = wall_s / untraced_wall - 1.0
    return out


#: per-layer metric units (anything not listed is a count)
LAYER_UNITS = {"trace.overhead": "ratio", "hashmap.insert_ratio": "ratio",
               "hashmap.modeled_ms": "ms", "traverse.modeled_ms": "ms",
               "core.host_ns_per_cmd": "ns", "observability.bytes": "bytes"}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return LAYER_UNITS.get(name, "count")


# ----- one workload ------------------------------------------------------------


def run_workload(name: str, root: Path, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = root / OUT_DIR / f"work-{name}-s{seed}-p{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _run_workload(name, workload, root, work, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name, workload, root, work, seed, seconds, trace) -> dict:
    runner = Runner(root, work, workload, seed)
    runs, setup = measure_runs(runner, seconds)
    problems = [r.problem for r in runs if r.problem]
    good = [r for r in runs if r.problem is None]
    lines = [f"== {name}: seed {seed}, {workload.genome_bp} bp genome, "
             f"{len(runner.reads)} reads x {READ_LENGTH} bp, "
             f"error rate {workload.error_rate}, k {K}, "
             f"--exec-engine {workload.exec_engine}"
             f"{' + trace/metrics/telemetry out' if workload.observed else ''}"]

    attempted = len(runs)
    if workload.exec_engine == "scalar" and good:
        parity_line, parity_problem = engine_parity(runner, good[0])
        attempted += 1
        lines.append(parity_line)
        if parity_problem:
            problems.append(parity_problem)

    samples: dict[str, list[float]] = {
        "wall_s": [r.wall_s for r in good],
        "setup_s": setup,
        "cpu_s": [r.cpu_s for r in good],
        "reads_per_s": [len(runner.reads) / r.wall_s for r in good],
        "peak_rss_mb": [r.peak_rss_mb for r in good],
    }
    metrics: dict[str, dict] = {}
    if good:
        lines.append("wall_s samples: " + " ".join(f"{v:.3f}" for v in samples["wall_s"]))
        for key, values in samples.items():
            metrics[key] = {"value": median(values), "unit": END_TO_END[key]}
            tail = tail_percentile(values)
            tail_text = (f"p{tail[0]:g} {tail[1]:.4f}" if tail
                         else "no tail percentile with 10 samples beyond it")
            lines.append(f"{key:>18} = {median(values):.4f} {END_TO_END[key]} "
                         f"(median of {len(values)}; {tail_text})")
        for key in ("modeled_ms", "modeled_energy_uj", "aap_commands"):
            value = runner.modeled[key]
            metrics[key] = {"value": value, "unit": END_TO_END[key]}
            lines.append(f"{key:>18} = {value} {END_TO_END[key]} "
                         f"(deterministic; identical in {len(good)} runs)")
        chr14_h = CHR14_READS / metrics["reads_per_s"]["value"] / 3600.0
        lines.append(f"chr-14 projection (not gated): {CHR14_READS} reads / "
                     f"{metrics['reads_per_s']['value']:.2f} reads/s = {chr14_h:.1f} h")

    layer: dict[str, dict] = {}
    if trace and good:
        untraced = median(samples["wall_s"])
        kmer_positions = sum(max(0, len(r.sequence) - K + 1) for r in runner.reads)
        traced: list[dict] = []
        span_runs = []
        for _ in range(TRACED_RUNS):
            result = runner.run(traced=True)
            attempted += 1
            if result.problem:
                problems.append(f"traced run: {result.problem}")
                continue
            traced.append(layer_metrics(result.report, kmer_positions,
                                        result.wall_s, untraced))
            span_runs.append({"wall_s": result.wall_s, "spans": result.report["spans"]})
        if traced:
            span_file = root / OUT_DIR / f"spans-{name}-s{seed}.json"
            span_file.write_text(json.dumps({"workload": name, "seed": seed,
                                             "runs": span_runs}, indent=1))
            lines.append(f"per-layer, times are self times (median of {len(traced)} "
                         f"traced runs; spans in {span_file.relative_to(root)}):")
            for key in traced[0]:
                value = median([t[key] for t in traced])
                layer[key] = {"value": value, "unit": layer_unit(key)}
                lines.append(f"{key:>26} = {value:.6g} {layer_unit(key)}")
            busy = median([r["wall_s"] for r in span_runs]) - median(setup)
            graph = sum(layer[k]["value"] for k in ("debruijn.s", "adjacency.s", "contigs.s"))
            lines.append(f"share of traced wall - setup_s ({busy:.3f} s): hashmap.s "
                         f"{layer['hashmap.s']['value'] / busy:.1%}, debruijn.s + "
                         f"adjacency.s + contigs.s {graph / busy:.1%}")

    failed = len(problems)
    lines.append(f"{'error_rate':>18} = {failed / attempted:.4f} "
                 f"({failed} failed of {attempted} attempted)")
    for problem in problems:
        lines.append(f"FAILED: {problem}")
    print("\n".join(lines), flush=True)
    return {"correct": not problems and bool(good), "attempted": attempted,
            "failed": failed, "metrics": layer if trace else metrics}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        fail(f"no program source under {root / 'src'}: run from a checkout root")
    sys.path.insert(0, str(root / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, root, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
