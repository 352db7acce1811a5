"""Benchmark of the renyi-extract CLI on seeded workloads.

    python3 perfbench/run.py --workload certify-k3 --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; it measures the package under
the checkout's `src/`.  The workload seed generates the config, and the
program receives only that config.  Each sample runs the workload's CLI
command in a fresh interpreter, one process at a time (a closed loop with a
single client), and every report goes through the correctness gate: the
expected exit status, the workload's invariants, byte-identical reports
within the run and, for the pinned seed, the pinned report hash.

Times are scaled to a nominal host speed (see hostspeed.py): each untraced
sample runs the CLI under a meter that times a fixed reference chunk every
40 ms in the same process, and each setup probe times chunks right before
and after its setup, so a shared host that slows by 1.5x for minutes slows
the chunks too and the scaled time stays put.

The last line of stdout is one JSON object.  With --trace 0 it holds the
end-to-end metrics: wall_s (scaled), setup_s (scaled) and peak_rss_mb are
medians over the untraced samples and the setup probes.  With --trace 1 it
holds the per-layer metrics of traced runs (see tracing.py) made next to
untraced runs of the same config; their times are not scaled.  A readable
summary goes to stderr and every sample's details to .perfbench_out/ at the
checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import tracing
from workloads import PINNED_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PER_ROUND = 3
SETUP_CHUNKS = 20  # reference chunks before and after each setup probe
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "fields.setup_s": "s",
    "fields.gf_mul_calls": "count",
    "fields.gf_add_calls": "count",
    "families.hash_table_calls": "count",
    "families.evaluate_calls": "count",
    "families.table_build_s": "s",
    "families.table_rebuilds": "ratio",
    "families.table_cells": "count",
    "families.table_cells_computed": "count",
    "families.certify_s": "s",
    "families.certify_l2_s": "s",
    "families.certify_l3_s": "s",
    "families.subset_checks_computed": "count",
    "extraction.extract_joint_s": "s",
    "extraction.joint_cells": "count",
    "extraction.joint_cells_computed": "count",
    "extraction.bucket_s": "s",
    "extraction.bucket_evals": "count",
    "extraction.bucket_evals_computed": "count",
    "measures.divergence_s": "s",
    "measures.pmf_builds": "count",
    "measures.renyi_divergence_calls": "count",
    "measures.divergence_cells_computed": "count",
    "bounds.collect_s": "s",
    "harness.report_bytes": "bytes",
    "cli.serialize_s": "s",
    "fields.self_s": "s",
    "families.self_s": "s",
    "extraction.self_s": "s",
    "measures.self_s": "s",
    "bounds.self_s": "s",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.accounted_share": "ratio",
    "trace.overhead_s": "s",
    "host.raw_wall_s": "s",
    "host.chunk_s": "s",
    "error_rate": "ratio",
}

# Times `import renyi_extract` plus everything before the first certification
# or enumeration call, in a fresh interpreter, between two sets of
# reference chunks that give the host's speed at that moment.
SETUP_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[2])
import hostspeed
with open(sys.argv[1], encoding="utf-8") as fh:
    raw = json.load(fh)
chunks = [hostspeed.chunk() for _ in range(%d)]
start = time.perf_counter()
import renyi_extract
from renyi_extract.config import parse_config
config = parse_config(raw)
config.build_source(config.build_family())
seconds = time.perf_counter() - start
chunks += [hostspeed.chunk() for _ in range(%d)]
print(hostspeed.scaled(seconds, chunks), renyi_extract.__file__)
""" % (SETUP_CHUNKS, SETUP_CHUNKS)


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class Sample:
    wall_s: float  # raw, spawn to exit
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    report: bytes | None = None
    spans: dict | None = None
    chunks: list[float] | None = None  # meter chunk times, untraced runs
    problems: list[str] = field(default_factory=list)


def run_child(argv: list[str], workdir: Path) -> Sample:
    """Run one child to exit; wall time from spawn to exit, peak RSS by wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(workdir / "stdout", "w+b") as out, open(workdir / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > CHILD_TIMEOUT_S:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Sample(
            wall,
            usage.ru_maxrss / 1024.0,
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
        )


def measure_setup(config_path: Path, workdir: Path, count: int) -> list[float]:
    """Scaled setup time of `count` fresh interpreters."""
    times = []
    for _ in range(count):
        s = run_child([sys.executable, "-c", SETUP_PROBE, str(config_path), str(HERE)], workdir)
        if s.exit_code != 0:
            raise BenchError(f"setup probe failed (exit {s.exit_code}):\n{s.stderr}")
        seconds, module = s.stdout.strip().split(" ", 1)
        if not Path(module).resolve().is_relative_to(SRC):
            raise BenchError(f"imported renyi_extract from {module}, not from {SRC}")
        times.append(float(seconds))
    return times


def run_cli(workload: Workload, config_path: Path, workdir: Path, tag: str, traced: bool):
    """One CLI run of the workload, through tracing.py when traced and
    through the hostspeed.py meter when not."""
    if traced:
        tag = f"traced-{tag}"
    report_path = workdir / f"report-{tag}"
    spans_path = workdir / f"spans-{tag}.json"
    chunks_path = workdir / f"chunks-{tag}.json"
    prefix = [HERE / "tracing.py", spans_path] if traced else [HERE / "hostspeed.py", chunks_path]
    sample = run_child(
        [sys.executable, *map(str, prefix), workload.command]
        + ["--config", str(config_path), "--out", str(report_path)],
        workdir,
    )
    if report_path.is_file():
        sample.report = report_path.read_bytes()
    if traced:
        if spans_path.is_file():
            sample.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        else:
            sample.problems.append("traced run wrote no spans")
    else:
        if chunks_path.is_file():
            sample.chunks = json.loads(chunks_path.read_text(encoding="utf-8"))
        if not sample.chunks:
            sample.problems.append("metered run wrote no chunk times")
    return sample


def program_s(sample: Sample) -> float:
    """Raw wall time of a sample less the time its meter chunks took."""
    return sample.wall_s - sum(sample.chunks or ())


def scaled_wall_s(sample: Sample) -> float:
    """Wall time of an untraced sample at the nominal host speed.  A sample
    without chunk times has failed the gate; its raw time stands in."""
    if not sample.chunks:
        return sample.wall_s
    return hostspeed.scaled(program_s(sample), sample.chunks)


def check_sample(
    sample: Sample, workload: Workload, config: dict, seed: int, first: bytes | None
):
    """Fill sample.problems; first is the first report of this run, or None."""
    if sample.exit_code != 0:
        sample.problems.append(f"exit status {sample.exit_code}, expected 0")
    if "Traceback" in sample.stderr:
        sample.problems.append("traceback on stderr")
    if sample.report is None:
        sample.problems.append("no report written")
        return
    sample.problems += workload.check(sample.report.decode("utf-8"), config)
    if first is not None and sample.report != first:
        sample.problems.append("report differs from the first report of this seed")
    digest = hashlib.sha256(sample.report).hexdigest()
    if seed == PINNED_SEED and digest != workload.pinned_sha256:
        sample.problems.append(f"report sha256 {digest} differs from the pinned hash")


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload for one seed; returns the result and its details."""
    if not (SRC / "renyi_extract" / "cli.py").is_file():
        raise BenchError(f"no renyi_extract sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    config = workload.config(seed)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        # The first probe also fills the bytecode cache; its time is dropped.
        measure_setup(config_path, workdir, 1)

        setup: list[float] = []
        plain: list[Sample] = []
        traced: list[Sample] = []
        first = None
        start = time.perf_counter()
        # A round is SETUP_PER_ROUND setup probes and one untraced sample, plus
        # one traced sample with --trace 1.  Spreading the probes over the run
        # keeps one slow spell of the machine from setting setup_s.  Untraced
        # runs need two rounds, so that two reports are compared.
        min_rounds = 1 if trace else 2
        while True:
            setup += measure_setup(config_path, workdir, SETUP_PER_ROUND)
            tag = str(len(plain))
            plain.append(run_cli(workload, config_path, workdir, tag, traced=False))
            if trace:
                traced.append(run_cli(workload, config_path, workdir, tag, traced=True))
            for sample in (plain[-1], traced[-1]) if trace else (plain[-1],):
                check_sample(sample, workload, config, seed, first)
                if first is None:
                    first = sample.report
            elapsed = time.perf_counter() - start
            # Stop when one more round of average length would pass `seconds`.
            if len(plain) >= min_rounds and elapsed * (1 + 1 / len(plain)) > seconds:
                break

    samples = plain + traced
    failed = sum(1 for s in samples if s.problems)
    walls = [scaled_wall_s(s) for s in plain]
    if trace:
        metrics = per_layer_metrics(workload, traced, plain, first, failed / len(samples))
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plain),
        }
        units = END_TO_END
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
        "details": {
            "workload": workload.name,
            "seed": seed,
            "trace": int(trace),
            "config": config,
            "setup_s": setup,
            "wall_tail": tail_percentile(walls),
            "samples": [
                {
                    "traced": i >= len(plain),
                    "wall_s": s.wall_s,
                    "scaled_wall_s": None if i >= len(plain) else walls[i],
                    "chunk_s": hostspeed.speed_s(s.chunks) if s.chunks else None,
                    "peak_rss_mb": s.peak_rss_mb,
                    "exit_code": s.exit_code,
                    "sha256": None if s.report is None else hashlib.sha256(s.report).hexdigest(),
                    "problems": s.problems,
                    "stderr": s.stderr[-2000:],
                }
                for i, s in enumerate(samples)
            ],
        },
    }


def per_layer_metrics(workload, traced, plain, report, error_rate) -> dict[str, float]:
    """Median over traced samples of each per-layer metric, plus run-level ones.
    Times are raw; host.chunk_s gives the host speed they were taken at."""
    per_sample = [tracing.layer_metrics(s.spans, s.wall_s) for s in traced if s.spans]
    metrics = {name: 0.0 for name in PER_LAYER}
    if per_sample:
        metrics.update({k: statistics.median(m[k] for m in per_sample) for k in per_sample[0]})
    metrics.update(workload.computed_work())
    metrics["families.table_rebuilds"] = metrics["families.hash_table_calls"] / workload.seeds
    metrics["harness.report_bytes"] = len(report or b"")
    untraced = statistics.median(program_s(s) for s in plain)
    metrics["trace.overhead_s"] = statistics.median(s.wall_s for s in traced) - untraced
    metrics["host.raw_wall_s"] = untraced
    metrics["host.chunk_s"] = statistics.median(hostspeed.speed_s(s.chunks) for s in plain if s.chunks)
    metrics["error_rate"] = error_rate
    return metrics


def summary(result: dict, details: dict) -> str:
    """Readable summary: each metric with its unit, computed counts alongside."""
    lines = [
        f"{details['workload']} seed {details['seed']} trace {details['trace']}: "
        f"{result['attempted']} runs, {result['failed']} failed"
    ]
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name.endswith("_computed"):
            continue
        line = f"  {name:36} {m['value']:>16.6g} {m['unit']}"
        computed = name + "_computed"
        if computed in metrics:
            line += f"   (computed: {metrics[computed]['value']:.6g})"
        lines.append(line)
    tail = details["wall_tail"]
    n = sum(1 for s in details["samples"] if not s["traced"])
    lines.append(
        f"  wall_s over {n} untraced samples; "
        + (f"p{tail[0]} = {tail[1]:.6g} s" if tail else "no percentile has 10 samples above it")
    )
    for s in details["samples"]:
        for p in s["problems"]:
            lines.append(f"  FAILED ({'traced' if s['traced'] else 'untraced'}): {p}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        out = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    result, details = out["result"], out["details"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(details, result=result), indent=1), encoding="utf-8")
    print(summary(result, details), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
