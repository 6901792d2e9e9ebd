"""Benchmark of the khconc knot -> invariant pipeline.

    python3 benchmark/run.py --workload knots_small --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all --seed 1

A run serves one workload in one single-threaded process; `all` runs the
four workloads one after another, each in a fresh process, and prints each
one's summary line.  A run first sets up at least SETUP_REPS times and for
at least SETUP_MIN_S of CPU (package import plus seeded input generation,
see generate.py) and reports the median as setup_s.  It then makes passes
over the workload's jobs, cycling through the presentations in the seed's
order, until the next pass would end after --seconds of wall time.  It
checks every answer and prints as its last stdout line one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  A wrong answer or a raised exception fails the job and makes
the exit code 1.

--trace 0 reports the end-to-end metrics (medians over passes):
  pass_cpu_s     CPU time of one pass over the jobs
  max_job_cpu_s  CPU time of the slowest job of a pass
  peak_rss_mb    ru_maxrss of this process
  setup_s        CPU time of one set-up

Times are the CPU time of this process (time.process_time), not wall time.
The work is single-threaded and CPU-bound, so on an idle machine the two
agree; on a shared one, wall time also counts the time other processes
hold the cores (two busy loops on a 2-core machine stretched one job's wall
time by 70 % and its CPU time by 12 %).  The summary line also shows the
median wall time of a pass.

--trace 1 makes pairs of an untraced and a traced pass, alternating which
runs first, and reports the per-layer metrics of spans.py (medians over
traced passes), the traced wall and CPU time, the tracing overhead (traced
minus untraced pass CPU time) and the share of the traced wall time that
the outermost spans cover.  The first presentation's cube builds are then
repeated under tracemalloc for khovanov.build_peak_mb, outside the passes,
because tracemalloc slows cube emission about fivefold.  The spans are written to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import generate
import pipelines
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5
SETUP_MIN_S = 1.0
CHILD_TIMEOUT_S = 900


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    max_job_cpu_s: float
    jobs: int
    failed: int


def use_checkout_package() -> None:
    """Import khconc from the checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "khconc" / "__init__.py").is_file():
        sys.exit(f"benchmark: no khconc package under {src}")
    sys.path.insert(0, str(src))


def set_up(workload: str, seed: int, tiny: bool):
    """Import the package afresh and generate the inputs, repeatedly."""
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        for name in [m for m in sys.modules if m == "khconc" or m.startswith("khconc.")]:
            del sys.modules[name]
        gc.collect()
        start = time.process_time()
        importlib.import_module("khconc")
        presentations = generate.make_jobs(workload, seed, tiny)
        times.append(time.process_time() - start)
    return presentations, statistics.median(times)


def run_pass(job_list, call, tracer: spans.Tracer | None = None) -> Pass:
    gc.collect()
    answers = []
    slowest = 0.0
    start, cpu_start = time.perf_counter(), time.process_time()
    for job in job_list:
        if tracer is not None:
            tracer.job = job.name
        job_start = time.process_time()
        try:
            answers.append(pipelines.run(call, job))
        except Exception:  # a failed job is counted, the pass goes on
            traceback.print_exc()
            answers.append("raised")
        slowest = max(slowest, time.process_time() - job_start)
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - start
    failed = 0
    for job, answer in zip(job_list, answers):
        if answer != job.expect:
            failed += 1
            print(f"benchmark: {job.name}: got {answer!r}, expected {job.expect!r}", file=sys.stderr)
    return Pass(wall, cpu, slowest, len(job_list), failed)


def build_peak_mb(job_list) -> float:
    """Largest tracemalloc peak over the workload's cube builds, in MiB."""
    from khconc import khovanov

    peak = 0
    for job in job_list:
        if job.kind != "knot":
            continue
        pd = pipelines.diagram(spans.direct, job.payload)
        gc.collect()
        tracemalloc.start()
        try:
            khovanov.build_complex(pd)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if metric == "trace.coverage":
        return "ratio"
    return "count"


def measure(presentations, seconds: float):
    """Untraced passes until the next one would end after `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(presentations[len(passes) % len(presentations)], spans.direct))
        if time.perf_counter() - start + statistics.median(p.wall_s for p in passes) > seconds:
            return passes, {
                "pass_cpu_s": statistics.median(p.cpu_s for p in passes),
                "max_job_cpu_s": statistics.median(p.max_job_cpu_s for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }


def measure_traced(presentations, seconds: float, trace_path: Path):
    """Pairs of an untraced and a traced pass, in alternating order, on the
    same presentation; per-layer medians of the traced passes."""
    tracer = spans.Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        pair_index = len(plain)
        job_list = presentations[pair_index % len(presentations)]
        for traced_now in (False, True) if pair_index % 2 == 0 else (True, False):
            if traced_now:
                first = tracer.begin_pass()
                with tracer.wrapped():
                    traced.append(run_pass(job_list, tracer.call, tracer))
                layers.append(tracer.pass_metrics(first, traced[-1].wall_s))
            else:
                plain.append(run_pass(job_list, spans.direct))
        pair = statistics.median(a.wall_s + b.wall_s for a, b in zip(plain, traced))
        if time.perf_counter() - start + pair > seconds:
            break
    metrics = {m: statistics.median(p[m] for p in layers) for m in layers[0]}
    metrics["khovanov.build_peak_mb"] = build_peak_mb(presentations[0])
    metrics["trace.wall_s"] = statistics.median(p.wall_s for p in traced)
    traced_cpu = statistics.median(p.cpu_s for p in traced)
    metrics["trace.cpu_s"] = traced_cpu
    metrics["trace.overhead_s"] = traced_cpu - statistics.median(p.cpu_s for p in plain)
    trace_path.parent.mkdir(exist_ok=True)
    trace_path.write_text(json.dumps({"spans": tracer.dump(), "passes": layers}))
    return plain + traced, metrics


def run_workload(args) -> int:
    use_checkout_package()
    presentations, setup_s = set_up(args.workload, args.seed, args.tiny)
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        passes, metrics = measure_traced(presentations, args.seconds, trace_path)
        print(f"benchmark: spans written to {trace_path}", file=sys.stderr)
    else:
        passes, metrics = measure(presentations, args.seconds)
        metrics["setup_s"] = setup_s
    attempted = sum(p.jobs for p in passes)
    failed = sum(p.failed for p in passes)
    shown = ", ".join(f"{m} {v:.4g}" for m, v in metrics.items() if not args.trace or m.startswith("trace."))
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes, {shown}, "
        f"pass wall {statistics.median(p.wall_s for p in passes):.4g} s, "
        f"error_rate {failed / attempted:.4g} ({failed} of {attempted} jobs failed)"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another, then a combined result."""
    results = {}
    for workload in generate.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        print(proc.stdout, end="", flush=True)
        try:
            results[workload] = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):  # the child died before its result line
            results[workload] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {w: r["metrics"] for w, r in results.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*generate.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="the self-test's small input subset")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
