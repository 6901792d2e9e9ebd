"""Fast self-test of the benchmark.

    python3 benchmark/selftest.py

Runs every workload on its tiny input subset (3_1 and 4_1, 3_1#-3_1, C^1
against C^2, the T(2,5) cube), untraced and traced.  Each run must exit 0,
fail no job, and print exactly the metrics BENCHMARK.json names, each with
the unit BENCHMARK.json gives it.  It then checks that a wrong answer fails
its job, and that the benchmark exits nonzero without printing a result in
a directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 300


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    spec = json.loads((cwd / "BENCHMARK.json").read_text())
    return subprocess.run(
        [*spec["command"], *args], cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S
    )


def check_workloads(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
            require(proc.returncode == 0, (workload, trace, proc.returncode))
            result = json.loads(proc.stdout.splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            require(units == {m["name"]: m["unit"] for m in spec[kind]}, (workload, trace, units))
            print(f"ok {workload} --trace {trace}: {len(units)} metrics, error_rate 0")


def check_wrong_answer_fails() -> None:
    sys.path.insert(0, str(BENCH))
    import generate
    import run
    import spans

    run.use_checkout_package()
    job = generate.make_jobs("knots_small", 1, tiny=True)[0][0]
    wrong = dataclasses.replace(job, expect=((99,) * len(generate.CHARS), (99,)))
    require(run.run_pass([job, wrong], spans.direct).failed == 1, "wrong answer not counted")
    print("ok a wrong answer fails its job")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "--workload", "knots_small", "--seed", "1", "--seconds", "1", "--trace", "0")
    require(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
    shutil.rmtree(bare)
    print("ok without the package the benchmark exits nonzero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_workloads(spec)
    check_wrong_answer_fails()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
