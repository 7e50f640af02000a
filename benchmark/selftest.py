"""Smoke self-test of the benchmark at tiny sizes.

    python3 benchmark/selftest.py

For every workload it runs run.py with --tiny untraced and traced, and
checks that the last output line is a result object naming every metric of
BENCHMARK.json with its unit, that the outputs passed their checks, and
that in the traced run the layer self times plus the benchmark's own time
account for the traced wall time. It also checks that the benchmark fails
without printing a result when the program's sources are absent. Exits 0
when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
# share of the traced wall time that neither spans nor the benchmark's own
# timers cover (wrapper entry and exit, timer calls)
MAX_RESIDUAL = 0.02


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{where}: missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} has unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r} is not a finite number")
    if trace:
        report = json.loads((HERE / "out" / f"result-{workload}-seed{SEED}-trace1.json").read_text())
        acc = report["accounting"]
        if abs(acc["residual_frac"]) > MAX_RESIDUAL:
            problems.append(f"{where}: layer self {acc['layer_self_s']} s + own "
                            f"{acc['bench_own_s']} s leave {acc['residual_frac']:.2%} of the "
                            f"traced {acc['traced_loop_s']} s unaccounted")
        if not math.isclose(acc["layer_self_s"], acc["dispatch_total_s"], rel_tol=1e-6):
            problems.append(f"{where}: self times sum to {acc['layer_self_s']} s, "
                            f"dispatch spans to {acc['dispatch_total_s']} s")
        if acc["missing"]:
            problems.append(f"{where}: traced names not found: {acc['missing']}")
    return problems


def check_fails_without_sources() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "bench-girvan", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or "\"correct\"" in proc.stdout:
        return ["benchmark did not fail without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_fails_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_result(workload, trace, spec)
            print(f"checked {workload} trace={trace}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
