"""graphforge benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload generate-2k --seed 1 --seconds 36 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 36 --trace 1

Run from any directory; the program is imported from the `src/` next to this
directory. Each workload run starts PROCESSES worker processes one after the
other, each with its own set-up and warm-up and a third of the timed
seconds; every worker is one closed-loop client of `graphforge.cli.dispatch`
(see worker.py). The workers' BLAS thread count (the workload's
`blas_threads`, else the number of usable cores) and SGF_THREADS=1 are set
here, whatever the caller's environment says.

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, taken
from the tracing wrappers of tracing.py. `attempted` counts calls plus the
experiment cells run inside them; `failed` counts failed calls, failed
output checks and failed cells, so error_rate = failed / attempted. Details
of every run, the environment included, go to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import COUNTS, SOLVER_SPAN, span_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROCESSES = 3
RUN_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "graphs_per_s": "graphs/s",
    "call_p50_s": "s",
    "cpu_per_graph_s": "s/graph",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count/call"
        units[f"{name}.total_s"] = "s/call"
        units[f"{name}.self_s"] = "s/call"
    for name in COUNTS:
        units[name] = "count/call"
    units["spectral.decompositions_per_graph"] = "count/graph"
    units["baselines.warnings"] = "count/call"
    units["trace.overhead_frac"] = "ratio"
    return units


def worker_env(blas_threads: int | None) -> dict[str, str]:
    env = dict(os.environ)
    threads = str(blas_threads or len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    env["SGF_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workers(name: str, seed: int, seconds: float, trace: int, tiny: bool,
                out: Path, deadline: float) -> list[dict]:
    env = worker_env(WORKLOADS[name].blas_threads)
    work = out / f"work-{os.getpid()}-{name}"
    results = []
    try:
        for index in range(PROCESSES):
            result_path = work / f"result-{index}.json"
            work.mkdir(parents=True, exist_ok=True)
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
                   "--seed", str(seed), "--budget", repr(seconds / PROCESSES),
                   "--trace", str(trace), "--index", str(index),
                   "--work", str(work / f"w{index}"), "--result", str(result_path)]
            if trace:
                cmd += ["--spans", str(out / f"spans-{name}-seed{seed}-w{index}.jsonl")]
            if tiny:
                cmd.append("--tiny")
            # the program prints each output path; only stderr is passed on
            proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                  timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise RuntimeError(f"{name} worker {index} exited with {proc.returncode}")
            results.append(json.loads(result_path.read_text()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return results


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """Metric values and the sample count behind each."""
    walls = [w for r in results for w in r["walls"]]
    graphs = sum(r["graphs"] for r in results)
    values = {
        "graphs_per_s": graphs / sum(walls),
        "call_p50_s": statistics.median(walls),
        "cpu_per_graph_s": sum(r["cpu_s"] for r in results) / graphs,
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    samples = {
        "graphs_per_s": f"{graphs} graphs in {len(walls)} calls",
        "call_p50_s": f"median of {len(walls)} calls",
        "cpu_per_graph_s": f"{graphs} graphs",
        "setup_s": f"median of {len(results)} processes",
        "peak_rss_mb": f"median of {len(results)} processes",
    }
    return values, samples


def per_layer(results: list[dict], graphs_per_call: int) -> tuple[dict, dict]:
    """Per-call means of the traced spans and counts, and the raw totals."""
    traces = [r["trace"] for r in results]
    calls = sum(t["calls"] for t in traces)
    totals: dict[str, list] = {}
    for t in traces:
        for name, (n, total, self_s) in t["per_name"].items():
            record = totals.setdefault(name, [0, 0.0, 0.0])
            record[0] += n
            record[1] += total
            record[2] += self_s
    values = {}
    for name in span_names():
        n, total, self_s = totals.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = n / calls
        values[f"{name}.total_s"] = total / calls
        values[f"{name}.self_s"] = self_s / calls
    for name in (*COUNTS, "baselines.warnings"):
        values[name] = sum(t["counts"].get(name, 0) for t in traces) / calls
    values["spectral.decompositions_per_graph"] = (
        totals.get(SOLVER_SPAN, (0,))[0] / (calls * graphs_per_call))
    traced = [w for t in traces for w in t["walls"]]
    untraced = [w for r in results for w in r["walls"]]
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    loop_s = sum(t["loop_s"] for t in traces)
    own_s = sum(t["own_s"] for t in traces)
    layer_self_s = sum(record[2] for record in totals.values())
    accounting = {
        "traced_calls": calls,
        "traced_loop_s": loop_s,
        "layer_self_s": layer_self_s,
        "dispatch_total_s": totals.get("cli.dispatch", (0, 0.0))[1],
        "bench_own_s": own_s,
        "residual_frac": (loop_s - layer_self_s - own_s) / loop_s,
        "missing": sorted({m for t in traces for m in t["missing"]}),
        "totals": totals,
    }
    return values, accounting


def shares(workload, totals: dict) -> list[dict]:
    """Measured layer shares against the workload's stated predictions."""
    dispatch = totals["cli.dispatch"][1]
    rows = []
    for p in workload.predictions:
        if p.kind == "total":
            measured = totals.get(p.prefix, (0, 0.0))[1] / dispatch
        else:
            measured = sum(rec[2] for name, rec in totals.items()
                           if name.startswith(p.prefix)) / dispatch
        rows.append({"label": p.label, "predicted": p.describe(), "measured": measured,
                     "verdict": p.verdict(measured)})
    return rows


def module_shares(totals: dict) -> dict[str, float]:
    dispatch = totals["cli.dispatch"][1]
    out: dict[str, float] = {}
    for name, (_, _, self_s) in totals.items():
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + self_s / dispatch
    return out


def run_one(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = run_workers(name, seed, seconds, trace, tiny, out, deadline)
    workload = WORKLOADS[name](seed, out, tiny)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    env = results[0]["env"]
    print(f"[{name}] seed={seed} seconds={seconds} trace={trace} processes={PROCESSES} "
          f"client=closed-loop x1")
    print(f"[{name}] environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "attempted": attempted, "failed": failed,
              "errors": [e for r in results for e in r["errors"]]}
    if trace:
        values, accounting = per_layer(results, workload.graphs_per_call)
        units = per_layer_units()
        totals = accounting["totals"]
        report["shares"] = shares(workload, totals)
        for row in report["shares"]:
            print(f"[{name}] share {row['label']}: measured {row['measured']:.1%}, "
                  f"predicted {row['predicted']} -> {row['verdict']}")
        print(f"[{name}] self-time share by module: " + ", ".join(
            f"{m} {s:.1%}" for m, s in sorted(module_shares(totals).items(), key=lambda kv: -kv[1])))
        print(f"[{name}] accounting: traced loop {accounting['traced_loop_s']:.4f} s = layer self "
              f"{accounting['layer_self_s']:.4f} s + benchmark own {accounting['bench_own_s']:.4f} s "
              f"+ residual {accounting['residual_frac']:+.3%}")
        if accounting["missing"]:
            print(f"[{name}] not found in the program, reported as 0: {accounting['missing']}")
        report["accounting"] = accounting
    else:
        values, samples = end_to_end(results)
        units = END_TO_END_UNITS
        for metric, value in values.items():
            print(f"[{name}] {metric} = {value!r} {units[metric]} ({samples[metric]})")
        report["samples"] = {"walls": [r["walls"] for r in results],
                             "setup_s": [r["setup_s"] for r in results]}
    print(f"[{name}] error_rate = {failed / attempted!r} ratio "
          f"({failed} failed of {attempted} calls and experiment cells)")
    metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()}
    report["metrics"] = metrics
    (out / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "graphforge" / "__init__.py").is_file():
        print(f"benchmark: no graphforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one(name, args.seed, args.seconds, args.trace, args.tiny)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
