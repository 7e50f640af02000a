"""One benchmark process: set up, warm up, then call the CLI back to back.

Started by run.py with the BLAS thread count and SGF_THREADS already in its
environment. Set-up time runs from the top of this file (before numpy and
graphforge are imported) to the end of the untimed warm-up call. The timed
loop is one closed-loop client: each `graphforge.cli.dispatch` call starts
when the previous one and its output check have finished.

With --trace 1 every loop step makes the same call twice, once with the
tracing wrappers installed and once without, alternating which goes first;
the untraced walls give the tracing overhead and the traced spans give the
per-layer metrics. The result is written as JSON to --result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "SGF_THREADS": os.environ.get("SGF_THREADS"),
    }


class Client:
    """Makes calls, checks outputs and keeps the tallies of one process."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.argv = workload.argv()
        self.hashes: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, position: int) -> tuple[float, float, int]:
        """One dispatch call and its output check.

        Returns (wall seconds, process CPU seconds, warnings raised in
        graphforge.baselines); the check is not timed.
        """
        self.workload.output_path.unlink(missing_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                code = self.cli.dispatch(self.argv[position])
            except Exception:  # noqa: BLE001 - a crashing call is a failed call
                code = traceback.format_exc()
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
        self.attempted += 1 + self.workload.cells_per_call
        if code != 0:
            self.fail(f"call {self.argv[position]} returned {code}")
        else:
            self.check(position)
        return wall, cpu, sum(1 for w in caught if Path(w.filename).name == "baselines.py")

    def check(self, position: int) -> None:
        try:
            self.failed += self.workload.check(position)
            digest = hashlib.sha256(self.workload.output_path.read_bytes()).hexdigest()
        except (OSError, ValueError, IndexError) as exc:  # IndexError: empty or short file
            self.fail(f"output check failed: {exc!r}")
            return
        if self.hashes.setdefault(position, digest) != digest:
            self.fail(f"position {position}: output differs from an earlier identical call")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"benchmark: {message}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--index", type=int, required=True, help="process number in the run")
    parser.add_argument("--work", required=True, help="scratch directory for this process")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="JSON-lines file for the spans (trace only)")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import graphforge
    from graphforge import cli

    if not Path(graphforge.__file__).resolve().is_relative_to(src):
        print(f"benchmark: graphforge imported from {graphforge.__file__}, not {src}",
              file=sys.stderr)
        return 3
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.work), args.tiny)
    workload.prepare()
    client = Client(cli, workload)
    first = args.index % len(client.argv)
    client.call(first)
    setup_s = time.perf_counter() - T0

    walls, cpu_s = [], 0.0
    tracer = Tracer() if args.trace else None
    traced_walls, own_s, traced_loop_s = [], 0.0, 0.0
    step, step_walls = 0, []
    loop_start = time.perf_counter()
    # stop when the next step would end more than half a step past the
    # budget, so that the timed loop lasts the budget give or take half a step
    while step == 0 or (time.perf_counter() - loop_start
                        + 0.5 * statistics.median(step_walls) < args.budget):
        step_start = time.perf_counter()
        position = (first + step) % len(client.argv)
        for traced in ((step % 2 == 0, step % 2 == 1) if tracer else (False,)):
            if not traced:
                wall, cpu, _ = client.call(position)
                walls.append(wall)
                cpu_s += cpu
                continue
            begin = time.perf_counter()
            tracer.call_id = step
            tracer.install()
            installed = time.perf_counter()
            wall, _, warned = client.call(position)
            tracer.uninstall()
            end = time.perf_counter()
            tracer.counts["baselines.warnings"] += warned
            traced_walls.append(wall)
            own_s += (installed - begin) + (end - installed - wall)
            traced_loop_s += end - begin
        step_walls.append(time.perf_counter() - step_start)
        step += 1

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "walls": walls,
        "cpu_s": cpu_s,
        "graphs": len(walls) * workload.graphs_per_call,
        "attempted": client.attempted,
        "failed": client.failed,
        "errors": client.errors,
        "env": environment(),
    }
    if tracer:
        result["trace"] = {
            "calls": len(traced_walls),
            "walls": traced_walls,
            "per_name": tracer.per_name(),
            "counts": dict(tracer.counts),
            "missing": sorted(tracer.missing),
            "loop_s": traced_loop_s,
            "own_s": own_s,
        }
        if args.spans:
            tracer.write_spans(Path(args.spans))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
