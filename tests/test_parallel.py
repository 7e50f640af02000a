"""The cell map behind `bench` and `sweep`: the forked path writes the bytes
of the serial loop, leaves no process behind, and reports errors and
warnings as the loop does.

Each path is forced by setting the free core count `_map_cells` observes; the
size threshold and the memory cap are left as shipped unless a test says
otherwise.
"""

import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from graphforge import evaluate
from graphforge.cli import dispatch
from graphforge.evaluate import Dataset, Strategy, run_experiment, trajanovski_strategy
from graphforge.forge import SpectralModel
from graphforge.generators import PlantedPartitionConfig, planted_partition
from graphforge.graph import dense_budget, write_edge_list

from conftest import disjoint_cliques

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def pools(monkeypatch):
    """Count the fork pools `_map_cells` starts."""
    started = []
    get_context = multiprocessing.get_context

    def spy(method=None):
        started.append(method)
        return get_context(method)

    monkeypatch.setattr(evaluate.multiprocessing, "get_context", spy)
    return started


def _cores(monkeypatch, count):
    monkeypatch.setattr(evaluate, "_free_cores", lambda: count)


@pytest.fixture(scope="module")
def planted_500(tmp_path_factory):
    graph, _ = planted_partition(PlantedPartitionConfig(
        n=500, communities=5, p_in=0.25, p_out=0.01, seed=1010))
    path = tmp_path_factory.mktemp("planted") / "planted500.el"
    path.write_text(write_edge_list(graph))
    return path


def _run_both_paths(monkeypatch, pools, tmp_path, argv, name):
    outputs = {}
    for cores in (1, 2):
        _cores(monkeypatch, cores)
        out_dir = tmp_path / f"cores{cores}"
        assert dispatch(argv + ["--output-dir", str(out_dir)]) == 0
        outputs[cores] = (out_dir / name).read_bytes()
        assert pools == ([] if cores == 1 else ["fork"])
    return outputs


def test_sweep_bytes_do_not_depend_on_the_core_count(monkeypatch, pools, tmp_path, planted_500):
    outputs = _run_both_paths(monkeypatch, pools, tmp_path, [
        "sweep", "--input", str(planted_500), "--alphas", "0.1:0.9:0.4", "--runs", "2",
        "--seed", "7"], "sweep.csv")
    assert outputs[1] == outputs[2]


def test_bench_bytes_do_not_depend_on_the_core_count(monkeypatch, pools, tmp_path):
    outputs = _run_both_paths(monkeypatch, pools, tmp_path, [
        "bench", "--preset", "girvan", "--strategies", "sgf:0.9,dcsbm,trajanovski",
        "--graphs", "2", "--runs", "2", "--seed", "11"], "bench_girvan.csv")
    assert outputs[1] == outputs[2]


_FORK_WITH_BLAS_THREADS = """
import hashlib, sys
from pathlib import Path
from graphforge import evaluate
from graphforge.cli import dispatch
digests = []
for cores in (1, 2):
    evaluate._free_cores = lambda: cores
    out = Path(sys.argv[2]) / f"cores{cores}"
    argv = ["sweep", "--input", sys.argv[1], "--alphas", "0.1:0.9:0.4", "--runs", "1",
            "--seed", "5", "--output-dir", str(out)]
    assert dispatch(argv) == 0
    digests.append(hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest())
print(" ".join(digests))
"""


def test_sweep_forks_safely_while_blas_threads_run(tmp_path, planted_500):
    # with two OpenBLAS threads the parent's fit starts the BLAS pool before
    # the cells fork; the timeout turns a fork deadlock into a failure
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FORK_WITH_BLAS_THREADS, str(planted_500),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=120, stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    # the last line holds the digests; the lines before it are the output paths
    serial, parallel = proc.stdout.splitlines()[-1].split()
    assert serial == parallel


def _forced(monkeypatch):
    """Take the forked path on any input."""
    _cores(monkeypatch, 2)
    monkeypatch.setattr(evaluate, "_PARALLEL_MIN_NODES", 0)


@pytest.fixture
def small_input(tmp_path):
    graph, _ = planted_partition(PlantedPartitionConfig(
        n=40, communities=2, p_in=0.4, p_out=0.05, seed=3))
    path = tmp_path / "small.el"
    path.write_text(write_edge_list(graph))
    return path


def test_no_worker_outlives_a_call(monkeypatch, pools, tmp_path, small_input, capsys):
    _forced(monkeypatch)
    argv = ["sweep", "--input", str(small_input), "--alphas", "0.1:0.9:0.4", "--runs", "1"]
    assert dispatch(argv + ["--output-dir", str(tmp_path / "ok")]) == 0
    assert multiprocessing.active_children() == []

    def failing_at(self, alpha, rule="truncate", logistic_k=6.0):
        raise ValueError(f"no distribution at alpha {alpha}")

    monkeypatch.setattr(SpectralModel, "at", failing_at)
    assert dispatch(argv + ["--output-dir", str(tmp_path / "failed")]) == 2
    assert multiprocessing.active_children() == []
    assert pools == ["fork", "fork"]
    assert "no distribution at alpha 0.1" in capsys.readouterr().err


def test_sweep_reports_the_lowest_failing_cell(monkeypatch, tmp_path, small_input, capsys):
    # cell 1 fails last in time and cell 2 first; the loop would stop at cell 1
    _forced(monkeypatch)
    at = SpectralModel.at

    def slow_failures(self, alpha, rule="truncate", logistic_k=6.0):
        if alpha == 0.5:
            time.sleep(0.5)
            raise ValueError("cell 1 failed")
        if alpha == 0.9:
            raise ValueError("cell 2 failed")
        return at(self, alpha, rule, logistic_k)

    monkeypatch.setattr(SpectralModel, "at", slow_failures)
    rc = dispatch(["sweep", "--input", str(small_input), "--alphas", "0.1:0.9:0.4",
                   "--runs", "1", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cell 1 failed" in err and "cell 2" not in err
    assert not (tmp_path / "sweep.csv").exists()


def test_warnings_of_parallel_cells_reach_the_caller(monkeypatch, pools):
    # disjoint cliques beat any connected skeleton, so the rewirer warns
    _forced(monkeypatch)
    dataset = Dataset("cliques", (disjoint_cliques(4, 4), disjoint_cliques(5, 5)))
    with pytest.warns(UserWarning, match="exceeds skeleton") as caught:
        run_experiment([trajanovski_strategy()], [dataset], 2, rng_seed=3)
    assert pools == ["fork"]
    assert {Path(w.filename).name for w in caught} == {"baselines.py"}
    assert len([w for w in caught if "exceeds skeleton" in str(w.message)]) == 4


def _cell_pid(index):
    return os.getpid()


def test_small_calls_and_tight_memory_run_in_process(monkeypatch, pools):
    _cores(monkeypatch, 2)
    here = os.getpid()
    threshold = evaluate._PARALLEL_MIN_NODES
    assert evaluate._map_cells(_cell_pid, 3, threshold - 1, 0) == [here] * 3
    # one cell's dense arrays take all of memory: cells run one at a time
    assert evaluate._map_cells(_cell_pid, 3, threshold, dense_budget()) == [here] * 3
    assert pools == []
    pids = evaluate._map_cells(_cell_pid, 3, threshold, dense_budget() // 2)
    assert here not in pids and pools == ["fork"]


def test_tiny_bench_runs_in_process(monkeypatch, pools):
    # a cell that ran in a worker would fail and show as a failures row
    _cores(monkeypatch, 2)
    here = os.getpid()

    def make(graph, seed):
        if os.getpid() != here:
            raise RuntimeError("ran in a worker")
        return graph

    rows = run_experiment([Strategy("same", make)],
                          [Dataset("d", (disjoint_cliques(6, 6), disjoint_cliques(4, 4, 4)))],
                          3, rng_seed=1)
    assert pools == []
    assert "failures" not in {row.metric for row in rows}


def _warn_or_fail(index):
    warnings.warn(f"cell {index} warns", UserWarning)
    if index >= 1:
        if index == 1:
            time.sleep(0.3)
        raise ValueError(f"cell {index} fails")
    return index


class _LocalError(Exception):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def _unpicklable_failure(index):
    raise _LocalError(index, "no single-argument constructor")


def test_cell_errors_and_warnings_come_back_in_cell_order(monkeypatch):
    _forced(monkeypatch)
    with pytest.warns(UserWarning) as caught, pytest.raises(ValueError, match="cell 1 fails"):
        evaluate._map_cells(_warn_or_fail, 3, 0, 0)
    # the loop would have warned in cells 0 and 1 and stopped at cell 1
    assert [str(w.message) for w in caught] == ["cell 0 warns", "cell 1 warns"]
    assert all(Path(w.filename).name == "test_parallel.py" for w in caught)
    with pytest.raises(RuntimeError, match="_LocalError: 0: no single-argument constructor"):
        evaluate._map_cells(_unpicklable_failure, 2, 0, 0)
    assert multiprocessing.active_children() == []


_FREE_CORES = """
import os, threading
from graphforge import evaluate
idle = threading.Event()
thread = threading.Thread(target=idle.wait)
thread.start()
print(evaluate._free_cores(), len(os.sched_getaffinity(0)))
idle.set()
thread.join()
"""


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_blas_pool_threads_take_cores_from_the_workers(blas_threads):
    # a Python thread takes no core from the workers; a BLAS pool does, since
    # every forked worker starts it again
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FREE_CORES], env=env, capture_output=True,
                          text=True, timeout=60, stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    free, cores = (int(v) for v in proc.stdout.split())
    if blas_threads == "1" or cores == 1:
        assert free == cores
    else:
        assert free < cores
