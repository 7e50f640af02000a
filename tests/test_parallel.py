"""The cell map behind `bench` and `sweep`: the forked path writes the bytes
of the serial loop, leaves no process behind, and reports errors and
warnings as the loop does.

Each path is forced by setting the free core count `_map_cells` observes; the
memory cap is left as shipped unless a test says otherwise.
"""

import gc
import os
import signal
import subprocess
import sys
import time
import warnings
import weakref
from collections import Counter
from pathlib import Path

import pytest

from graphforge import cells, evaluate
from graphforge.cli import dispatch
from graphforge.community import louvain_maximize
from graphforge.evaluate import (
    Dataset,
    SweepRow,
    alpha_sweep,
    dcsbm_strategy,
    experiment_csv,
    run_experiment,
    sgf_strategy,
    trajanovski_strategy,
)
from graphforge.forge import SpectralModel
from graphforge.generators import PlantedPartitionConfig, planted_partition
from graphforge.graph import dense_budget, write_edge_list

from conftest import _time_limit, complete_graph, disjoint_cliques

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers `_map_cells` forks, as the caller sees them."""
    forked = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(cells.os, "fork", spy)
    return forked


def _cores(monkeypatch, count):
    monkeypatch.setattr(cells, "_free_cores", lambda: count)


def _assert_no_child():
    # raises only when this process has no child, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def planted_500(tmp_path_factory):
    graph, _ = planted_partition(PlantedPartitionConfig(
        n=500, communities=5, p_in=0.25, p_out=0.01, seed=1010))
    path = tmp_path_factory.mktemp("planted") / "planted500.el"
    path.write_text(write_edge_list(graph))
    return path


def _run_both_paths(monkeypatch, forks, tmp_path, argv, name):
    outputs = {}
    for cores in (1, 2):
        _cores(monkeypatch, cores)
        out_dir = tmp_path / f"cores{cores}"
        assert dispatch(argv + ["--output-dir", str(out_dir)]) == 0
        outputs[cores] = (out_dir / name).read_bytes()
        assert len(forks) == (0 if cores == 1 else 2)
        _assert_no_child()
    return outputs


@pytest.fixture
def small_input(tmp_path):
    graph, _ = planted_partition(PlantedPartitionConfig(
        n=40, communities=2, p_in=0.4, p_out=0.05, seed=3))
    path = tmp_path / "small.el"
    path.write_text(write_edge_list(graph))
    return path


# the 40-node input's cells run Louvain's chain refinement; a single alpha
# forks too, its one cell beside the input's score
@pytest.mark.parametrize("graph_input, grid", [
    pytest.param("planted_500", ["--alphas", "0.1:0.9:0.4", "--runs", "2"], id="planted_500"),
    pytest.param("small_input", ["--alphas", "0.1:0.9:0.4", "--runs", "2"], id="small_input"),
    pytest.param("small_input", ["--alphas", "0.5", "--runs", "3"], id="small_input-one_alpha"),
])
def test_sweep_bytes_do_not_depend_on_the_core_count(monkeypatch, forks, tmp_path, request,
                                                     graph_input, grid):
    outputs = _run_both_paths(monkeypatch, forks, tmp_path, [
        "sweep", "--input", str(request.getfixturevalue(graph_input)), *grid,
        "--seed", "7"], "sweep.csv")
    assert outputs[1] == outputs[2]


@pytest.mark.parametrize("cores", [1, 2])
def test_sweep_ratio_branches_do_not_depend_on_the_core_count(monkeypatch, forks, tmp_path,
                                                              cores):
    # a complete graph's Q* is 0, so no run has a ratio and the CSV reads NA;
    # under the adjacency transform alpha 0 keeps no term and samples an
    # edgeless output, whose Q* is 0
    _cores(monkeypatch, cores)
    complete = complete_graph(8)
    assert alpha_sweep(complete, [0.1, 0.9], runs=1, rng_seed=3) == [
        SweepRow(0.1, 0.15042217472167926, (), (0.14285714285714285,)),
        SweepRow(0.9, 0.0, (), (1.0,)),
    ]
    small, _ = planted_partition(PlantedPartitionConfig(
        n=40, communities=2, p_in=0.4, p_out=0.05, seed=3))
    assert alpha_sweep(small, [0.0, 0.5], runs=1, rng_seed=3, transformation="adjacency") == [
        SweepRow(0.0, 0.0, (0.0,), (0.0,)),
        SweepRow(0.5, 0.11267555369445029, (0.8173558838650068,), (0.3157894736842105,)),
    ]
    path = tmp_path / "complete.el"
    path.write_text(write_edge_list(complete))
    assert dispatch(["sweep", "--input", str(path), "--alphas", "0.1", "--runs", "1",
                     "--seed", "3", "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1] == (
        "0.1,NA,0.15042217472167926,0.14285714285714285")
    assert len(forks) == (0 if cores == 1 else 2 * 3)


def test_bench_bytes_do_not_depend_on_the_core_count(monkeypatch, forks, tmp_path):
    outputs = _run_both_paths(monkeypatch, forks, tmp_path, [
        "bench", "--preset", "girvan", "--strategies", "sgf:0.9,dcsbm,trajanovski",
        "--graphs", "2", "--runs", "2", "--seed", "11"], "bench_girvan.csv")
    assert outputs[1] == outputs[2]


def test_forked_cells_score_each_input_once_per_process(monkeypatch, forks, tmp_path):
    # the input scores are computed in the cells, so the workers share them
    # out and each process maximizes a given input at most once
    large = tuple(planted_partition(PlantedPartitionConfig(
        n=128, communities=4, p_in=0.3, p_out=0.03, seed=s))[0] for s in (1, 2))
    small, _ = planted_partition(PlantedPartitionConfig(
        n=40, communities=2, p_in=0.4, p_out=0.05, seed=3))
    datasets = [Dataset("large", large), Dataset("small", (small,))]
    inputs = large + (small,)
    log = tmp_path / "maximized.log"

    def spy(graph, rng_seed):
        for index, input_graph in enumerate(inputs):
            if graph is input_graph:
                with log.open("a") as f:
                    f.write(f"{os.getpid()} {index}\n")
        return louvain_maximize(graph, rng_seed)

    monkeypatch.setattr(evaluate, "louvain_maximize", spy)
    csv = {}
    for cores in (1, 2):
        _cores(monkeypatch, cores)
        csv[cores] = experiment_csv(run_experiment([sgf_strategy(0.9), dcsbm_strategy()],
                                                   datasets, 2, rng_seed=6))
        calls = Counter(tuple(line.split()) for line in log.read_text().splitlines())
        log.unlink()
        assert set(calls.values()) == {1}
        per_input = Counter(index for _, index in calls)
        assert sorted(per_input) == ["0", "1", "2"]
        assert max(per_input.values()) <= cores
    assert len(forks) == 2
    assert csv[1] == csv[2]


def test_forked_sweep_maximizes_its_input_once(monkeypatch, forks, tmp_path):
    # the input's score is a task of its own, so one process in all runs it
    graph, _ = planted_partition(PlantedPartitionConfig(
        n=96, communities=3, p_in=0.3, p_out=0.03, seed=5))
    log = tmp_path / "maximized.log"

    def spy(maximized, rng_seed):
        with log.open("a") as f:
            f.write(f"{os.getpid()} {'input' if maximized is graph else 'output'}\n")
        return louvain_maximize(maximized, rng_seed)

    monkeypatch.setattr(evaluate, "louvain_maximize", spy)
    _cores(monkeypatch, 2)
    alpha_sweep(graph, [0.1, 0.5, 0.9], runs=2, rng_seed=9)
    calls = [line.split() for line in log.read_text().splitlines()]
    assert Counter(kind for _, kind in calls) == {"input": 1, "output": 3 * 2}
    assert str(os.getpid()) not in {pid for pid, _ in calls}
    assert len(forks) == 2


_FORK_WITH_BLAS_THREADS = """
import hashlib, sys
from pathlib import Path
from graphforge import cells
from graphforge.cli import dispatch
digests = []
for cores in (1, 2):
    cells._free_cores = lambda: cores
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


def _sleeping(index):
    time.sleep(60)
    return index


def test_no_worker_outlives_a_call(monkeypatch, forks, tmp_path, small_input, capsys):
    _cores(monkeypatch, 2)
    argv = ["sweep", "--input", str(small_input), "--alphas", "0.1:0.9:0.4", "--runs", "1"]
    assert dispatch(argv + ["--output-dir", str(tmp_path / "ok")]) == 0
    _assert_no_child()

    def failing_at(self, alpha, rule="truncate", logistic_k=6.0):
        raise ValueError(f"no distribution at alpha {alpha}")

    monkeypatch.setattr(SpectralModel, "at", failing_at)
    assert dispatch(argv + ["--output-dir", str(tmp_path / "failed")]) == 2
    _assert_no_child()
    assert len(forks) == 2 * 2
    assert "no distribution at alpha 0.1" in capsys.readouterr().err
    # an exception raised in the caller while the workers run, here by a
    # time limit, ends them too
    start = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match="0.5 s time limit"):
        with _time_limit(0.5):
            cells._map_cells(_sleeping, 3, 0)
    assert time.monotonic() - start < 30
    assert len(forks) == 2 * 3
    _assert_no_child()


def test_sweep_reports_the_lowest_failing_cell(monkeypatch, tmp_path, small_input, capsys):
    # cell 1 fails last in time and cell 2 first; the loop would stop at cell 1
    _cores(monkeypatch, 2)
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


def test_warnings_of_parallel_cells_reach_the_caller(monkeypatch, forks):
    # disjoint cliques beat any connected skeleton, so the rewirer warns
    _cores(monkeypatch, 2)
    dataset = Dataset("cliques", (disjoint_cliques(4, 4), disjoint_cliques(5, 5)))
    with pytest.warns(UserWarning, match="exceeds skeleton") as caught:
        run_experiment([trajanovski_strategy()], [dataset], 2, rng_seed=3)
    assert len(forks) == 2
    assert {Path(w.filename).name for w in caught} == {"baselines.py"}
    assert len([w for w in caught if "exceeds skeleton" in str(w.message)]) == 4


_REWIRING_WARNING = """
import sys
from graphforge import cells
from graphforge.cli import dispatch
cells._free_cores = lambda: int(sys.argv[1])
sys.exit(dispatch(["bench", "--preset", "planted", "--nodes", "32", "--communities", "4",
                   "--p-in", "1", "--p-out", "0", "--graphs", "2", "--runs", "3",
                   "--strategies", "trajanovski", "--seed", "3", "--output-dir", sys.argv[2]]))
"""


def test_a_call_prints_the_same_warnings_at_any_core_count(tmp_path):
    # every one of the six cells warns that it cannot rewire; under the
    # default filters the call prints that warning once, forked or not.
    # pytest's own warning capture would hide the difference, hence a
    # subprocess per core count
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outputs = []
    for cores in (1, 2):
        out = tmp_path / f"cores{cores}"
        proc = subprocess.run([sys.executable, "-c", _REWIRING_WARNING, str(cores), str(out)],
                              env=env, capture_output=True, text=True, timeout=120,
                              stdin=subprocess.DEVNULL)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stderr, (out / "bench_planted.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count("exceeds skeleton modularity") == 1


def _cell_pid(index):
    return os.getpid()


def test_tight_memory_runs_in_process(monkeypatch, forks):
    _cores(monkeypatch, 2)
    here = os.getpid()
    # one cell's dense arrays take all of memory: cells run one at a time
    assert cells._map_cells(_cell_pid, 3, dense_budget()) == [here] * 3
    assert forks == []
    pids = cells._map_cells(_cell_pid, 3, dense_budget() // 2)
    assert here not in pids and len(forks) == 2


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
    _cores(monkeypatch, 2)
    with pytest.warns(UserWarning) as caught, pytest.raises(ValueError, match="cell 1 fails"):
        cells._map_cells(_warn_or_fail, 3, 0)
    # the loop would have warned in cells 0 and 1 and stopped at cell 1
    assert [str(w.message) for w in caught] == ["cell 0 warns", "cell 1 warns"]
    assert all(Path(w.filename).name == "test_parallel.py" for w in caught)
    with pytest.raises(RuntimeError, match="_LocalError: 0: no single-argument constructor"):
        cells._map_cells(_unpicklable_failure, 2, 0)
    _assert_no_child()


_FREE_CORES = """
import os, threading
from graphforge import cells
idle = threading.Event()
thread = threading.Thread(target=idle.wait)
thread.start()
print(cells._free_cores(), len(os.sched_getaffinity(0)))
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


_BACK_TO_BACK = """
import os
from graphforge import cells
def cell(index):
    return os.getpid()
for _ in range(2):
    print(any(pid != os.getpid() for pid in cells._map_cells(cell, 3, 1)))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable cores")
def test_back_to_back_calls_both_fork():
    # the first call leaves no thread or process behind, and the native
    # threads are counted once per process, so the second call finds the
    # same free cores
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _BACK_TO_BACK], env=env, capture_output=True,
                          text=True, timeout=60, stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


_KILLED_WORKER = """
import os, signal, sys, time
from pathlib import Path
from graphforge import cells
from graphforge.cli import dispatch
from graphforge.forge import SpectralModel
cells._free_cores = lambda: 2


def cell(index):
    if index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    if index >= 2:
        time.sleep(60)  # the other worker is still busy when the call fails
    return index


start = time.monotonic()
try:
    cells._map_cells(cell, 4, 1)
except ChildProcessError as exc:
    print(exc)
print(time.monotonic() - start)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child")


def killed_at(self, alpha, rule="truncate", logistic_k=6.0):
    os.kill(os.getpid(), signal.SIGKILL)


SpectralModel.at = killed_at
print(dispatch(["sweep", "--input", sys.argv[1], "--alphas", "0.1:0.9:0.4", "--runs", "1",
                "--output-dir", sys.argv[2]]))
"""


def test_a_killed_worker_fails_the_call(tmp_path, small_input):
    # the timeout turns a call that waits for the lost cell into a failure
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _KILLED_WORKER, str(small_input),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=60, stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    message, seconds, no_child, code = proc.stdout.splitlines()
    assert message == (f"a cell worker was killed by signal {int(signal.SIGKILL)} "
                       "before it sent its cells back")
    assert float(seconds) < 30 and no_child == "no child"
    # ChildProcessError is an OSError, so the CLI reports it and exits 2
    assert code == "2"
    assert proc.stderr.startswith("error: a cell worker was killed by signal")
    assert not (tmp_path / "sweep.csv").exists()


def _square(index):
    return index * index


def test_more_cells_than_one_pipe_buffer_holds(monkeypatch, forks):
    # 20 000 four-byte tokens overfill a 64 KiB pipe, so the caller writes
    # while the workers read
    _cores(monkeypatch, 2)
    assert cells._map_cells(_square, 20000, 0) == [_square(i) for i in range(20000)]
    assert len(forks) == 2
    _assert_no_child()


class _Held:
    pass


def test_no_reference_to_a_cell_outlives_the_call(monkeypatch, forks):
    _cores(monkeypatch, 2)
    held = _Held()
    alive = weakref.ref(held)

    def cell(index):
        return index if held else None

    assert cells._map_cells(cell, 3, 0) == [0, 1, 2]
    del cell, held
    gc.collect()
    assert alive() is None

    held = _Held()
    alive = weakref.ref(held)

    def failing(index):
        raise ValueError(f"cell {index} fails with {held}")

    with pytest.raises(ValueError, match="cell 0 fails"):
        cells._map_cells(failing, 3, 0)
    del failing, held
    gc.collect()
    assert alive() is None
    assert len(forks) == 2 * 2
