"""The in-place forge against the copying one it replaced.

The eigensolve runs LAPACK's dsyevd, step by step, on the caller's buffer,
the filter, back-transformation and normalization overwrite one array, the
entropy fills one vector a chunk at a time, and the sampler draws in row
panels. Each must
equal the former copying expression (kept in conftest.py) bit for bit, on
both solver paths, and the dense peak must stay inside the memory guard.
"""

import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphforge import evaluate, graph, spectral
from graphforge.forge import (
    ForgedDistribution,
    back_transform,
    fit,
    forge_dense_bytes,
    normalize,
)
from graphforge.generators import PlantedPartitionConfig, planted_partition
from graphforge.graph import write_edge_list
from graphforge.spectral import eigendecompose, low_rank_approx, modularity_matrix

from conftest import (
    former_eigendecompose,
    former_entropy,
    former_modularity_matrix,
    former_probabilities,
    former_sample_dyads,
)

# the package exports the function `forge` under the module's name
forge_mod = importlib.import_module("graphforge.forge")

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _planted(n=500, communities=5, seed=3):
    return planted_partition(PlantedPartitionConfig(
        n=n, communities=communities, p_in=0.1, p_out=0.01, seed=seed))[0]


def _near_symmetric():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(40, 40))
    m = (m + m.T) / 2
    m[3, 17] += 7e-10
    m[30, 2] -= 4e-10
    return m


def _random_symmetric(n, seed):
    m = np.random.default_rng(seed).normal(size=(n, n))
    return (m + m.T) / 2


MATRICES = {
    "n0": lambda: np.zeros((0, 0)),
    "n1": lambda: np.array([[2.5]]),
    # dsyevd returns order 1 before it scales, so the entry stays infinite
    "n1_inf": lambda: np.array([[np.inf]]),
    "n2": lambda: np.array([[0.0, 1.0], [1.0, 0.0]]),
    # +-1, each twice: ties in modulus and in value
    "ties": lambda: np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]]),
    "random_96": lambda: _random_symmetric(96, 11),
    # dsyevd hands dormtr a workspace that sets its block size to 14 here
    "random_70": lambda: _random_symmetric(70, 12),
    # norms outside [2^-485, 2^485], which dsyevd scales first
    "random_70_x1e200": lambda: _random_symmetric(70, 12) * 1e200,
    "random_70_x1e-160": lambda: _random_symmetric(70, 12) * 1e-160,
    "random_70_x1e-310": lambda: _random_symmetric(70, 12) * 1e-310,
    "near_symmetric": _near_symmetric,
    "planted_500": lambda: former_modularity_matrix(_planted()),
}


def _without_in_place_solver(monkeypatch):
    monkeypatch.setattr(spectral, "_lapack_eigensolver", lambda: None)
    monkeypatch.setattr(forge_mod, "_lapack_eigensolver", lambda: None)


@pytest.fixture(params=["in_place", "eigh"])
def solver(request, monkeypatch):
    if request.param == "eigh":
        _without_in_place_solver(monkeypatch)
    elif spectral._lapack_eigensolver() is None:
        pytest.skip("this numpy does not export LAPACK dsyevd's steps")
    return request.param


@pytest.mark.parametrize("name", MATRICES)
def test_eigendecompose_equals_eigh_reference(solver, name):
    m = MATRICES[name]()
    kept = m.copy()
    values, vectors = former_eigendecompose(m.copy())
    eig = eigendecompose(m)
    assert np.array_equal(eig.eigenvalues, values)
    assert np.array_equal(eig.eigenvectors, vectors)
    assert eig.eigenvectors.strides == vectors.strides
    assert eig.eigenvectors.flags.f_contiguous == vectors.flags.f_contiguous
    assert np.array_equal(m, kept)


@pytest.mark.parametrize("transformation", ["modularity", "adjacency"])
def test_fit_equals_eigh_reference(solver, transformation):
    g = _planted()
    m = former_modularity_matrix(g) if transformation == "modularity" else g.adjacency()
    values, vectors = former_eigendecompose(m)
    eig = fit(g, transformation).eig
    assert np.array_equal(eig.eigenvalues, values)
    assert np.array_equal(eig.eigenvectors, vectors)
    assert eig.eigenvectors.flags.f_contiguous


def test_infinite_input_matches_numpy(solver):
    m = np.ones((3, 3))
    m[0, 0] = np.inf
    try:
        values, vectors = former_eigendecompose(m.copy())
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError), warnings.catch_warnings():
            warnings.simplefilter("error")
            eigendecompose(m)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = eigendecompose(m)
    np.testing.assert_array_equal(eig.eigenvalues, values)
    np.testing.assert_array_equal(eig.eigenvectors, vectors)


def test_forge_dense_bytes_follows_the_solver(monkeypatch):
    if spectral._lapack_eigensolver() is not None:
        assert forge_dense_bytes(1000) == 8 * 1000 * 1000 * 3.5
    _without_in_place_solver(monkeypatch)
    assert forge_dense_bytes(1000) == 8 * 1000 * 1000 * 5


def test_modularity_matrix_equals_the_outer_product_form():
    g = _planted()
    assert np.array_equal(modularity_matrix(g), former_modularity_matrix(g))


@pytest.mark.parametrize("rule", ["truncate", "logistic", "scale"])
@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.9, 1.0])
def test_public_steps_equal_the_copying_expressions(rule, alpha):
    g = _planted()
    model = fit(g)
    values, vectors = model.eig.eigenvalues, model.eig.eigenvectors
    approx = low_rank_approx(model.eig, alpha)
    r = spectral.retained_rank(alpha, g.n)
    if r:
        v = vectors[:, :r]
        product = (v * values[:r]) @ v.T
        assert np.array_equal(approx, (product + product.T) / 2.0)
    kept = approx.copy()
    a_tilde = back_transform(approx, model.degrees)
    k = model.degrees.astype(float)
    assert np.array_equal(a_tilde, kept + np.outer(k, k) / k.sum())
    assert np.array_equal(approx, kept)
    kept = a_tilde.copy()
    p = normalize(a_tilde, rule)
    assert np.array_equal(a_tilde, kept)
    assert np.array_equal(p, former_probabilities(values, vectors, model.degrees, alpha, rule))
    assert np.array_equal(model.at(alpha, rule).probabilities, p)


def test_entropy_equals_the_one_shot_form(monkeypatch):
    p = fit(_planted()).at(0.5, "logistic").probabilities
    expected = former_entropy(p)
    for chunk in (1, 7, 1 << 16):
        monkeypatch.setattr(forge_mod, "_ENTROPY_CHUNK", chunk)
        report = ForgedDistribution(p).entropy()
        assert (report.raw_bits, report.density) == expected


@pytest.mark.parametrize("panel", [1, 7, 100, 1 << 16])
def test_panel_sampler_equals_the_one_shot_sampler(monkeypatch, panel):
    monkeypatch.setattr(graph, "_DYAD_PANEL", panel)
    cfg = PlantedPartitionConfig(n=60, communities=3, p_in=0.3, p_out=0.05, seed=4)
    labels = np.arange(60) // 20
    rows, cols = former_sample_dyads(60, 4, lambda r, c: np.where(labels[r] == labels[c], 0.3, 0.05))
    g = planted_partition(cfg)[0]
    assert np.array_equal(g.rows, rows) and np.array_equal(g.cols, cols)
    p = fit(g).at(0.3, "logistic").probabilities
    out = ForgedDistribution(p).sample(9)
    rows, cols = former_sample_dyads(60, 9, lambda r, c: p[r, c])
    assert np.array_equal(out.rows, rows) and np.array_equal(out.cols, cols)
    for n in (0, 1, 2):
        assert graph.sample_dyads(n, 1, lambda r, c: np.ones(r.shape)).num_edges == n * (n - 1) // 2


def test_sampler_refuses_edges_that_outgrow_memory(monkeypatch):
    monkeypatch.setattr(graph, "dense_budget", lambda: 100 * graph._BYTES_PER_SAMPLED_EDGE)
    monkeypatch.setattr(graph, "_DYAD_PANEL", 10)
    assert graph.sample_dyads(14, 0, lambda r, c: np.ones(r.shape)).num_edges == 91
    with pytest.raises(ValueError, match="n = 16 needs an estimated"):
        graph.sample_dyads(16, 0, lambda r, c: np.ones(r.shape))


def _subprocess(script, *args, threads=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")])))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=240, stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


_BIT_EQUAL = """
import numpy as np
from conftest import (former_eigendecompose, former_entropy, former_modularity_matrix,
                      former_probabilities)
from graphforge.forge import fit
from graphforge.generators import PlantedPartitionConfig, planted_partition
g, _ = planted_partition(PlantedPartitionConfig(n=500, communities=5, p_in=0.1, p_out=0.01, seed=3))
values, vectors = former_eigendecompose(former_modularity_matrix(g))
model = fit(g)
assert np.array_equal(model.eig.eigenvalues, values)
assert np.array_equal(model.eig.eigenvectors, vectors)
for alpha in (0.1, 0.9):
    for rule in ("truncate", "logistic", "scale"):
        dist = model.at(alpha, rule)
        p = former_probabilities(values, vectors, model.degrees, alpha, rule)
        assert np.array_equal(dist.probabilities, p), (alpha, rule)
        report = dist.entropy()
        assert (report.raw_bits, report.density) == former_entropy(p), (alpha, rule)
print("bit-equal")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_in_place_forge_is_bit_equal_under_each_blas_thread_count(threads):
    # equality with the former code under one thread count; whether the bytes
    # also agree across thread counts is a separate question (not claimed)
    assert _subprocess(_BIT_EQUAL, threads=threads) == ["bit-equal"]


# Peak RSS growth of the forge in a fresh process, after a forge at n = 600
# has started BLAS (its threads' buffers are not n^2 arrays): at alpha 0.5,
# since a forge at alpha 0 or 1 solves nothing and starts no BLAS. The allocator
# maps arrays above its threshold fresh, so the n = 1200 arrays are counted.
# The peak is VmHWM, not ru_maxrss: Linux carries the peak of the process
# that ran exec (here the test runner) into the new program's ru_maxrss.
# Two BLAS threads, whatever the machine, bound the buffers BLAS adds.
_PEAK_PRELUDE = """
import sys
import numpy as np
from graphforge.forge import ForgeConfig, forge
from graphforge.generators import PlantedPartitionConfig, planted_partition
from graphforge.graph import load_edge_list

def status(key):
    with open("/proc/self/status") as lines:
        return next(int(line.split()[1]) * 1024 for line in lines if line.startswith(key))

def rss():
    return status("VmRSS:")

def peak():
    return status("VmHWM:")

warm, _ = planted_partition(PlantedPartitionConfig(n=600, communities=4, p_in=0.1, p_out=0.01, seed=1))
forge(warm, ForgeConfig(alpha=0.5, seed=1))
del warm
g = load_edge_list(open(sys.argv[1]).read())
g._neighbors
"""

_FORGE_PEAK = _PEAK_PRELUDE + """
base = rss()
forge(g, ForgeConfig(alpha=float(sys.argv[2]), seed=1))
print(peak() - base)
"""

_CELL_PEAK = _PEAK_PRELUDE + """
from graphforge.evaluate import AttackConfig, _score_output, dv_attack
from graphforge.forge import SpectralModel
from graphforge.spectral import EigenDecomposition
saved = np.load(sys.argv[2])
model = SpectralModel(saved["degrees"], EigenDecomposition(saved["values"], saved["vectors"]),
                      "modularity")
base = rss()
for alpha in (1.0, 0.1):
    dist = model.at(alpha)
    dist.entropy()
    out = dist.sample(1)
    _score_output(out, 2)
    dv_attack(g, out, AttackConfig(seed_fraction=0.05, seed=3))
    del dist, out
print(peak() - base)
"""

needs_proc = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                reason="reads the resident set size from /proc")


@pytest.fixture(scope="module")
def planted_1200(tmp_path_factory):
    g = _planted(n=1200, communities=4, seed=1)
    path = tmp_path_factory.mktemp("planted") / "planted_1200.el"
    path.write_text(write_edge_list(g))
    return g, path


@needs_proc
@pytest.mark.parametrize("alpha", ["1.0", "0.1"])
def test_forge_peak_stays_inside_the_guard(planted_1200, alpha):
    g, path = planted_1200
    grown = int(_subprocess(_FORGE_PEAK, path, alpha, threads="2")[0])
    n2 = 8 * g.n * g.n
    # a peak under 2 arrays (1 where alpha keeps every term or none, which
    # solves nothing) would mean the measurement missed the forge
    floor = 1 if spectral.retained_rank(float(alpha), g.n) in (0, g.n) else 2
    assert floor * n2 < grown <= forge_dense_bytes(g.n)


@needs_proc
def test_sweep_cell_peak_stays_inside_its_cell_bytes(planted_1200, tmp_path, monkeypatch):
    g, path = planted_1200
    recorded = []

    def record(cell, count, cell_bytes):
        recorded.append(cell_bytes)
        return [(0.0, [], ())] * (count - 1) + [1.0]

    monkeypatch.setattr(evaluate, "_map_cells", record)
    evaluate.alpha_sweep(g, [1.0, 0.1], runs=1, rng_seed=1)
    model = fit(g)
    saved = tmp_path / "model.npz"
    np.savez(saved, degrees=model.degrees, values=model.eig.eigenvalues,
             vectors=model.eig.eigenvectors)
    grown = int(_subprocess(_CELL_PEAK, path, saved, threads="2")[0])
    assert 8 * g.n * g.n < grown <= recorded[0]


def test_the_solver_is_resolved_on_first_use():
    script = ("import graphforge.cli, graphforge.spectral as s; "
              "print(s._lapack_eigensolver.cache_info().currsize)")
    assert _subprocess(script) == ["0"]
