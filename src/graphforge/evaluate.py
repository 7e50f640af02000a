"""Paired input/output metrics, the experiment harness, the alpha sweep, the
normalization study, and the distance-vector de-anonymization attack.

The harness and the sweep run their independent cells through
`_map_cells`, on every free core that memory allows, with the same results
as a plain loop.

Ratios compare a generated graph against its input: 1 means the property is
preserved. Undefined ratios (zero denominators, zero-variance correlations)
are reported as None and serialized as NA, never silently coerced to a
number.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import threading
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, TypeVar

import numpy as np
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import cdist

from . import baselines, forge as forge_mod
from .community import Partition, louvain_maximize, modularity
from .forge import ForgeConfig, fit, forge_dense_bytes
from .graph import Graph, average_clustering, degree_vector, dense_budget, require_dense_budget
from .spectral import low_rank_approx, spectral_norm

# z-score for two-sided 99% confidence under the normal approximation
Z_99 = 2.576

CSV_NA = "NA"

EXPERIMENT_CSV_HEADER = "strategy,dataset,metric,mean,std,ci99,runs"
STUDY_CSV_HEADER = "graph,family,alpha,rule,dist_spectral,dist_normed,entropy"


def seed_from(*parts: int) -> int:
    """Deterministic 64-bit sub-seed from a tuple of integers."""
    ss = np.random.SeedSequence(entropy=list(parts))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


T = TypeVar("T")

# the cell function of a forked worker, set by its initializer
_worker_cell: Callable[[int], object] | None = None


def _free_cores() -> int:
    """Usable cores per thread a forked worker would run.

    Native threads that Python did not start belong to a BLAS or OpenMP
    pool; every worker starts that pool again, and its idle threads spin,
    so each worker counts as that many threads plus its own. Without the
    Linux affinity call or /proc, the cells run in the loop.
    """
    try:
        cores = len(os.sched_getaffinity(0))
        pools = len(os.listdir("/proc/self/task")) - threading.active_count()
    except (AttributeError, OSError):
        return 1
    return cores // (1 + max(pools, 0))


def _install_cell(cell: Callable[[int], object]) -> None:
    global _worker_cell
    _worker_cell = cell


def _run_cell(index: int):
    """One cell in a worker: (result, exception or None, its warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the parent's filters judge the re-emitted copies
        try:
            result, error = _worker_cell(index), None
        except Exception as exc:  # noqa: BLE001 - re-raised by the parent in cell order
            result, error = None, exc
    if error is not None:
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:  # noqa: BLE001 - an exception the pool could not carry back
            error = RuntimeError(f"{type(error).__name__}: {error}")
    return result, error, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _map_cells(cell: Callable[[int], T], count: int, cell_bytes: int) -> list[T]:
    """[cell(i) for i in range(count)], on every free core memory allows.

    `cell_bytes` is the dense-array peak of one cell. With two free cores
    (see `_free_cores`), two cells and room in physical memory for two cells
    at once, the cells run in a "fork" pool made for this call; otherwise
    they run in a loop. The workers inherit `cell` and all it reaches
    without pickling, and each cell runs the serial code with the serial
    seeds, so the results are the loop's. The pool has no more workers than
    cells fit in memory at once, and is closed before this returns. Its
    fixed cost (up to ~35 ms) outweighs the gain only on the smallest calls;
    a cell's cost is not known before it runs. Warnings raised in the cells
    are re-emitted in cell order, and the first failing cell's exception is
    raised after the warnings of the cells before it, as the loop would.
    """
    workers = min(_free_cores(), count, dense_budget() // max(cell_bytes, 1))
    if workers < 2:
        return [cell(i) for i in range(count)]
    with multiprocessing.get_context("fork").Pool(workers, _install_cell, (cell,)) as pool:
        outcomes = pool.map(_run_cell, range(count), chunksize=1)
        pool.close()
        pool.join()
    results = []
    for result, error, caught in outcomes:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if error is not None:
            raise error
        results.append(result)
    return results


@dataclass(frozen=True)
class MetricsReport:
    """Paired metrics between an input graph and one generated output."""

    modularity_ratio: float | None
    partition_number_ratio: float | None
    clustering_ratio: float | None
    degree_correlation: float | None
    attribute_modularity_ratios: dict[str, float | None] = field(default_factory=dict)

    def as_items(self) -> list[tuple[str, float | None]]:
        items = [
            ("modularity_ratio", self.modularity_ratio),
            ("partition_number_ratio", self.partition_number_ratio),
            ("clustering_ratio", self.clustering_ratio),
            ("degree_correlation", self.degree_correlation),
        ]
        for name in sorted(self.attribute_modularity_ratios):
            items.append((f"attribute:{name}", self.attribute_modularity_ratios[name]))
        return items


def _maximized(input_graph: Graph, output_graph: Graph, rng_seed: int):
    """(modularity ratio, input community count, output community count).

    Both graphs are maximized with the same Louvain seed. An edgeless output
    scores Q* = 0 with every node in its own community; the ratio is None
    when the input's Q* is 0.
    """
    if input_graph.n != output_graph.n:
        raise ValueError("input and output graphs must have the same node count")
    louvain_seed = seed_from(rng_seed, 0)
    part_in, q_in = louvain_maximize(input_graph, louvain_seed)
    if output_graph.num_edges > 0:
        part_out, q_out = louvain_maximize(output_graph, louvain_seed)
        m_out = part_out.m
    else:
        q_out, m_out = 0.0, output_graph.n
    return (None if abs(q_in) < 1e-12 else q_out / q_in), part_in.m, m_out


def modularity_ratio(input_graph: Graph, output_graph: Graph, rng_seed: int) -> float | None:
    """Q*_out / Q*_in, the modularity_ratio field of compare(input, output, rng_seed)."""
    return _maximized(input_graph, output_graph, rng_seed)[0]


def compare(input_graph: Graph, output_graph: Graph, rng_seed: int) -> MetricsReport:
    """All paired metrics for one (input, output) pair.

    Both graphs are scored with identically seeded maximization so that
    compare(g, g, seed) returns exact 1 ratios. The output inherits the
    input's attributes by index for the attribute rows.
    """
    mod_ratio, m_in, m_out = _maximized(input_graph, output_graph, rng_seed)
    part_ratio = m_out / m_in

    clust_in = average_clustering(input_graph)
    clust_out = average_clustering(output_graph)
    clust_ratio = None if clust_in == 0.0 else clust_out / clust_in

    deg_in = degree_vector(input_graph).astype(float)
    deg_out = degree_vector(output_graph).astype(float)
    if deg_in.std() == 0.0 or deg_out.std() == 0.0:
        deg_corr = None
    else:
        deg_corr = float(np.corrcoef(deg_in, deg_out)[0, 1])

    attr_ratios: dict[str, float | None] = {}
    for name, values in input_graph.attributes.items():
        part = Partition.from_labels(values)
        q_attr_in = modularity(input_graph, part)
        if abs(q_attr_in) < 1e-12:
            attr_ratios[name] = None
        elif output_graph.num_edges == 0:
            attr_ratios[name] = None
        else:
            attr_ratios[name] = modularity(output_graph, part) / q_attr_in

    return MetricsReport(
        modularity_ratio=mod_ratio,
        partition_number_ratio=part_ratio,
        clustering_ratio=clust_ratio,
        degree_correlation=deg_corr,
        attribute_modularity_ratios=attr_ratios,
    )


@dataclass(frozen=True)
class Strategy:
    """A named graph generator: (input graph, seed) -> output graph."""

    name: str
    make: Callable[[Graph, int], Graph]


def sgf_strategy(alpha: float, rule: str = "truncate", logistic_k: float = forge_mod.DEFAULT_LOGISTIC_K,
                 transformation: str = "modularity") -> Strategy:
    """The forge at one alpha; its config is checked here, before any run."""
    cfg = ForgeConfig(alpha=alpha, rule=rule, logistic_k=logistic_k,
                      transformation=transformation)

    def make(graph: Graph, seed: int) -> Graph:
        return forge_mod.forge(graph, replace(cfg, seed=seed))

    return Strategy(name=f"sgf:{alpha:g}", make=make)


def dcsbm_strategy() -> Strategy:
    """Block-model baseline parameterized from each input graph.

    The group assignment is the input's modularity-maximizing partition; the
    degree sequence and per-block edge counts are read off the input.
    """

    def make(graph: Graph, seed: int) -> Graph:
        part, _ = louvain_maximize(graph, seed_from(seed, 1))
        cfg = baselines.dcsbm_config_from(graph, part)
        return baselines.dcsbm_generate(replace(cfg, seed=seed_from(seed, 2)))

    return Strategy(name="dcsbm", make=make)


def trajanovski_strategy() -> Strategy:
    """Rewiring baseline parameterized from each input graph: its maximized
    modularity becomes the target, with matching node, edge, and community
    counts."""

    def make(graph: Graph, seed: int) -> Graph:
        part, q_star = louvain_maximize(graph, seed_from(seed, 1))
        cfg = baselines.TrajanovskiConfig(
            q_target=q_star, communities=part.m, n=graph.n,
            num_edges=graph.num_edges, seed=seed_from(seed, 2),
        )
        return baselines.trajanovski_generate(cfg)

    return Strategy(name="trajanovski", make=make)


@dataclass(frozen=True)
class Dataset:
    name: str
    graphs: tuple[Graph, ...]


@dataclass(frozen=True)
class ExperimentRow:
    strategy: str
    dataset: str
    metric: str
    mean: float | None
    std: float | None
    ci99: float | None
    runs: int


def _aggregate(values: list[float]) -> tuple[float | None, float | None, float | None]:
    if not values:
        return None, None, None
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, None, None
    std = float(arr.std(ddof=1))
    return mean, std, Z_99 * std / math.sqrt(arr.size)


def run_experiment(strategies: Sequence[Strategy], datasets: Sequence[Dataset],
                   runs_per_pair: int, rng_seed: int) -> list[ExperimentRow]:
    """Run every strategy against every dataset graph and aggregate metrics.

    Each (strategy, dataset, graph, run) cell owns a sub-seed derived from
    the master seed and its indices. Failed runs are excluded from
    aggregates and surface as a `failures` row.
    """
    if runs_per_pair < 2:
        raise ValueError("runs_per_pair must be >= 2")

    cells = [(si, di, gi, run) for si in range(len(strategies))
             for di, dataset in enumerate(datasets)
             for gi in range(len(dataset.graphs)) for run in range(runs_per_pair)]

    def cell(index: int) -> MetricsReport | None:
        si, di, gi, run = cells[index]
        graph = datasets[di].graphs[gi]
        try:
            output = strategies[si].make(graph, seed_from(rng_seed, si, di, gi, run, 0))
            return compare(graph, output, seed_from(rng_seed, si, di, gi, run, 1))
        except Exception:  # noqa: BLE001 - strategy failures become rows
            return None

    graphs = [graph for dataset in datasets for graph in dataset.graphs]
    for graph in graphs:
        average_clustering(graph)  # fills the CSR and clustering caches the cells read
    reports = iter(_map_cells(cell, len(cells),
                              forge_dense_bytes(max((g.n for g in graphs), default=0))))

    rows: list[ExperimentRow] = []
    for strategy in strategies:
        for dataset in datasets:
            metric_values: dict[str, list[float]] = {}
            failures = 0
            for _ in range(len(dataset.graphs) * runs_per_pair):
                report = next(reports)
                if report is None:
                    failures += 1
                    continue
                for metric, value in report.as_items():
                    if value is not None:
                        metric_values.setdefault(metric, []).append(value)
            for metric in sorted(metric_values):
                mean, std, ci = _aggregate(metric_values[metric])
                rows.append(ExperimentRow(strategy.name, dataset.name, metric,
                                          mean, std, ci, len(metric_values[metric])))
            if failures:
                rows.append(ExperimentRow(strategy.name, dataset.name, "failures",
                                          float(failures), None, None,
                                          len(dataset.graphs) * runs_per_pair))
    return rows


def format_value(value: float | None) -> str:
    """A metric as CSV text: NA for None or NaN, else the float's repr."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return CSV_NA
    return repr(float(value))


def experiment_csv(rows: Sequence[ExperimentRow]) -> str:
    lines = [EXPERIMENT_CSV_HEADER]
    for r in rows:
        stats = ",".join(format_value(v) for v in (r.mean, r.std, r.ci99))
        lines.append(f"{r.strategy},{r.dataset},{r.metric},{stats},{r.runs}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StudyRow:
    graph: str
    family: str
    alpha: float
    rule: str
    dist_spectral: float
    dist_normed: float | None
    entropy: float | None


def normalization_study(labeled_graphs: Sequence[tuple[str, str, Graph]],
                        alphas: Sequence[float],
                        rules: Sequence[str] = forge_mod.NORMALIZATION_RULES) -> list[StudyRow]:
    """Distance and entropy of each normalization rule across an alpha grid.

    Runs the fitted adjacency-mode pipeline (the filter acts on A itself):
    for each (graph, alpha, rule) reports the raw filter distance
    ||A - A~||_2, the post-normalization distance ||A - P||_2 to the forged
    probabilities P, and the normalized entropy of P. Rows where the scale
    rule degenerates carry None for the normalized columns.
    """
    rows: list[StudyRow] = []
    for graph_id, family, graph in labeled_graphs:
        a = graph.adjacency()
        model = fit(graph, "adjacency")
        for alpha in alphas:
            dist_spectral = spectral_norm(a - low_rank_approx(model.eig, alpha))
            for rule in rules:
                try:
                    dist = model.at(alpha, rule)
                except ValueError:
                    rows.append(StudyRow(graph_id, family, alpha, rule,
                                         dist_spectral, None, None))
                    continue
                rows.append(StudyRow(
                    graph_id, family, alpha, rule, dist_spectral,
                    spectral_norm(a - dist.probabilities),
                    dist.entropy().normalized,
                ))
    return rows


def study_csv(rows: Sequence[StudyRow]) -> str:
    lines = [STUDY_CSV_HEADER]
    for r in rows:
        values = ",".join(format_value(v) for v in (r.dist_spectral, r.dist_normed, r.entropy))
        lines.append(f"{r.graph},{r.family},{r.alpha:g},{r.rule},{values}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AttackConfig:
    seed_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.seed_fraction <= 1.0:
            raise ValueError(f"seed_fraction must lie in (0, 1], got {self.seed_fraction}")


def _seed_distances(graph: Graph, seed_nodes: Sequence[int]) -> np.ndarray:
    """Hop distances from each seed (rows) to every node (columns).

    Unreachable pairs get the sentinel n, larger than any true distance.
    """
    # the CSR holds both directions of every edge, so a directed search is exact
    dist = shortest_path(graph.csr, directed=True, unweighted=True, indices=seed_nodes)
    dist[np.isinf(dist)] = graph.n
    return dist


def random_guess_rate(n: int, seed_fraction: float) -> float:
    """Per-node success probability of uniformly guessing the mapping."""
    non_seeds = n - math.ceil(seed_fraction * n)
    return 1.0 / non_seeds if non_seeds > 0 else 1.0


def _attack_dense_bytes(n: int, seeds: int) -> int:
    """Estimated peak bytes of dense arrays of `dv_attack` with `seeds` seeds.

    Two seed-distance tables, then the squared pair distances and their
    integer key (9 bytes a pair); in the walk, the argsort, the last block's
    two index arrays and its mask (at most width^2 / 2 pairs, 17 bytes each)
    peak higher (tracemalloc peak 0.96-1.00 of this estimate at n = 1000 and
    2000, the same as with the float argsort).
    """
    width = n - seeds
    return 16 * seeds * n + 17 * width * width


def dv_attack(original: Graph, anonymized: Graph, config: AttackConfig,
              seeds: Sequence[int] | None = None) -> float:
    """Distance-vector re-identification rate between two aligned graphs.

    A seed set of ceil(seed_fraction * n) nodes is assumed correctly mapped
    (sampled uniformly unless given). Every other node gets a signature of
    shortest-path distances to the seeds in its own graph (unreachable pairs
    get sentinel n, larger than any true distance); pairs are then matched
    greedily by ascending Euclidean signature distance, each node used once.
    Returns the fraction of non-seed nodes mapped to their true counterpart.
    """
    if original.n != anonymized.n:
        raise ValueError("graphs must have the same node count")
    n = original.n
    if seeds is None:
        k = math.ceil(config.seed_fraction * n)
    else:
        seed_nodes = sorted(set(int(s) for s in seeds))
        if any(s < 0 or s >= n for s in seed_nodes):
            raise ValueError("seed node out of range")
        k = len(seed_nodes)
    width = n - k
    if width == 0:
        return 1.0
    if k == 0:
        raise ValueError("the attack needs at least one seed node")
    # checked before the seed draw, whose own arrays are of size n
    require_dense_budget(n, _attack_dense_bytes(n, k), "the distance-vector attack")
    if seeds is None:
        rng = np.random.default_rng(config.seed)
        seed_nodes = sorted(int(s) for s in rng.choice(n, size=k, replace=False))
    seed_set = set(seed_nodes)
    non_seeds = [v for v in range(n) if v not in seed_set]

    sigs = [_seed_distances(graph, seed_nodes).T[non_seeds]
            for graph in (original, anonymized)]
    return _greedy_match_hits(_pair_order(sigs[0], sigs[1]), width) / width


def _pair_order(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Flat pair indices (left * width + right) by ascending Euclidean
    signature distance, ties in index order.

    Signatures hold integer hop counts, so the squared distances are exact
    integers below 2^53; sqrt is correctly rounded and strictly increasing
    on them, so sorting the squared distances as the narrowest unsigned
    integers that hold them (a radix sort up to 16 bits) ties exactly where
    the float distances tie, and the stable order is the same.
    """
    squared = cdist(left, right, "sqeuclidean")
    key = squared.astype(np.min_scalar_type(int(squared.max())))
    del squared
    return np.argsort(key.ravel(), kind="stable")


def _greedy_match_hits(order: np.ndarray, width: int) -> int:
    """Walk flat pair indices (left * width + right) in the given order,
    accept each pair whose left and right are both still free, and count
    the accepted pairs with left == right.

    The walk goes in blocks of width, 2 width, 4 width, ... pairs. A block
    first drops, in one vectorized step, every pair touching a node used
    before the block; only the rest are checked one by one, so pairs in the
    same block still see the matches made earlier in it. Used flags only
    grow, so the accepted pairs are those of a one-by-one walk. The walk
    stops once every node is matched.
    """
    used_left = np.zeros(width, dtype=bool)
    used_right = np.zeros(width, dtype=bool)
    hits = matched = start = 0
    size = width
    while matched < width and start < order.size:
        left, right = np.divmod(order[start:start + size], width)
        free = ~(used_left[left] | used_right[right])
        for i, j in zip(left[free].tolist(), right[free].tolist()):
            if used_left[i] or used_right[j]:
                continue
            used_left[i] = used_right[j] = True
            hits += i == j
            matched += 1
            if matched == width:
                break
        del left, right, free  # free this block before the next, twice as large
        start += size
        size *= 2
    return hits


@dataclass(frozen=True)
class SweepRow:
    """One alpha of a sweep: the distribution's normalized entropy, and the
    modularity ratio (where defined) and attack rate of each run's sample."""

    alpha: float
    entropy: float
    modularity_ratios: tuple[float, ...]
    attack_rates: tuple[float, ...]


def alpha_sweep(graph: Graph, alphas: Sequence[float], runs: int, rng_seed: int,
                rule: str = "truncate", logistic_k: float = forge_mod.DEFAULT_LOGISTIC_K,
                transformation: str = "modularity",
                seed_fraction: float = 0.05) -> list[SweepRow]:
    """Utility, diversity and privacy of the forge across an alpha grid.

    The decomposition depends on the input only and P on the input and
    alpha, so one fit serves the grid, and one distribution per alpha gives
    the entropy and every run's sample. Run `run` of alpha index `ai` samples
    with seed_from(rng_seed, ai, run, 0), maximizes modularity with
    seed_from(rng_seed, ai, run, 1) and attacks with seed_from(rng_seed, ai,
    run, 2). Every knob is checked before the fit.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    configs = [ForgeConfig(alpha=alpha, rule=rule, logistic_k=logistic_k,
                           transformation=transformation) for alpha in alphas]
    attack = AttackConfig(seed_fraction=seed_fraction)
    model = fit(graph, transformation)

    def cell(ai: int) -> SweepRow:
        cfg = configs[ai]
        dist = model.at(cfg.alpha, cfg.rule, cfg.logistic_k)
        entropy = dist.entropy().normalized
        ratios: list[float] = []
        rates: list[float] = []
        for run in range(runs):
            out = dist.sample(seed_from(rng_seed, ai, run, 0))
            ratio = modularity_ratio(graph, out, seed_from(rng_seed, ai, run, 1))
            if ratio is not None:
                ratios.append(ratio)
            rates.append(dv_attack(graph, out, replace(attack, seed=seed_from(rng_seed, ai, run, 2))))
        return SweepRow(cfg.alpha, entropy, tuple(ratios), tuple(rates))

    graph.csr  # noqa: B018 - fills the CSR cache the cells read
    n = graph.n
    return _map_cells(cell, len(configs),
                      forge_dense_bytes(n) + _attack_dense_bytes(n, math.ceil(seed_fraction * n)))
