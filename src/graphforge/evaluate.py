"""Paired input/output metrics, the experiment harness, the alpha sweep and
the normalization study. The sweep scores privacy with the distance-vector
attack of `attack`.

The harness and the sweep run their independent cells through
`cells._map_cells`, on every free core that memory allows, with the same
results as a plain loop.

Ratios compare a generated graph against its input: 1 means the property is
preserved. Undefined ratios (zero denominators, zero-variance correlations)
are reported as None and serialized as NA, never silently coerced to a
number.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import baselines, forge as forge_mod
from .attack import AttackConfig, attack_dense_bytes, dv_attack
from .cells import _map_cells
from .community import Partition, louvain_maximize, modularity
from .forge import ForgeConfig, fit, forge_dense_bytes
from .graph import Graph, average_clustering, degree_vector
from .spectral import low_rank_approx, spectral_norm

# z-score for two-sided 99% confidence under the normal approximation
Z_99 = 2.576

CSV_NA = "NA"

EXPERIMENT_CSV_HEADER = "strategy,dataset,metric,mean,std,ci99,runs"
STUDY_CSV_HEADER = "graph,family,alpha,rule,dist_spectral,dist_normed,entropy"


def seed_from(*parts: int) -> int:
    """Deterministic 64-bit sub-seed from a tuple of non-negative integers.

    The parts are the entropy of an `np.random.SeedSequence`, which splits
    each part into 32-bit words (a part of 2^32 or more takes two) and pads
    fewer than 4 words with zero words. So zeros appended up to 4 words
    change nothing: seed_from(5) == seed_from(5, 0) == seed_from(5, 0, 0, 0).
    Tags that must draw apart have to differ after that padding.
    """
    ss = np.random.SeedSequence(entropy=list(parts))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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


Score = tuple[Partition, float]


def score_input(graph: Graph, rng_seed: int) -> Score:
    """(partition, Q*) of a graph under the Louvain seed that
    compare(graph, output, rng_seed) gives both of its graphs."""
    return louvain_maximize(graph, seed_from(rng_seed, 0))


def _score_output(output_graph: Graph, rng_seed: int) -> tuple[float, int]:
    """(Q*, community count) of an output under the Louvain seed that
    score_input(input, rng_seed) gives its input. An edgeless output scores
    Q* = 0 with every node in its own community."""
    if output_graph.num_edges == 0:
        return 0.0, output_graph.n
    part, q_out = louvain_maximize(output_graph, seed_from(rng_seed, 0))
    return q_out, part.m


def _ratio(q_out: float, q_in: float) -> float | None:
    """Q*_out / Q*_in, or None when the input's Q* is 0 (below 1e-12)."""
    return None if abs(q_in) < 1e-12 else q_out / q_in


def compare(input_graph: Graph, output_graph: Graph, rng_seed: int,
            input_score: Score | None = None) -> MetricsReport:
    """All paired metrics for one (input, output) pair.

    Both graphs are scored with identically seeded maximization so that
    compare(g, g, seed) returns exact 1 ratios. `input_score` is a cache:
    passing score_input(input_graph, rng_seed) gives the same report
    without maximizing the input again. The output inherits the input's
    attributes by index for the attribute rows.
    """
    if input_graph.n != output_graph.n:
        raise ValueError("input and output graphs must have the same node count")
    part_in, q_in = input_score or score_input(input_graph, rng_seed)
    q_out, m_out = _score_output(output_graph, rng_seed)

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
        modularity_ratio=_ratio(q_out, q_in),
        partition_number_ratio=m_out / part_in.m,
        clustering_ratio=clust_ratio,
        degree_correlation=deg_corr,
        attribute_modularity_ratios=attr_ratios,
    )


@dataclass(frozen=True)
class Strategy:
    """A named graph generator: (input graph, seed, input score) -> output
    graph, where the score is the input's (partition, Q*) from `score_input`."""

    name: str
    make: Callable[[Graph, int, Score], Graph]


def sgf_strategy(alpha: float, rule: str = "truncate", logistic_k: float = forge_mod.DEFAULT_LOGISTIC_K,
                 transformation: str = "modularity") -> Strategy:
    """The forge at one alpha; its config is checked here, before any run."""
    cfg = ForgeConfig(alpha=alpha, rule=rule, logistic_k=logistic_k,
                      transformation=transformation)

    def make(graph: Graph, seed: int, input_score: Score) -> Graph:
        return forge_mod.forge(graph, replace(cfg, seed=seed))

    return Strategy(name=f"sgf:{alpha:g}", make=make)


def dcsbm_strategy() -> Strategy:
    """Block-model baseline parameterized from each input graph.

    The group assignment is the partition of the input's score; the degree
    sequence and per-block edge counts are read off the input. A run with
    seed `seed` samples with seed_from(seed, 2).
    """

    def make(graph: Graph, seed: int, input_score: Score) -> Graph:
        cfg = baselines.dcsbm_config_from(graph, input_score[0])
        return baselines.dcsbm_generate(replace(cfg, seed=seed_from(seed, 2)))

    return Strategy(name="dcsbm", make=make)


def trajanovski_strategy() -> Strategy:
    """Rewiring baseline parameterized from each input graph: the Q* of its
    score becomes the target, with matching node, edge, and community
    counts. A run with seed `seed` rewires with seed_from(seed, 2)."""

    def make(graph: Graph, seed: int, input_score: Score) -> Graph:
        part, q_star = input_score
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

    Each input graph is maximized once per process, with
    score_input(graph, seed_from(rng_seed, 0, di, gi, 0, 2)) for graph `gi`
    of dataset `di`, and that score serves every cell of the graph: the
    strategy's fit, Q*_in, and the Louvain seed of each output. The
    strategy of cell (si, di, gi, run) makes its output with
    seed_from(rng_seed, si, di, gi, run, 0). A cell computes the score when
    it first needs it, so the forked workers share the work. Runs refused
    with a ValueError, including inputs that cannot be scored, are excluded
    from aggregates and surface as a `failures` row; any other exception is
    a programming error and propagates.
    """
    if runs_per_pair < 2:
        raise ValueError("runs_per_pair must be >= 2")

    cells = [(si, di, gi, run) for si in range(len(strategies))
             for di, dataset in enumerate(datasets)
             for gi in range(len(dataset.graphs)) for run in range(runs_per_pair)]

    def score_seed(di: int, gi: int) -> int:
        return seed_from(rng_seed, 0, di, gi, 0, 2)

    @functools.cache  # one per process: a forked worker fills its own copy
    def scored(di: int, gi: int) -> Score:
        return score_input(datasets[di].graphs[gi], score_seed(di, gi))

    def cell(index: int) -> MetricsReport | None:
        si, di, gi, run = cells[index]
        graph = datasets[di].graphs[gi]
        try:
            input_score = scored(di, gi)
            output = strategies[si].make(graph, seed_from(rng_seed, si, di, gi, run, 0),
                                         input_score)
            return compare(graph, output, score_seed(di, gi), input_score)
        except ValueError:  # a refusal becomes a row; any other error propagates
            return None

    graphs = [graph for dataset in datasets for graph in dataset.graphs]
    for graph in graphs:
        average_clustering(graph)  # fills the clustering cache the cells read
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
    the entropy and every run's sample. Run `run` of alpha index `ai`
    samples with seed_from(rng_seed, ai, run, 0), attacks with
    seed_from(rng_seed, ai, run, 2), and maximizes its output with the
    Louvain seed of score_input(graph, seed_from(rng_seed, 0, 0, 3)).

    `_map_cells` gets one task per alpha, which returns the entropy and each
    run's output Q* and attack rate, and then one task that maximizes the
    input with that score; the calling process divides each output's Q* by
    the input's. So the input is maximized once per call, by the first
    worker that is free after every alpha has started. Every knob is
    checked before the fit.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    configs = [ForgeConfig(alpha=alpha, rule=rule, logistic_k=logistic_k,
                           transformation=transformation) for alpha in alphas]
    attack = AttackConfig(seed_fraction=seed_fraction)
    model = fit(graph, transformation)
    score_seed = seed_from(rng_seed, 0, 0, 3)

    def cell(ai: int):
        if ai == len(configs):
            return score_input(graph, score_seed)[1]
        cfg = configs[ai]
        dist = model.at(cfg.alpha, cfg.rule, cfg.logistic_k)
        entropy = dist.entropy().normalized
        q_outs: list[float] = []
        rates: list[float] = []
        for run in range(runs):
            out = dist.sample(seed_from(rng_seed, ai, run, 0))
            q_outs.append(_score_output(out, score_seed)[0])
            rates.append(dv_attack(graph, out, replace(attack, seed=seed_from(rng_seed, ai, run, 2))))
        return entropy, q_outs, tuple(rates)

    graph._neighbors  # noqa: B018 - fills the neighbour cache the cells' attacks read
    n = graph.n
    *cells, q_in = _map_cells(cell, len(configs) + 1,
                              forge_dense_bytes(n) + attack_dense_bytes(n, math.ceil(seed_fraction * n)))
    rows = []
    for cfg, (entropy, q_outs, rates) in zip(configs, cells):
        ratios = (_ratio(q_out, q_in) for q_out in q_outs)
        rows.append(SweepRow(cfg.alpha, entropy, tuple(r for r in ratios if r is not None), rates))
    return rows
