import numpy as np
import pytest

from graphforge import attack, cells, evaluate
from graphforge.attack import AttackConfig, dv_attack, random_guess_rate
from graphforge.community import louvain_maximize
from graphforge.evaluate import (
    Dataset,
    Strategy,
    alpha_sweep,
    compare,
    dcsbm_strategy,
    experiment_csv,
    normalization_study,
    run_experiment,
    score_input,
    seed_from,
    sgf_strategy,
    study_csv,
    trajanovski_strategy,
)
from graphforge.forge import ForgeConfig, fit, forge, normalize, normalized_entropy
from graphforge.generators import (
    GIRVAN_COMMUNITIES,
    GIRVAN_NODES,
    GIRVAN_P_IN,
    GIRVAN_P_OUT,
    PlantedPartitionConfig,
    barabasi_albert,
    erdos_renyi,
    planted_partition,
)
from graphforge.graph import Graph
from graphforge.spectral import eigendecompose, low_rank_approx, spectral_norm

from conftest import disjoint_cliques, path_graph


def test_compare_identity(two_k4):
    report = compare(two_k4, two_k4, rng_seed=5)
    assert report.modularity_ratio == 1.0
    assert report.partition_number_ratio == 1.0
    assert report.clustering_ratio == 1.0
    # constant degree sequence: correlation undefined
    assert report.degree_correlation is None


def test_compare_identity_with_varying_degrees():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (1, 2), (4, 5)])
    report = compare(g, g, rng_seed=9)
    assert report.degree_correlation == pytest.approx(1.0)
    assert report.modularity_ratio == 1.0


def test_compare_empty_output(two_k4):
    empty = Graph.from_edges(8, [])
    report = compare(two_k4, empty, rng_seed=1)
    assert report.clustering_ratio == 0.0
    assert report.degree_correlation is None


def test_compare_attribute_ratio(two_k4):
    g = two_k4.with_attributes({"block": ("a",) * 4 + ("b",) * 4})
    report = compare(g, g.with_attributes(g.attributes), rng_seed=2)
    assert report.attribute_modularity_ratios["block"] == pytest.approx(1.0)


def test_compare_rejects_mismatched_sizes(two_k4):
    with pytest.raises(ValueError, match="same node count"):
        compare(two_k4, Graph.from_edges(9, []), rng_seed=0)


def test_dv_attack_identical_graphs_full_seed_fraction(two_k4):
    assert dv_attack(two_k4, two_k4, AttackConfig(seed_fraction=1.0, seed=3)) == 1.0


def test_dv_attack_path_graph_unique_signatures():
    g = path_graph(10)
    # seed 7 draws end node 9, whose distances tell every other node apart
    rate = dv_attack(g, g, AttackConfig(seed_fraction=0.1, seed=7))
    assert rate == 1.0


def test_dv_attack_rate_bounds_and_degradation():
    g, _ = planted_partition(PlantedPartitionConfig(n=60, communities=3, p_in=0.4,
                                                    p_out=0.05, seed=4))
    same = dv_attack(g, g, AttackConfig(seed_fraction=0.1, seed=7))
    scrambled, _ = planted_partition(PlantedPartitionConfig(n=60, communities=3, p_in=0.4,
                                                            p_out=0.05, seed=99))
    cross = np.mean([
        dv_attack(g, scrambled, AttackConfig(seed_fraction=0.1, seed=s))
        for s in range(20)
    ])
    assert 0.0 <= cross <= same <= 1.0


def test_dv_attack_deterministic(two_k4):
    cfg = AttackConfig(seed_fraction=0.25, seed=11)
    assert dv_attack(two_k4, two_k4, cfg) == dv_attack(two_k4, two_k4, cfg)


def test_dv_attack_refuses_distances_beyond_exact_float64(monkeypatch):
    # only hosts with hundreds of GB admit such an attack; on others the
    # memory guard refuses first
    monkeypatch.setattr(attack, "require_dense_budget", lambda *args: None)
    g = Graph(170000, [], [])
    with pytest.raises(ValueError, match="exact integer range"):
        dv_attack(g, g, AttackConfig(seed_fraction=0.99))


def test_random_guess_rate():
    assert random_guess_rate(100, 0.05) == pytest.approx(1 / 95)


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(seed_fraction=0.0)


def test_run_experiment_bookkeeping(two_k4):
    ds = Dataset(name="cliques", graphs=(two_k4,))
    rows = run_experiment([sgf_strategy(1.0)], [ds], runs_per_pair=2, rng_seed=3)
    by_metric = {r.metric: r for r in rows}
    assert by_metric["modularity_ratio"].runs == 2
    assert by_metric["modularity_ratio"].mean == pytest.approx(1.0)
    assert by_metric["modularity_ratio"].std == pytest.approx(0.0)
    assert all(r.strategy == "sgf:1" and r.dataset == "cliques" for r in rows)


def test_run_experiment_requires_two_runs(two_k4):
    with pytest.raises(ValueError, match=">= 2"):
        run_experiment([sgf_strategy(1.0)],
                       [Dataset("d", (two_k4,))], runs_per_pair=1, rng_seed=0)


def test_run_experiment_records_failures(two_k4):
    def boom(graph, seed, input_score):
        raise ValueError("nope")

    rows = run_experiment([Strategy("boom", boom)],
                          [Dataset("d", (two_k4,))], runs_per_pair=2, rng_seed=0)
    assert len(rows) == 1
    assert rows[0].metric == "failures"
    assert rows[0].mean == 2.0


@pytest.mark.parametrize("cores", [1, 2])
def test_run_experiment_raises_what_is_not_a_refusal(monkeypatch, two_k4, cores):
    # a KeyError is a programming error, not a design the strategy refuses,
    # so it must not read as a failures row, forked or not
    monkeypatch.setattr(cells, "_free_cores", lambda: cores)

    def broken(graph, seed, input_score):
        raise KeyError("no such block")

    with pytest.raises(KeyError, match="no such block"):
        run_experiment([Strategy("broken", broken)],
                       [Dataset("d", (two_k4,))], runs_per_pair=2, rng_seed=0)


def test_run_experiment_deterministic(two_k4):
    ds = Dataset("d", (two_k4, disjoint_cliques(5, 5)))
    strategies = [sgf_strategy(0.8), dcsbm_strategy()]
    r1 = run_experiment(strategies, [ds], 3, rng_seed=17)
    r2 = run_experiment(strategies, [ds], 3, rng_seed=17)
    assert experiment_csv(r1) == experiment_csv(r2)


def test_baseline_strategies_produce_graphs(two_k4):
    input_score = score_input(two_k4, 5)
    out = dcsbm_strategy().make(two_k4, 5, input_score)
    assert out.n == two_k4.n
    assert out.num_edges == two_k4.num_edges

    # disjoint cliques beat any connected skeleton, so the rewirer warns
    # and returns its best-effort start
    with pytest.warns(UserWarning, match="exceeds skeleton"):
        out = trajanovski_strategy().make(two_k4, 5, input_score)
    assert out.n == two_k4.n
    assert out.num_edges == two_k4.num_edges


def _girvan_graphs(count, seed):
    return tuple(planted_partition(PlantedPartitionConfig(
        n=GIRVAN_NODES, communities=GIRVAN_COMMUNITIES, p_in=GIRVAN_P_IN,
        p_out=GIRVAN_P_OUT, seed=seed + i))[0] for i in range(count))


@pytest.fixture
def serial(monkeypatch):
    monkeypatch.setattr(cells, "_free_cores", lambda: 1)


@pytest.fixture
def maximized(monkeypatch):
    """The graphs `louvain_maximize` is called on, in call order."""
    calls = []

    def spy(graph, rng_seed):
        calls.append(graph)
        return louvain_maximize(graph, rng_seed)

    monkeypatch.setattr(evaluate, "louvain_maximize", spy)
    return calls


def _bench_girvan_strategies():
    return [sgf_strategy(0.9), dcsbm_strategy(), trajanovski_strategy()]


def test_run_experiment_maximizes_each_input_once(serial, maximized):
    graphs = _girvan_graphs(2, seed=40)
    run_experiment(_bench_girvan_strategies(), [Dataset("girvan", graphs)], 2, rng_seed=5)
    inputs = [g for g in maximized if any(g is h for h in graphs)]
    assert len(inputs) == 2 and inputs[0] is not inputs[1]
    assert len(maximized) == 2 + 3 * 2 * 2  # and one per output


def test_alpha_sweep_maximizes_its_input_once(serial, maximized):
    graph, _ = planted_partition(PlantedPartitionConfig(
        n=96, communities=3, p_in=0.3, p_out=0.03, seed=5))
    alpha_sweep(graph, [0.1, 0.5, 0.9], runs=2, rng_seed=9)
    assert len([g for g in maximized if g is graph]) == 1
    assert len(maximized) == 1 + 3 * 2


def test_alpha_sweep_ratios_are_compares_field():
    graph, _ = planted_partition(PlantedPartitionConfig(
        n=96, communities=3, p_in=0.3, p_out=0.03, seed=5))
    alphas = [0.1, 0.5, 0.9]
    rows = alpha_sweep(graph, alphas, runs=2, rng_seed=9)
    model = fit(graph)
    for ai, (alpha, row) in enumerate(zip(alphas, rows)):
        assert len(row.modularity_ratios) == 2
        for run, ratio in enumerate(row.modularity_ratios):
            out = model.at(alpha).sample(seed_from(9, ai, run, 0))
            assert ratio == compare(graph, out, seed_from(9, 0, 0, 3)).modularity_ratio


@pytest.fixture
def top_level_seeds(monkeypatch):
    """The sub-seeds evaluate derives, as {parts: seed}."""
    derived = {}

    def spy(*parts):
        derived[parts] = seed_from(*parts)
        return derived[parts]

    monkeypatch.setattr(evaluate, "seed_from", spy)
    return derived


def _distinct_seeds(derived, rng_seed):
    """Seeds derived straight from rng_seed, after checking that each tag
    draws a seed of its own."""
    seeds = {parts: seed for parts, seed in derived.items() if parts[0] == rng_seed}
    assert len(set(seeds.values())) == len(seeds)
    return seeds


def test_input_score_seeds_differ_from_every_cell_seed(serial, top_level_seeds):
    # seed_from pads short tags with zeros, so seed_from(s) is the seed of
    # the sweep's first sample, seed_from(s, 0, 0, 0)
    assert seed_from(3) == seed_from(3, 0, 0, 0)
    run_experiment(_bench_girvan_strategies(), [Dataset("girvan", _girvan_graphs(2, 40))],
                   2, rng_seed=3)
    # 12 cells' strategy seeds and 2 input score seeds
    assert len(_distinct_seeds(top_level_seeds, 3)) == 12 + 2
    top_level_seeds.clear()
    graph, _ = planted_partition(PlantedPartitionConfig(
        n=48, communities=2, p_in=0.4, p_out=0.05, seed=2))
    alpha_sweep(graph, [0.1, 0.5, 0.9], runs=1, rng_seed=3)
    # 3 cells' sample and attack seeds and 1 input score seed
    assert len(_distinct_seeds(top_level_seeds, 3)) == 3 * 2 + 1


def test_identity_strategy_reads_exactly_one(serial):
    identity = Strategy("identity", lambda graph, seed, input_score: graph)
    rows = run_experiment([identity], [Dataset("girvan", _girvan_graphs(2, 60))], 3,
                          rng_seed=8)
    ratio = next(r for r in rows if r.metric == "modularity_ratio")
    assert ratio.mean == 1.0 and ratio.std == 0.0


def test_compare_with_a_precomputed_score_equals_compare():
    graph, blocks = planted_partition(PlantedPartitionConfig(
        n=60, communities=3, p_in=0.4, p_out=0.05, seed=12))
    graph = graph.with_attributes({"block": blocks.assignment})
    out = forge(graph, ForgeConfig(alpha=0.6, seed=4))
    for seed in (0, 31):
        score = louvain_maximize(graph, seed_from(seed, 0))
        assert compare(graph, out, seed, input_score=score) == compare(graph, out, seed)


def test_experiment_csv_format(two_k4):
    rows = run_experiment([sgf_strategy(1.0)], [Dataset("d", (two_k4,))], 2, 0)
    text = experiment_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "strategy,dataset,metric,mean,std,ci99,runs"
    assert all(len(line.split(",")) == 7 for line in lines[1:])


def test_normalization_study_alpha_one_rows(two_k4):
    rows = normalization_study([("g0", "clique", two_k4)], alphas=[1.0],
                               rules=("truncate",))
    assert len(rows) == 1
    row = rows[0]
    assert row.dist_spectral == pytest.approx(0.0, abs=1e-9)
    assert row.dist_normed == pytest.approx(0.0, abs=1e-9)
    assert row.entropy == pytest.approx(0.0, abs=1e-9)


def test_normalization_study_truncate_beats_scale(two_k4):
    g, _ = planted_partition(PlantedPartitionConfig(n=40, communities=2, p_in=0.5,
                                                    p_out=0.1, seed=6))
    rows = normalization_study([("g0", "planted", g)], alphas=[0.3, 0.5, 0.7],
                               rules=("truncate", "scale"))
    by_key = {(r.alpha, r.rule): r for r in rows}
    for alpha in (0.3, 0.5, 0.7):
        assert by_key[(alpha, "truncate")].dist_normed <= by_key[(alpha, "scale")].dist_normed


def former_normalization_study(labeled_graphs, alphas, rules):
    """The study as it was built by hand from the spectral and forge steps."""
    rows = []
    for graph_id, family, graph in labeled_graphs:
        a = graph.adjacency()
        eig = eigendecompose(a)
        for alpha in alphas:
            a_tilde = low_rank_approx(eig, alpha)
            dist_spectral = spectral_norm(a - a_tilde)
            for rule in rules:
                try:
                    probs = normalize(a_tilde, rule)
                except ValueError:
                    rows.append((graph_id, family, alpha, rule, dist_spectral, None, None))
                    continue
                rows.append((graph_id, family, alpha, rule, dist_spectral,
                             spectral_norm(a - probs), normalized_entropy(probs).normalized))
    return rows


def test_normalization_study_matches_former_pipeline():
    graphs = [(f"er{i}", "er", erdos_renyi(30, 0.12, seed=i)) for i in range(3)]
    graphs += [(f"ba{i}", "ba", barabasi_albert(30, 1.7, seed=i)) for i in range(3)]
    alphas = [0.0, 0.15, 0.5, 0.85, 1.0]
    rules = ("logistic", "truncate", "scale")
    rows = normalization_study(graphs, alphas, rules)
    former = former_normalization_study(graphs, alphas, rules)
    assert [(r.graph, r.family, r.alpha, r.rule, r.dist_spectral, r.dist_normed, r.entropy)
            for r in rows] == former
    # alpha = 0 leaves the scale rule nothing to stretch
    assert any(row[5] is None for row in former)


def test_study_csv_format(two_k4):
    rows = normalization_study([("g0", "clique", two_k4)], alphas=[0.5, 1.0])
    text = study_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "graph,family,alpha,rule,dist_spectral,dist_normed,entropy"
    assert len(lines) == 1 + 2 * 3
