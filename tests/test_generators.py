import math
import re

import numpy as np
import pytest

from graphforge.community import modularity
from graphforge.generators import (
    LancichinettiConfig,
    PlantedPartitionConfig,
    barabasi_albert,
    erdos_renyi,
    lancichinetti,
    planted_partition,
)
from graphforge.graph import Graph, degree_vector


def test_planted_extremes_give_disjoint_cliques():
    cfg = PlantedPartitionConfig(n=8, communities=2, p_in=1.0, p_out=0.0, seed=1)
    g, part = planted_partition(cfg)
    assert g.num_edges == 12
    assert part.assignment == (0, 0, 0, 0, 1, 1, 1, 1)
    assert modularity(g, part) == pytest.approx(0.5, abs=1e-12)


def former_planted_graph(config):
    """The planted draw as it was built before: the hits go through
    `Graph.from_edges` as Python pairs instead of straight into `Graph`."""
    n = config.n
    labels = np.arange(n) // (n // config.communities)
    rng = np.random.default_rng(config.seed)
    rows, cols = np.triu_indices(n, k=1)
    p = np.where(labels[rows] == labels[cols], config.p_in, config.p_out)
    hit = rng.random(rows.shape[0]) < p
    return Graph.from_edges(n, zip(rows[hit].tolist(), cols[hit].tolist()))


@pytest.mark.parametrize("n, communities", [(128, 4), (2000, 4), (500, 5), (7, 7), (1, 1)])
def test_planted_graph_matches_former_build(n, communities):
    cfg = PlantedPartitionConfig(n=n, communities=communities, p_in=0.3, p_out=0.01, seed=n)
    assert planted_partition(cfg)[0] == former_planted_graph(cfg)


def test_planted_no_signal_is_erdos_renyi():
    cfg = PlantedPartitionConfig(n=128, communities=4, p_in=0.1, p_out=0.1, seed=3)
    g, part = planted_partition(cfg)
    q = modularity(g, part)
    assert abs(q) < 0.05  # no community signal: planted Q concentrates near 0


def test_planted_edge_frequencies():
    p_in, p_out = 0.2, 0.02
    intra_edges = inter_edges = 0
    intra_dyads = inter_dyads = 0
    for s in range(50):
        cfg = PlantedPartitionConfig(n=128, communities=2, p_in=p_in, p_out=p_out, seed=s)
        g, part = planted_partition(cfg)
        labels = part.assignment
        intra_edges += sum(1 for i, j in g.sorted_edges() if labels[i] == labels[j])
        inter_edges += sum(1 for i, j in g.sorted_edges() if labels[i] != labels[j])
        intra_dyads += 2 * (64 * 63 // 2)
        inter_dyads += 64 * 64
    assert abs(intra_edges / intra_dyads - p_in) < 0.02
    assert abs(inter_edges / inter_dyads - p_out) < 0.02


def test_planted_p_out_zero_components_refine_communities():
    cfg = PlantedPartitionConfig(n=30, communities=3, p_in=0.4, p_out=0.0, seed=9)
    g, part = planted_partition(cfg)
    labels = part.assignment
    assert all(labels[i] == labels[j] for i, j in g.sorted_edges())


def test_planted_determinism_and_validation():
    cfg = PlantedPartitionConfig(n=20, communities=2, p_in=0.5, p_out=0.1, seed=7)
    assert planted_partition(cfg)[0] == planted_partition(cfg)[0]
    with pytest.raises(ValueError, match="divide"):
        PlantedPartitionConfig(n=10, communities=3, p_in=0.5, p_out=0.1)
    with pytest.raises(ValueError, match="p_out <= p_in"):
        PlantedPartitionConfig(n=9, communities=3, p_in=0.1, p_out=0.5)


def test_erdos_renyi_density():
    g = erdos_renyi(100, 0.1, seed=5)
    density = g.num_edges / (100 * 99 / 2)
    assert abs(density - 0.1) < 0.02


def test_barabasi_albert_edge_count_and_simplicity():
    g = barabasi_albert(100, 2.0, seed=4)
    # every arrival adds exactly 2 edges to distinct earlier nodes
    assert g.num_edges == pytest.approx(2 * 97 + 2, abs=0)
    assert max(degree_vector(g)) > 6  # hubs emerge under preferential attachment


@pytest.mark.parametrize("mean_attach", [math.inf, math.nan])
def test_barabasi_albert_rejects_non_finite_mean(mean_attach):
    with pytest.raises(ValueError, match="mean_attach must be finite and >= 1"):
        barabasi_albert(50, mean_attach)


def test_barabasi_albert_fractional_attachment():
    got = []
    for s in range(5):
        g = barabasi_albert(100, 2.25, seed=s)
        got.append(2 * g.num_edges / 100)
    assert abs(np.mean(got) - 4.5) < 0.45


def test_lancichinetti_mixing_zero_all_intra():
    cfg = LancichinettiConfig(n=120, mean_degree=4, mean_community_size=40,
                              mixing=0.0, seed=11)
    g, part = lancichinetti(cfg)
    labels = part.assignment
    assert g.num_edges > 0
    assert all(labels[i] == labels[j] for i, j in g.sorted_edges())
    # with no inter edges: Q = 1 - sum over communities of (degree share)^2
    k = degree_vector(g).astype(float)
    total = k.sum()
    shares = np.bincount(labels, weights=k) / total
    assert modularity(g, part) == pytest.approx(1 - np.sum(shares**2), abs=1e-12)


def test_lancichinetti_mean_degree_within_15_percent():
    target = 12.0
    means = []
    for s in range(10):
        cfg = LancichinettiConfig(n=1000, mean_degree=target, mean_community_size=50,
                                  mixing=0.1, seed=s)
        g, _ = lancichinetti(cfg)
        means.append(2 * g.num_edges / g.n)
    assert abs(np.mean(means) - target) / target < 0.15


def test_lancichinetti_simple_and_deterministic():
    cfg = LancichinettiConfig(n=200, mean_degree=6, mean_community_size=40,
                              mixing=0.2, seed=2)
    g1, p1 = lancichinetti(cfg)
    g2, p2 = lancichinetti(cfg)
    assert g1 == g2 and p1 == p2


def test_lancichinetti_validation():
    with pytest.raises(ValueError, match="n >= 1"):
        LancichinettiConfig(n=0, mean_degree=4, mean_community_size=20, mixing=0.1)
    with pytest.raises(ValueError, match="mixing"):
        LancichinettiConfig(n=50, mean_degree=4, mean_community_size=20, mixing=1.0)
    with pytest.raises(ValueError, match="mean_community_size"):
        LancichinettiConfig(n=50, mean_degree=25, mean_community_size=20, mixing=0.1)
    # every comparison with NaN is false, so a bare `< 1` test lets NaN through
    for mean_degree, mean_size in ((math.nan, 20), (4, math.nan), (math.inf, math.inf),
                                   (4, math.inf), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="must be finite and >= 1"):
            LancichinettiConfig(n=50, mean_degree=mean_degree, mean_community_size=mean_size,
                                mixing=0.1)


@pytest.mark.parametrize("build, message", [
    (lambda: PlantedPartitionConfig(n=0, communities=1, p_in=0.5, p_out=0.1),
     "need n >= 1 and communities >= 1"),
    (lambda: barabasi_albert(3, 2.0), "need n > 3 for mean_attach=2.0"),
    (lambda: barabasi_albert(4, 2.5), "need n > 4 for mean_attach=2.5"),
])
def test_generators_refuse_too_few_nodes(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
