import itertools

import numpy as np
import pytest

from graphforge.community import Partition, louvain_maximize, modularity
from graphforge.graph import Graph

from conftest import (
    blocks_to_labels,
    brute_force_max_modularity,
    complete_graph,
    disjoint_cliques,
    modularity_oracle,
    set_partitions_oracle,
)


def test_modularity_single_community_is_zero():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        edges = [d for d in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        if not edges:
            continue
        g = Graph.from_edges(n, edges)
        assert modularity(g, Partition((0,) * n)) == pytest.approx(0.0, abs=1e-12)


def test_modularity_two_disjoint_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert modularity(g, Partition((0, 0, 1, 1))) == pytest.approx(0.5, abs=1e-12)


def test_modularity_two_disjoint_k4(two_k4):
    part = Partition((0, 0, 0, 0, 1, 1, 1, 1))
    assert modularity(two_k4, part) == pytest.approx(0.5, abs=1e-12)


def test_modularity_matches_double_loop_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        edges = [d for d in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        if not edges:
            continue
        g = Graph.from_edges(n, edges)
        labels = [int(x) for x in rng.integers(0, 3, size=n)]
        part = Partition.from_labels(labels)
        assert modularity(g, part) == pytest.approx(
            modularity_oracle(g, part.assignment), abs=1e-12
        )


def test_modularity_invariant_under_relabeling():
    g = disjoint_cliques(3, 3)
    q1 = modularity(g, Partition.from_labels([0, 0, 0, 1, 1, 1]))
    q2 = modularity(g, Partition.from_labels([1, 1, 1, 0, 0, 0]))
    assert q1 == pytest.approx(q2, abs=1e-15)


def test_modularity_errors():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="length"):
        modularity(g, Partition((0, 1)))
    with pytest.raises(ValueError, match="no edges"):
        modularity(Graph.from_edges(2, []), Partition((0, 0)))


def test_partition_validation_and_count():
    with pytest.raises(ValueError, match="dense"):
        Partition((0, 2))
    assert Partition((0, 0, 1, 1)).m == 2
    assert Partition((0, 1, 2, 3)).m == 4
    assert Partition((0,) * 7).m == 1
    assert Partition.from_labels(["b", "a", "b"]).assignment == (0, 1, 0)


def test_brute_force_examples(two_k4):
    g1 = Graph.from_edges(2, [(0, 1)])
    part, q = brute_force_max_modularity(g1)
    assert part.m == 1 and q == pytest.approx(0.0, abs=1e-12)

    g2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    part, q = brute_force_max_modularity(g2)
    assert part.assignment == (0, 0, 1, 1)
    assert q == pytest.approx(0.5, abs=1e-12)

    part, q = brute_force_max_modularity(complete_graph(3))
    assert part.m == 1 and q == pytest.approx(0.0, abs=1e-12)


def test_brute_force_guards_large_n():
    with pytest.raises(ValueError, match="n <= 12"):
        brute_force_max_modularity(complete_graph(13))


def test_brute_force_agrees_with_independent_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        edges = [d for d in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        if not edges:
            continue
        g = Graph.from_edges(n, edges)
        best = max(
            modularity_oracle(g, blocks_to_labels(blocks, n))
            for blocks in set_partitions_oracle(n)
        )
        _, q = brute_force_max_modularity(g)
        assert q == pytest.approx(best, abs=1e-12)


def test_louvain_disjoint_cliques(two_k4):
    part, q = louvain_maximize(two_k4, 7)
    bq = brute_force_max_modularity(two_k4)[1]
    assert q == pytest.approx(bq, abs=1e-15)
    assert part.m == 2

    part, q = louvain_maximize(complete_graph(5), 3)
    assert part.m == 1 and q == pytest.approx(0.0, abs=1e-12)


def test_louvain_bridged_cliques():
    g = Graph.from_edges(8, list(itertools.combinations(range(4), 2))
                         + list(itertools.combinations(range(4, 8), 2)) + [(3, 4)])
    part, q = louvain_maximize(g, 11)
    assert part.m == 2
    assert q == pytest.approx(brute_force_max_modularity(g)[1], abs=1e-15)


def test_louvain_deterministic_and_seeded():
    g = disjoint_cliques(5, 4, 4)
    p1, q1 = louvain_maximize(g, 42)
    p2, q2 = louvain_maximize(g, 42)
    assert p1 == p2 and q1 == q2


def test_louvain_beats_singletons():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(3, 16))
        edges = [d for d in itertools.combinations(range(n), 2) if rng.random() < 0.35]
        if not edges:
            continue
        g = Graph.from_edges(n, edges)
        _, q = louvain_maximize(g, 5)
        singletons = modularity(g, Partition(tuple(range(n))))
        assert q >= singletons - 1e-12
        assert q <= 1.0


def test_louvain_errors_on_empty_graph():
    with pytest.raises(ValueError, match="no edges"):
        louvain_maximize(Graph.from_edges(4, []), 0)
