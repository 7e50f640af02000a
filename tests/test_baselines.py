import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforge.baselines import (
    EDGE_RETRY_LIMIT,
    DcsbmConfig,
    TrajanovskiConfig,
    community_skeleton_partition,
    dcsbm_config_from,
    dcsbm_generate,
    trajanovski_generate,
)
from graphforge.community import Partition, modularity
from graphforge.graph import Graph, degree_vector

from conftest import disjoint_cliques


def _fixed_q(graph, n, m):
    return modularity(graph, community_skeleton_partition(n, m))


def test_trajanovski_immediate_target_returns_skeleton():
    probe = TrajanovskiConfig(q_target=1.0, communities=2, n=12, num_edges=14, seed=1)
    with pytest.warns(UserWarning, match="exceeds skeleton"):
        skeleton = trajanovski_generate(probe)
    q_init = _fixed_q(skeleton, 12, 2)
    # asking exactly for the skeleton's own value stops before any rewiring
    reachable = TrajanovskiConfig(q_target=q_init, communities=2, n=12, num_edges=14, seed=1)
    out = trajanovski_generate(reachable)
    assert out.edges == skeleton.edges


def test_trajanovski_skeleton_is_maximum_over_random_same_shape_graphs():
    cfg = TrajanovskiConfig(q_target=1.0, communities=3, n=15, num_edges=24, seed=5)
    with pytest.warns(UserWarning):
        skeleton = trajanovski_generate(cfg)
    q_init = _fixed_q(skeleton, 15, 3)
    part = community_skeleton_partition(15, 3)
    labels = part.assignment
    rng = np.random.default_rng(8)
    blocks = {}
    for v, c in enumerate(labels):
        blocks.setdefault(c, []).append(v)
    for _ in range(200):
        # random connected-ish graph with the same skeleton constraint:
        # spanning tree per community, 2 inter links, rest random intra
        edges = set()
        for c, nodes in blocks.items():
            for idx in range(1, len(nodes)):
                edges.add(tuple(sorted((nodes[idx], nodes[int(rng.integers(idx))]))))
        edges.add(tuple(sorted((blocks[0][0], blocks[1][0]))))
        edges.add(tuple(sorted((blocks[1][0], blocks[2][0]))))
        while len(edges) < 24:
            c = int(rng.integers(3))
            u, v = rng.choice(blocks[c], size=2, replace=False)
            edges.add(tuple(sorted((int(u), int(v)))))
        g = Graph.from_edges(15, edges)
        assert _fixed_q(g, 15, 3) <= q_init + 1e-9


def test_trajanovski_reaches_target_within_one_step():
    hist: list[float] = []  # skeleton value, then one entry per accepted move
    cfg = TrajanovskiConfig(q_target=0.3, communities=2, n=16, num_edges=20, seed=3)
    out = trajanovski_generate(cfg, q_history=hist)
    part = community_skeleton_partition(16, 2)
    q_final = modularity(out, part)
    assert q_final == pytest.approx(hist[-1], abs=1e-12)
    assert all(b < a for a, b in zip(hist, hist[1:]))  # strictly decreasing
    max_step = max(a - b for a, b in zip(hist, hist[1:]))
    assert q_final <= 0.3 + 1e-12
    assert q_final >= 0.3 - max_step - 1e-9


def test_trajanovski_each_move_matches_recomputed_modularity():
    # the incremental bookkeeping must agree with from-scratch evaluation
    hist: list[float] = []
    cfg = TrajanovskiConfig(q_target=0.0, communities=2, n=16, num_edges=20, seed=9)
    out = trajanovski_generate(cfg, q_history=hist)
    part = community_skeleton_partition(16, 2)
    assert modularity(out, part) == pytest.approx(hist[-1], abs=1e-12)
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_trajanovski_target_zero_drives_q_down():
    cfg = TrajanovskiConfig(q_target=0.0, communities=2, n=20, num_edges=30, seed=2)
    out = trajanovski_generate(cfg)
    q = _fixed_q(out, 20, 2)
    assert q <= 0.05
    assert out.num_edges == 30
    assert out.n == 20


def test_trajanovski_validation():
    with pytest.raises(ValueError, match="n-1"):
        TrajanovskiConfig(q_target=0.5, communities=2, n=10, num_edges=5)
    with pytest.raises(ValueError, match="capacity"):
        TrajanovskiConfig(q_target=0.5, communities=2, n=6, num_edges=10)


def test_trajanovski_deterministic():
    cfg = TrajanovskiConfig(q_target=0.2, communities=3, n=18, num_edges=25, seed=4)
    assert trajanovski_generate(cfg) == trajanovski_generate(cfg)


def test_dcsbm_single_group_uniform():
    degrees = (3,) * 10
    block = ((15,),)
    cfg = DcsbmConfig(degrees=degrees, partition=Partition((0,) * 10),
                      block_edges=block, seed=6)
    g = dcsbm_generate(cfg)
    assert g.num_edges == 15
    assert g.n == 10


def test_dcsbm_zero_off_diagonal_blocks():
    part = Partition((0,) * 5 + (1,) * 5)
    degrees = (2,) * 10
    block = ((5, 0), (0, 5))
    cfg = DcsbmConfig(degrees=degrees, partition=part, block_edges=block, seed=7)
    g = dcsbm_generate(cfg)
    labels = part.assignment
    assert all(labels[i] == labels[j] for i, j in g.edges)
    assert g.num_edges == 10


def test_dcsbm_config_extraction(two_k4):
    part = Partition((0, 0, 0, 0, 1, 1, 1, 1))
    cfg = dcsbm_config_from(two_k4, part)
    assert cfg.block_edges == ((6, 0), (0, 6))
    assert cfg.degrees == (3,) * 8

    single = dcsbm_config_from(two_k4, Partition((0,) * 8))
    assert single.block_edges == ((12,),)


def test_dcsbm_round_trip_preserves_block_counts():
    rng = np.random.default_rng(13)
    edges = [d for d in itertools.combinations(range(12), 2) if rng.random() < 0.4]
    g = Graph.from_edges(12, edges)
    part = Partition.from_labels([v // 4 for v in range(12)])
    cfg = dcsbm_config_from(g, part)
    out = dcsbm_generate(cfg)
    assert dcsbm_config_from(out, part).block_edges == cfg.block_edges
    assert sum(degree_vector(out)) == sum(degree_vector(g))


def test_dcsbm_validation():
    part = Partition((0, 0, 1, 1))
    with pytest.raises(ValueError, match="symmetric"):
        DcsbmConfig(degrees=(1, 1, 1, 1), partition=part,
                    block_edges=((1, 1), (0, 1)))
    with pytest.raises(ValueError, match="inconsistent"):
        DcsbmConfig(degrees=(5, 5, 1, 1), partition=part,
                    block_edges=((1, 0), (0, 1)))


def test_dcsbm_overdense_block_raises():
    part = Partition((0, 0, 0))
    # 4 distinct edges cannot exist among 3 nodes
    with pytest.raises(ValueError, match="too dense"):
        dcsbm_generate(DcsbmConfig(degrees=(3, 3, 2), partition=part,
                                   block_edges=((4,),), seed=0))


def test_dcsbm_deterministic():
    g = disjoint_cliques(4, 4)
    part = Partition((0, 0, 0, 0, 1, 1, 1, 1))
    cfg = dcsbm_config_from(g, part)
    assert dcsbm_generate(cfg) == dcsbm_generate(cfg)


def former_dcsbm_generate(config):
    """`dcsbm_generate` as it was, building each group's members and
    cumulative degree weights with per-group comprehensions over all nodes."""
    rng = np.random.default_rng(config.seed)
    labels = config.partition.assignment
    m = config.partition.m
    members = []
    cumweights = []
    for r in range(m):
        idx = np.array([v for v in range(len(labels)) if labels[v] == r])
        w = np.array([config.degrees[v] for v in idx], dtype=float)
        members.append(idx)
        cumweights.append(np.cumsum(w))

    def pick(r):
        cum = cumweights[r]
        u = rng.random() * cum[-1]
        return int(members[r][np.searchsorted(cum, u, side="right")])

    edges = set()
    block = np.asarray(config.block_edges)
    for r in range(m):
        for s in range(r, m):
            if block[r, s] and (cumweights[r][-1] == 0 or cumweights[s][-1] == 0):
                raise ValueError(f"block ({r}, {s}) has edges but a zero-degree group")
            for _ in range(int(block[r, s])):
                for _attempt in range(EDGE_RETRY_LIMIT):
                    u = pick(r)
                    v = pick(s)
                    if u == v:
                        continue
                    key = (u, v) if u < v else (v, u)
                    if key in edges:
                        continue
                    edges.add(key)
                    break
                else:
                    raise ValueError(
                        f"block ({r}, {s}) too dense: could not place "
                        f"{block[r, s]} distinct edges"
                    )
    return Graph.from_edges(len(labels), edges)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 40), groups=st.integers(1, 5), density=st.floats(0.05, 0.6),
       seed=st.integers(0, 2**32 - 1))
def test_dcsbm_matches_former_group_build(n, groups, density, seed):
    rng = np.random.default_rng(seed)
    edges = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < density]
    graph = Graph.from_edges(n, edges)
    part = Partition.from_labels(rng.integers(groups, size=n).tolist())
    cfg = replace(dcsbm_config_from(graph, part), seed=seed)
    assert dcsbm_generate(cfg) == former_dcsbm_generate(cfg)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 40), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_trajanovski_skeleton_q_equals_modularity(n, data, seed):
    # the skeleton's q comes from the degree sums it was built with and the
    # chain's m - 1 inter edges; it must equal the from-scratch score exactly
    m = data.draw(st.integers(1, n), label="communities")
    sizes = [n // m + (i < n % m) for i in range(m)]
    capacity = sum(s * (s - 1) // 2 for s in sizes) + m - 1
    num_edges = data.draw(st.integers(n - 1, capacity), label="num_edges")
    cfg = TrajanovskiConfig(q_target=1.0, communities=m, n=n, num_edges=num_edges, seed=seed)
    q_history = []
    with pytest.warns(UserWarning, match="exceeds skeleton"):
        skeleton = trajanovski_generate(cfg, q_history)
    assert q_history == [_fixed_q(skeleton, n, m)]
