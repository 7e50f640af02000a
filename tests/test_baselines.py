import itertools
import math
import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphforge import baselines
from graphforge.baselines import (
    EDGE_RETRY_LIMIT,
    DcsbmConfig,
    TrajanovskiConfig,
    _Words,
    community_skeleton_partition,
    dcsbm_config_from,
    dcsbm_generate,
    trajanovski_generate,
)
from graphforge.community import Partition, modularity
from graphforge.graph import Graph, degree_vector

from conftest import dcsbm_oracle, disjoint_cliques, trajanovski_oracle


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
    assert out == skeleton


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
    # one node needs no edge to connect, but the modularity would divide by 0
    with pytest.raises(ValueError, match="modularity is undefined without edges"):
        TrajanovskiConfig(q_target=0.0, communities=1, n=1, num_edges=0)
    # a NaN target compares false with every modularity, so it would return
    # the unrewired skeleton without a warning
    with pytest.raises(ValueError, match="NaN"):
        TrajanovskiConfig(q_target=float("nan"), communities=4, n=40, num_edges=80)


def test_trajanovski_minus_infinity_target_warns_that_rewiring_stalled():
    cfg = TrajanovskiConfig(q_target=-math.inf, communities=4, n=40, num_edges=80)
    with pytest.warns(UserWarning, match="rewiring stalled"):
        trajanovski_generate(cfg)


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
    assert all(labels[i] == labels[j] for i, j in g.sorted_edges())
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


# bounds at which Lemire's rule rejects about a half and a quarter of the
# 32-bit words, and the largest bound below 2**32 (it rejects one word)
_REJECTION_HEAVY = (2**31 + 1, 3 * 2**30, 2**32 - 1)
_BOUNDS = st.one_of(st.integers(1, 2**32), st.sampled_from(_REJECTION_HEAVY + (1, 2, 2**32)))
_POPULATIONS = st.integers(2, 20_000)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), chunk=st.integers(1, 64),
       bounds=st.lists(_BOUNDS, min_size=1, max_size=80))
@example(seed=0, chunk=1, bounds=list(_REJECTION_HEAVY) * 20)
def test_bulk_below_replays_scalar_integers(seed, chunk, bounds):
    draws = _Words(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    with mock.patch.object(baselines, "_WORD_CHUNK", chunk):
        assert [draws.below(b) for b in bounds] == [int(rng.integers(b)) for b in bounds]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), chunk=st.integers(1, 64),
       populations=st.lists(_POPULATIONS, min_size=1, max_size=40))
@example(seed=0, chunk=3, populations=[2, 3, 10_000, 10_001, 20_000] * 8)
def test_bulk_pair_replays_scalar_choice_without_replacement(seed, chunk, populations):
    draws = _Words(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    expected = [tuple(rng.choice(k, 2, replace=False).tolist()) for k in populations]
    with mock.patch.object(baselines, "_WORD_CHUNK", chunk):
        assert [draws.pair(k) for k in populations] == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), chunk=st.integers(1, 64),
       calls=st.lists(st.one_of(st.tuples(st.just("below"), _BOUNDS),
                                st.tuples(st.just("pair"), _POPULATIONS)),
                      min_size=1, max_size=80))
def test_bulk_draws_replay_interleaved_scalar_calls(seed, chunk, calls):
    draws = _Words(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    with mock.patch.object(baselines, "_WORD_CHUNK", chunk):
        for kind, bound in calls:
            if kind == "below":
                assert draws.below(bound) == int(rng.integers(bound))
            else:
                assert draws.pair(bound) == tuple(rng.choice(bound, 2, replace=False).tolist())


@pytest.mark.parametrize("bound", [0, -1, 2**32 + 1, 2**40])
def test_bulk_below_refuses_bounds_it_cannot_replay(bound):
    # numpy refuses a bound below 1 and serves one above 2**32 from 64-bit
    # words, which the replay does not model: both must raise, never diverge
    draws = _Words(np.random.default_rng(0))
    with pytest.raises(ValueError, match="outside"):
        draws.below(bound)
    with pytest.raises(ValueError, match="outside"):
        draws.pair(bound + 1)


def _outcome(generate, *args):
    """What a call returns or raises, and the warnings it emits, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = generate(*args)
        except ValueError as err:
            result = f"ValueError: {err}"
    return result, [(w.category, str(w.message)) for w in caught]


def _skeleton_shape(data, n):
    m = data.draw(st.integers(1, n), label="communities")
    sizes = [n // m + (i < n % m) for i in range(m)]
    capacity = sum(s * (s - 1) // 2 for s in sizes) + m - 1
    return m, capacity


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 60), data=st.data(), seed=st.integers(0, 2**32 - 1),
       q_target=st.one_of(st.floats(-0.6, 1.0), st.sampled_from([-math.inf, math.inf, 0.0])))
def test_trajanovski_equals_former_scalar_draws(n, data, seed, q_target):
    m, capacity = _skeleton_shape(data, n)
    num_edges = data.draw(st.integers(n - 1, capacity), label="num_edges")
    cfg = TrajanovskiConfig(q_target=q_target, communities=m, n=n, num_edges=num_edges, seed=seed)
    history, former_history = [], []
    assert _outcome(trajanovski_generate, cfg, history) == _outcome(trajanovski_oracle, cfg, former_history)
    assert history == former_history


def _dense_scans(config: TrajanovskiConfig) -> int:
    """Edges that the dense-community scan of the skeleton build placed.

    With the target above the skeleton nothing is drawn after the skeleton,
    and the pair attempts come after the tree and the chain, so each
    `below` call made after the first pair and not inside one is a scan's."""
    log = []
    inside_pair = []
    below, pair = _Words.below, _Words.pair

    def spy_below(self, b):
        if not inside_pair:
            log.append("below")
        return below(self, b)

    def spy_pair(self, k):
        log.append("pair")
        inside_pair.append(k)
        try:
            return pair(self, k)
        finally:
            inside_pair.pop()

    with mock.patch.object(_Words, "below", spy_below), mock.patch.object(_Words, "pair", spy_pair):
        with pytest.warns(UserWarning, match="exceeds skeleton"):
            trajanovski_generate(replace(config, q_target=1.0))
    return log[log.index("pair"):].count("below") if "pair" in log else 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(20, 40), communities=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       missing=st.integers(0, 3), q_target=st.floats(-0.2, 1.0))
def test_trajanovski_dense_fallback_equals_former(n, communities, seed, missing, q_target):
    # communities filled to (almost) every pair: the last pairs are hard to
    # hit in EDGE_RETRY_LIMIT attempts, so the free-pair scan places them
    sizes = [n // communities + (i < n % communities) for i in range(communities)]
    num_edges = sum(s * (s - 1) // 2 for s in sizes) + communities - 1 - missing
    cfg = TrajanovskiConfig(q_target=q_target, communities=communities, n=n,
                            num_edges=num_edges, seed=seed)
    history, former_history = [], []
    assert _outcome(trajanovski_generate, cfg, history) == _outcome(trajanovski_oracle, cfg, former_history)
    assert history == former_history


def test_trajanovski_dense_fallback_is_exercised():
    cfg = TrajanovskiConfig(q_target=1.0, communities=1, n=30, num_edges=435, seed=0)
    assert _dense_scans(cfg) > 0
    assert _outcome(trajanovski_generate, cfg) == _outcome(trajanovski_oracle, cfg)


@pytest.mark.parametrize("n, communities", [(5, 5), (12, 12), (30, 30), (6, 1), (12, 1)])
@pytest.mark.parametrize("q_target", [-math.inf, -0.5])
def test_trajanovski_degenerate_partitions_equal_former(n, communities, q_target):
    # communities == n: the intra pool stays empty, yet each migration still
    # draws its cross pair; communities == 1: no cross pair exists and the
    # inter pool is empty, so every move is stale and rewiring stalls
    for seed in range(3):
        cfg = TrajanovskiConfig(q_target=q_target, communities=communities, n=n,
                                num_edges=2 * n if communities == 1 else n - 1, seed=seed)
        history, former_history = [], []
        outcome = _outcome(trajanovski_generate, cfg, history)
        assert outcome == _outcome(trajanovski_oracle, cfg, former_history)
        assert history == former_history
        if communities == 1:
            assert history == [0.0] and "rewiring stalled" in outcome[1][0][1]


@st.composite
def _dcsbm_configs(draw):
    """Block-model inputs read off a random graph. Near-complete graphs and
    hubs joined to every node make blocks whose last edges have few free
    pairs left, which often raises "too dense"."""
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.one_of(st.floats(0.05, 0.9), st.floats(0.95, 1.0)))
    edges = {pair for pair in itertools.combinations(range(n), 2) if rng.random() < density}
    for hub in range(draw(st.integers(0, 2))):
        edges.update((min(hub, v), max(hub, v)) for v in range(n) if v != hub)
    part = Partition.from_labels(rng.integers(draw(st.integers(1, 5)), size=n).tolist())
    return replace(dcsbm_config_from(Graph.from_edges(n, edges), part), seed=seed)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=_dcsbm_configs())
def test_dcsbm_equals_former_scalar_draws(cfg):
    # a round holds only the attempts its block still needs, so a run of
    # failed attempts straddles round boundaries, and with them bulk draws
    assert _outcome(dcsbm_generate, cfg) == _outcome(dcsbm_oracle, cfg)


@pytest.mark.parametrize("seed", [1, 7, 32, 64, 99])
def test_dcsbm_too_dense_across_rounds_equals_former(seed):
    # three of the four edges fit; the fourth fails EDGE_RETRY_LIMIT times
    # in a row over rounds of one attempt each
    cfg = DcsbmConfig(degrees=(3, 3, 2), partition=Partition((0, 0, 0)),
                      block_edges=((4,),), seed=seed)
    outcome = _outcome(dcsbm_generate, cfg)
    assert outcome == _outcome(dcsbm_oracle, cfg)
    assert outcome[0] == "ValueError: block (0, 0) too dense: could not place 4 distinct edges"


@pytest.mark.parametrize("build, message", [
    (lambda: TrajanovskiConfig(q_target=0.1, communities=0, n=4, num_edges=3),
     "need 1 <= communities <= n"),
    (lambda: TrajanovskiConfig(q_target=0.1, communities=5, n=4, num_edges=3),
     "need 1 <= communities <= n"),
    (lambda: DcsbmConfig(degrees=(1, 1), partition=Partition((0, 0, 0)), block_edges=((1,),)),
     "partition length must match degree sequence length"),
    (lambda: DcsbmConfig(degrees=(-1, 1), partition=Partition((0, 0)), block_edges=((0,),)),
     "degrees must be non-negative"),
    (lambda: DcsbmConfig(degrees=(1, 1), partition=Partition((0, 1)), block_edges=((1,),)),
     "block_edges must be 2x2, got (1, 1)"),
    (lambda: DcsbmConfig(degrees=(0, 0), partition=Partition((0, 0)), block_edges=((-1,),)),
     "block edge counts must be non-negative"),
    (lambda: dcsbm_config_from(Graph.from_edges(3, [(0, 1)]), Partition((0, 0))),
     "partition length must match graph node count"),
])
def test_baseline_configs_refuse_malformed_input(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
