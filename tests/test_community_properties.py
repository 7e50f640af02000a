"""Property tests: Louvain, its chain refinement, the exact oracle and the
attack's integer key.

`louvain_maximize` runs on neighbour lists, skips node visits whose outcome
is already fixed and decides each visit from one unordered scan; it is
compared exactly with a reference maximizer kept below as it was: dict
adjacency, the local-move loop that visits every node and scans candidates
in sorted order, and the refinement that rebuilds a node's community
weights for every target. A crafted near tie checks the visit that must
fall back to the sorted scan. The brute-force oracle scores array blocks of
restricted-growth strings; it is compared exactly with the former
one-partition-at-a-time enumeration. The attack orders pairs by an integer
key over squared distances from a matrix product; that order is compared
exactly with the stable argsort of scipy's float Euclidean distances.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from graphforge import community
from graphforge.community import (
    Partition,
    brute_force_max_modularity,
    louvain_maximize,
    modularity,
)
from graphforge.evaluate import _pair_order
from graphforge.graph import Graph, degree_vector

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def former_local_moves(adj, node_degree, comm_degree, comm, two_m, rng):
    """One level of gain-driven single-node moves; returns True if any node moved."""
    n = len(adj)
    moved_any = False
    while True:
        pass_gain = 0.0
        for i in rng.permutation(n):
            a = comm[i]
            ki = node_degree[i]
            w_to: dict[int, float] = {}
            for j, w in adj[i].items():
                cj = comm[j]
                w_to[cj] = w_to.get(cj, 0.0) + w
            comm_degree[a] -= ki
            stay_score = 2.0 * w_to.get(a, 0.0) / two_m - 2.0 * ki * comm_degree[a] / two_m**2
            best_c, best_gain = a, 0.0
            for c in sorted(w_to):
                if c == a:
                    continue
                score = 2.0 * w_to[c] / two_m - 2.0 * ki * comm_degree[c] / two_m**2
                gain = score - stay_score
                if gain > best_gain + community._MOVE_EPS:
                    best_c, best_gain = c, gain
            comm[i] = best_c
            comm_degree[best_c] += ki
            if best_c != a:
                moved_any = True
                pass_gain += best_gain
        if pass_gain < community._GAIN_EPS:
            break
    return moved_any


def former_chain_refine(adj, node_degree, two_m, labels):
    """Kernighan-Lin style escape from single-move local optima.

    Repeatedly builds a chain of locked best single-node moves (negative
    gains allowed mid-chain), then keeps the best prefix. Deterministic:
    ties break toward the lowest node, then the lowest community id.
    """
    n = len(adj)
    labels = list(labels)
    comm_degree: dict[int, float] = {}
    for i, c in enumerate(labels):
        comm_degree[c] = comm_degree.get(c, 0.0) + node_degree[i]
    next_comm = max(labels) + 1

    def move_gain(i: int, target: int) -> float:
        a = labels[i]
        ki = node_degree[i]
        w_to: dict[int, float] = {}
        for j, w in adj[i].items():
            cj = labels[j]
            w_to[cj] = w_to.get(cj, 0.0) + w
        stay = 2.0 * w_to.get(a, 0.0) / two_m \
            - 2.0 * ki * (comm_degree[a] - ki) / two_m**2
        score = 2.0 * w_to.get(target, 0.0) / two_m \
            - 2.0 * ki * comm_degree.get(target, 0.0) / two_m**2
        return score - stay

    while True:
        locked = [False] * n
        chain: list[tuple[int, int, int]] = []
        gain_sum = 0.0
        best_gain = 0.0
        best_prefix = 0
        for _ in range(n):
            step_best = None  # (gain, node, target)
            for i in range(n):
                if locked[i]:
                    continue
                targets = {labels[j] for j in adj[i]}
                targets.add(next_comm)  # splitting off is always on the table
                targets.discard(labels[i])
                for target in sorted(targets):
                    gain = move_gain(i, target)
                    if step_best is None or gain > step_best[0] + community._MOVE_EPS:
                        step_best = (gain, i, target)
            if step_best is None:
                break
            gain, i, target = step_best
            a = labels[i]
            comm_degree[a] -= node_degree[i]
            comm_degree[target] = comm_degree.get(target, 0.0) + node_degree[i]
            labels[i] = target
            if target == next_comm:
                next_comm += 1
            locked[i] = True
            chain.append((i, a, target))
            gain_sum += gain
            if gain_sum > best_gain + community._MOVE_EPS:
                best_gain = gain_sum
                best_prefix = len(chain)
        for i, a, target in reversed(chain[best_prefix:]):
            comm_degree[target] -= node_degree[i]
            comm_degree[a] = comm_degree.get(a, 0.0) + node_degree[i]
            labels[i] = a
        if best_gain < community._GAIN_EPS:
            break
    return labels


def former_aggregate(adj, node_degree, comm):
    """Collapse communities into nodes of a weighted graph, preserving degree sums.

    Intra-community weight folds into the collapsed node's degree (already
    counted in node_degree sums), so only inter-community weights need edges.
    """
    ids = sorted(set(comm))
    dense = {c: idx for idx, c in enumerate(ids)}
    m = len(ids)
    new_adj: list[dict[int, float]] = [{} for _ in range(m)]
    new_degree = [0.0] * m
    for i, c in enumerate(comm):
        new_degree[dense[c]] += node_degree[i]
    for i in range(len(adj)):
        for j, w in adj[i].items():
            if j <= i:
                continue
            ci, cj = dense[comm[i]], dense[comm[j]]
            if ci != cj:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
    return new_adj, new_degree, dense


def former_louvain_single(adj, node_degree, two_m, rng) -> list[int]:
    """One seeded multilevel pass; reads adj and node_degree without changing them."""
    n = len(adj)
    labels = list(range(n))
    while True:
        comm = list(range(len(adj)))
        comm_degree = {c: node_degree[c] for c in comm}
        moved = former_local_moves(adj, node_degree, comm_degree, comm, two_m, rng)
        if not moved:
            break
        adj, node_degree, dense = former_aggregate(adj, node_degree, comm)
        labels = [dense[comm[labels[v]]] for v in range(n)]
        if len(adj) == 1:
            break
    return labels


def dict_adjacency(g: Graph):
    return [dict.fromkeys(nbrs, 1.0) for nbrs in g.neighbor_lists()]


def former_louvain_maximize(graph: Graph, rng_seed: int):
    """The maximizer on dict adjacency, as `louvain_maximize` was."""
    refine = graph.n <= community._REFINE_MAX_NODES
    adj = dict_adjacency(graph)
    node_degree = degree_vector(graph).astype(float).tolist()
    two_m = float(sum(node_degree))
    seeds = np.random.SeedSequence(entropy=int(rng_seed)).spawn(community._RESTARTS)
    best_partition = None
    best_q = -np.inf
    for child in seeds:
        labels = former_louvain_single(adj, node_degree, two_m, np.random.default_rng(child))
        if refine:
            labels = former_chain_refine(adj, node_degree, two_m, labels)
        partition = Partition.from_labels(labels)
        q = modularity(graph, partition)
        if q > best_q + community._MOVE_EPS:
            best_partition, best_q = partition, q
    return best_partition, best_q


def former_set_partitions(n: int):
    """All set partitions of 0..n-1 as restricted-growth label tuples."""
    if n == 0:
        yield ()
        return
    labels = [0] * n

    def rec(pos: int, mx: int):
        if pos == n:
            yield tuple(labels)
            return
        for c in range(mx + 2):
            labels[pos] = c
            yield from rec(pos + 1, max(mx, c))

    yield from rec(1, 0)


def former_brute_force_max_modularity(graph: Graph):
    """Exact maximum-modularity partition by exhaustive enumeration."""
    degrees = degree_vector(graph)
    total = int(degrees.sum())
    edges = graph.sorted_edges()
    k = degrees.astype(float)
    best_labels = None
    best_q = -np.inf
    for labels in former_set_partitions(graph.n):
        intra_ordered = 2 * sum(1 for i, j in edges if labels[i] == labels[j])
        comm_degree = np.bincount(labels, weights=k)
        q = intra_ordered / total - np.sum(comm_degree**2) / total**2
        if q > best_q + community._MOVE_EPS:
            best_labels, best_q = labels, q
    return Partition.from_labels(best_labels), float(best_q)


@st.composite
def block_graphs(draw, min_n, max_n):
    """Random graphs with planted blocks of varied density, and isolated nodes
    at random labels; at least one edge."""
    core = draw(st.integers(min_n, max_n))
    isolated = draw(st.integers(0, 5))
    blocks = draw(st.integers(1, 6))
    p_in = draw(st.floats(0.02, 0.9))
    p_out = draw(st.floats(0.0, p_in))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.integers(0, blocks, core)
    rows, cols = np.triu_indices(core, k=1)
    p = np.where(block[rows] == block[cols], p_in, p_out)
    hit = rng.random(rows.size) < p
    if not hit.any():
        hit[0] = True
    n = core + isolated
    label = rng.permutation(n)
    return Graph.from_edges(n, zip(label[rows[hit]].tolist(), label[cols[hit]].tolist()))


def assert_same_as_former(g: Graph, seed: int) -> None:
    partition, q = louvain_maximize(g, seed)
    expected_partition, expected_q = former_louvain_maximize(g, seed)
    assert partition == expected_partition
    assert q == expected_q


@PROPERTY_SETTINGS
@given(block_graphs(2, community._REFINE_MAX_NODES - 5), st.integers(0, 2**32 - 1))
def test_louvain_equals_former_visit_every_node_with_refinement(g, seed):
    assert_same_as_former(g, seed)


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(block_graphs(community._REFINE_MAX_NODES + 1, 220), st.integers(0, 2**32 - 1))
def test_louvain_equals_former_visit_every_node_without_refinement(g, seed):
    assert_same_as_former(g, seed)


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(block_graphs(2, community._REFINE_MAX_NODES - 5), st.integers(0, 2**32 - 1),
       st.integers(1, 8))
def test_chain_refine_equals_former_rebuild_per_target(g, seed, start_labels):
    # refine both a Louvain pass's local optimum and a random labelling,
    # which leaves the chains many more moves to make
    nbrs = g.neighbor_lists()
    node_degree = degree_vector(g).astype(float).tolist()
    two_m = float(sum(node_degree))
    rng = np.random.default_rng(seed)
    starts = [community._louvain_single(nbrs, node_degree, two_m, rng),
              rng.integers(0, start_labels, g.n).tolist()]
    for labels in starts:
        assert (community._chain_refine(nbrs, node_degree, two_m, labels)
                == former_chain_refine(dict_adjacency(g), node_degree, two_m, labels))


def test_near_tie_replays_the_sorted_rule():
    # an aggregated level with |K| = 12: node 0 (degree 3) has weight 2 to
    # node 1 (degree 5) and weight 1 to node 2 (degree 1); node 3 holds only
    # intra weight. Moving 0 to 1 or to 2 has the same exact gain,
    # 4/12 - 30/144 = 2/12 - 6/144 = 1/8, but the floats differ and node 2's
    # is the larger, so the unordered top is 2 while the sorted rule takes 1
    nbrs = [[1, 1, 2], [0, 0], [0], []]
    node_degree = [3.0, 5.0, 1.0, 3.0]
    two_m = 12.0
    gains = [2.0 * w / two_m - 6.0 * k / two_m**2 for w, k in ((2, 5.0), (1, 1.0))]
    assert gains[0] != gains[1] and abs(gains[0] - gains[1]) < community._MOVE_EPS
    assert gains[1] > gains[0]
    # node 0 is visited first
    seed = next(s for s in range(100) if np.random.default_rng(s).permutation(4)[0] == 0)
    comm = list(range(4))
    with mock.patch.object(community, "_sorted_best", wraps=community._sorted_best) as replay:
        moved = community._local_moves(nbrs, node_degree, list(node_degree), comm, two_m,
                                       np.random.default_rng(seed))
    adj = [{j: float(nbrs[i].count(j)) for j in nbrs[i]} for i in range(4)]
    expected = list(range(4))
    expected_moved = former_local_moves(adj, node_degree, dict(enumerate(node_degree)),
                                        expected, two_m, np.random.default_rng(seed))
    assert (moved, comm) == (expected_moved, expected)
    assert replay.called


@PROPERTY_SETTINGS
@given(block_graphs(2, 60), st.integers(0, 2**32 - 1))
def test_louvain_scores_at_least_the_singleton_partition(g, seed):
    _, q = louvain_maximize(g, seed)
    singletons = modularity(g, Partition(tuple(range(g.n))))
    # every kept move raises q by more than 1e-12; the slack covers only the
    # rounding of the two modularity sums
    assert q >= singletons - 1e-12


@pytest.mark.parametrize("max_rows", [1, 7, 64, 1 << 16])
def test_restricted_growth_blocks_are_the_former_enumeration(max_rows):
    # small blocks force the split path, which must keep the order
    for n in range(1, 8):
        blocks = list(community._restricted_growth_blocks(n, max_rows))
        assert all(len(block) <= max(max_rows, n + 1) for block in blocks)
        strings = [tuple(row) for block in blocks for row in block.tolist()]
        assert strings == list(former_set_partitions(n))


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(st.integers(2, 9), st.floats(0.1, 0.9), st.integers(0, 2**32 - 1))
def test_brute_force_equals_former_enumeration(n, p, seed):
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, k=1)
    hit = rng.random(rows.size) < p
    hit[rng.integers(rows.size)] = True
    g = Graph.from_edges(n, zip(rows[hit].tolist(), cols[hit].tolist()))
    assert brute_force_max_modularity(g) == former_brute_force_max_modularity(g)


@PROPERTY_SETTINGS
@given(st.integers(1, 30), st.integers(1, 6) | st.just(64),
       st.sampled_from([3, 40, 300, 5000, 10**6]), st.integers(0, 2**32 - 1))
@example(30, 64, 10**6, 0)  # squared distances up to 64e12, keys of 8 bytes
def test_integer_key_order_equals_float_stable_argsort(width, seeds, n, seed):
    rng = np.random.default_rng(seed)
    # hop counts below a small diameter, so many distances tie, and the
    # unreachable sentinel n in about a fifth of the entries
    sigs = []
    for _ in range(2):
        hops = rng.integers(0, min(n, 6), (width, seeds)).astype(float)
        hops[rng.random((width, seeds)) < 0.2] = n
        sigs.append(hops)
    expected = np.argsort(cdist(sigs[0], sigs[1]).ravel(), kind="stable")
    assert np.array_equal(_pair_order(sigs[0], sigs[1]), expected)
