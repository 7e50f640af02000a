"""Property tests: Louvain's skipped node visits, its chain refinement and
the attack's integer key.

`louvain_maximize` skips node visits whose outcome is already fixed; it is
compared exactly with the same maximizer running the former local-move
loop, kept below as it was, which visits every node. The chain refinement
scores every target of a node from one build of its community weights; it
is compared exactly with the former refinement, kept below as it was, which
rebuilt them for every target. The attack orders pairs by an integer key;
that order is compared exactly with the stable argsort of the float
Euclidean distances it replaced.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from graphforge import community
from graphforge.community import Partition, louvain_maximize, modularity
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
    with mock.patch.object(community, "_local_moves", former_local_moves):
        expected_partition, expected_q = louvain_maximize(g, seed)
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
    adj = [dict.fromkeys(nbrs, 1.0) for nbrs in g.neighbor_lists()]
    node_degree = degree_vector(g).astype(float).tolist()
    two_m = float(sum(node_degree))
    rng = np.random.default_rng(seed)
    starts = [community._louvain_single(adj, node_degree, two_m, rng),
              rng.integers(0, start_labels, g.n).tolist()]
    for labels in starts:
        assert (community._chain_refine(adj, node_degree, two_m, labels)
                == former_chain_refine(adj, node_degree, two_m, labels))


@PROPERTY_SETTINGS
@given(block_graphs(2, 60), st.integers(0, 2**32 - 1))
def test_louvain_scores_at_least_the_singleton_partition(g, seed):
    _, q = louvain_maximize(g, seed)
    singletons = modularity(g, Partition(tuple(range(g.n))))
    # every kept move raises q by more than 1e-12; the slack covers only the
    # rounding of the two modularity sums
    assert q >= singletons - 1e-12


@PROPERTY_SETTINGS
@given(st.integers(1, 30), st.integers(1, 6),
       st.sampled_from([3, 40, 300, 5000, 10**6]), st.integers(0, 2**32 - 1))
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
