"""Property tests: the array-backed Graph against plain-Python references.

Random small edge lists come with shuffled orientation and repeated pairs;
each array-based result is compared exactly with a loop over tuples. The
attack's bit-parallel seed distances are compared with a Python
breadth-first search and with scipy's shortest paths, up to three bitset
words per node. The blocked expansion of ragged runs that the sampler, the
clustering and the search share is compared with a loop over the runs. The
wedge and seed-distance kernels also run on fixed shapes that stress them
differently: a long path, a grid, a star and a dense uniform graph.
"""

import itertools
import math
from collections import Counter, deque
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import shortest_path

from graphforge import attack
from graphforge import graph as graph_mod
from graphforge.attack import _seed_distances
from graphforge.graph import (
    Graph,
    average_clustering,
    degree_vector,
    load_edge_list,
    write_edge_list,
)

from conftest import clustering_oracle, path_graph

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def _fixed_shapes() -> list[tuple[Graph, list[int]]]:
    """(graph, seeds) for a 300-node path, a 15 x 15 grid, a star of 200
    leaves and a uniform graph of 80 nodes at p = 0.3, each with
    ceil(0.05 n) distinct seeds, as the attack draws them."""
    rng = np.random.default_rng(11)
    side = 15
    grid = [(v, v + 1) for v in range(side * side) if v % side < side - 1]
    grid += [(v, v + side) for v in range(side * (side - 1))]
    rows, cols = np.triu_indices(80, k=1)
    hit = rng.random(rows.size) < 0.3
    graphs = [path_graph(300), Graph.from_edges(side * side, grid),
              Graph.from_edges(201, [(0, leaf) for leaf in range(1, 201)]),
              Graph.from_edges(80, zip(rows[hit].tolist(), cols[hit].tolist()))]
    return [(g, sorted(rng.choice(g.n, math.ceil(0.05 * g.n), replace=False).tolist()))
            for g in graphs]


def _on_fixed_shapes(blocks, with_seeds):
    """Explicit examples: each fixed shape at each block size."""
    def decorate(test):
        for g, seeds in _fixed_shapes():
            for block in blocks:
                test = example((g, seeds) if with_seeds else g, block)(test)
        return test
    return decorate


@st.composite
def edge_lists(draw, max_n=14):
    """(n, pairs): i != j, either orientation, duplicates allowed."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    return n, draw(st.lists(pair, max_size=3 * n))


def canonical(pairs) -> set[tuple[int, int]]:
    return {(min(i, j), max(i, j)) for i, j in pairs}


@PROPERTY_SETTINGS
@given(edge_lists(), st.randoms(use_true_random=False))
def test_from_edges_matches_set_of_tuples(case, rnd):
    n, pairs = case
    g = Graph.from_edges(n, pairs)
    expected = canonical(pairs)
    assert g.sorted_edges() == sorted(expected)
    assert g.num_edges == len(expected)
    assert not g.rows.flags.writeable and not g.cols.flags.writeable

    flipped = [(j, i) if rnd.random() < 0.5 else (i, j) for i, j in expected]
    rnd.shuffle(flipped)
    assert Graph.from_edges(n, flipped + flipped[:2]) == g
    assert Graph.from_edges(n + 1, pairs) != g
    if n and expected:
        assert Graph.from_edges(n, sorted(expected)[1:]) != g
        assert g.with_attributes({"x": ["a"] * n}) != g

    nbrs = [set() for _ in range(n)]
    for i, j in expected:
        nbrs[i].add(j)
        nbrs[j].add(i)
    assert g.neighbor_sets() == nbrs


@PROPERTY_SETTINGS
@given(edge_lists())
def test_degrees_match_edge_count(case):
    n, pairs = case
    g = Graph.from_edges(n, pairs)
    counts = Counter(v for edge in canonical(pairs) for v in edge)
    degrees = degree_vector(g)
    assert degrees.tolist() == [counts[v] for v in range(n)]
    assert int(degrees.sum()) == 2 * g.num_edges
    assert not degrees.flags.writeable


@PROPERTY_SETTINGS
@given(edge_lists())
def test_average_clustering_matches_triangle_count_exactly(case):
    n, pairs = case
    g = Graph.from_edges(n, pairs)
    assert average_clustering(g) == clustering_oracle(n, canonical(pairs))


@st.composite
def graphs_with_cliques(draw):
    """Random edge lists, or a complete graph on a prefix of the nodes with
    the rest isolated (the empty and the complete graph included)."""
    if draw(st.booleans()):
        return Graph.from_edges(*draw(edge_lists()))
    n = draw(st.integers(0, 14))
    k = draw(st.integers(0, n))
    return Graph.from_edges(n, itertools.combinations(range(k), 2))


def blocked_runs_oracle(lengths, starts, budget, weights):
    """The blocks of `_blocked_runs`, by a loop over the runs: a block takes
    its first run, then each next run while the weights stay within budget."""
    blocks, lo = [], 0
    while lo < len(lengths):
        hi, total = lo + 1, weights[lo]
        while hi < len(lengths) and total + weights[hi] <= budget:
            total += weights[hi]
            hi += 1
        heads, pos = [], []
        for r in range(lo, hi):
            heads.append(len(pos))
            pos.extend(range(starts[r], starts[r] + lengths[r]))
        blocks.append((lo, hi, heads, pos))
        lo = hi
    return blocks


@st.composite
def ragged_runs(draw):
    """(lengths, starts, budget, weights or None), zero-length runs and
    budgets below one run's weight included."""
    count = draw(st.integers(0, 12))
    lengths = draw(st.lists(st.integers(0, 6), min_size=count, max_size=count))
    starts = draw(st.lists(st.integers(-5, 20), min_size=count, max_size=count))
    weights = draw(st.none() | st.lists(st.integers(0, 10), min_size=count, max_size=count))
    return lengths, starts, draw(st.integers(0, 15)), weights


@PROPERTY_SETTINGS
@given(ragged_runs())
def test_blocked_runs_match_a_python_loop(case):
    lengths, starts, budget, weights = case
    blocks = graph_mod._blocked_runs(np.array(lengths, dtype=np.int64),
                                     np.array(starts, dtype=np.int64), budget,
                                     None if weights is None else np.array(weights, dtype=np.int64))
    got = [(lo, hi, heads.tolist(), pos.tolist()) for lo, hi, heads, pos in blocks]
    assert got == blocked_runs_oracle(lengths, starts, budget,
                                      lengths if weights is None else weights)


@PROPERTY_SETTINGS
@given(graphs_with_cliques(), st.sampled_from([1, 2, 5, graph_mod._WEDGE_BLOCK]))
@_on_fixed_shapes([1, graph_mod._WEDGE_BLOCK], with_seeds=False)
def test_links_and_neighbours_match_dense_oracle(g, block):
    # any wedge block size, down to one candidate pair, gives the same links
    a = g.adjacency()
    with mock.patch.object(graph_mod, "_WEDGE_BLOCK", block):
        links = g._closed_wedges()
    assert links.tolist() == ((a @ a) * a).sum(axis=1).astype(np.int64).tolist()
    assert g.neighbor_lists() == [np.flatnonzero(a[v]).tolist() for v in range(g.n)]


def bfs_distances(nbrs: list[set[int]], source: int, n: int, sentinel: int) -> np.ndarray:
    dist = np.full(n, sentinel, dtype=float)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if dist[v] == sentinel:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def csgraph_distances(g: Graph, seeds: list[int]) -> np.ndarray:
    """scipy's unweighted shortest paths from the seeds over the edge
    arrays, with the sentinel n for unreachable pairs."""
    a = sparse.coo_array((np.ones(g.num_edges), (g.rows, g.cols)), shape=(g.n, g.n))
    dist = shortest_path(a.tocsr(), directed=False, unweighted=True, indices=seeds)
    dist[np.isinf(dist)] = g.n
    return dist


@st.composite
def seeded_graphs(draw):
    """(graph, distinct seeds): a small random edge list with any seeds, or
    a graph of 63 to 130 seeds plus up to 40 nodes (one to three bitset
    words per node) whose edges stay inside 1 to 3 node ranges, from
    edgeless to about 2 edges per node, so isolated seeds and separate
    components are common."""
    if draw(st.booleans()):
        n, pairs = draw(edge_lists().filter(lambda case: case[0] > 0))
        return Graph.from_edges(n, pairs), sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    k = draw(st.sampled_from([63, 64, 65, 130]))
    n = k + draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = np.sort(rng.integers(0, n + 1, draw(st.integers(0, 2))))
    block = np.searchsorted(cuts, np.arange(n), "right")
    ends = rng.integers(0, n, (draw(st.integers(0, 2 * n)), 2))
    ends = ends[(ends[:, 0] != ends[:, 1]) & (block[ends[:, 0]] == block[ends[:, 1]])]
    seeds = sorted(rng.choice(n, k, replace=False).tolist())
    return Graph.from_edges(n, ends.tolist()), seeds


@PROPERTY_SETTINGS
@given(seeded_graphs(), st.sampled_from([1, 300, attack._BFS_BLOCK]))
@_on_fixed_shapes([1, attack._BFS_BLOCK], with_seeds=True)
def test_seed_distances_match_python_bfs(case, block):
    # any block size, down to one node per block, gives the same distances
    g, seeds = case
    nbrs = g.neighbor_sets()
    expected = np.stack([bfs_distances(nbrs, s, g.n, sentinel=g.n) for s in seeds])
    with mock.patch.object(attack, "_BFS_BLOCK", block):
        dist = _seed_distances(g, seeds)
    assert dist.shape == (len(seeds), g.n) and dist.dtype == np.float64
    assert np.array_equal(dist, expected)
    assert np.array_equal(dist, csgraph_distances(g, seeds))


@PROPERTY_SETTINGS
@given(edge_lists(), st.randoms(use_true_random=False))
def test_edge_list_round_trip(case, rnd):
    n, pairs = case
    g = Graph.from_edges(n, pairs)
    text = write_edge_list(g)
    assert load_edge_list(text) == g
    # the reader takes any line order, orientation and repetition
    lines = text.splitlines()
    body = [f"{j} {i}" if rnd.random() < 0.5 else line
            for line in lines[1:] for i, j in [line.split()]]
    body += body[:3]
    rnd.shuffle(body)
    assert load_edge_list("\n".join([lines[0], *body])) == g
