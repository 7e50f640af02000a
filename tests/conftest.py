import itertools
from collections import Counter

import pytest

from graphforge.graph import Graph, degree_vector


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def disjoint_cliques(*sizes: int) -> Graph:
    edges = []
    start = 0
    for s in sizes:
        nodes = range(start, start + s)
        edges.extend(itertools.combinations(nodes, 2))
        start += s
    return Graph.from_edges(start, edges)


@pytest.fixture
def two_k4() -> Graph:
    return disjoint_cliques(4, 4)


def modularity_oracle(g: Graph, labels) -> float:
    """Direct double-loop evaluation over all ordered pairs, diagonal included."""
    a = g.adjacency()
    k = degree_vector(g).astype(float)
    total = k.sum()
    q = 0.0
    for i in range(g.n):
        for j in range(g.n):
            if labels[i] == labels[j]:
                q += a[i, j] - k[i] * k[j] / total
    return q / total


def set_partitions_oracle(n):
    """Set partitions of range(n) as lists of blocks, built by recursive block
    insertion (independent of the restricted-growth enumeration in the library)."""
    if n == 0:
        yield []
        return
    for smaller in set_partitions_oracle(n - 1):
        for idx in range(len(smaller)):
            yield smaller[:idx] + [smaller[idx] + [n - 1]] + smaller[idx + 1:]
        yield smaller + [[n - 1]]


def blocks_to_labels(blocks, n):
    labels = [0] * n
    for cid, block in enumerate(blocks):
        for v in block:
            labels[v] = cid
    return labels


def clustering_oracle(n: int, edges: set[tuple[int, int]]) -> float:
    """Brute-force triangle count, then the per-node ratios summed in node order."""
    if n == 0:
        return 0.0
    triangles = [0] * n
    for a, b, c in itertools.combinations(range(n), 3):
        if (a, b) in edges and (b, c) in edges and (a, c) in edges:
            triangles[a] += 1
            triangles[b] += 1
            triangles[c] += 1
    degree = Counter(v for edge in edges for v in edge)
    total = 0.0
    for v in range(n):
        k = degree[v]
        if k >= 2:
            total += 2 * triangles[v] / (k * (k - 1))
    return total / n
