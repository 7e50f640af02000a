import contextlib
import itertools
import math
import signal
import time
import warnings
from collections import Counter

import numpy as np
import pytest

from graphforge.baselines import (
    _DECREASE_EPS,
    _STALE_LIMIT,
    EDGE_RETRY_LIMIT,
    DcsbmConfig,
    TrajanovskiConfig,
    _community_sizes,
    community_skeleton_partition,
)
from graphforge.graph import Graph, degree_vector

# wall-clock limit on each test's setup, call and teardown together, so that a
# loop that stops making progress fails instead of hanging the run. No test
# comes near it (the slowest takes ~10 s); a subprocess under its own timeout
# of up to this long is still killed, as the failure unwinds through
# subprocess.run.
TEST_TIME_LIMIT_S = 300


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Fail the running test if the body takes more than `seconds` of wall
    time. An enclosing limit is restored, less the time spent here, on exit.
    Forked children do not inherit the timer."""
    def expire(signum, frame):
        pytest.fail(f"exceeded the {seconds} s time limit")

    handler = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 1e-3))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    with _time_limit(TEST_TIME_LIMIT_S):
        yield


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


# The rewiring and block-model baselines as they were before drawing in bulk:
# one scalar numpy call per draw. The bulk versions must equal them exactly.


def _former_initial_graph(config: TrajanovskiConfig, rng) -> tuple[set[tuple[int, int]], np.ndarray]:
    """Spanning tree per community, chain of single inter-community links,
    then extra intra edges balanced across communities (minimizes the degree
    imbalance penalty, which maximizes the fixed-partition modularity).

    Returns the edges and each community's degree sum."""
    sizes = _community_sizes(config.n, config.communities)
    blocks: list[list[int]] = []
    start = 0
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    edges: set[tuple[int, int]] = set()
    comm_degree = [0.0] * config.communities

    def add(u: int, v: int, cu: int, cv: int):
        edges.add((u, v) if u < v else (v, u))
        comm_degree[cu] += 1
        comm_degree[cv] += 1

    for c, nodes in enumerate(blocks):
        for idx in range(1, len(nodes)):
            parent = nodes[int(rng.integers(idx))]
            add(parent, nodes[idx], c, c)
    for c in range(config.communities - 1):
        u = blocks[c][int(rng.integers(len(blocks[c])))]
        v = blocks[c + 1][int(rng.integers(len(blocks[c + 1])))]
        add(u, v, c, c + 1)

    remaining = config.num_edges - len(edges)
    capacity = [s * (s - 1) // 2 for s in sizes]
    used = [len(b) - 1 for b in blocks]
    for _ in range(remaining):
        open_comms = [c for c in range(config.communities) if used[c] < capacity[c]]
        c = min(open_comms, key=lambda cc: (comm_degree[cc], cc))
        nodes = blocks[c]
        placed = False
        for _ in range(EDGE_RETRY_LIMIT):
            u, v = rng.choice(len(nodes), size=2, replace=False)
            u, v = nodes[int(u)], nodes[int(v)]
            key = (u, v) if u < v else (v, u)
            if key not in edges:
                add(u, v, c, c)
                used[c] += 1
                placed = True
                break
        if not placed:
            # dense community: fall back to scanning its free pairs
            free = [
                (a, b)
                for ai, a in enumerate(nodes)
                for b in nodes[ai + 1:]
                if (a, b) not in edges
            ]
            a, b = free[int(rng.integers(len(free)))]
            add(a, b, c, c)
            used[c] += 1
    return edges, np.array(comm_degree)


class _FormerEdgePools:
    """Edge set split into intra/inter pools supporting O(1) sample and swap-remove."""

    def __init__(self, edges, labels):
        self.labels = labels
        self.intra: list[tuple[int, int]] = []
        self.inter: list[tuple[int, int]] = []
        # every edge's index in its pool; its keys are the edge set
        self.pos: dict[tuple[int, int], int] = {}
        for e in sorted(edges):
            self.add(e)

    def _pool(self, e):
        return self.intra if self.labels[e[0]] == self.labels[e[1]] else self.inter

    def add(self, e):
        pool = self._pool(e)
        self.pos[e] = len(pool)
        pool.append(e)

    def sample(self, pool, rng):
        return pool[int(rng.integers(len(pool)))] if pool else None

    def remove(self, e):
        pool = self._pool(e)
        idx = self.pos.pop(e)
        last = pool.pop()
        if last != e:
            pool[idx] = last
            self.pos[last] = idx


def trajanovski_oracle(config: TrajanovskiConfig, q_history: list[float] | None = None) -> Graph:
    """Rewire from the maximum-modularity skeleton down to a target value.

    The community partition stays fixed throughout; every accepted move
    strictly lowers the fixed-partition modularity, and rewiring stops once
    it reaches q_target (the last move may overshoot by at most one step) or
    no decreasing move turns up. Move vocabulary, each kind drawn with equal
    chance: migrate an intra edge to a cross-community pair, or swap one
    endpoint of an inter edge for a node of another community.

    If q_history is given, it receives the skeleton's fixed-partition
    modularity followed by the value after each accepted move. Warns instead
    of raising when the target exceeds the skeleton's modularity or turns out
    to be unreachable.
    """
    rng = np.random.default_rng(config.seed)
    partition = community_skeleton_partition(config.n, config.communities)
    labels = partition.assignment
    edges, comm_degree = _former_initial_graph(config, rng)
    total = 2.0 * config.num_edges
    ksq = float(np.sum(comm_degree**2))
    # the chain links are the skeleton's only inter-community edges
    intra = config.num_edges - (config.communities - 1)
    q = 2.0 * intra / total - ksq / total**2
    if q_history is not None:
        q_history.append(q)

    if config.q_target > q:
        warnings.warn(
            f"target modularity {config.q_target} exceeds skeleton modularity {q:.6f}; "
            "returning the unmodified skeleton"
        )
        return Graph.from_edges(config.n, edges)

    pools = _FormerEdgePools(edges, labels)
    n = config.n

    def cross_pair():
        """A non-edge between two communities, or None after EDGE_RETRY_LIMIT tries."""
        for _ in range(EDGE_RETRY_LIMIT):
            u = int(rng.integers(n))
            v = int(rng.integers(n))
            if labels[u] == labels[v]:
                continue
            key = (u, v) if u < v else (v, u)
            if key in pools.pos:
                continue
            return key
        return None

    def delta_q(removed, added):
        d_intra = 0
        deltas: dict[int, float] = {}
        for (u, v), sign in ((removed, -1.0), (added, 1.0)):
            cu, cv = labels[u], labels[v]
            if cu == cv:
                d_intra += int(sign)
            deltas[cu] = deltas.get(cu, 0.0) + sign
            deltas[cv] = deltas.get(cv, 0.0) + sign
        d_ksq = 0.0
        for c, d in deltas.items():
            d_ksq += (comm_degree[c] + d) ** 2 - comm_degree[c] ** 2
        return 2.0 * d_intra / total - d_ksq / total**2, d_intra, deltas

    stale = 0
    while q > config.q_target and stale < _STALE_LIMIT:
        candidate = None
        if int(rng.integers(2)) == 0:  # intra edge -> cross-community pair
            old = pools.sample(pools.intra, rng)
            new = cross_pair()
            if old and new:
                candidate = (old, new)
        else:  # swap one endpoint of an inter edge
            old = pools.sample(pools.inter, rng)
            if old:
                keep = old[int(rng.integers(2))]
                for _ in range(EDGE_RETRY_LIMIT):
                    w = int(rng.integers(n))
                    if w == keep or labels[w] == labels[keep]:
                        continue
                    key = (keep, w) if keep < w else (w, keep)
                    if key in pools.pos:
                        continue
                    candidate = (old, key)
                    break
        if candidate is None:
            stale += 1
            continue
        dq, d_intra, deltas = delta_q(*candidate)
        if dq >= -_DECREASE_EPS:
            stale += 1
            continue
        old, new = candidate
        pools.remove(old)
        pools.add(new)
        intra += d_intra
        for c, d in deltas.items():
            comm_degree[c] += d
        ksq = float(np.sum(comm_degree**2))
        q = 2.0 * intra / total - ksq / total**2
        if q_history is not None:
            q_history.append(q)
        stale = 0

    if q > config.q_target:
        warnings.warn(
            f"rewiring stalled at fixed-partition modularity {q:.6f} "
            f"above target {config.q_target}"
        )
    return Graph.from_edges(config.n, pools.pos)



def dcsbm_oracle(config: DcsbmConfig) -> Graph:
    """Sample a simple graph with exact per-block edge counts.

    Within each group, endpoints are drawn proportionally to target degree;
    self-loops and duplicate edges are resampled up to a retry cap, after
    which the block is declared over-dense.
    """
    rng = np.random.default_rng(config.seed)
    labels = np.asarray(config.partition.assignment)
    m = config.partition.m
    degrees = np.asarray(config.degrees, dtype=float)
    members = [np.flatnonzero(labels == r) for r in range(m)]
    cumweights = [np.cumsum(degrees[idx]) for idx in members]

    def pick(r: int) -> int:
        cum = cumweights[r]
        u = rng.random() * cum[-1]
        return int(members[r][np.searchsorted(cum, u, side="right")])

    edges: set[tuple[int, int]] = set()
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


# The forge as it was before it worked in place: numpy's eigh, then copying
# filter, back-transformation, normalization and entropy, and the one-shot
# dyad sampler. The in-place pipeline must equal them bit for bit.


def former_modularity_matrix(g: Graph) -> np.ndarray:
    degrees = degree_vector(g)
    k = degrees.astype(float)
    return g.adjacency() - np.outer(k, k) / int(degrees.sum())


def former_eigendecompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    values, vectors = np.linalg.eigh(m)
    n = values.shape[0]
    order = np.lexsort((np.arange(n), -values, -np.abs(values)))
    values = values[order]
    vectors = vectors[:, order]
    if n:
        pivot = np.argmax(np.abs(vectors), axis=0)
        vectors[:, vectors[pivot, np.arange(n)] < 0] *= -1.0
    return values, vectors


def former_probabilities(values, vectors, degrees, alpha, rule, logistic_k=6.0,
                         transformation="modularity") -> np.ndarray:
    n = values.shape[0]
    r = math.ceil(round(alpha * n, 9))
    if r == 0:
        m = np.zeros((n, n))
    else:
        v = vectors[:, :r]
        approx = (v * values[:r]) @ v.T
        m = (approx + approx.T) / 2.0
    if transformation == "modularity":
        k = np.asarray(degrees, dtype=float)
        m = m + np.outer(k, k) / k.sum()
    if rule == "truncate":
        out = np.clip(m, 0.0, 1.0)
    elif rule == "logistic":
        out = 1.0 / (1.0 + np.exp((0.5 - m) * logistic_k))
    else:
        off = ~np.eye(n, dtype=bool)
        lo, hi = m[off].min(), m[off].max()
        out = np.clip((m - lo) / (hi - lo), 0.0, 1.0)
    np.fill_diagonal(out, 0.0)
    return out


def former_entropy(p: np.ndarray) -> tuple[float, float]:
    """(raw bits, density) of the dyad distribution of p."""
    n = p.shape[0]
    upper = p[np.triu_indices(n, k=1)]
    h = np.zeros_like(upper)
    interior = (upper > 0.0) & (upper < 1.0)
    q = upper[interior]
    h[interior] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return float(np.sum(h)), float(np.sum(upper) / (n * (n - 1) // 2))


def former_sample_dyads(n: int, seed: int, probability) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(n, k=1)
    hit = np.random.default_rng(seed).random(rows.shape[0]) < probability(rows, cols)
    return rows[hit], cols[hit]
