"""Competing modularity-targeting generators used for comparison.

trajanovski_generate starts from a maximum-modularity community skeleton
(internally connected communities joined by a tree of single links) and
applies seeded rewiring moves that lower the fixed-partition modularity
until it reaches a target. dcsbm_generate places an exact number of edges
between each pair of groups, choosing endpoints proportionally to target
degree.

Each output is defined by scalar draws on `np.random.default_rng(seed)`:
for trajanovski_generate, `integers(b)` and `choice(k, 2, replace=False)`
calls in the order the skeleton build and the moves make them; for
dcsbm_generate, two `random()` calls per endpoint attempt (side r, then
side s), block by block. Both generators draw in bulk and replay exactly
that stream: trajanovski_generate through `_Words`, whose unused words
change nothing because the generator is local to the call, and
dcsbm_generate in rounds of exactly the attempts a block still needs, so
every uniform it draws is used.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .community import Partition
from .graph import Graph, degree_vector

EDGE_RETRY_LIMIT = 100
# consecutive failed rewiring candidates before declaring the target unreachable
_STALE_LIMIT = 500
_DECREASE_EPS = 1e-12
# raw words per bulk draw of _Words
_WORD_CHUNK = 1024


def _community_sizes(n: int, m: int) -> list[int]:
    base, rem = divmod(n, m)
    return [base + 1] * rem + [base] * (m - rem)


def community_skeleton_partition(n: int, communities: int) -> Partition:
    """The fixed partition used by the rewiring generator: contiguous near-equal blocks."""
    sizes = _community_sizes(n, communities)
    return Partition(assignment=tuple(c for c, s in enumerate(sizes) for _ in range(s)))


@dataclass(frozen=True)
class TrajanovskiConfig:
    """A rewiring target: n nodes in `communities` near-equal blocks joined
    by num_edges edges. num_edges runs from n - 1 (and at least 1, since
    modularity is undefined without edges) to the skeleton's capacity."""

    q_target: float
    communities: int
    n: int
    num_edges: int
    seed: int = 0

    def __post_init__(self):
        if math.isnan(self.q_target):
            raise ValueError("q_target must be a number, not NaN")
        if self.communities < 1 or self.communities > self.n:
            raise ValueError("need 1 <= communities <= n")
        if self.num_edges < 1:
            raise ValueError("need num_edges >= 1: modularity is undefined without edges")
        if self.num_edges < self.n - 1:
            raise ValueError(
                f"need at least n-1 = {self.n - 1} edges to connect the skeleton"
            )
        sizes = _community_sizes(self.n, self.communities)
        capacity = sum(s * (s - 1) // 2 for s in sizes) + (self.communities - 1)
        if self.num_edges > capacity:
            raise ValueError(
                f"{self.num_edges} edges exceed skeleton capacity {capacity}"
            )


class _Words:
    """Bounded integer draws on raw 32-bit words fetched in bulk.

    `below(b)` returns `int(rng.integers(b))` and `pair(k)` returns
    `rng.choice(k, 2, replace=False)` as a tuple, call for call, as if those
    scalar calls were made on `rng` instead. numpy serves both from the
    generator's 32-bit words: a bound of 1 takes no word, any other bound up
    to 2**32 takes Lemire's (2019) multiply-and-reject rule, and a pair is
    Floyd's sample of two followed by a one-step shuffle. This replays them on
    words from `rng.integers(1 << 32, size=_WORD_CHUNK, dtype=np.uint32)`,
    which are the same words in the same order.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._words: list[int] = []
        self._pos = 0

    def below(self, b: int) -> int:
        if b == 1:
            return 0
        if not 1 < b <= 1 << 32:
            raise ValueError(f"bound {b} outside 1..2**32")
        # numpy's rejection threshold (2**32 - b) % b; with b = 2**32 it is 0
        # and the draw is the word itself, as numpy returns it
        threshold = (1 << 32) % b
        while True:
            if self._pos == len(self._words):
                self._words = self._rng.integers(1 << 32, size=_WORD_CHUNK, dtype=np.uint32).tolist()
                self._pos = 0
            m = self._words[self._pos] * b
            self._pos += 1
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def pair(self, k: int) -> tuple[int, int]:
        first = self.below(k - 1)
        second = self.below(k)
        if second == first:
            second = k - 1
        if self.below(2) == 0:
            return second, first
        return first, second


def _initial_graph(config: TrajanovskiConfig, draws: _Words) -> tuple[set[tuple[int, int]], list[int]]:
    """Spanning tree per community, chain of single inter-community links,
    then extra intra edges balanced across communities (minimizes the degree
    imbalance penalty, which maximizes the fixed-partition modularity).

    Returns the edges and each community's degree sum."""
    sizes = _community_sizes(config.n, config.communities)
    blocks = [range(end - s, end) for s, end in zip(sizes, accumulate(sizes))]
    edges: set[tuple[int, int]] = set()
    comm_degree = [0] * config.communities

    def add(u: int, v: int, cu: int, cv: int):
        edges.add((u, v) if u < v else (v, u))
        comm_degree[cu] += 1
        comm_degree[cv] += 1

    for c, nodes in enumerate(blocks):
        for idx in range(1, len(nodes)):
            parent = nodes[draws.below(idx)]
            add(parent, nodes[idx], c, c)
    for c in range(config.communities - 1):
        u = blocks[c][draws.below(len(blocks[c]))]
        v = blocks[c + 1][draws.below(len(blocks[c + 1]))]
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
            u, v = draws.pair(len(nodes))
            u, v = nodes[u], nodes[v]
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
            a, b = free[draws.below(len(free))]
            add(a, b, c, c)
            used[c] += 1
    return edges, comm_degree


class _EdgePools:
    """Edge set split into intra/inter pools supporting O(1) add and swap-remove."""

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

    def remove(self, e):
        pool = self._pool(e)
        idx = self.pos.pop(e)
        last = pool.pop()
        if last != e:
            pool[idx] = last
            self.pos[last] = idx


def trajanovski_generate(config: TrajanovskiConfig, q_history: list[float] | None = None) -> Graph:
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
    draws = _Words(np.random.default_rng(config.seed))
    partition = community_skeleton_partition(config.n, config.communities)
    labels = partition.assignment
    edges, comm_degree = _initial_graph(config, draws)
    total = 2.0 * config.num_edges
    # community degrees and ksq stay ints; every q and dq divides them as
    # floats, which is exact while (2 * num_edges)**2 < 2**53
    ksq = sum(d * d for d in comm_degree)
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

    pools = _EdgePools(edges, labels)
    n = config.n

    def cross_pair(keep: int | None = None):
        """A non-edge between two communities, or None after EDGE_RETRY_LIMIT tries.

        Each try draws both endpoints, or only the partner of `keep` if given."""
        for _ in range(EDGE_RETRY_LIMIT):
            u = draws.below(n) if keep is None else keep
            v = draws.below(n)
            if labels[u] == labels[v]:
                continue
            key = (u, v) if u < v else (v, u)
            if key in pools.pos:
                continue
            return key
        return None

    stale = 0
    while q > config.q_target and stale < _STALE_LIMIT:
        if draws.below(2) == 0:  # intra edge -> cross-community pair
            old = pools.intra[draws.below(len(pools.intra))] if pools.intra else None
            new = cross_pair()
        else:  # swap one endpoint of an inter edge
            old = pools.inter[draws.below(len(pools.inter))] if pools.inter else None
            new = cross_pair(old[draws.below(2)]) if old else None
        if old is None or new is None:
            stale += 1
            continue
        d_intra = 0
        deltas: dict[int, int] = {}
        for (u, v), sign in ((old, -1), (new, 1)):
            cu, cv = labels[u], labels[v]
            if cu == cv:
                d_intra += sign
            deltas[cu] = deltas.get(cu, 0) + sign
            deltas[cv] = deltas.get(cv, 0) + sign
        d_ksq = sum((comm_degree[c] + d) ** 2 - comm_degree[c] ** 2 for c, d in deltas.items())
        if 2.0 * d_intra / total - d_ksq / total**2 >= -_DECREASE_EPS:
            stale += 1
            continue
        pools.remove(old)
        pools.add(new)
        intra += d_intra
        ksq += d_ksq
        for c, d in deltas.items():
            comm_degree[c] += d
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


@dataclass(frozen=True)
class DcsbmConfig:
    """Inputs for degree-corrected block sampling, as extracted from a graph.

    block_edges[r][s] is the exact number of edges to place between groups r
    and s (within r when r == s); row degree sums must match:
    sum of degrees in group r == 2 * block_edges[r][r] + sum of off-diagonal row r.
    """

    degrees: tuple[int, ...]
    partition: Partition
    block_edges: tuple[tuple[int, ...], ...]
    seed: int = 0

    def __post_init__(self):
        n = len(self.degrees)
        if len(self.partition.assignment) != n:
            raise ValueError("partition length must match degree sequence length")
        if any(d < 0 for d in self.degrees):
            raise ValueError("degrees must be non-negative")
        m = self.partition.m
        b = np.asarray(self.block_edges)
        if b.shape != (m, m):
            raise ValueError(f"block_edges must be {m}x{m}, got {b.shape}")
        if np.any(b < 0):
            raise ValueError("block edge counts must be non-negative")
        if not np.array_equal(b, b.T):
            raise ValueError("block_edges must be symmetric")
        group_degree = np.bincount(self.partition.assignment, weights=np.asarray(self.degrees, dtype=float), minlength=m)
        expected = 2 * np.diag(b) + (b.sum(axis=1) - np.diag(b))
        if not np.array_equal(group_degree.astype(int), expected.astype(int)):
            raise ValueError("group degree sums inconsistent with block edge counts")


def dcsbm_config_from(graph: Graph, partition: Partition) -> DcsbmConfig:
    """Extract the block-model inputs (degrees, groups, block edge counts)."""
    if len(partition.assignment) != graph.n:
        raise ValueError("partition length must match graph node count")
    labels = np.asarray(partition.assignment, dtype=np.int64)
    m = partition.m
    # counts[r, s]: edges stored (i, j) with i in r and j in s; an edge
    # between two groups counts once in each direction, one inside a group once
    counts = np.bincount(labels[graph.rows] * m + labels[graph.cols],
                         minlength=m * m).reshape(m, m)
    block = counts + counts.T - np.diag(np.diag(counts))
    return DcsbmConfig(
        degrees=tuple(degree_vector(graph).tolist()),
        partition=partition,
        block_edges=tuple(tuple(int(x) for x in row) for row in block),
    )


def dcsbm_generate(config: DcsbmConfig) -> Graph:
    """Sample a simple graph with exact per-block edge counts.

    Within each group, endpoints are drawn proportionally to target degree;
    an attempt that gives a self-loop or a duplicate edge is drawn again. A
    block is declared over-dense after EDGE_RETRY_LIMIT consecutive failed
    attempts for one edge.

    Each attempt takes two `random()` draws, for side r and then side s.
    A round draws them for exactly the edges the block still needs, maps
    each side's endpoints with one `searchsorted` and accepts the attempts
    in order. An attempt places at most one edge, so the block fills only on
    a round's last attempt and every uniform drawn is used: the graph is the
    one that a scalar `random()` call per endpoint gives. The failure count
    carries across rounds.
    """
    rng = np.random.default_rng(config.seed)
    labels = np.asarray(config.partition.assignment)
    m = config.partition.m
    degrees = np.asarray(config.degrees, dtype=float)
    members = [np.flatnonzero(labels == r) for r in range(m)]
    cumweights = [np.cumsum(degrees[idx]) for idx in members]

    def endpoints(r: int, uniforms: np.ndarray) -> list[int]:
        cum = cumweights[r]
        return members[r][np.searchsorted(cum, uniforms * cum[-1], side="right")].tolist()

    edges: set[tuple[int, int]] = set()
    block = np.asarray(config.block_edges)
    for r in range(m):
        for s in range(r, m):
            count = int(block[r, s])
            placed = failures = 0
            while placed < count:
                uniforms = rng.random(2 * (count - placed))
                for u, v in zip(endpoints(r, uniforms[0::2]), endpoints(s, uniforms[1::2])):
                    key = (u, v) if u < v else (v, u)
                    if u == v or key in edges:
                        failures += 1
                        if failures == EDGE_RETRY_LIMIT:
                            raise ValueError(
                                f"block ({r}, {s}) too dense: could not place "
                                f"{count} distinct edges"
                            )
                        continue
                    edges.add(key)
                    placed += 1
                    failures = 0
    return Graph.from_edges(len(labels), edges)
