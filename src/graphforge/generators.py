"""Synthetic benchmark graphs with planted community structure.

planted_partition draws equal-size communities with separate intra/inter
edge probabilities. lancichinetti draws geometric community sizes and node
degrees, then stub-matches edges so a tunable fraction of each node's edges
leaves its community. Erdos-Renyi and preferential-attachment generators
round out the inputs needed for the normalization study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .community import Partition
from .graph import Graph, sample_dyads

STUB_RETRY_LIMIT = 100

# Default probabilities for the 128-node, 4-community benchmark preset:
# 31 intra and 96 inter partners per node, tuned for mean degree ~16 with
# 14 intra and 2 inter edges expected per node.
GIRVAN_NODES = 128
GIRVAN_COMMUNITIES = 4
GIRVAN_P_IN = 14.0 / 31.0
GIRVAN_P_OUT = 2.0 / 96.0


@dataclass(frozen=True)
class PlantedPartitionConfig:
    n: int
    communities: int
    p_in: float
    p_out: float
    seed: int = 0

    def __post_init__(self):
        if self.communities < 1 or self.n < 1:
            raise ValueError("need n >= 1 and communities >= 1")
        if self.n % self.communities != 0:
            raise ValueError(
                f"communities ({self.communities}) must divide node count ({self.n})"
            )
        if not 0.0 <= self.p_out <= self.p_in <= 1.0:
            raise ValueError("need 0 <= p_out <= p_in <= 1")


def planted_partition(config: PlantedPartitionConfig):
    """Independent dyad coins: p_in inside a community, p_out across.

    Communities are contiguous equal-size blocks of node ids. Returns
    (graph, planted partition).
    """
    n, m = config.n, config.communities
    size = n // m
    labels = np.arange(n) // size
    graph = sample_dyads(n, config.seed, lambda rows, cols: np.where(
        labels[rows] == labels[cols], config.p_in, config.p_out))
    return graph, Partition(assignment=tuple(int(c) for c in labels))


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): every dyad is an edge independently with probability p."""
    graph, _ = planted_partition(PlantedPartitionConfig(n=n, communities=1, p_in=p, p_out=p, seed=seed))
    return graph


def barabasi_albert(n: int, mean_attach: float, seed: int = 0) -> Graph:
    """Preferential attachment with a possibly fractional attachment count.

    Each arriving node attaches to floor(mean_attach) or ceil(mean_attach)
    distinct existing nodes (mixed to hit the mean), chosen proportionally to
    current degree. Fractional means let the realized mean degree match a
    target that integer attachment cannot.
    """
    # NaN fails every comparison, so it is refused with infinity here
    if not 1 <= mean_attach < math.inf:
        raise ValueError(f"mean_attach must be finite and >= 1, got {mean_attach}")
    rng = np.random.default_rng(seed)
    lo = int(np.floor(mean_attach))
    frac = mean_attach - lo
    core = lo + (1 if frac > 0 else 0) + 1
    if n <= core:
        raise ValueError(f"need n > {core} for mean_attach={mean_attach}")
    edges: set[tuple[int, int]] = set()
    # repeated-endpoints list implements degree-proportional choice
    endpoint_pool: list[int] = []
    for v in range(1, core):
        edges.add((v - 1, v))
        endpoint_pool.extend((v - 1, v))
    for v in range(core, n):
        k = lo + (1 if rng.random() < frac else 0)
        k = min(k, v)
        targets: set[int] = set()
        while len(targets) < k:
            targets.add(int(endpoint_pool[rng.integers(len(endpoint_pool))]))
        for t in targets:
            edges.add((t, v))
            endpoint_pool.extend((t, v))
    return Graph.from_edges(n, edges)


@dataclass(frozen=True)
class LancichinettiConfig:
    """Benchmark with geometric degree and community-size distributions.

    mixing is the fraction of each node's edges that leave its community.
    """

    mean_degree: float
    mean_community_size: float
    mixing: float
    n: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not 0.0 <= self.mixing < 1.0:
            raise ValueError(f"mixing must lie in [0, 1), got {self.mixing}")
        # NaN fails every comparison, so it is refused with infinity here
        if not (1 <= self.mean_degree < math.inf and 1 <= self.mean_community_size < math.inf):
            raise ValueError("mean_degree and mean_community_size must be finite and >= 1")
        if self.mean_community_size < self.mean_degree:
            raise ValueError("mean_community_size must be >= mean_degree")


def _geometric_sizes(rng, mean_size: float, n: int) -> list[int]:
    sizes: list[int] = []
    covered = 0
    while covered < n:
        s = int(rng.geometric(1.0 / mean_size))
        s = min(s, n - covered)
        sizes.append(s)
        covered += s
    return sizes


def _match_stubs(rng, stubs: list[int], edges: set, forbidden_same: list[int] | None) -> int:
    """Pair stubs into simple edges; returns the number of edges placed.

    Stubs whose pairing keeps failing (self-loop, duplicate, or same-community
    when forbidden_same maps node -> community) are dropped after bounded
    retries, shaving the realized degree instead of looping forever.
    """
    pool = list(stubs)
    rng.shuffle(pool)
    placed = 0
    while len(pool) >= 2:
        u = pool.pop()
        for _ in range(STUB_RETRY_LIMIT):
            idx = int(rng.integers(len(pool)))
            v = pool[idx]
            if v == u:
                continue
            if forbidden_same is not None and forbidden_same[u] == forbidden_same[v]:
                continue
            key = (u, v) if u < v else (v, u)
            if key in edges:
                continue
            pool.pop(idx)
            edges.add(key)
            placed += 1
            break
    return placed


def lancichinetti(config: LancichinettiConfig):
    """Generate one benchmark graph; returns (graph, planted partition).

    Community sizes and target degrees are geometric; each node splits its
    stubs (1 - mixing) : mixing between an intra-community pool and a global
    inter-community pool, then pools are matched into simple edges with
    bounded retries. A node whose intra target exceeds its community's
    capacity (size - 1) spills the excess into the inter pool when mixing is
    positive; at mixing = 0 the excess is dropped, since every edge must stay
    inside its community. A configuration where most required intra stubs
    cannot be placed raises.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n
    sizes = _geometric_sizes(rng, config.mean_community_size, n)
    blocks = [range(end - s, end) for s, end in zip(sizes, accumulate(sizes))]
    labels = [c for c, nodes in enumerate(blocks) for _ in nodes]
    degrees = np.minimum(rng.geometric(1.0 / config.mean_degree, size=n), n - 1)

    edges: set[tuple[int, int]] = set()
    inter_pool: list[int] = []
    intra_requested = 0
    intra_placed = 0
    for nodes in blocks:
        cap = len(nodes) - 1
        intra_pool: list[int] = []
        for v in nodes:
            d_intra = min(int(round((1.0 - config.mixing) * degrees[v])), cap)
            intra_pool.extend([v] * d_intra)
            spill = int(degrees[v]) - d_intra
            if config.mixing > 0.0:
                inter_pool.extend([v] * spill)
        intra_requested += len(intra_pool)
        # pool holds only this community's nodes, so pairs are intra by construction
        intra_placed += 2 * _match_stubs(rng, intra_pool, edges, forbidden_same=None)
    if intra_requested and intra_placed < intra_requested // 2:
        raise ValueError(
            f"infeasible configuration: placed only {intra_placed} of "
            f"{intra_requested} required intra-community stubs"
        )
    if config.mixing > 0.0:
        _match_stubs(rng, inter_pool, edges, forbidden_same=labels)
    graph = Graph.from_edges(n, edges)
    return graph, Partition.from_labels(labels)
