"""The distance-vector de-anonymization attack.

A seed set of nodes is assumed correctly mapped between two aligned graphs;
every other node is identified by its shortest-path distances to the seeds,
and pairs are matched greedily by ascending signature distance. The seed
distances come from one bit-parallel breadth-first search and the pair
distances from one matrix product, both in numpy and both exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph, _blocked_runs, require_dense_budget

# neighbour entries, weighted by the bitset words, that the seed-distance
# search handles at once, so that its temporaries beyond the per-node arrays
# stay within tens of MB however large the hubs are (tracemalloc: 20-32 MB
# over the tables on a 200 001-node star with 64 and 130 seeds)
_BFS_BLOCK = 1 << 19


@dataclass(frozen=True)
class AttackConfig:
    seed_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.seed_fraction <= 1.0:
            raise ValueError(f"seed_fraction must lie in (0, 1], got {self.seed_fraction}")


def _neighbour_blocks(indptr: np.ndarray, nodes: np.ndarray, words: int):
    """(block, slots, heads) over consecutive blocks of `nodes`: `slots`
    lists the positions in the neighbour array of each block node's
    neighbours, node by node, and `heads` where each node's run starts.
    A block holds one node at least, and otherwise nodes whose neighbours
    and bitset words stay within _BFS_BLOCK words."""
    counts = indptr[nodes + 1] - indptr[nodes]
    for lo, hi, heads, slots in _blocked_runs(counts, indptr[nodes], _BFS_BLOCK,
                                              (counts + 64) * (words + 2)):
        yield nodes[lo:hi], slots, heads


def _seed_distances(graph: Graph, seed_nodes: Sequence[int]) -> np.ndarray:
    """Hop distances from each seed (rows) to every node (columns).

    Unreachable pairs get the sentinel n, larger than any true distance.
    One bit-parallel breadth-first search serves every seed (Then et al.,
    "The More the Merrier", VLDB 2014): a node holds one bit per seed in
    ceil(k / 64) uint64 words. Each level visits only the neighbours of the
    nodes the previous level reached, ORs the words of their neighbours, and
    writes the level for every bit that is new. The seeds must be distinct.
    """
    n, k = graph.n, len(seed_nodes)
    words = -(-k // 64)
    seeds, bit = np.asarray(seed_nodes, dtype=np.int64), np.arange(k)
    table = np.full((n, k), float(n))  # returned transposed, so a node's signature is a row
    table[seeds, bit] = 0.0
    seen = np.zeros((n, words), dtype=np.uint64)
    seen[seeds, bit // 64] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
    indptr, indices = graph._neighbors
    active, level = seeds, 0
    while active.size:
        level += 1
        touched = np.zeros(n, dtype=bool)
        for _, slots, _ in _neighbour_blocks(indptr, active, words):
            touched[indices[slots]] = True
        reached_nodes, reached_words = [], []
        # every touched node has a neighbour, so no reduceat run is empty
        for block, slots, heads in _neighbour_blocks(indptr, np.flatnonzero(touched), words):
            new = np.bitwise_or.reduceat(seen[indices[slots]], heads, axis=0)
            new &= ~seen[block]
            rows = np.flatnonzero(new.any(axis=1))
            block, new = block[rows], new[rows]
            # the set bits of the nonzero words; bit j of a word is bit j of
            # its little-endian bytes on any host
            slot = np.flatnonzero(new)
            bits = np.unpackbits(new.ravel()[slot].astype("<u8").view(np.uint8).reshape(-1, 8),
                                 axis=1, bitorder="little")
            at, j = np.divmod(np.flatnonzero(bits), 64)
            row, word = np.divmod(slot[at], words)
            table[block[row], 64 * word + j] = level
            reached_nodes.append(block)
            reached_words.append(new)
        # marked after the whole level, so that no block reads this level's bits
        active = np.concatenate([seeds[:0], *reached_nodes])
        seen[active] |= np.concatenate([seen[:0], *reached_words])
    return table.T


def random_guess_rate(n: int, seed_fraction: float) -> float:
    """Per-node success probability of uniformly guessing the mapping."""
    non_seeds = n - math.ceil(seed_fraction * n)
    return 1.0 / non_seeds if non_seeds > 0 else 1.0


def attack_dense_bytes(n: int, seeds: int) -> int:
    """Estimated peak bytes of the arrays of `dv_attack` with `seeds` seeds.

    Two seed-distance tables (the search's own blocks are a few MB). Then,
    per pair of the width^2 non-seed pairs, 20 bytes at most: the squared
    distances and their integer key of up to 8 bytes; or the key, the
    stable argsort's 8-byte order and the sort's own buffer, outside
    tracemalloc's view (8 bytes for a radix sort of keys up to 16 bits, 4
    for the merge sort of wider keys); the walk holds the order and at most
    10 bytes for each pair of its largest block, at most width^2 / 2 pairs.
    Measured peaks over this estimate, with 3% and 10% seeds (30 to 400): by
    tracemalloc 0.64-0.65 at n = 1000 and 2000 on planted and dense inputs;
    by peak RSS over a warmed process, 0.83-0.98 on planted inputs at n =
    1000, 2000 and 4000.
    """
    width = n - seeds
    return 16 * seeds * n + 20 * width * width


def dv_attack(original: Graph, anonymized: Graph, config: AttackConfig) -> float:
    """Distance-vector re-identification rate between two aligned graphs.

    A seed set of ceil(seed_fraction * n) nodes, sampled uniformly, is
    assumed correctly mapped. Every other node gets a signature of
    shortest-path distances to the seeds in its own graph (unreachable pairs
    get sentinel n, larger than any true distance); pairs are then matched
    greedily by ascending Euclidean signature distance, each node used once.
    Returns the fraction of non-seed nodes mapped to their true counterpart.
    """
    if original.n != anonymized.n:
        raise ValueError("graphs must have the same node count")
    n = original.n
    k = math.ceil(config.seed_fraction * n)
    width = n - k
    if width == 0:
        return 1.0
    # checked before the seed draw, whose own arrays are of size n
    require_dense_budget(n, attack_dense_bytes(n, k), "the distance-vector attack")
    if 2 * k * n * n >= 1 << 53:  # the bound of _pair_order's exact arithmetic
        raise ValueError(f"the distance-vector attack at n = {n} with {k} seeds exceeds "
                         "the exact integer range of float64 distances")
    rng = np.random.default_rng(config.seed)
    seed_nodes = sorted(int(s) for s in rng.choice(n, size=k, replace=False))
    seed_set = set(seed_nodes)
    non_seeds = [v for v in range(n) if v not in seed_set]

    sigs = [_seed_distances(graph, seed_nodes).T[non_seeds]
            for graph in (original, anonymized)]
    return _greedy_match_hits(_pair_order(sigs[0], sigs[1]), width) / width


def _pair_order(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Flat pair indices (left * width + right) by ascending Euclidean
    signature distance, ties in index order.

    The squared distances come from the Gram identity |l|^2 + |r|^2 - 2 l.r,
    one float64 matrix product finished in place. Signatures hold integer
    hop counts of at most the sentinel n, so every product, every partial
    sum of the product (in any summation order, fused or not) and every
    intermediate of the identity is an integer of magnitude at most
    2 k n^2 for k seeds, which `dv_attack` keeps below 2^53: each is exact,
    and the result equals the direct sum of squared differences bit for
    bit. sqrt is correctly rounded and strictly increasing on these
    integers, so sorting the squared distances as the narrowest unsigned
    integers that hold them (a radix sort up to 16 bits) ties exactly where
    the float distances tie, and the stable order is the same.
    """
    squared = left @ right.T
    squared *= -2.0
    squared += np.square(left).sum(axis=1)[:, None]
    squared += np.square(right).sum(axis=1)
    key = squared.astype(np.min_scalar_type(int(squared.max())))
    del squared
    return np.argsort(key.ravel(), kind="stable")


def _greedy_match_hits(order: np.ndarray, width: int) -> int:
    """Walk flat pair indices (left * width + right) in the given order,
    accept each pair whose left and right are both still free, and count
    the accepted pairs with left == right.

    The walk goes in blocks of width, 2 width, 4 width, ... pairs. A block
    first drops, in one vectorized step, every pair touching a node used
    before the block; only the rest are checked one by one, so pairs in the
    same block still see the matches made earlier in it. Used flags only
    grow, so the accepted pairs are those of a one-by-one walk. The walk
    stops once every node is matched.
    """
    used_left = np.zeros(width, dtype=bool)
    used_right = np.zeros(width, dtype=bool)
    hits = matched = start = 0
    size = width
    while matched < width and start < order.size:
        pairs = order[start:start + size]
        taken = used_left[pairs // width]
        taken |= used_right[pairs % width]
        left, right = np.divmod(pairs[~taken], width)
        for i, j in zip(left.tolist(), right.tolist()):
            if used_left[i] or used_right[j]:
                continue
            used_left[i] = used_right[j] = True
            hits += i == j
            matched += 1
            if matched == width:
                break
        del taken, left, right  # free this block before the next, twice as large
        start += size
        size *= 2
    return hits
