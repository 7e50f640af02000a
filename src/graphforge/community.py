"""Modularity scoring and maximization.

The modularity value sums (A_ij - k_i k_j / |K|) * [c_i == c_j] over all
ordered node pairs, diagonal included; the self-terms -k_i^2 / |K| are part
of the sum. The heuristic maximizer is a seeded multilevel local-move
algorithm; a brute-force enumerator over set partitions serves as the exact
oracle for small graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, degree_vector

# a full local-move pass improving total modularity by less than this stops
_GAIN_EPS = 1e-9
_MOVE_EPS = 1e-12

BRUTE_FORCE_MAX_NODES = 12

# chain refinement costs O(n * m) per pass, so it only runs where that is free
_REFINE_MAX_NODES = 100

# independent seeded Louvain passes per maximization; the best one is kept
_RESTARTS = 4


@dataclass(frozen=True)
class Partition:
    """Assignment of nodes to communities 0..m-1, every id used at least once."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        if not self.assignment:
            return
        ids = set(self.assignment)
        m = max(ids) + 1
        if min(ids) < 0 or ids != set(range(m)):
            raise ValueError("community ids must be dense 0..m-1 with every id used")

    @property
    def m(self) -> int:
        """Number of distinct communities."""
        return max(self.assignment) + 1 if self.assignment else 0

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Canonicalize arbitrary hashable labels to dense ids by first appearance."""
        mapping: dict = {}
        assignment = []
        for lab in labels:
            if lab not in mapping:
                mapping[lab] = len(mapping)
            assignment.append(mapping[lab])
        return cls(assignment=tuple(assignment))


def modularity(graph: Graph, partition: Partition) -> float:
    """Modularity of the partition, over ordered pairs including i = j."""
    if len(partition.assignment) != graph.n:
        raise ValueError(
            f"partition length {len(partition.assignment)} != node count {graph.n}"
        )
    degrees = degree_vector(graph)
    total = int(degrees.sum())
    if total == 0:
        raise ValueError("graph has no edges: modularity is undefined (|K| = 0)")
    labels = np.asarray(partition.assignment)
    intra_ordered = 2 * int(np.count_nonzero(labels[graph.rows] == labels[graph.cols]))
    comm_degree = np.bincount(labels, weights=degrees.astype(float), minlength=partition.m)
    return float(intra_ordered / total - np.sum(comm_degree**2) / total**2)


def _local_moves(adj, node_degree, comm_degree, comm, two_m, rng):
    """One level of gain-driven single-node moves; returns True if any node moved.

    A visit is skipped when its outcome is already fixed. When node i is
    placed, its community's score leads every other score s of i by a
    margin M; a later move of a non-neighbour u changes two community
    degrees by k_u, which narrows M by at most 4 k_i k_u / |K|^2. So while
    no neighbour of i has moved (that would change w_to and the candidate
    set) and the degree moved since, `shifted` minus its value at
    placement, stays below (M - 2 eps) |K|^2 / (4 k_i), every gain a visit
    would compute is below -eps and i would stay. A stay leaves
    comm_degree exactly as it was (degrees and weights are integer-valued
    floats), so skipping changes no move, no pass gain and no RNG draw.
    """
    n = len(adj)
    moved_any = False
    two_m_sq = two_m**2
    shifted = 0.0  # summed degree of the nodes moved so far in this level
    deadline = [-1.0] * n  # visit i is skipped while shifted < deadline[i]
    while True:
        pass_gain = 0.0
        for i in rng.permutation(n).tolist():
            if shifted < deadline[i]:
                continue
            a = comm[i]
            ki = node_degree[i]
            two_ki = 2.0 * ki
            w_to: dict[int, float] = {}
            for j, w in adj[i].items():
                cj = comm[j]
                w_to[cj] = w_to.get(cj, 0.0) + w
            comm_degree[a] -= ki
            stay_score = 2.0 * w_to.get(a, 0.0) / two_m - two_ki * comm_degree[a] / two_m_sq
            best_c, best_gain, best_score = a, 0.0, stay_score
            top1, top2 = stay_score, -math.inf
            for c in sorted(w_to):
                if c == a:
                    continue
                score = 2.0 * w_to[c] / two_m - two_ki * comm_degree[c] / two_m_sq
                gain = score - stay_score
                if gain > best_gain + _MOVE_EPS:
                    best_c, best_gain, best_score = c, gain, score
                if score > top1:
                    top1, top2 = score, top1
                elif score > top2:
                    top2 = score
            comm[i] = best_c
            comm_degree[best_c] += ki
            if best_c != a:
                moved_any = True
                pass_gain += best_gain
                shifted += ki
                for j in adj[i]:
                    deadline[j] = -1.0
            if ki == 0.0:
                deadline[i] = math.inf  # no neighbours and every score 0: it never moves
            elif best_score == top1 and top1 - top2 > 2.0 * _MOVE_EPS:
                deadline[i] = shifted + (top1 - top2 - 2.0 * _MOVE_EPS) * two_m_sq / (4.0 * ki)
            else:
                deadline[i] = -1.0
        if pass_gain < _GAIN_EPS:
            break
    return moved_any


def _aggregate(adj, node_degree, comm):
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


def _louvain_single(adj, node_degree, two_m, rng) -> list[int]:
    """One seeded multilevel pass; reads adj and node_degree without changing them."""
    n = len(adj)
    labels = list(range(n))
    while True:
        comm = list(range(len(adj)))
        comm_degree = {c: node_degree[c] for c in comm}
        moved = _local_moves(adj, node_degree, comm_degree, comm, two_m, rng)
        if not moved:
            break
        adj, node_degree, dense = _aggregate(adj, node_degree, comm)
        labels = [dense[comm[labels[v]]] for v in range(n)]
        if len(adj) == 1:
            break
    return labels


def _chain_refine(adj, node_degree, two_m, labels):
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
                a = labels[i]
                ki = node_degree[i]
                w_to: dict[int, float] = {}
                for j, w in adj[i].items():
                    cj = labels[j]
                    w_to[cj] = w_to.get(cj, 0.0) + w
                stay = 2.0 * w_to.get(a, 0.0) / two_m \
                    - 2.0 * ki * (comm_degree[a] - ki) / two_m**2
                targets = set(w_to)
                targets.add(next_comm)  # splitting off is always on the table
                targets.discard(a)
                for target in sorted(targets):
                    score = 2.0 * w_to.get(target, 0.0) / two_m \
                        - 2.0 * ki * comm_degree.get(target, 0.0) / two_m**2
                    gain = score - stay
                    if step_best is None or gain > step_best[0] + _MOVE_EPS:
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
            if gain_sum > best_gain + _MOVE_EPS:
                best_gain = gain_sum
                best_prefix = len(chain)
        for i, a, target in reversed(chain[best_prefix:]):
            comm_degree[target] -= node_degree[i]
            comm_degree[a] = comm_degree.get(a, 0.0) + node_degree[i]
            labels[i] = a
        if best_gain < _GAIN_EPS:
            break
    return labels


def louvain_maximize(graph: Graph, rng_seed: int):
    """Heuristic modularity maximization (multilevel local moves).

    Runs _RESTARTS (4) independent seeded passes (node visiting order is
    the only randomness) and keeps the best-scoring partition;
    deterministic for a fixed rng_seed. On small graphs each pass ends with
    a chain refinement that escapes single-move local optima. Returns
    (partition, q_star).

    Ties in move gain break toward the lowest community id, and a level
    stops once a full pass gains less than 1e-9 total. A node visit is
    skipped while none of the node's neighbours has moved since its last
    visit and the degree moved elsewhere is too small to close its last
    score margin, so the visit would provably keep it in place; the moves,
    the visiting orders and the result equal those of visiting every node.
    """
    if graph.num_edges == 0:
        raise ValueError("graph has no edges: modularity is undefined (|K| = 0)")
    refine = graph.n <= _REFINE_MAX_NODES
    adj = [dict.fromkeys(nbrs, 1.0) for nbrs in graph.neighbor_lists()]
    node_degree = degree_vector(graph).astype(float).tolist()
    two_m = float(sum(node_degree))
    seeds = np.random.SeedSequence(entropy=int(rng_seed)).spawn(_RESTARTS)
    best_partition = None
    best_q = -np.inf
    for child in seeds:
        labels = _louvain_single(adj, node_degree, two_m, np.random.default_rng(child))
        if refine:
            labels = _chain_refine(adj, node_degree, two_m, labels)
        partition = Partition.from_labels(labels)
        q = modularity(graph, partition)
        if q > best_q + _MOVE_EPS:
            best_partition, best_q = partition, q
    return best_partition, best_q


def _set_partitions(n: int):
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


def brute_force_max_modularity(graph: Graph):
    """Exact maximum-modularity partition by exhaustive enumeration.

    Guarded to n <= 12 (Bell-number blowup). Returns (partition, q_star);
    ties keep the first partition in restricted-growth enumeration order.
    """
    if graph.n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"brute force limited to n <= {BRUTE_FORCE_MAX_NODES}, got n = {graph.n}"
        )
    degrees = degree_vector(graph)
    total = int(degrees.sum())
    if total == 0:
        raise ValueError("graph has no edges: modularity is undefined (|K| = 0)")
    edges = graph.sorted_edges()
    k = degrees.astype(float)
    best_labels = None
    best_q = -np.inf
    for labels in _set_partitions(graph.n):
        intra_ordered = 2 * sum(1 for i, j in edges if labels[i] == labels[j])
        comm_degree = np.bincount(labels, weights=k)
        q = intra_ordered / total - np.sum(comm_degree**2) / total**2
        if q > best_q + _MOVE_EPS:
            best_labels, best_q = labels, q
    return Partition.from_labels(best_labels), float(best_q)
