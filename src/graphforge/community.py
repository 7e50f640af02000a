"""Modularity scoring and maximization.

The modularity value sums (A_ij - k_i k_j / |K|) * [c_i == c_j] over all
ordered node pairs, diagonal included; the self-terms -k_i^2 / |K| are part
of the sum. The maximizer is a seeded multilevel local-move heuristic.
"""

from __future__ import annotations

import math
from collections import _count_elements  # the C loop behind Counter.update
from dataclasses import dataclass

import numpy as np

from .graph import Graph, degree_vector, require_dense_budget

# a full local-move pass improving total modularity by less than this stops
_GAIN_EPS = 1e-9
_MOVE_EPS = 1e-12

# chain refinement costs O(n * m) per pass, so it only runs where that is free
_REFINE_MAX_NODES = 100

# independent seeded Louvain passes per maximization; the best one is kept
_RESTARTS = 4

# bytes per node at the peak of louvain_maximize, whose neighbour lists,
# degrees and labels are Python lists (tracemalloc peak 694 per node at
# n = 10^5 and 10^6 with one restart and 718 at 10^5 with all four, on
# 64-node communities at mean degree 7.5; mean degree 2 took 432 and 14.3
# took 1071, so the estimate is for sparse inputs)
_LOUVAIN_NODE_BYTES = 720


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


def _sorted_best(w_to, a, stay_score, comm_degree, two_ki, two_m, two_m_sq):
    """The sequential rule: scan candidates by ascending id and take each one
    whose gain beats the best so far by more than eps, starting from the stay
    in community a at gain 0; returns (community, gain, score)."""
    best = a, 0.0, stay_score
    for c in sorted(w_to):
        score = 2.0 * w_to[c] / two_m - two_ki * comm_degree[c] / two_m_sq
        gain = score - stay_score
        if gain > best[1] + _MOVE_EPS:
            best = c, gain, score
    return best


def _local_moves(nbrs, node_degree, comm_degree, comm, two_m, rng):
    """One level of gain-driven single-node moves; returns True if any node moved.

    nbrs[i] lists each neighbour of i once per unit of edge weight, and
    comm_degree is indexed by community id. A visit makes the move of the
    sequential rule (`_sorted_best`) from one unordered scan: it finds the
    top score (lowest id among equal floats, the stay winning its own ties),
    the best score strictly below it and the multiset second. Candidates
    before the top in id order score at most the one below it, so when the
    top's gain beats both 0 and that score's gain by more than eps, the rule
    picks the top; when the stay is on top, or the top gains at most eps, it
    stays. Only a nearer tie replays the sorted rule.

    A visit is skipped when its outcome is already fixed. When node i is
    placed, its community's score leads every other score s of i by a
    margin M; a later move of a non-neighbour u changes two community
    degrees by k_u, which narrows M by at most 4 k_i k_u / |K|^2. So while
    no neighbour of i has moved (that would change w_to and the candidate
    set) and the degree moved since, `shifted` minus its value at
    placement, stays below (M - 2 eps) |K|^2 / (4 k_i), every gain a visit
    would compute is below -eps and i would stay. A stay leaves
    comm_degree exactly as it was (degrees are integer-valued floats), so
    skipping changes no move, no pass gain and no RNG draw.
    """
    n = len(nbrs)
    moved_any = False
    two_m_sq = two_m**2
    community_of = comm.__getitem__
    # 2 w / |K| for each weight a visit can count: the floats `_sorted_best` computes
    weight_score = [2.0 * w / two_m for w in range(max(map(len, nbrs), default=0) + 1)]
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
            w_to: dict[int, int] = {}
            _count_elements(w_to, map(community_of, nbrs[i]))
            comm_degree[a] -= ki
            stay_score = weight_score[w_to.pop(a, 0)] - two_ki * comm_degree[a] / two_m_sq
            top, top_c = stay_score, a
            below = second = -math.inf
            for c, w in w_to.items():
                score = weight_score[w] - two_ki * comm_degree[c] / two_m_sq
                if score > top:
                    below = second = top
                    top, top_c = score, c
                elif score == top:
                    second = top
                    if top_c != a and c < top_c:
                        top_c = c
                elif score > below:
                    below = score
                    if score > second:
                        second = score
            top_gain = top - stay_score
            if top_c == a or top_gain <= _MOVE_EPS:
                best_c, best_gain, best_score = a, 0.0, stay_score
            elif top_gain > max(below - stay_score, 0.0) + _MOVE_EPS:
                best_c, best_gain, best_score = top_c, top_gain, top
            else:
                best_c, best_gain, best_score = _sorted_best(
                    w_to, a, stay_score, comm_degree, two_ki, two_m, two_m_sq)
            comm[i] = best_c
            comm_degree[best_c] += ki
            if best_c != a:
                moved_any = True
                pass_gain += best_gain
                shifted += ki
                for j in nbrs[i]:
                    deadline[j] = -1.0
            if ki == 0.0:
                deadline[i] = math.inf  # no neighbours and every score 0: it never moves
            elif best_score == top and top - second > 2.0 * _MOVE_EPS:
                deadline[i] = shifted + (top - second - 2.0 * _MOVE_EPS) * two_m_sq / (4.0 * ki)
            else:
                deadline[i] = -1.0
        if pass_gain < _GAIN_EPS:
            break
    return moved_any


def _aggregate(nbrs, node_degree, comm):
    """Collapse communities into nodes of a weighted graph, preserving degree sums.

    Intra-community weight folds into the collapsed node's degree (already
    counted in node_degree sums), so only inter-community weights need
    edges: a collapsed node lists a neighbour once per unit of weight.
    Returns the new lists and degrees and each old node's new id.
    """
    dense = {c: idx for idx, c in enumerate(sorted(set(comm)))}
    lab = [dense[c] for c in comm]
    new_nbrs: list[list[int]] = [[] for _ in dense]
    new_degree = [0.0] * len(dense)
    for i, li in enumerate(lab):
        new_degree[li] += node_degree[i]
        new_nbrs[li] += [lj for lj in map(lab.__getitem__, nbrs[i]) if lj != li]
    return new_nbrs, new_degree, lab


def _louvain_single(nbrs, node_degree, two_m, rng) -> list[int]:
    """One seeded multilevel pass; reads nbrs and node_degree without changing them."""
    labels = list(range(len(nbrs)))
    while True:
        comm = list(range(len(nbrs)))
        moved = _local_moves(nbrs, node_degree, list(node_degree), comm, two_m, rng)
        if not moved:
            break
        nbrs, node_degree, lab = _aggregate(nbrs, node_degree, comm)
        labels = [lab[v] for v in labels]
        if len(nbrs) == 1:
            break
    return labels


def _chain_refine(nbrs, node_degree, two_m, labels):
    """Kernighan-Lin style escape from single-move local optima.

    Repeatedly builds a chain of locked best single-node moves (negative
    gains allowed mid-chain), then keeps the best prefix. Deterministic:
    ties break toward the lowest node, then the lowest community id.
    """
    n = len(nbrs)
    labels = list(labels)
    label_of = labels.__getitem__
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
                w_to: dict[int, int] = {}
                _count_elements(w_to, map(label_of, nbrs[i]))
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

    Raises ValueError on an edgeless graph, and on one whose per-node lists
    would not fit in physical memory, before building them.
    """
    if graph.num_edges == 0:
        raise ValueError("graph has no edges: modularity is undefined (|K| = 0)")
    require_dense_budget(graph.n, _LOUVAIN_NODE_BYTES * graph.n, "Louvain maximization")
    refine = graph.n <= _REFINE_MAX_NODES
    nbrs = graph.neighbor_lists()
    node_degree = degree_vector(graph).astype(float).tolist()
    two_m = float(sum(node_degree))
    seeds = np.random.SeedSequence(entropy=int(rng_seed)).spawn(_RESTARTS)
    best_partition = None
    best_q = -np.inf
    for child in seeds:
        labels = _louvain_single(nbrs, node_degree, two_m, np.random.default_rng(child))
        if refine:
            labels = _chain_refine(nbrs, node_degree, two_m, labels)
        partition = Partition.from_labels(labels)
        q = modularity(graph, partition)
        if q > best_q + _MOVE_EPS:
            best_partition, best_q = partition, q
    return best_partition, best_q
