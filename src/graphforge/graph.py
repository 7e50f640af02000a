"""Simple undirected graphs: representation, degrees, clustering, and text I/O.

Nodes are dense integers 0..n-1 so that every matrix in the pipeline stays
index-aligned with the graph. A graph stores its edges as two sorted,
deduplicated int64 arrays with rows < cols; those arrays are read-only, and
everything derived from them (degrees, the neighbour arrays, the average
clustering) is computed once on first use from those arrays alone. Graphs
are therefore immutable after construction and safe to share between
threads: a cache filled twice by racing threads holds the same value either
way.

This module needs numpy only, like the rest of the package. The neighbour
arrays serve Louvain's lists, the clustering count and the distance-vector
attack's breadth-first search.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Category assigned to nodes missing from an attribute file.
MISSING_VALUE = "__missing__"

# candidate wedges checked at once by the clustering, so that its temporaries
# stay near 25 MB however large the hubs are (tracemalloc peak of the whole
# count 34 MiB at n = 3000 with 225 000 edges and 10.5 M candidates)
_WEDGE_BLOCK = 1 << 19

# sample_dyads draws the dyads in row panels of about _DYAD_PANEL dyads, whose
# index arrays, draws, hits and lookup temporaries take about 3 MB; what grows
# with n is the sampled edges, _BYTES_PER_SAMPLED_EDGE each at the peak (the
# panels' hits and their concatenation, then the concatenation and Graph's
# checked copy). Peak RSS grew by 3.6 MB at n = 1000 and 4.6 MB at n = 2000
# on planted inputs of density 0.016 (fresh processes), 3.6 and 1.2 bytes per
# n^2, and by 56.2 bytes per edge for a complete output at n = 2000. The
# upfront estimate is that of such sparse outputs; a denser output is refused
# once its edges outgrow memory.
_DYAD_PANEL = 1 << 16
_DYAD_BYTES_PER_N2 = 4
_BYTES_PER_SAMPLED_EDGE = 57


def dense_budget() -> int:
    """Bytes of physical memory: the most that dense arrays held at once may take."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_dense_budget(n: int, nbytes: int, what: str) -> None:
    """Refuse work whose arrays would not fit in physical memory.

    Called before the work allocates anything that grows with n (of size n^2
    for the dense steps), so that an oversized input fails with a ValueError
    instead of exhausting memory.
    """
    budget = dense_budget()
    if nbytes > budget:
        raise ValueError(
            f"{what} at n = {n} needs an estimated {nbytes} bytes of arrays, "
            f"more than the {budget} bytes of physical memory"
        )


def _integer_endpoints(arr: np.ndarray) -> np.ndarray:
    """`arr` as int64; a non-empty array of another dtype than integers
    (floats or bools, say) is refused rather than truncated."""
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"edge endpoints must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _edge_array(values) -> np.ndarray:
    arr = _integer_endpoints(np.array(values))
    if arr.ndim != 1:
        raise ValueError(f"edge endpoint arrays must be 1-D, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _blocked_runs(lengths: np.ndarray, starts: np.ndarray, budget: int, weights=None):
    """(lo, hi, heads, pos) per block of consecutive runs lo .. hi - 1: run r
    is the `lengths[r]` integers up from `starts[r]`, `pos` lists the block's
    runs in order and `heads` where each begins in `pos`. A block holds one
    run at least, and otherwise the runs whose `weights` (by default their
    lengths) sum to at most `budget`."""
    upto = np.cumsum(lengths if weights is None else weights)
    lo = 0
    while lo < lengths.size:
        done = upto[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(upto, done + budget, "right")))
        runs = lengths[lo:hi]
        heads = np.cumsum(runs) - runs
        pos = np.arange(heads[-1] + runs[-1]) + np.repeat(starts[lo:hi] - heads, runs)
        yield lo, hi, heads, pos
        lo = hi


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph with optional categorical node attributes.

    Edge k joins rows[k] < cols[k]; the pairs are sorted and unique.
    Attribute vectors, when present, have length exactly `n`; values are
    opaque categories compared only by equality. Two graphs are equal when
    n, the edges and the attributes are.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    attributes: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"node count must be non-negative, got {self.n}")
        rows, cols = _edge_array(self.rows), _edge_array(self.cols)
        if rows.shape != cols.shape:
            raise ValueError(f"{rows.size} row endpoints for {cols.size} column endpoints")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        bad = np.flatnonzero(rows >= cols)
        if bad.size:
            i, j = int(rows[bad[0]]), int(cols[bad[0]])
            raise ValueError(f"self-loop on node {i}" if i == j
                             else f"edge ({i}, {j}) not stored with i < j")
        bad = np.flatnonzero((rows < 0) | (cols >= self.n))
        if bad.size:
            i, j = int(rows[bad[0]]), int(cols[bad[0]])
            raise ValueError(f"edge ({i}, {j}) outside node range [0, {self.n})")
        # the edge keys i * n + j, here and in _neighbors, must fit in int64
        if int(cols.max(initial=0)) * self.n + self.n > 2**63:
            raise ValueError(f"n = {self.n} is too large for the int64 edge keys i * n + j")
        keys = rows * self.n + cols
        bad = np.flatnonzero(keys[1:] <= keys[:-1])
        if bad.size:
            i, j = int(rows[bad[0] + 1]), int(cols[bad[0] + 1])
            raise ValueError(f"edge ({i}, {j}) out of sorted order or repeated")
        for name, values in self.attributes.items():
            if len(values) != self.n:
                raise ValueError(
                    f"attribute {name!r} has {len(values)} values for {self.n} nodes"
                )

    @classmethod
    def from_edges(cls, n, edges):
        """Build a graph from any iterable of (i, j) pairs, normalizing orientation.

        Reversed and repeated pairs collapse to one edge.
        """
        pairs = _integer_endpoints(np.array(list(edges)))
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (i, j) pairs, got shape {pairs.shape}")
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        keep = np.ones(lo.size, dtype=bool)
        keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        return cls(n=n, rows=lo[keep], cols=hi[keep])

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and self.attributes == other.attributes)

    @property
    def num_edges(self) -> int:
        return int(self.rows.size)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return list(zip(self.rows.tolist(), self.cols.tolist()))

    @cached_property
    def _degrees(self) -> np.ndarray:
        degrees = np.bincount(np.concatenate([self.rows, self.cols]), minlength=self.n)
        degrees = degrees.astype(np.int64, copy=False)
        degrees.setflags(write=False)
        return degrees

    @cached_property
    def _neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): node v's neighbours are indices[indptr[v]:indptr[v + 1]],
        ascending. Read-only int64 arrays."""
        both_r = np.concatenate([self.rows, self.cols])
        both_c = np.concatenate([self.cols, self.rows])
        indices = both_c[np.argsort(both_r * self.n + both_c, kind="stable")]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self._degrees, out=indptr[1:])
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    def _closed_wedges(self) -> np.ndarray:
        """Per node, the ordered neighbour pairs that are adjacent: twice the
        triangles through it, as exact integers.

        The forward algorithm (Schank & Wagner 2005; Latapy 2008): each edge
        points from the lower to the higher (degree, id) rank, so every
        triangle appears exactly once as two out-neighbours of its lowest
        node joined by an edge, and a node's out-degree is at most
        sqrt(2 m). The candidate pairs go in blocks of at most _WEDGE_BLOCK.
        """
        n, m = self.n, self.num_edges
        rank = np.empty(n, dtype=np.int64)
        rank[np.argsort(self._degrees, kind="stable")] = np.arange(n)
        a, b = rank[self.rows], rank[self.cols]
        # out-edges in rank space, sorted by (tail, head)
        keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
        tail, head = np.divmod(keys, n)
        # edge p pairs with the later out-edges of its tail: head[p] < head[q]
        later = np.cumsum(np.bincount(tail, minlength=n))[tail] - np.arange(m) - 1
        triangles = np.zeros(n, dtype=np.int64)
        for lo, hi, _, q in _blocked_runs(later, np.arange(1, m + 1), _WEDGE_BLOCK):
            p = np.repeat(np.arange(lo, hi), later[lo:hi])
            wanted = head[p] * n + head[q]
            found = np.searchsorted(keys, wanted)
            closed = keys[np.minimum(found, m - 1)] == wanted
            for corner in (tail[p[closed]], head[p[closed]], head[q[closed]]):
                triangles += np.bincount(corner, minlength=n)
        return 2 * triangles[rank]

    @cached_property
    def _average_clustering(self) -> float:
        if self.n == 0:
            return 0.0
        links = self._closed_wedges().tolist()
        total = 0.0
        # sequential sum in node order, so the float result does not depend on
        # numpy's pairwise summation
        for link, k in zip(links, self._degrees.tolist()):
            if k >= 2:
                total += link / (k * (k - 1))
        return total / self.n

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix with zero diagonal."""
        a = np.zeros((self.n, self.n))
        a[self.rows, self.cols] = 1.0
        a[self.cols, self.rows] = 1.0
        return a

    def neighbor_lists(self) -> list[list[int]]:
        """Ascending neighbour ids of every node."""
        indptr, indices = (arr.tolist() for arr in self._neighbors)
        return [indices[indptr[v]:indptr[v + 1]] for v in range(self.n)]

    def neighbor_sets(self) -> list[set[int]]:
        """Neighbour id sets of every node. The library reads the neighbour
        arrays; this is kept for the benchmark trace, which pins it."""
        return [set(nbrs) for nbrs in self.neighbor_lists()]

    def with_attributes(self, attributes) -> "Graph":
        """Copy of this graph with the given attribute map (replaces any existing)."""
        attrs = {k: tuple(v) for k, v in (attributes or {}).items()}
        return Graph(self.n, self.rows, self.cols, attrs)


def sample_dyads(n: int, seed: int, probability) -> Graph:
    """Draw a graph on n nodes with independent dyads.

    The reproducibility contract of every sampled graph: one uniform draw per
    dyad j > i, in row-major order, from a PCG64 generator seeded with
    `seed`; the dyad is an edge where its draw is below
    `probability(rows, cols)`, evaluated on the dyads' index arrays.
    """
    what = "sampling every dyad"
    require_dense_budget(n, math.ceil(_DYAD_BYTES_PER_N2 * n * n), what)
    rng = np.random.default_rng(seed)
    # row i holds the n - 1 - i dyads (i, i + 1) ... (i, n - 1); a panel is a
    # run of whole rows holding about _DYAD_PANEL dyads, or one longer row.
    # PCG64 spends one word on each double, so the panels' draws, taken in
    # order, are the one-shot draw of every dyad
    lengths = np.arange(n - 1, 0, -1)
    hit_rows, hit_cols = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    kept = 0
    for first, last, _, cols in _blocked_runs(lengths, np.arange(1, n), _DYAD_PANEL):
        rows = np.repeat(np.arange(first, last), lengths[first:last])
        hit = rng.random(rows.shape[0]) < probability(rows, cols)
        hit_rows.append(rows[hit])
        hit_cols.append(cols[hit])
        kept += hit_rows[-1].shape[0]
        require_dense_budget(n, _BYTES_PER_SAMPLED_EDGE * kept, what)
    rows, cols = np.concatenate(hit_rows), np.concatenate(hit_cols)
    del hit_rows, hit_cols  # freed before Graph takes its copy
    return Graph(n, rows, cols)


def degree_vector(graph: Graph) -> np.ndarray:
    """Per-node degree counts; the sum always equals 2 * num_edges.

    Returns the graph's cached read-only array.
    """
    return graph._degrees


def average_clustering(graph: Graph) -> float:
    """Mean local clustering coefficient.

    Nodes of degree < 2 contribute 0 to the mean (they close no triads);
    the empty graph returns 0. Returns the graph's cached value.
    """
    return graph._average_clustering


def load_edge_list(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Format: UTF-8 text, one `i j` pair per line, `#`-prefixed comment lines,
    and an optional `#nodes N` directive fixing the node count (needed to
    represent trailing isolated nodes). Duplicate and reversed-duplicate
    lines collapse to a single undirected edge.
    """
    declared_n = None
    edges = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "#nodes":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ValueError(f"line {lineno}: malformed #nodes directive: {raw!r}")
            if declared_n is not None:
                raise ValueError(f"line {lineno}: duplicate #nodes directive")
            declared_n = int(tokens[1])
            continue
        if line.startswith("#"):
            continue
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected two integer tokens, got {raw!r}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer node id in {raw!r}") from None
        if i < 0 or j < 0:
            raise ValueError(f"line {lineno}: negative node id in {raw!r}")
        if i == j:
            raise ValueError(f"line {lineno}: self-loop on node {i}")
        edges.append((i, j))
        max_id = max(max_id, i, j)
    n = (max_id + 1) if declared_n is None else declared_n
    if max_id >= n:
        raise ValueError(f"edge endpoint {max_id} outside declared node count {n}")
    return Graph.from_edges(n, edges)


def write_edge_list(graph: Graph) -> str:
    """Serialize a graph; round-trips exactly through load_edge_list."""
    lines = [f"#nodes {graph.n}"]
    lines.extend(f"{i} {j}" for i, j in graph.sorted_edges())
    return "\n".join(lines)


def load_attributes(text: str, graph: Graph) -> Graph:
    """Attach categorical node attributes from CSV text.

    The header must start with a `node` column; remaining columns become
    attribute names, which must be non-empty and distinct after stripping
    surrounding whitespace. Nodes absent from the file receive MISSING_VALUE.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("attribute CSV is empty") from None
    if not header or header[0].strip() != "node":
        raise ValueError("attribute CSV header must start with 'node'")
    names = [h.strip() for h in header[1:]]
    if not names:
        raise ValueError("attribute CSV declares no attribute columns")
    for column, name in enumerate(names, start=2):
        if not name:
            raise ValueError(f"attribute CSV column {column} has an empty name")
        if name in names[:column - 2]:
            raise ValueError(f"attribute CSV column {column} repeats the name {name!r}")
    columns: dict[str, list[str]] = {
        name: [MISSING_VALUE] * graph.n for name in names
    }
    seen: set[int] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ValueError(f"row {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            node = int(row[0])
        except ValueError:
            raise ValueError(f"row {lineno}: non-integer node id {row[0]!r}") from None
        if node < 0 or node >= graph.n:
            raise ValueError(f"row {lineno}: node id {node} out of range [0, {graph.n})")
        if node in seen:
            raise ValueError(f"row {lineno}: duplicate row for node {node}")
        seen.add(node)
        for name, cell in zip(names, row[1:]):
            columns[name][node] = cell.strip()
    merged = dict(graph.attributes)
    merged.update({name: tuple(vals) for name, vals in columns.items()})
    return graph.with_attributes(merged)
