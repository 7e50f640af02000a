"""The generation pipeline: back-transformation, normalization to edge
probabilities, Bernoulli sampling, and the distribution's normalized entropy.

`fit` decomposes the modularity (or adjacency) matrix once; `model.at(alpha,
rule, logistic_k)` keeps the ceil(alpha * n) leading eigenterms, transforms
back and squashes into [0, 1], giving a `ForgedDistribution` that samples and
scores itself. alpha = 1 with the truncate rule reproduces the input graph.

`forge` serves one alpha, so it computes only the min(r, n - r) eigenpairs on
the smaller side of the rank cut r = ceil(alpha * n), and none at alpha 0 or
1. Its probabilities agree with `fit(...).at(...)`'s to rounding (within
6e-14 at n = 2000), not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, degree_vector, require_dense_budget, sample_dyads
from .spectral import (
    SYMMETRY_ATOL,
    EigenDecomposition,
    _eigendecompose,
    _eigenterm_sum,
    _in_place_eigensolver,
    _modulus_order,
    _partial_eigensolver,
    _require_edges,
    _require_symmetric,
    _shift_by_null_model,
    low_rank_approx,
    modularity_matrix,
    retained_rank,
)

NORMALIZATION_RULES = ("logistic", "truncate", "scale")
TRANSFORMATIONS = ("modularity", "adjacency")

DEFAULT_LOGISTIC_K = 6.0

# n x n float64 arrays at the peak of fit plus one `at` and its sample, and
# of a forge. fit: M and dsyevd's 2n^2 workspace, or at alpha = 1 the
# eigenvectors, their scaled copy and the product. forge at 0 < r < n: the
# reduced M, the tridiagonal eigenvectors and dstedc's n^2 workspace; at
# r = 0 or n, one array. Peak RSS growth of `forge` in fresh processes, once
# a forge at alpha 0.5 had started BLAS (2 threads), was 3.15 n^2 at
# n = 1000 and 2000 for alpha 0.1, 0.5 and 0.9 and 1.00-1.03 n^2 at alpha 0
# and 1; `fit(...).at(...)` read 2.41 and 3.12 n^2 there. With
# np.linalg.eigh, which holds the input, its own copy, the workspace and
# the output at once, the count is 5 (RSS 5.07-5.2 n^2).
_FORGE_DENSE_ARRAYS = 3.5
_FORGE_DENSE_ARRAYS_EIGH = 5

# dyads whose entropy is computed at once, so that its temporaries stay near 3 MB
_ENTROPY_CHUNK = 1 << 16


@dataclass(frozen=True)
class ForgeConfig:
    """Knobs for one generation run.

    alpha tunes fidelity (1 keeps every eigenterm, 0 keeps none); rule picks
    the normalization squashing matrix entries into probabilities; the
    logistic steepness k must lie in [2, 10] and is ignored by the other
    rules; transformation selects which matrix the spectral filter acts on.
    """

    alpha: float
    rule: str = "truncate"
    logistic_k: float = DEFAULT_LOGISTIC_K
    transformation: str = "modularity"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        _check_rule(self.rule, self.logistic_k)
        _check_transformation(self.transformation)


def _check_rule(rule: str, logistic_k: float) -> None:
    if rule not in NORMALIZATION_RULES:
        raise ValueError(f"unknown normalization rule {rule!r}")
    if rule == "logistic" and not 2.0 <= logistic_k <= 10.0:
        raise ValueError(f"logistic k must lie in [2, 10], got {logistic_k}")


def _check_transformation(transformation: str) -> None:
    if transformation not in TRANSFORMATIONS:
        raise ValueError(f"unknown transformation {transformation!r}")


def back_transform(m_tilde: np.ndarray, degrees: np.ndarray, transformation: str = "modularity") -> np.ndarray:
    """Undo the forward transformation on a filtered matrix.

    Modularity mode adds back the k k^T / |K| null model; adjacency mode is
    the identity. The checked entry point for a user matrix, which it
    copies; `SpectralModel.at` shifts its own matrix in place.
    """
    _check_transformation(transformation)
    m = np.array(m_tilde, dtype=float)
    k = np.asarray(degrees, dtype=float)
    if m.shape[0] != k.shape[0]:
        raise ValueError(
            f"matrix order {m.shape[0]} does not match degree vector length {k.shape[0]}"
        )
    if transformation == "modularity":
        if k.sum() == 0:
            raise ValueError("degree sum is zero: modularity back-transform undefined")
        _shift_by_null_model(m, k, np.add)
    return m


def normalize(a_tilde: np.ndarray, rule: str = "truncate", logistic_k: float = DEFAULT_LOGISTIC_K) -> np.ndarray:
    """Map a symmetric real matrix into edge probabilities in [0, 1].

    logistic: 1 / (1 + exp((0.5 - x) * k)); truncate: clamp to [0, 1];
    scale: affine map of the off-diagonal range onto [0, 1] (fails when the
    off-diagonal entries are all equal). The diagonal is structurally zero:
    dyads never include self-pairs. The checked entry point for a user
    matrix, which it copies; `SpectralModel.at` calls `_normalize` on its
    own matrix.
    """
    _check_rule(rule, logistic_k)
    out = _normalize(_require_symmetric(a_tilde, "normalize input").copy(), rule, logistic_k)
    return (out + out.T) / 2.0


def _normalize(m: np.ndarray, rule: str, logistic_k: float) -> np.ndarray:
    """normalize in place, for a float matrix the caller owns and built
    exactly symmetric, under a rule and k that `_check_rule` passed; every
    rule maps entries one by one, so the result is exactly symmetric too."""
    n = m.shape[0]
    if rule == "truncate":
        np.clip(m, 0.0, 1.0, out=m)
    elif rule == "logistic":
        # 1 / (1 + exp((0.5 - m) * k)), one operation at a time
        np.subtract(0.5, m, out=m)
        np.multiply(m, logistic_k, out=m)
        np.exp(m, out=m)
        np.add(1.0, m, out=m)
        np.divide(1.0, m, out=m)
    else:  # scale
        if n < 2:
            raise ValueError("scale rule needs at least one off-diagonal entry")
        # the diagonal is zeroed below, so it may hold an off-diagonal value
        # while the off-diagonal range is taken over the whole matrix
        np.fill_diagonal(m, m[0, 1])
        lo, hi = m.min(), m.max()
        if hi == lo:
            raise ValueError("scale rule degenerate: off-diagonal max equals min")
        np.subtract(m, lo, out=m)
        np.divide(m, hi - lo, out=m)
        np.clip(m, 0.0, 1.0, out=m)
    np.fill_diagonal(m, 0.0)
    return m


def _check_probability_matrix(matrix: np.ndarray) -> np.ndarray:
    p = _require_symmetric(matrix, "probability matrix")
    if p.size and (p.min() < -SYMMETRY_ATOL or p.max() > 1.0 + SYMMETRY_ATOL):
        raise ValueError("probability matrix entries must lie in [0, 1]")
    return np.clip(p, 0.0, 1.0)


@dataclass(frozen=True)
class EntropyReport:
    """Shannon entropy of the dyad-independent sampling distribution.

    raw_bits sums the dyadic entropies; density is the expected edge density;
    normalizer is -(n(n-1)/2) * (log2(density) + log2(1-density)) and
    normalized = raw_bits / normalizer.
    """

    raw_bits: float
    density: float
    normalizer: float
    normalized: float


def _binary_entropy_bits(p: np.ndarray) -> np.ndarray:
    h = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    q = p[interior]
    h[interior] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return h


@dataclass(frozen=True, eq=False)
class ForgedDistribution:
    """The dyad-independent graph distribution of a probability matrix that
    is exactly symmetric, in [0, 1] and zero on the diagonal, held as given."""

    probabilities: np.ndarray

    def sample(self, seed: int) -> Graph:
        """Draw one graph, dyad by dyad, under the `sample_dyads` contract."""
        p = self.probabilities
        return sample_dyads(p.shape[0], seed, lambda rows, cols: p[rows, cols])

    def entropy(self) -> EntropyReport:
        """Entropy of the distribution, raw and normalized."""
        p = self.probabilities
        n = p.shape[0]
        dyads = n * (n - 1) // 2
        if dyads == 0:
            return EntropyReport(0.0, 0.0, math.nan, 0.0)
        # the dyads j > i in row-major order, summed whole so that numpy's
        # pairwise sum sees the same vector however it was filled; the
        # vector then holds each dyad's entropy, computed a chunk at a time
        upper = np.empty(dyads)
        start = 0
        for i in range(n - 1):
            upper[start:start + n - 1 - i] = p[i, i + 1:]
            start += n - 1 - i
        density = float(np.sum(upper) / dyads)
        for start in range(0, dyads, _ENTROPY_CHUNK):
            chunk = upper[start:start + _ENTROPY_CHUNK]
            chunk[:] = _binary_entropy_bits(chunk)
        raw_bits = float(np.sum(upper))
        if density <= 0.0 or density >= 1.0:
            # degenerate distribution: the normalizer is undefined
            return EntropyReport(raw_bits, density, math.nan, 0.0)
        normalizer = -dyads * (math.log2(density) + math.log2(1.0 - density))
        return EntropyReport(raw_bits, density, normalizer, raw_bits / normalizer)


def sample_bernoulli(prob_matrix: np.ndarray, seed: int) -> Graph:
    """Draw one graph from a probability matrix (see `ForgedDistribution.sample`).

    The checked entry point for a user matrix; the pipeline's distributions
    sample themselves."""
    return ForgedDistribution(_check_probability_matrix(prob_matrix)).sample(seed)


def normalized_entropy(prob_matrix: np.ndarray) -> EntropyReport:
    """Entropy of the graph distribution defined by a probability matrix.

    The checked entry point for a user matrix; the pipeline's distributions
    score themselves."""
    return ForgedDistribution(_check_probability_matrix(prob_matrix)).entropy()


def forge_dense_bytes(n: int) -> int:
    """Estimated peak bytes of dense arrays of `fit` plus one `at`, or of
    `forge`, at n nodes."""
    arrays = _FORGE_DENSE_ARRAYS if _in_place_eigensolver() else _FORGE_DENSE_ARRAYS_EIGH
    return math.ceil(8 * n * n * arrays)


@dataclass(frozen=True)
class SpectralModel:
    """The eigendecomposition of one input, built by `fit` and reusable
    across alphas and rules."""

    degrees: np.ndarray
    eig: EigenDecomposition
    transformation: str

    def at(self, alpha: float, rule: str = "truncate",
           logistic_k: float = DEFAULT_LOGISTIC_K) -> ForgedDistribution:
        """Keep the ceil(alpha * n) leading eigenterms, transform back and
        normalize; the probabilities equal `edge_probabilities`."""
        _check_rule(rule, logistic_k)
        m = low_rank_approx(self.eig, alpha)
        if self.transformation == "modularity":
            _shift_by_null_model(m, self.degrees.astype(float), np.add)
        return ForgedDistribution(_normalize(m, rule, logistic_k))


def fit(graph: Graph, transformation: str = "modularity") -> SpectralModel:
    """Transform the graph and decompose the result once.

    M is symmetric by construction, so its symmetry is not checked; the
    eigensolve overwrites M, which is released once its eigenpairs are taken.
    """
    _check_transformation(transformation)
    require_dense_budget(graph.n, forge_dense_bytes(graph.n), "forging a graph")
    if transformation == "modularity":
        m = modularity_matrix(graph)  # raises on edgeless input
    else:
        m = graph.adjacency()
    # M is exactly symmetric, so its C buffer is also its Fortran layout
    return SpectralModel(degree_vector(graph), _eigendecompose(m.T), transformation)


def edge_probabilities(graph: Graph, config: ForgeConfig) -> np.ndarray:
    """The probability matrix the pipeline samples from, without sampling.

    `forge(graph, config)` samples these probabilities, to rounding (it
    solves only the eigenpairs its one alpha needs), dyad by dyad. A one-call
    form of `fit(...).at(...)`, kept for the benchmark trace, which pins it.
    """
    return fit(graph, config.transformation).at(
        config.alpha, config.rule, config.logistic_k).probabilities


def _one_alpha_probabilities(graph: Graph, config: ForgeConfig, solve) -> np.ndarray:
    """The probabilities of `fit(graph, t).at(alpha, rule, logistic_k)`, to
    rounding, from the min(r, n - r) eigenpairs on the smaller side of the
    rank cut.

    M_r = sum_{i <= r} lambda_i v_i v_i^T is also M - sum_{i > r} lambda_i v_i v_i^T,
    and (M - D) + k k^T / |K| = A - D under both transformations. So r <= n - r
    keeps the r leading pairs and adds the null model back, and r > n - r
    subtracts the n - r trailing pairs from A; r = 0 and r = n solve nothing.
    `solve` is `_partial_eigensolver()`, which picks the pairs on the
    eigenvalues dsyevd would give, so ties at the cut fall as in `fit`.
    """
    require_dense_budget(graph.n, forge_dense_bytes(graph.n), "forging a graph")
    n, modularity = graph.n, config.transformation == "modularity"
    degrees = degree_vector(graph)
    if modularity:
        _require_edges(degrees)
    r = retained_rank(config.alpha, n)
    keep = r <= n - r
    if r == 0:
        p = np.zeros((n, n))
    elif r == n:
        p = graph.adjacency()
    else:
        m = modularity_matrix(graph) if modularity else graph.adjacency()
        side = slice(None, r) if keep else slice(r, None)
        # M is exactly symmetric, so its C buffer is also its Fortran layout
        values, vectors = solve(m.T, lambda w: _modulus_order(w)[side])
        del m  # the reduced matrix, no longer needed once Q is applied
        p = _eigenterm_sum(values, vectors)
        del vectors
        if not keep:
            # A - V_d diag(lambda_d) V_d^T; -x + 1 rounds as 1 - x does
            np.negative(p, out=p)
            p[graph.rows, graph.cols] += 1.0
            p[graph.cols, graph.rows] += 1.0
    if keep and modularity:
        _shift_by_null_model(p, degrees.astype(float), np.add)
    return _normalize(p, config.rule, config.logistic_k)


def forge(graph: Graph, config: ForgeConfig) -> Graph:
    """Generate one random graph preserving the input's filtered structure.

    Output has the same node count and inherits the input's node attributes
    by index. Same config (including seed) yields the same graph. The
    probabilities are those of `fit(graph, t).at(alpha, rule, logistic_k)`
    to rounding (within 6e-14 at n = 2000): one alpha needs only the
    eigenpairs on the smaller side of the rank cut. Where numpy's LAPACK does
    not export the routines for that, `forge` samples `fit(...).at(...)`
    itself.
    """
    solve = _partial_eigensolver()
    if solve is None:
        p = fit(graph, config.transformation).at(
            config.alpha, config.rule, config.logistic_k).probabilities
    else:
        p = _one_alpha_probabilities(graph, config, solve)
    sampled = ForgedDistribution(p).sample(config.seed)
    if graph.attributes:
        sampled = sampled.with_attributes(graph.attributes)
    return sampled
