"""Symmetric eigendecomposition, modulus-ordered low-rank filtering, and the
modularity-matrix transformation.

The low-rank filter keeps the ceil(alpha * n) largest-modulus eigenterms of a
symmetric matrix; the spectral norm of what it drops is exactly the modulus of
the first omitted eigenvalue, which gives a tunable error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, degree_vector

SYMMETRY_ATOL = 1e-9


def _require_symmetric(matrix: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if m.size and not np.allclose(m, m.T, rtol=0.0, atol=SYMMETRY_ATOL):
        raise ValueError(f"{what} is not symmetric within {SYMMETRY_ATOL}")
    return m


def retained_rank(alpha: float, n: int) -> int:
    """Number of eigenterms kept at a given alpha: ceil(alpha * n).

    alpha = 0 keeps zero terms; alpha = 1 keeps all n. The product is snapped
    to 9 decimals before the ceiling so that grid values like 0.7 * 10 do not
    round up through float noise.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return math.ceil(round(alpha * n, 9))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric real matrix, sorted by descending modulus.

    Column i of `eigenvectors` is the unit-norm eigenvector paired with
    `eigenvalues[i]`. Ties in modulus place the more-positive eigenvalue
    first, then fall back to the solver's ascending-value order; the sign of
    each vector is fixed so its largest-magnitude component is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def order(self) -> int:
        return self.eigenvalues.shape[0]


def modularity_matrix(graph: Graph) -> np.ndarray:
    """A - k k^T / |K| for the graph; symmetric with zero row sums."""
    degrees = degree_vector(graph)
    total = int(degrees.sum())
    if total == 0:
        raise ValueError("graph has no edges: modularity matrix is undefined (|K| = 0)")
    k = degrees.astype(float)
    return graph.adjacency() - np.outer(k, k) / total


def eigendecompose(matrix: np.ndarray) -> EigenDecomposition:
    """Full symmetric eigendecomposition with modulus-descending ordering."""
    return _eigendecompose(_require_symmetric(matrix, "eigendecompose input"))


def _eigendecompose(m: np.ndarray) -> EigenDecomposition:
    """eigendecompose for a float matrix the caller built symmetric."""
    values, vectors = np.linalg.eigh(m)
    n = values.shape[0]
    # eigh returns ascending values; re-sort by (|lambda| desc, value desc, index)
    order = np.lexsort((np.arange(n), -values, -np.abs(values)))
    values = values[order]
    vectors = vectors[:, order]
    if n:  # argmax refuses the empty axis of a 0 x 0 matrix
        pivot = np.argmax(np.abs(vectors), axis=0)
        vectors[:, vectors[pivot, np.arange(n)] < 0] *= -1.0
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def low_rank_approx(eig: EigenDecomposition, alpha: float) -> np.ndarray:
    """Sum of the ceil(alpha * n) leading (largest-modulus) eigenterms."""
    r = retained_rank(alpha, eig.order)
    if r == 0:
        return np.zeros((eig.order, eig.order))
    v = eig.eigenvectors[:, :r]
    approx = (v * eig.eigenvalues[:r]) @ v.T
    return (approx + approx.T) / 2.0


def approx_error_bound(eig: EigenDecomposition, alpha: float) -> float:
    """Spectral norm of the dropped tail: |lambda_{r+1}|, or 0 when r = n."""
    r = retained_rank(alpha, eig.order)
    if r >= eig.order:
        return 0.0
    return float(abs(eig.eigenvalues[r]))


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest eigenvalue modulus of a symmetric matrix."""
    m = _require_symmetric(matrix, "spectral_norm input")
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))
