"""Symmetric eigendecomposition, modulus-ordered low-rank filtering, and the
modularity-matrix transformation.

The low-rank filter keeps the ceil(alpha * n) largest-modulus eigenterms of a
symmetric matrix; the spectral norm of what it drops is exactly the modulus of
the first omitted eigenvalue, which gives a tunable error bound.

The decomposition calls LAPACK's dsyevd, the routine `np.linalg.eigh` calls,
directly on the matrix it is handed, so the pipeline's dense peak is the
matrix plus dsyevd's 2n^2 workspace instead of numpy's four arrays. Where
numpy's linalg module does not export that routine, `np.linalg.eigh` is used
instead; both give the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, degree_vector

SYMMETRY_ATOL = 1e-9

# entries of an n x n array handled per block by the row-block and tile loops
# below, so that their temporaries stay near 2 MB
_BLOCK_ENTRIES = 1 << 18


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
    m = graph.adjacency()
    _shift_by_null_model(m, degrees.astype(float), np.subtract)
    return m


def _shift_by_null_model(m: np.ndarray, k: np.ndarray, op) -> None:
    """m <- op(m, k k^T / sum(k)) in place, one block of rows at a time.

    Each entry is op(m_ij, k_i k_j / sum(k)), as with a full outer product.
    """
    total = k.sum()
    step = max(1, _BLOCK_ENTRIES // max(1, k.shape[0]))
    for start in range(0, k.shape[0], step):
        rows = m[start:start + step]
        op(rows, np.outer(k[start:start + step], k) / total, out=rows)


@functools.cache
def _in_place_eigensolver():
    """numpy's own LAPACK dsyevd, wrapped to overwrite a Fortran-ordered
    symmetric matrix with its eigenvectors and return its ascending
    eigenvalues; None when numpy's linalg module does not export it.

    The call mirrors `np.linalg.eigh`'s: jobz V, uplo L, a workspace query
    first, and LinAlgError when LAPACK reports a failure. Resolved on first
    use, so importing the package loads nothing.
    """
    import ctypes

    from numpy.linalg import _umath_linalg
    try:
        dsyevd = ctypes.CDLL(_umath_linalg.__file__).scipy_dsyevd_64_
    except (OSError, AttributeError):
        return None
    integer, real = ctypes.c_int64, ctypes.c_double
    int_p, real_p = ctypes.POINTER(integer), ctypes.POINTER(real)
    dsyevd.argtypes = [ctypes.c_char_p, ctypes.c_char_p, int_p, real_p, int_p, real_p,
                       real_p, int_p, int_p, int_p, int_p]
    dsyevd.restype = None

    def solve(a: np.ndarray) -> np.ndarray:
        n = a.shape[0]
        if a.dtype != np.float64 or a.shape != (n, n) or not (
                a.flags.f_contiguous and a.flags.writeable):
            raise ValueError("dsyevd needs a writeable Fortran-ordered square float64 matrix")
        values = np.empty(n)
        if n == 0:  # LAPACK rejects LDA = 0
            return values
        size, info = integer(n), integer(0)

        def call(work, lwork, iwork, liwork):
            dsyevd(b"V", b"L", size, a.ctypes.data_as(real_p), size,
                   values.ctypes.data_as(real_p), work, integer(lwork), iwork,
                   integer(liwork), info)

        work_size, iwork_size = real(), integer()
        call(work_size, -1, iwork_size, -1)
        work = np.empty(int(work_size.value))
        iwork = np.empty(iwork_size.value, dtype=np.int64)
        call(work.ctypes.data_as(real_p), work.size, iwork.ctypes.data_as(int_p), iwork.size)
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return values

    return solve


def eigendecompose(matrix: np.ndarray) -> EigenDecomposition:
    """Full symmetric eigendecomposition with modulus-descending ordering."""
    m = _require_symmetric(matrix, "eigendecompose input")
    return _eigendecompose(np.array(m, order="F"))


def _eigendecompose(a: np.ndarray) -> EigenDecomposition:
    """eigendecompose of a Fortran-ordered float matrix that the caller built
    symmetric and hands over: the in-place solver overwrites it."""
    solve = _in_place_eigensolver()
    if solve is None:
        values, vectors = np.linalg.eigh(a)
    else:
        values, vectors = solve(a), a
    n = values.shape[0]
    # the solver returns ascending values; re-sort by (|lambda| desc, value desc, index)
    order = np.lexsort((np.arange(n), -values, -np.abs(values)))
    if n:  # argmax refuses the empty axis of a 0 x 0 matrix
        # flip each vector whose largest-magnitude entry is negative; x * 1.0
        # is x and x * -1.0 is -x exactly, so this multiplies in place
        pivot = np.argmax(np.abs(vectors), axis=0)
        vectors *= np.where(vectors[pivot, np.arange(n)] < 0, -1.0, 1.0)
    values = values[order]
    vectors = vectors[:, order]  # F-ordered, whatever the solver's layout
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
    _symmetrize(approx)
    return approx


def _symmetrize(m: np.ndarray) -> None:
    """m <- (m + m^T) / 2 in place, one pair of mirrored tiles at a time.

    Entries (i, j) and (j, i) both get (m_ij + m_ji) / 2, which IEEE addition
    makes the same number, so the result equals the out-of-place expression.
    """
    n = m.shape[0]
    tile = math.isqrt(_BLOCK_ENTRIES)
    for i in range(0, n, tile):
        for j in range(i, n, tile):
            mean = (m[i:i + tile, j:j + tile] + m[j:j + tile, i:i + tile].T) / 2.0
            m[i:i + tile, j:j + tile] = mean
            m[j:j + tile, i:i + tile] = mean.T


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
