"""Symmetric eigendecomposition, modulus-ordered low-rank filtering, and the
modularity-matrix transformation.

The low-rank filter keeps the ceil(alpha * n) largest-modulus eigenterms of a
symmetric matrix; the spectral norm of what it drops is exactly the modulus of
the first omitted eigenvalue, which gives a tunable error bound.

The decomposition calls LAPACK's dsyevd, the routine `np.linalg.eigh` calls,
directly on the matrix it is handed, so the pipeline's dense peak is the
matrix plus dsyevd's 2n^2 workspace instead of numpy's four arrays. Where
numpy's linalg module does not export that routine, `np.linalg.eigh` is used
instead; both give the same bits. A caller that needs only some eigenpairs
takes dsyevd's first two steps from the same library (dsytrd, dstedc) and
back-transforms only those pairs (dormtr).
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


def _require_edges(degrees: np.ndarray) -> None:
    if degrees.sum() == 0:
        raise ValueError("graph has no edges: modularity matrix is undefined (|K| = 0)")


def modularity_matrix(graph: Graph) -> np.ndarray:
    """A - k k^T / |K| for the graph; symmetric with zero row sums."""
    degrees = degree_vector(graph)
    _require_edges(degrees)
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


def _numpy_lapack(*names: str) -> list | None:
    """The named LAPACK routines of the library numpy's linalg module links
    (its ILP64 build, with 64-bit integers), or None when the module does not
    export one of them. Resolved on first use, so importing the package
    loads nothing."""
    import ctypes

    from numpy.linalg import _umath_linalg
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        return [getattr(lib, f"scipy_{name}_64_") for name in names]
    except (OSError, AttributeError):
        return None


def _require_lapack_layout(a: np.ndarray, routine: str) -> None:
    n = a.shape[0]
    if a.dtype != np.float64 or a.shape != (n, n) or not (
            a.flags.f_contiguous and a.flags.writeable):
        raise ValueError(f"{routine} needs a writeable Fortran-ordered square float64 matrix")


@functools.cache
def _in_place_eigensolver():
    """numpy's own LAPACK dsyevd, wrapped to overwrite a Fortran-ordered
    symmetric matrix with its eigenvectors and return its ascending
    eigenvalues; None when numpy's linalg module does not export it.

    The call mirrors `np.linalg.eigh`'s: jobz V, uplo L, a workspace query
    first, and LinAlgError when LAPACK reports a failure.
    """
    import ctypes

    routines = _numpy_lapack("dsyevd")
    if routines is None:
        return None
    dsyevd, = routines
    integer, real = ctypes.c_int64, ctypes.c_double
    int_p, real_p = ctypes.POINTER(integer), ctypes.POINTER(real)
    dsyevd.argtypes = [ctypes.c_char_p, ctypes.c_char_p, int_p, real_p, int_p, real_p,
                       real_p, int_p, int_p, int_p, int_p]
    dsyevd.restype = None

    def solve(a: np.ndarray) -> np.ndarray:
        _require_lapack_layout(a, "dsyevd")
        n = a.shape[0]
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


@functools.cache
def _partial_eigensolver():
    """numpy's own LAPACK dsytrd, dstedc and dormtr, wrapped to overwrite a
    Fortran-ordered symmetric matrix of order n >= 1 and return only the
    eigenpairs a selection picks; None when numpy's linalg module does not
    export the three.

    `solve(a, pick)` first takes dsyevd's two steps: dsytrd (uplo L) reduces
    a in place to a tridiagonal T = Q^T a Q, and dstedc (compz I) finds every
    eigenpair of T, so the ascending eigenvalues w are dsyevd's bits. `pick(w)`
    gives the indices of the wanted pairs, and dormtr applies Q to those
    eigenvectors of T only, where dsyevd applies it to all n. It returns
    (w[picked], the n x k Fortran-ordered eigenvectors). The vectors agree
    with dsyevd's to rounding, not bit for bit, and their signs are not
    fixed; V diag(w) V^T does not depend on the signs.
    """
    import ctypes

    routines = _numpy_lapack("dsytrd", "dstedc", "dormtr")
    if routines is None:
        return None
    dsytrd, dstedc, dormtr = routines
    char, integer, real = ctypes.c_char_p, ctypes.c_int64, ctypes.c_double
    int_p, real_p = ctypes.POINTER(integer), ctypes.POINTER(real)
    dsytrd.argtypes = [char, int_p, real_p, int_p, real_p, real_p, real_p, real_p, int_p, int_p]
    dstedc.argtypes = [char, int_p, real_p, real_p, real_p, int_p, real_p, int_p, int_p, int_p,
                       int_p]
    dormtr.argtypes = [char, char, char, int_p, int_p, real_p, int_p, real_p, real_p, int_p,
                       real_p, int_p, int_p]
    for routine in routines:
        routine.restype = None

    def ptr(x: np.ndarray):
        return x.ctypes.data_as(real_p)

    def solve(a: np.ndarray, pick) -> tuple[np.ndarray, np.ndarray]:
        _require_lapack_layout(a, "dsytrd")
        n = a.shape[0]
        size, info, query, iquery = integer(n), integer(0), real(), integer()
        values, off, tau = np.empty(n), np.empty(max(1, n - 1)), np.empty(max(1, n - 1))

        def reduce(work, lwork):
            dsytrd(b"L", size, ptr(a), size, ptr(values), ptr(off), ptr(tau), work,
                   integer(lwork), info)

        reduce(query, -1)
        work = np.empty(int(query.value))
        reduce(ptr(work), work.size)
        z = np.empty((n, n), order="F")

        def tridiagonal(work, lwork, iwork, liwork):
            dstedc(b"I", size, ptr(values), ptr(off), ptr(z), size, work, integer(lwork),
                   iwork, integer(liwork), info)

        tridiagonal(query, -1, iquery, -1)
        work = np.empty(int(query.value))
        iwork = np.empty(iquery.value, dtype=np.int64)
        tridiagonal(ptr(work), work.size, iwork.ctypes.data_as(int_p), iwork.size)
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        del work, iwork  # before the picked columns are copied out
        picked = pick(values)
        vectors = np.asfortranarray(z[:, picked])
        del z
        columns = integer(vectors.shape[1])

        def apply_q(work, lwork):
            dormtr(b"L", b"L", b"N", size, columns, ptr(a), size, ptr(tau), ptr(vectors), size,
                   work, integer(lwork), info)

        apply_q(query, -1)
        work = np.empty(int(query.value))
        apply_q(ptr(work), work.size)
        return values[picked], vectors

    return solve


def _modulus_order(values: np.ndarray) -> np.ndarray:
    """Indices that sort ascending eigenvalues by (|lambda| desc, value desc,
    index), the order of `EigenDecomposition`."""
    return np.lexsort((np.arange(values.shape[0]), -values, -np.abs(values)))


def eigendecompose(matrix: np.ndarray) -> EigenDecomposition:
    """Full symmetric eigendecomposition with modulus-descending ordering.

    The checked entry point for a user matrix: it refuses an asymmetric one
    and decomposes a copy. `fit` hands its own matrix to `_eigendecompose`.
    """
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
    order = _modulus_order(values)  # the solver returns ascending values
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
    return _eigenterm_sum(eig.eigenvalues[:r], eig.eigenvectors[:, :r])


def _eigenterm_sum(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """V diag(values) V^T, made exactly symmetric."""
    product = (vectors * values) @ vectors.T
    _symmetrize(product)
    return product


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
