"""Symmetric eigendecomposition, modulus-ordered low-rank filtering, and the
modularity-matrix transformation.

The low-rank filter keeps the ceil(alpha * n) largest-modulus eigenterms of a
symmetric matrix; the spectral norm of what it drops is exactly the modulus of
the first omitted eigenvalue, which gives a tunable error bound.

The decomposition runs the steps of LAPACK's dsyevd, the routine
`np.linalg.eigh` calls, from numpy's own library (dlansy and dlascl, dsytrd,
dstedc, dormtr) directly on the matrix it is handed, so the pipeline's dense
peak is the matrix plus dsyevd's 2n^2 workspace instead of numpy's four
arrays. A full decomposition is dsyevd's, bit for bit; a caller that needs
only some eigenpairs back-transforms only those, which agree with dsyevd's
to rounding. Where numpy's linalg module does not export the routines,
`np.linalg.eigh` is used instead; it gives the same bits.
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


@functools.cache
def _lapack_eigensolver():
    """numpy's own LAPACK dsyevd, taken step by step so that a caller may
    back-transform only some eigenpairs: `solve(a, pick)` overwrites a
    Fortran-ordered symmetric matrix and returns the picked eigenpairs;
    None when numpy's linalg module does not export dlansy, dlascl, dsytrd,
    dstedc and dormtr.

    The steps are dsyevd's: dlansy and dlascl scale a whose largest entry
    lies outside [2^-485, 2^485], dsytrd (uplo L) reduces a in place to a
    tridiagonal T = Q^T a Q, and dstedc (compz I) finds every eigenpair of T,
    so the ascending eigenvalues w are dsyevd's bits. `pick(w)` selects the
    wanted pairs, and dormtr applies Q to those eigenvectors of T only, with
    the workspace dsyevd leaves it (dormtr's block size depends on it). It
    returns (w[picked], the n x k Fortran-ordered eigenvectors), and raises
    LinAlgError when LAPACK reports a failure. With pick = slice(None) the
    result is dsyevd's, bit for bit; with a subset the vectors agree with
    dsyevd's to rounding, and their signs are not fixed.
    """
    import ctypes

    routines = _numpy_lapack("dlansy", "dlascl", "dsytrd", "dstedc", "dormtr")
    if routines is None:
        return None
    dlansy, dlascl, dsytrd, dstedc, dormtr = routines
    char, integer, real = ctypes.c_char_p, ctypes.c_int64, ctypes.c_double
    int_p, real_p = ctypes.POINTER(integer), ctypes.POINTER(real)
    dlansy.argtypes = [char, char, int_p, real_p, int_p, real_p]
    dlascl.argtypes = [char, int_p, int_p, real_p, real_p, int_p, int_p, real_p, int_p, int_p]
    dsytrd.argtypes = [char, int_p, real_p, int_p, real_p, real_p, real_p, real_p, int_p, int_p]
    dstedc.argtypes = [char, int_p, real_p, real_p, real_p, int_p, real_p, int_p, int_p, int_p,
                       int_p]
    dormtr.argtypes = [char, char, char, int_p, int_p, real_p, int_p, real_p, real_p, int_p,
                       real_p, int_p, int_p]
    for routine in routines:
        routine.restype = None
    dlansy.restype = real
    # dsyevd's RMIN and RMAX: the square roots of safe minimum / precision
    # and of its inverse
    small, large = 2.0 ** -485, 2.0 ** 485

    def ptr(x: np.ndarray):
        return x.ctypes.data_as(real_p)

    def solve(a: np.ndarray, pick) -> tuple[np.ndarray, np.ndarray]:
        n = a.shape[0]
        if a.dtype != np.float64 or a.shape != (n, n) or not (
                a.flags.f_contiguous and a.flags.writeable):
            raise ValueError("LAPACK needs a writeable Fortran-ordered square float64 matrix")
        values = np.empty(n)
        if n == 0:  # LAPACK rejects LDA = 0
            return values, a
        size, info = integer(n), integer(0)
        norm = dlansy(b"M", b"L", size, ptr(a), size, None)
        sigma = 1.0  # order 1 is never scaled, as in dsyevd
        if n > 1 and 0.0 < norm < small:
            sigma = small / norm
        elif n > 1 and norm > large:
            sigma = large / norm  # 0 for an infinite entry
        if sigma != 1.0:
            dlascl(b"L", integer(0), integer(0), real(1.0), real(sigma), size, size, ptr(a),
                   size, info)
        # the workspace dsyevd hands dstedc and dormtr, which dsytrd uses too
        work, iwork = np.empty(n * n + 4 * n + 1), np.empty(5 * n + 3, dtype=np.int64)
        off, tau = np.empty(max(1, n - 1)), np.empty(max(1, n - 1))
        dsytrd(b"L", size, ptr(a), size, ptr(values), ptr(off), ptr(tau), ptr(work),
               integer(work.size), info)
        z = np.empty((n, n), order="F")
        dstedc(b"I", size, ptr(values), ptr(off), ptr(z), size, ptr(work), integer(work.size),
               iwork.ctypes.data_as(int_p), integer(iwork.size), info)
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        del work, iwork  # before the picked columns are copied out
        if sigma != 1.0:
            with np.errstate(all="ignore"):  # dsyevd's DSCAL by 1 / sigma, which may be 1 / 0
                values *= 1.0 / np.float64(sigma)
        picked = pick(values)
        vectors = np.asfortranarray(z[:, picked])  # z itself for slice(None)
        del z
        work = np.empty(n * n + 4 * n + 1)
        dormtr(b"L", b"L", b"N", size, integer(vectors.shape[1]), ptr(a), size, ptr(tau),
               ptr(vectors), size, ptr(work), integer(work.size), info)
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
    symmetric and hands over: the LAPACK solver overwrites it."""
    solve = _lapack_eigensolver()
    if solve is None:
        values, vectors = np.linalg.eigh(a)
    else:
        values, vectors = solve(a, lambda w: slice(None))
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
