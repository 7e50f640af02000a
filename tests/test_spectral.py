import itertools

import numpy as np
import pytest

from graphforge.graph import Graph
from graphforge.spectral import (
    approx_error_bound,
    eigendecompose,
    low_rank_approx,
    modularity_matrix,
    retained_rank,
    spectral_norm,
)

from conftest import complete_graph


def _random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2


def _power_iteration_norm(m, iters=300, seed=0):
    """Independent spectral-norm estimate: power iteration on m @ m."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=m.shape[0])
    v /= np.linalg.norm(v)
    mm = m @ m
    for _ in range(iters):
        w = mm @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
    return float(np.sqrt(v @ mm @ v))


def test_modularity_matrix_k3():
    b = modularity_matrix(complete_graph(3))
    # k = (2,2,2), |K| = 6: off-diagonal 1 - 4/6, diagonal -4/6
    expected = np.full((3, 3), 1 / 3)
    np.fill_diagonal(expected, -2 / 3)
    np.testing.assert_allclose(b, expected, atol=1e-12)


def test_modularity_matrix_single_edge():
    b = modularity_matrix(Graph.from_edges(2, [(0, 1)]))
    np.testing.assert_allclose(b, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-12)


def test_modularity_matrix_empty_graph_errors():
    with pytest.raises(ValueError, match="no edges"):
        modularity_matrix(Graph.from_edges(3, []))


def test_modularity_matrix_rows_sum_to_zero():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(3, 25))
        edges = [d for d in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        if not edges:
            continue
        b = modularity_matrix(Graph.from_edges(n, edges))
        np.testing.assert_allclose(b.sum(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(b, b.T, atol=1e-12)


def test_eigendecompose_modulus_order_with_ties():
    eig = eigendecompose(np.diag([2.0, -3.0, 1.0]))
    assert eig.eigenvalues.tolist() == [-3.0, 2.0, 1.0]
    # equal modulus: the positive eigenvalue comes first
    eig = eigendecompose(np.diag([-2.0, 2.0]))
    assert eig.eigenvalues.tolist() == [2.0, -2.0]


def test_eigendecompose_zero_matrix():
    eig = eigendecompose(np.zeros((3, 3)))
    assert np.all(eig.eigenvalues == 0)
    np.testing.assert_allclose(eig.eigenvectors @ eig.eigenvectors.T, np.eye(3), atol=1e-12)


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


def _charpoly_roots_3x3(m):
    """Eigenvalues of a 3x3 via its characteristic polynomial, built by cofactors."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    trace = a + e + i
    minors = (e * i - f * h) + (a * i - c * g) + (a * e - b * d)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return np.roots([1.0, -trace, minors, -det])


def test_eigendecompose_k3_matches_charpoly_oracle():
    b = modularity_matrix(complete_graph(3))
    eig = eigendecompose(b)
    expected = np.sort(np.real(_charpoly_roots_3x3(b)))
    np.testing.assert_allclose(np.sort(eig.eigenvalues), expected, atol=1e-8)
    # for K3 the spectrum is {0, -1, -1}
    np.testing.assert_allclose(np.sort(eig.eigenvalues), [-1.0, -1.0, 0.0], atol=1e-12)


def test_eigendecompose_invariants():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        m = _random_symmetric(rng, n)
        eig = eigendecompose(m)
        mods = np.abs(eig.eigenvalues)
        assert np.all(mods[:-1] >= mods[1:] - 1e-12)
        np.testing.assert_allclose(np.linalg.norm(eig.eigenvectors, axis=0), 1.0, atol=1e-9)
        recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
        np.testing.assert_allclose(recon, m, atol=1e-6)
        for col in eig.eigenvectors.T:
            assert col[np.argmax(np.abs(col))] > 0


def test_retained_rank_boundaries():
    assert retained_rank(0.0, 10) == 0
    assert retained_rank(1.0, 10) == 10
    assert retained_rank(0.5, 3) == 2
    # float-noise guard: 0.7 * 10 is slightly above 7 in binary
    assert retained_rank(0.7, 10) == 7
    with pytest.raises(ValueError):
        retained_rank(1.5, 10)


def test_low_rank_examples():
    eig = eigendecompose(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(low_rank_approx(eig, 0.5), np.diag([3.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(low_rank_approx(eig, 0.0), np.zeros((2, 2)), atol=1e-15)
    rng = np.random.default_rng(2)
    m = _random_symmetric(rng, 12)
    np.testing.assert_allclose(low_rank_approx(eigendecompose(m), 1.0), m, atol=1e-6)


def test_low_rank_output_symmetric():
    rng = np.random.default_rng(4)
    m = _random_symmetric(rng, 15)
    approx = low_rank_approx(eigendecompose(m), 0.4)
    np.testing.assert_allclose(approx, approx.T, atol=1e-9)


def test_error_bound_examples():
    eig = eigendecompose(np.diag([3.0, 1.0]))
    assert approx_error_bound(eig, 1.0) == 0.0
    assert approx_error_bound(eig, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_error_bound_equals_residual_norm_power_iteration():
    rng = np.random.default_rng(23)
    m = _random_symmetric(rng, 10)
    eig = eigendecompose(m)
    resid = m - low_rank_approx(eig, 0.5)
    assert approx_error_bound(eig, 0.5) == pytest.approx(
        _power_iteration_norm(resid), abs=1e-8
    )


def test_error_bound_non_increasing_in_alpha():
    rng = np.random.default_rng(29)
    m = _random_symmetric(rng, 14)
    eig = eigendecompose(m)
    bounds = [approx_error_bound(eig, a) for a in np.linspace(0, 1, 11)]
    assert all(b1 >= b2 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(31)
    m = _random_symmetric(rng, 9)
    assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), abs=1e-10)


@pytest.mark.parametrize("matrix", [np.zeros((2, 3)), np.zeros(3), np.zeros((1, 2, 2))])
def test_non_square_input_is_refused(matrix):
    with pytest.raises(ValueError, match="must be a square matrix, got shape"):
        eigendecompose(matrix)
    with pytest.raises(ValueError, match="must be a square matrix, got shape"):
        spectral_norm(matrix)


def test_spectral_norm_of_an_empty_matrix_is_zero():
    assert spectral_norm(np.zeros((0, 0))) == 0.0
