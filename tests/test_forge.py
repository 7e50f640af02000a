import importlib
import math
import re

import numpy as np
import pytest

from graphforge.forge import (
    ForgeConfig,
    ForgedDistribution,
    back_transform,
    edge_probabilities,
    fit,
    forge,
    normalize,
    normalized_entropy,
    sample_bernoulli,
)
from graphforge.generators import PlantedPartitionConfig, planted_partition
from graphforge.graph import Graph, degree_vector
from graphforge.spectral import (
    _modulus_order,
    eigendecompose,
    low_rank_approx,
    modularity_matrix,
    retained_rank,
)

from conftest import complete_graph, disjoint_cliques

# the package's `forge` function hides the module of that name
forge_mod = importlib.import_module("graphforge.forge")


def test_back_transform_inverts_modularity_transform(two_k4):
    b = modularity_matrix(two_k4)
    k = degree_vector(two_k4)
    np.testing.assert_allclose(back_transform(b, k, "modularity"),
                               two_k4.adjacency(), atol=1e-12)


def test_back_transform_adjacency_is_identity():
    m = np.array([[0.0, 0.3], [0.3, 0.0]])
    np.testing.assert_allclose(back_transform(m, np.array([1, 1]), "adjacency"), m)


def test_back_transform_k3_zero_matrix():
    k = degree_vector(complete_graph(3))
    out = back_transform(np.zeros((3, 3)), k, "modularity")
    np.testing.assert_allclose(out, np.full((3, 3), 2 / 3), atol=1e-12)


def test_back_transform_errors():
    with pytest.raises(ValueError, match="degree sum is zero"):
        back_transform(np.zeros((2, 2)), np.array([0, 0]), "modularity")
    with pytest.raises(ValueError, match="does not match"):
        back_transform(np.zeros((2, 2)), np.array([1, 1, 2]), "modularity")


def test_normalize_truncate_values():
    m = np.array([[0.0, 1.3, -0.2], [1.3, 0.0, 0.42], [-0.2, 0.42, 0.0]])
    out = normalize(m, "truncate")
    assert out[0, 1] == 1.0
    assert out[0, 2] == 0.0
    assert out[1, 2] == pytest.approx(0.42)


def test_normalize_logistic_values():
    m = np.full((2, 2), 0.5)
    np.fill_diagonal(m, 0.0)
    m = (m + m.T) / 2
    assert normalize(m, "logistic", 6.0)[0, 1] == pytest.approx(0.5)
    m2 = np.array([[0.0, 1.5], [1.5, 0.0]])
    assert normalize(m2, "logistic", 6.0)[0, 1] == pytest.approx(1 / (1 + math.exp(-6)), abs=1e-12)
    with pytest.raises(ValueError, match=r"\[2, 10\]"):
        normalize(m2, "logistic", 1.0)


def test_normalize_scale_maps_offdiagonal_range():
    m = np.array([[0.0, -1.0, 0.5], [-1.0, 0.0, 3.0], [0.5, 3.0, 0.0]])
    out = normalize(m, "scale")
    assert out[0, 1] == pytest.approx(0.0)
    assert out[1, 2] == pytest.approx(1.0)
    assert out[0, 2] == pytest.approx(1.5 / 4.0)
    with pytest.raises(ValueError, match="degenerate"):
        normalize(np.zeros((3, 3)), "scale")


def test_normalize_scale_is_identity_on_zero_one_matrices():
    # With an edge and a non-edge the off-diagonal range is [0, 1], so the
    # affine rescale leaves an (almost) exact 0/1 reconstruction unchanged.
    rng = np.random.default_rng(77)
    for n in (3, 8, 40):
        a = np.triu((rng.random((n, n)) < 0.3).astype(float), k=1)
        a[0, 1], a[0, 2] = 1.0, 0.0
        a = a + a.T
        noise = rng.normal(size=(n, n))
        noise = (noise + noise.T) / 2
        noise *= 1e-13 / np.abs(noise).max()
        for m in (a, a + noise):
            np.testing.assert_allclose(normalize(m, "scale"), a, rtol=0, atol=1e-12)


def test_normalize_output_in_unit_interval_and_symmetric():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(12, 12))
    m = (m + m.T) / 2
    for rule in ("truncate", "logistic", "scale"):
        out = normalize(m, rule)
        assert out.min() >= 0.0 and out.max() <= 1.0
        np.testing.assert_allclose(out, out.T, atol=1e-12)
        assert np.all(np.diag(out) == 0.0)


def test_sample_certain_and_impossible_edges():
    n = 6
    ones = np.ones((n, n)) - np.eye(n)
    g = sample_bernoulli(ones, seed=1)
    assert g.num_edges == n * (n - 1) // 2
    g = sample_bernoulli(np.zeros((n, n)), seed=1)
    assert g.num_edges == 0 and g.n == n


def test_sample_seed_determinism():
    rng = np.random.default_rng(10)
    p = rng.random((20, 20))
    p = (p + p.T) / 2
    np.fill_diagonal(p, 0.0)
    g1 = sample_bernoulli(p, seed=123)
    g2 = sample_bernoulli(p, seed=123)
    g3 = sample_bernoulli(p, seed=124)
    assert g1 == g2
    assert g1 != g3  # overwhelmingly likely at this entropy


def test_sample_frequencies_match_probabilities():
    n, draws = 30, 2000
    p = np.full((n, n), 0.5)
    np.fill_diagonal(p, 0.0)
    counts = np.zeros((n, n))
    for s in range(draws):
        g = sample_bernoulli(p, seed=s)
        for i, j in g.sorted_edges():
            counts[i, j] += 1
    freq = counts[np.triu_indices(n, k=1)] / draws
    assert np.all(np.abs(freq - 0.5) < 0.04)


def test_entropy_deterministic_matrix_is_zero():
    n = 8
    p = np.zeros((n, n))
    p[0, 1] = p[1, 0] = 1.0
    report = normalized_entropy(p)
    assert report.raw_bits == 0.0
    assert report.normalized == 0.0


def test_entropy_uniform_half():
    for n in (3, 10, 41):
        p = np.full((n, n), 0.5)
        np.fill_diagonal(p, 0.0)
        report = normalized_entropy(p)
        dyads = n * (n - 1) / 2
        assert report.raw_bits == pytest.approx(dyads, abs=1e-9)
        assert report.density == pytest.approx(0.5, abs=1e-12)
        assert report.normalizer == pytest.approx(2 * dyads, abs=1e-9)
        assert report.normalized == pytest.approx(0.5, abs=1e-12)


def test_entropy_hand_example():
    p = np.zeros((3, 3))
    p[0, 1] = p[1, 0] = 0.5
    p[0, 2] = p[2, 0] = 0.0
    p[1, 2] = p[2, 1] = 1.0
    report = normalized_entropy(p)
    assert report.raw_bits == pytest.approx(1.0, abs=1e-12)
    assert report.density == pytest.approx(0.5, abs=1e-12)
    assert report.normalized == pytest.approx(1 / 6, abs=1e-12)


def test_entropy_degenerate_density():
    n = 5
    full = np.ones((n, n)) - np.eye(n)
    report = normalized_entropy(full)
    assert report.density == 1.0
    assert report.normalized == 0.0
    assert math.isnan(report.normalizer)


def test_forge_identity_at_alpha_one(two_k4):
    out = forge(two_k4, ForgeConfig(alpha=1.0, rule="truncate", seed=5))
    assert out == two_k4


def test_forge_propagates_empty_graph_error():
    with pytest.raises(ValueError, match="no edges"):
        forge(Graph.from_edges(3, []), ForgeConfig(alpha=0.5))


def test_forge_alpha_zero_single_edge():
    g = Graph.from_edges(4, [(0, 1)])
    probs = edge_probabilities(g, ForgeConfig(alpha=0.0, rule="truncate"))
    # rank-0 filter leaves only the degree null model k k^T / |K|
    k = degree_vector(g).astype(float)
    expected = np.clip(np.outer(k, k) / k.sum(), 0.0, 1.0)
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_forge_preserves_attributes(two_k4):
    g = two_k4.with_attributes({"side": tuple("aaaabbbb")})
    out = forge(g, ForgeConfig(alpha=0.8, seed=3))
    assert out.attributes == g.attributes


def test_edge_probabilities_examples(two_k4):
    probs = edge_probabilities(two_k4, ForgeConfig(alpha=1.0, rule="truncate"))
    np.testing.assert_allclose(probs, two_k4.adjacency(), atol=1e-9)
    assert normalized_entropy(probs).normalized == pytest.approx(0.0, abs=1e-6)

    k3 = complete_graph(3)
    probs = edge_probabilities(k3, ForgeConfig(alpha=0.0, rule="truncate"))
    expected = np.full((3, 3), 2 / 3)
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_forge_config_validation():
    with pytest.raises(ValueError):
        ForgeConfig(alpha=1.2)
    with pytest.raises(ValueError):
        ForgeConfig(alpha=0.5, rule="clamp")
    with pytest.raises(ValueError):
        ForgeConfig(alpha=0.5, rule="logistic", logistic_k=12.0)
    with pytest.raises(ValueError):
        ForgeConfig(alpha=0.5, transformation="laplacian")
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        ForgeConfig(alpha=0.5, seed=-1)


@pytest.mark.parametrize("rule, k, message", [
    ("bogus", 6.0, "unknown normalization rule 'bogus'"),
    ("logistic", 50, r"logistic k must lie in \[2, 10\], got 50"),
])
def test_bad_rule_is_refused_before_any_matrix_work(monkeypatch, two_k4, rule, k, message):
    def no_matrix_work(*args, **kwargs):
        raise AssertionError("n x n work before the rule check")

    model = fit(two_k4)
    monkeypatch.setattr(forge_mod, "low_rank_approx", no_matrix_work)
    monkeypatch.setattr(forge_mod, "_require_symmetric", no_matrix_work)
    with pytest.raises(ValueError, match=message):
        model.at(0.5, rule, k)
    with pytest.raises(ValueError, match=message):
        normalize(np.zeros((3, 3)), rule, k)


def test_entropy_of_pipeline_non_increasing_in_alpha():
    rng = np.random.default_rng(44)
    edges = [(i, j) for i in range(24) for j in range(i + 1, 24) if rng.random() < 0.2]
    g = Graph.from_edges(24, edges)
    grid = [round(0.1 * k, 1) for k in range(1, 11)]
    entropies = [
        normalized_entropy(edge_probabilities(g, ForgeConfig(alpha=a, rule="truncate"))).normalized
        for a in grid
    ]
    ranks_by_alpha = np.argsort(np.argsort(entropies))
    # decreasing in the rank-correlation sense: Spearman rho strictly negative
    rho = np.corrcoef(grid, ranks_by_alpha)[0, 1]
    assert rho < -0.9


@pytest.mark.parametrize("build, message", [
    (lambda: normalize(np.zeros((1, 1)), "scale"),
     "scale rule needs at least one off-diagonal entry"),
    (lambda: sample_bernoulli(np.array([[0.0, 1.5], [1.5, 0.0]]), 0),
     "probability matrix entries must lie in [0, 1]"),
    (lambda: normalized_entropy(np.array([[0.0, -0.5], [-0.5, 0.0]])),
     "probability matrix entries must lie in [0, 1]"),
])
def test_degenerate_matrices_are_refused(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("n", [0, 1])
def test_entropy_without_dyads(n):
    report = normalized_entropy(np.zeros((n, n)))
    assert (report.raw_bits, report.density, report.normalized) == (0.0, 0.0, 0.0)
    assert math.isnan(report.normalizer)


# --------------------------------------------- the one-alpha forge against fit

ALPHAS = (0.0, 0.1, 0.5, 0.9, 1.0)


def _planted_500():
    return planted_partition(PlantedPartitionConfig(
        n=500, communities=5, p_in=0.1, p_out=0.01, seed=3))[0]


def _forged(monkeypatch, graph, config):
    """forge's output and the probability matrix it sampled."""
    seen = []

    def record(p):
        seen.append(p)
        return ForgedDistribution(p)

    with monkeypatch.context() as patch:
        patch.setattr(forge_mod, "ForgedDistribution", record)
        out = forge(graph, config)
    return out, seen[0]


needs_partial_solver = pytest.mark.skipif(
    forge_mod._partial_eigensolver() is None,
    reason="this numpy does not export LAPACK dsytrd, dstedc and dormtr")


@needs_partial_solver
@pytest.mark.parametrize("transformation", ["modularity", "adjacency"])
def test_one_alpha_forge_agrees_with_fit(monkeypatch, transformation):
    g = _planted_500()
    model = fit(g, transformation)
    for rule in ("truncate", "logistic", "scale"):
        for alpha in ALPHAS:
            cfg = ForgeConfig(alpha=alpha, rule=rule, transformation=transformation, seed=7)
            if (rule, alpha, transformation) == ("scale", 0.0, "adjacency"):
                # M_0 = 0 with no null model: every entry is equal
                for build in (lambda: forge(g, cfg), lambda: model.at(alpha, rule)):
                    with pytest.raises(ValueError, match="degenerate"):
                        build()
                continue
            dist = model.at(alpha, rule)
            out, p = _forged(monkeypatch, g, cfg)
            assert np.array_equal(p, p.T) and not np.diag(p).any()
            np.testing.assert_allclose(p, dist.probabilities, rtol=0, atol=1e-13,
                                       err_msg=f"{rule} at alpha {alpha}")
            assert out == dist.sample(cfg.seed), (rule, alpha)


@needs_partial_solver
@pytest.mark.parametrize("transformation", ["modularity", "adjacency"])
@pytest.mark.parametrize("rule", ["truncate", "logistic", "scale"])
def test_one_alpha_forge_is_exact_where_it_solves_nothing(monkeypatch, transformation, rule):
    g = _planted_500()

    def no_solve(*args):
        raise AssertionError("an eigensolve at alpha 0 or 1")

    monkeypatch.setattr(forge_mod, "_partial_eigensolver", lambda: no_solve)
    _, p = _forged(monkeypatch, g, ForgeConfig(alpha=1.0, rule=rule,
                                               transformation=transformation))
    assert np.array_equal(p, normalize(g.adjacency(), rule))
    if rule == "truncate":
        assert np.array_equal(p, g.adjacency())
    if transformation == "modularity":
        _, p = _forged(monkeypatch, g, ForgeConfig(alpha=0.0, rule=rule))
        k = degree_vector(g).astype(float)
        assert np.array_equal(p, normalize(np.outer(k, k) / k.sum(), rule))


@needs_partial_solver
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.75])
def test_ties_at_the_rank_cut_keep_what_fit_keeps(monkeypatch, alpha):
    # four disjoint K5: M's eigenvalues are 4 (3 times), -1 (16) and 0, so
    # r = 2, 10 and 15 each cut through a tie in modulus
    g = disjoint_cliques(5, 5, 5, 5)
    model = fit(g)
    r = retained_rank(alpha, g.n)
    assert abs(model.eig.eigenvalues[r - 1]) - abs(model.eig.eigenvalues[r]) < 1e-12
    # dsyevd's eigenvalues, which `fit` orders, bit for bit
    order = _modulus_order(np.linalg.eigh(modularity_matrix(g))[0])
    solve = forge_mod._partial_eigensolver()
    picked = []

    def recording_solve(a, pick):
        def record(w):
            picked.append(pick(w))
            return picked[-1]
        return solve(a, record)

    monkeypatch.setattr(forge_mod, "_partial_eigensolver", lambda: recording_solve)
    _, p = _forged(monkeypatch, g, ForgeConfig(alpha=alpha))
    expected = order[:r] if r <= g.n - r else order[r:]
    assert len(picked) == 1 and np.array_equal(picked[0], expected)
    np.testing.assert_allclose(p, model.at(alpha).probabilities, rtol=0, atol=1e-13)


@needs_partial_solver
def test_complete_graph_at_alpha_one_is_degenerate_under_scale():
    # P is A exactly, all ones off the diagonal; fit's rank-n product carries
    # rounding noise that gives the scale rule a range
    with pytest.raises(ValueError, match="scale rule degenerate"):
        forge(complete_graph(8), ForgeConfig(alpha=1.0, rule="scale"))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_forge_without_the_partial_solver_samples_fit(monkeypatch, alpha):
    g = _planted_500()
    cfg = ForgeConfig(alpha=alpha, rule="logistic", seed=5)
    dist = fit(g).at(alpha, "logistic")
    monkeypatch.setattr(forge_mod, "_partial_eigensolver", lambda: None)
    out, p = _forged(monkeypatch, g, cfg)
    assert np.array_equal(p, dist.probabilities)
    assert out == dist.sample(cfg.seed)
