"""Property tests: the fitted spectral model, the modularity ratio and the
attack's greedy matching.

`fit(...).at(...).probabilities` is compared exactly with
`edge_probabilities` and with the public `normalize` (which symmetrizes its
input's image) and checked to be a valid probability matrix; alpha = 1 with
the truncate rule reproduces random inputs; the blocked greedy matcher is
compared exactly with the one-pair-at-a-time walk it replaced. The ratio
`alpha_sweep` forms, the output's Q* over the Q* of `score_input`, equals the
field `compare` reports.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphforge.evaluate import (
    AttackConfig,
    _greedy_match_hits,
    _ratio,
    _score_output,
    compare,
    dv_attack,
    score_input,
)
from graphforge.forge import (
    DEFAULT_LOGISTIC_K,
    NORMALIZATION_RULES,
    TRANSFORMATIONS,
    ForgeConfig,
    back_transform,
    edge_probabilities,
    fit,
    forge,
    normalize,
)
from graphforge.graph import Graph
from graphforge.spectral import low_rank_approx

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def graphs(draw, min_n=1, max_n=14, min_edges=0):
    n = draw(st.integers(min_n, max_n))
    if n < 2:
        return Graph.from_edges(n, [])
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    return Graph.from_edges(n, draw(st.lists(pair, min_size=min_edges, max_size=3 * n)))


@PROPERTY_SETTINGS
@given(graphs(min_n=2, min_edges=1),
       st.sampled_from(TRANSFORMATIONS),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       st.floats(2.0, 10.0))
def test_fitted_model_matches_edge_probabilities(g, transformation, alphas, k):
    model = fit(g, transformation)
    for alpha in [*alphas, 0.0, 1.0]:
        for rule in NORMALIZATION_RULES:
            logistic_k = k if rule == "logistic" else DEFAULT_LOGISTIC_K
            cfg = ForgeConfig(alpha=alpha, rule=rule, logistic_k=logistic_k,
                              transformation=transformation)
            try:
                expected = edge_probabilities(g, cfg)
            except ValueError:
                # the scale rule refuses equal off-diagonal entries
                with pytest.raises(ValueError):
                    model.at(alpha, rule, logistic_k)
                continue
            p = model.at(alpha, rule, logistic_k).probabilities
            assert np.array_equal(p, expected)
            a_tilde = back_transform(low_rank_approx(model.eig, alpha), model.degrees,
                                     transformation)
            assert np.array_equal(p, normalize(a_tilde, rule, logistic_k))
            assert np.array_equal(p, p.T)
            assert p.min() >= 0.0 and p.max() <= 1.0
            assert not np.diagonal(p).any()


@PROPERTY_SETTINGS
@given(graphs(min_n=2, min_edges=1), st.sampled_from(TRANSFORMATIONS),
       st.integers(0, 2**32 - 1))
def test_alpha_one_truncate_reproduces_input(g, transformation, seed):
    config = ForgeConfig(alpha=1.0, rule="truncate", transformation=transformation, seed=seed)
    assert forge(g, config) == g


def sequential_match_hits(pair_dist: np.ndarray) -> int:
    """The former matcher: walk the stable argsort one pair at a time."""
    width = pair_dist.shape[0]
    order = np.argsort(pair_dist.ravel(), kind="stable")
    used_left = np.zeros(width, dtype=bool)
    used_right = np.zeros(width, dtype=bool)
    hits = 0
    matched = 0
    for flat in order:
        i, j = divmod(int(flat), width)
        if used_left[i] or used_right[j]:
            continue
        used_left[i] = True
        used_right[j] = True
        matched += 1
        if i == j:
            hits += 1
        if matched == width:
            break
    return hits


@PROPERTY_SETTINGS
@given(st.integers(1, 40), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_blocked_matching_equals_sequential_walk(width, levels, planted, seed):
    # few distinct distances, so most pairs tie and the stable order decides
    pair_dist = np.random.default_rng(seed).integers(0, levels, (width, width)).astype(float)
    if planted:
        np.fill_diagonal(pair_dist, 0.0)
    order = np.argsort(pair_dist.ravel(), kind="stable")
    assert _greedy_match_hits(order, width) == sequential_match_hits(pair_dist)


@PROPERTY_SETTINGS
@given(st.data(), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
def test_dv_attack_rate_in_unit_interval(data, seed_fraction, seed):
    original = data.draw(graphs())
    anonymized = data.draw(graphs(min_n=original.n, max_n=original.n))
    rate = dv_attack(original, anonymized, AttackConfig(seed_fraction=seed_fraction, seed=seed))
    assert 0.0 <= rate <= 1.0


@st.composite
def graph_pairs(draw):
    """An input with at least one edge and an output on the same nodes,
    possibly edgeless."""
    g = draw(graphs(min_n=2, min_edges=1))
    node = st.integers(0, g.n - 1)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    return g, Graph.from_edges(g.n, draw(st.lists(pair, max_size=3 * g.n)))


@PROPERTY_SETTINGS
@given(graph_pairs(), st.integers(0, 2**32 - 1))
# a single edge has Q* = 0, so its ratio is None
@example((Graph.from_edges(2, [(0, 1)]), Graph.from_edges(2, [])), 0)
@example((Graph.from_edges(4, [(0, 1), (2, 3)]), Graph.from_edges(4, [])), 1)
def test_modularity_ratio_is_compares_field(pair, seed):
    g, out = pair
    ratio = _ratio(_score_output(out, seed)[0], score_input(g, seed)[1])
    assert ratio == compare(g, out, seed).modularity_ratio
    if g.num_edges == 1:
        assert ratio is None
    elif out.num_edges == 0 and ratio is not None:
        assert ratio == 0.0
