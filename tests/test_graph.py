import itertools
import re
import tracemalloc

import numpy as np
import pytest

from graphforge.graph import (
    MISSING_VALUE,
    Graph,
    average_clustering,
    degree_vector,
    load_attributes,
    load_edge_list,
    write_edge_list,
)

from conftest import clustering_oracle, complete_graph, path_graph


def test_load_basic():
    g = load_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.sorted_edges() == [(0, 1), (1, 2)]


def test_load_collapses_reversed_duplicates():
    g = load_edge_list("0 1\n1 0")
    assert g.n == 2
    assert g.sorted_edges() == [(0, 1)]


def test_load_rejects_self_loop_with_line_number():
    with pytest.raises(ValueError, match="line 1"):
        load_edge_list("0 0")


def test_load_malformed_line_reports_line_number():
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list("0 1\n3 4 5")
    with pytest.raises(ValueError, match="line 1"):
        load_edge_list("a b")


def test_load_nodes_directive_and_comments():
    g = load_edge_list("# a comment\n#nodes 5\n0 1\n")
    assert g.n == 5
    assert g.sorted_edges() == [(0, 1)]
    with pytest.raises(ValueError, match="outside declared"):
        load_edge_list("#nodes 2\n0 3")
    with pytest.raises(ValueError, match="duplicate"):
        load_edge_list("#nodes 2\n#nodes 3\n0 1")


def test_write_sorted_with_header():
    g = Graph.from_edges(3, [(1, 2), (0, 1)])
    assert write_edge_list(g) == "#nodes 3\n0 1\n1 2"
    assert write_edge_list(Graph.from_edges(2, [])) == "#nodes 2"


def test_round_trip_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        dyads = list(itertools.combinations(range(n), 2))
        keep = [d for d in dyads if rng.random() < 0.2]
        g = Graph.from_edges(n, keep)
        assert load_edge_list(write_edge_list(g)) == g


def test_degree_vector_examples():
    assert degree_vector(complete_graph(3)).tolist() == [2, 2, 2]
    assert degree_vector(Graph.from_edges(4, [])).tolist() == [0, 0, 0, 0]
    assert degree_vector(path_graph(3)).tolist() == [1, 2, 1]


def test_degree_total_is_twice_edges():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        edges = [d for d in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        g = Graph.from_edges(n, edges)
        assert degree_vector(g).sum() == 2 * g.num_edges


def test_average_clustering_examples():
    assert average_clustering(complete_graph(3)) == 1.0
    assert average_clustering(path_graph(3)) == 0.0
    edges = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}
    k4_minus_edge = Graph.from_edges(4, edges)
    expected = clustering_oracle(4, edges)  # = (2/3 + 2/3 + 1 + 1) / 4
    assert average_clustering(k4_minus_edge) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_average_clustering_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(3, 16))
        edges = [d for d in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        expected = clustering_oracle(n, set(g.sorted_edges()))
        assert average_clustering(g) == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= average_clustering(g) <= 1.0


def _star(n: int, chords=()) -> Graph:
    return Graph.from_edges(n, [(0, leaf) for leaf in range(1, n)] + list(chords))


def test_clustering_of_a_large_star_stays_small():
    # the hub has the highest rank, so no leaf pair is ever a candidate: the
    # former (A @ A) * A held ~hub degree^2 entries, 4e10 here
    star = _star(200_001)
    tracemalloc.start()
    try:
        assert average_clustering(star) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_clustering_of_a_star_with_one_chord_is_exact():
    n = 5_001
    star = _star(n, chords=[(1, 2)])
    # node order: the hub closes 1 of its C(n - 1, 2) pairs, leaves 1 and 2 close theirs
    expected = (2 / ((n - 1) * (n - 2)) + 1.0 + 1.0) / n
    assert average_clustering(star) == expected


def test_adjacency_symmetric_zero_diagonal():
    g = Graph.from_edges(5, [(0, 1), (2, 4), (1, 3)])
    a = g.adjacency()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="outside node range"):
        Graph.from_edges(2, [(0, 5)])


def test_load_attributes():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    g2 = load_attributes("node,grade\n0,7\n1,8\n2,7\n", g)
    assert g2.attributes["grade"] == ("7", "8", "7")


def test_load_attributes_missing_node_gets_placeholder():
    g = Graph.from_edges(3, [(0, 1)])
    g2 = load_attributes("node,grade\n0,7\n1,8\n", g)
    assert g2.attributes["grade"] == ("7", "8", MISSING_VALUE)


def test_load_attributes_errors():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        load_attributes("node,x\n2,a\n", g)
    with pytest.raises(ValueError, match="duplicate"):
        load_attributes("node,x\n0,a\n0,b\n", g)
    with pytest.raises(ValueError, match="must start with 'node'"):
        load_attributes("id,x\n0,a\n", g)


@pytest.mark.parametrize("header, message", [
    ("node,a,a", "column 3 repeats the name 'a'"),
    ("node,a, a ", "column 3 repeats the name 'a'"),
    ("node,a,", "column 3 has an empty name"),
    ("node, ,b", "column 2 has an empty name"),
])
def test_load_attributes_refuses_empty_and_repeated_names(header, message):
    # a repeated name would keep only its last column
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError, match=message):
        load_attributes(f"{header}\n0,x,y\n", g)


@pytest.mark.parametrize("build", [
    lambda: Graph(3, [0.5], [2]),
    lambda: Graph(3, np.array([0]), np.array([2.0])),
    lambda: Graph(3, [False], [True]),
    lambda: Graph.from_edges(3, [(0, 1.7)]),
    lambda: Graph.from_edges(3, [(0.0, 1.0)]),
    lambda: Graph.from_edges(3, np.array([[False, True]])),
])
def test_graph_refuses_non_integer_endpoints(build):
    # truncating 0.5 to 0 or 1.7 to 1 would store an edge nobody asked for
    with pytest.raises(ValueError, match="edge endpoints must be integers, got dtype"):
        build()


def test_graph_accepts_empty_and_integer_endpoints_of_any_width():
    assert Graph(3, [], []).num_edges == 0
    assert Graph(3, np.array([], dtype=float), np.array([], dtype=bool)).num_edges == 0
    assert Graph.from_edges(3, []).num_edges == 0
    g = Graph(3, np.array([0, 1], dtype=np.uint8), np.array([2, 2], dtype=np.int32))
    assert g.rows.dtype == g.cols.dtype == np.int64
    assert g == Graph.from_edges(3, [(2, 1), (0, np.int16(2))])


def test_graph_refuses_edge_keys_beyond_int64():
    # the order check and the neighbour arrays sort edges by i * n + j; a
    # wrapped key would misreport the second pair of edges as out of order
    n = 10**13
    assert Graph(n, [0], [1]).num_edges == 1
    for edges in ([(0, 10**6)], [(500_000, 500_001), (1_000_000, 1_000_001)]):
        with pytest.raises(ValueError, match=f"n = {n} is too large for the int64 edge keys"):
            Graph.from_edges(n, edges)
    with pytest.raises(ValueError, match="is too large for the int64 edge keys"):
        load_edge_list("#nodes 100000000000000000000\n0 1\n")
    top = 3_037_000_499  # isqrt(2**63 - 1): every key of a graph this size fits
    assert Graph(top, [0, top - 2], [top - 1, top - 1]).num_edges == 2


@pytest.mark.parametrize("rows, cols, edge", [
    ([0, 0], [2, 1], "(0, 1)"),
    ([1, 0], [2, 2], "(0, 2)"),
    ([0, 1, 1], [1, 2, 2], "(1, 2)"),
])
def test_graph_refuses_unsorted_or_repeated_edges(rows, cols, edge):
    with pytest.raises(ValueError, match=re.escape(f"edge {edge} out of sorted order or repeated")):
        Graph(3, rows, cols)


_G2 = Graph.from_edges(2, [(0, 1)])


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(3, [[0]], [[1]]), "edge endpoint arrays must be 1-D, got shape (1, 1)"),
    (lambda: Graph(-1, [], []), "node count must be non-negative, got -1"),
    (lambda: Graph(3, [0, 1], [2]), "2 row endpoints for 1 column endpoints"),
    (lambda: Graph(2, [0], [1], {"x": ("a",)}), "attribute 'x' has 1 values for 2 nodes"),
    (lambda: Graph.from_edges(3, [(0, 1, 2)]), "edges must be (i, j) pairs, got shape (1, 3)"),
    (lambda: load_edge_list("#nodes x\n0 1\n"), "line 1: malformed #nodes directive"),
    (lambda: load_edge_list("0 1\n-1 2\n"), "line 2: negative node id"),
    (lambda: load_attributes("", _G2), "attribute CSV is empty"),
    (lambda: load_attributes("node\n0\n", _G2), "attribute CSV declares no attribute columns"),
    (lambda: load_attributes("node,x\n0,a,b\n", _G2), "row 2: expected 2 fields, got 3"),
    (lambda: load_attributes("node,x\nzero,a\n", _G2), "row 2: non-integer node id 'zero'"),
])
def test_graph_and_readers_refuse_malformed_input(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_both_readers_skip_blank_lines():
    assert load_edge_list("\n0 1\n\n   \n1 2\n") == load_edge_list("0 1\n1 2")
    g = load_attributes("node,x\n\n0,a\n , \n1,b\n", _G2)
    assert g.attributes == {"x": ("a", "b")}
