"""Graph construction, parsing, serialization, BFS, and classification."""

import subprocess
import sys
import tracemalloc

import networkx as nx
import numpy as np
import pytest

import fermatecc as fe
from fermatecc import (
    ConnectivityError,
    GraphKind,
    ParseError,
    ValidationError,
    all_pairs_distances,
    bfs_distances,
    classify,
    eccentricity2_profile,
    from_graph6,
    make_graph,
    parse_edge_list,
    to_edge_list,
    to_graph6,
)


def test_make_graph_basic():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.adj[1] == (0, 2)
    assert g.degree(1) == 2
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)


def test_make_graph_normalizes_edge_order():
    g = make_graph(3, [(2, 1), (1, 0)])
    assert g.edges == ((0, 1), (1, 2))


def test_make_graph_rejects_self_loop():
    with pytest.raises(ValidationError):
        make_graph(3, [(0, 1), (1, 1)])


def test_make_graph_rejects_duplicate_edge():
    with pytest.raises(ValidationError):
        make_graph(3, [(0, 1), (1, 0), (1, 2)])


def test_make_graph_rejects_out_of_range():
    with pytest.raises(ValidationError):
        make_graph(3, [(0, 3)])
    with pytest.raises(ValidationError):
        make_graph(3, [(-1, 0)])


def test_make_graph_rejects_disconnected():
    with pytest.raises(ConnectivityError):
        make_graph(4, [(0, 1), (2, 3)])


def test_make_graph_strict_false_allows_disconnected():
    g = make_graph(4, [(0, 1), (2, 3)], strict=False)
    assert not fe.is_connected(g)


def test_parse_edge_list_round_trip():
    g = make_graph(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
    assert parse_edge_list(to_edge_list(g)) == g


def test_parse_edge_list_comments_and_blanks():
    text = "# a star\n4\n\n0 1\n0 2  # third spoke below\n0 3\n"
    g = parse_edge_list(text)
    assert g.n == 4
    assert g.m == 3


def test_parse_edge_list_malformed():
    with pytest.raises(ParseError):
        parse_edge_list("three\n0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("3\n0 1 2\n")
    with pytest.raises(ParseError):
        parse_edge_list("")


def test_graph6_round_trip():
    g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    assert from_graph6(to_graph6(g)) == g


def test_graph6_accepts_bytes():
    g = fe.path(4)
    assert from_graph6(to_graph6(g).encode()) == g


def test_graph6_size_header_forms():
    from networkx.readwrite.graph6 import n_to_data

    from fermatecc.graph import _graph6_size

    for n in (0, 1, 62, 63, 64, 258047, 258048, 2**36 - 1):
        assert _graph6_size(n) == n_to_data(n)
    # the four- and eight-unit size forms decode for small n as well
    c5 = to_graph6(fe.cycle(5)).encode()
    for head in (b"~??D", b"~~?????D"):
        assert from_graph6(head + c5[1:]) == fe.cycle(5)
        assert sorted(nx.from_graph6_bytes(head + c5[1:]).edges()) == list(fe.cycle(5).edges)


def test_graph6_rejects_malformed():
    for bad in (b"", b"\n", b"~", b"~~??", b"A", b"Bxx", b"B\x7f", b">>graph6<<", "C\u00e9", b"\xff"):
        with pytest.raises(ParseError):
            from_graph6(bad)


def test_declared_vertex_count_bounded_by_edges():
    # a connected graph needs n - 1 edges, so a bare vertex count fails
    # before anything is allocated per declared vertex
    tracemalloc.start()
    try:
        with pytest.raises(ConnectivityError):
            parse_edge_list("100000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cli_import_leaves_networkx_out():
    code = "import sys, fermatecc.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_bfs_distances_path():
    g = fe.path(5)
    assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3, 4]
    assert bfs_distances(g, 2).tolist() == [2, 1, 0, 1, 2]


@pytest.mark.parametrize("root", [0, 3, 7])
def test_bfs_tree_from_any_root(root):
    g = fe.random_connected(12, seed=root, extra_edges=4)
    order, parent = fe.graph.bfs_tree(g, root)
    dist = bfs_distances(g, root)
    assert order[0] == root and parent[root] == -1
    assert sorted(order) == list(range(g.n))
    assert np.all(np.diff(dist[order]) >= 0)  # level by level
    for v in order[1:]:
        assert g.has_edge(v, parent[v]) and dist[parent[v]] == dist[v] - 1


def test_all_pairs_matches_bfs_rows():
    g = fe.random_connected(25, seed=7, extra_edges=4)
    d = all_pairs_distances(g)
    for u in range(g.n):
        assert np.array_equal(d[u], bfs_distances(g, u))
    assert np.array_equal(d, d.T)


def test_distances_reject_disconnected_graph():
    g = make_graph(5, [(0, 1), (1, 2), (3, 4)], strict=False)
    with pytest.raises(ConnectivityError):
        all_pairs_distances(g)
    for source in (0, 4):
        with pytest.raises(ConnectivityError):
            bfs_distances(g, source)


def test_classify_kinds():
    assert classify(fe.path(6)).kind is GraphKind.TREE
    assert classify(fe.star(6)).kind is GraphKind.TREE
    assert classify(fe.cycle(6)).kind is GraphKind.UNICYCLIC
    assert classify(fe.theta(2, 2, 3)).kind is GraphKind.MULTICYCLIC
    assert classify(fe.cycle(5)).cyclomatic == 1
    assert classify(fe.theta(2, 2, 3)).cyclomatic == 2


def test_eccentricity2_profile_cycle():
    prof = eccentricity2_profile(fe.cycle(7))
    assert prof.ecc == (3,) * 7
    prof = eccentricity2_profile(fe.path(5))
    assert prof.ecc == (4, 3, 2, 3, 4)
