"""The bit-parallel BFS kernel against networkx, and its connectivity errors."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermatecc as fe
from fermatecc import ConnectivityError, all_pairs_distances, full_report
from fermatecc.graph import distance_stack, edge_stack


def _networkx_distances(g):
    h = nx.Graph(g.edges)
    h.add_nodes_from(range(g.n))
    want = np.zeros((g.n, g.n), dtype=np.int64)
    for u, row in nx.all_pairs_shortest_path_length(h):
        for v, dist in row.items():
            want[u, v] = dist
    return want


@settings(max_examples=40, deadline=None)
@given(
    # one source bit per vertex, 64 to a word: each side of the word boundaries
    st.sampled_from((1, 2, 63, 64, 65, 128, 129)),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=40),
)
def test_kernel_matches_networkx_across_word_boundaries(n, seed, extra):
    g = fe.random_connected(n, seed=seed, extra_edges=min(extra, (n - 1) * (n - 2) // 2))
    d = all_pairs_distances(g)
    assert d.dtype == np.int64
    assert np.array_equal(d, _networkx_distances(g))


@pytest.mark.parametrize(
    "graphs",
    [
        # trees of diameter 2 to 69: the deepest BFS runs on after the others finish
        [fe.path(70), fe.star(70)] + [fe.random_tree(70, seed=s) for s in range(6)],
        [fe.random_connected(70, seed=s, extra_edges=4) for s in range(9)],
    ],
)
def test_mixed_stack_matches_networkx(graphs):
    d = distance_stack(edge_stack(graphs), 70)
    assert d.shape == (len(graphs), 70, 70) and d.dtype == np.int32
    for g, dg in zip(graphs, d):
        assert np.array_equal(dg, _networkx_distances(g))


def test_long_path_needs_nine_planes():
    # diameter 299 has nine bits, so nine distance planes
    d = all_pairs_distances(fe.path(300))
    i = np.arange(300)
    assert np.array_equal(d, np.abs(i[:, None] - i[None, :]))


def test_single_vertex_stack():
    edges = np.zeros((3, 0, 2), dtype=np.intp)
    assert np.array_equal(distance_stack(edges, 1), np.zeros((3, 1, 1), dtype=np.int32))
    assert all_pairs_distances(fe.make_graph(1, [])).tolist() == [[0]]


# a triangle plus an isolated vertex (m = n - 1, like a tree), and two
# triangles, where every vertex has a neighbour
TRIANGLE_AND_VERTEX = fe.make_graph(4, [(0, 1), (1, 2), (0, 2)], strict=False)
TWO_TRIANGLES = fe.make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], strict=False)


@pytest.mark.parametrize("g", [TRIANGLE_AND_VERTEX, TWO_TRIANGLES])
def test_disconnected_graphs_raise(g):
    with pytest.raises(ConnectivityError, match="distances require a connected graph"):
        all_pairs_distances(g)
    for path in (fe.eps3_oracle, fe.eps3_pruned, fe.eps3_profile, full_report):
        with pytest.raises(ConnectivityError):
            path(g)
    # one disconnected graph spoils its whole stack
    stack = [fe.make_graph(g.n, [(i, (i + 1) % g.n) for i in range(g.m)], strict=False), g]
    with pytest.raises(ConnectivityError):
        distance_stack(edge_stack(stack), g.n)


def test_eps3_tree_rejects_a_forest_shaped_graph():
    # m = n - 1 passes the tree precondition, so the kernel must refuse it
    with pytest.raises(ConnectivityError):
        fe.eps3_tree(TRIANGLE_AND_VERTEX)
