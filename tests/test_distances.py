"""The distance kernels against networkx: the parent recurrence on trees
in parent order, the min-plus closure on every other stack with at most
_ORACLE_MAX_N vertices, the bit-parallel BFS on larger ones, and the
connectivity errors of the last two."""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermatecc as fe
from fermatecc import ConnectivityError, all_pairs_distances, full_report
from fermatecc import graph
from fermatecc.generators import cyclic_chunks, free_tree_chunks
from fermatecc.graph import distance_stack, edge_stack, row_graph


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


def _spy(monkeypatch, name):
    """Wrap graph.<name>; the list it returns gets an entry at each call,
    the call's result once it returns."""
    results, real = [], getattr(graph, name)

    def spying(*args):
        results.append(None)
        results[-1] = real(*args)
        return results[-1]

    monkeypatch.setattr(graph, name, spying)
    return results


def test_long_path_needs_nine_planes(monkeypatch):
    # the path 1-2-...-299-0: vertex 1 has no smaller neighbour, so the
    # path is not in parent order and takes the BFS; diameter 299 has
    # nine bits, so nine distance planes
    runs = _spy(monkeypatch, "_level_planes")
    d = all_pairs_distances(fe.make_graph(300, [(i, i + 1) for i in range(1, 299)] + [(0, 299)]))
    position = np.roll(np.arange(300), 1)  # vertex v sits at position[v]
    assert [len(planes) for planes in runs] == [9]
    assert np.array_equal(d, np.abs(position[:, None] - position[None, :]))


def test_long_parent_ordered_path_takes_the_recurrence(monkeypatch):
    bfs = _spy(monkeypatch, "_bfs_stack")
    d = all_pairs_distances(fe.path(1500))
    i = np.arange(1500)
    assert not bfs
    assert np.array_equal(d, np.abs(i[:, None] - i[None, :]))


def test_recurrence_matches_bfs_and_networkx_on_every_enumerated_level(monkeypatch):
    chunks = list(free_tree_chunks(12))
    assert [n for n, _ in chunks] == list(range(1, 13))  # one chunk per level
    bfs = _spy(monkeypatch, "_bfs_stack")
    stacks = [distance_stack(edges, n) for n, edges in chunks]
    assert not bfs
    for (n, edges), d in zip(chunks, stacks):
        assert d.dtype == np.int32 and np.array_equal(d, graph._bfs_stack(edges, n))
        for row, dg in zip(edges, d):
            assert np.array_equal(dg, _networkx_distances(row_graph(row, n)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2, 63, 64, 65, 129)), st.integers(min_value=0, max_value=2**31))
def test_recurrence_matches_networkx_on_random_parent_arrays(n, seed):
    rng = random.Random(seed)
    g = fe.make_graph(n, [(rng.randrange(v), v) for v in range(1, n)])
    edges = edge_stack([g])
    assert graph._parent_order(edges, n) is not None
    assert np.array_equal(distance_stack(edges, n)[0], _networkx_distances(g))


# m = n - 1 in every row, but some row has a vertex with no smaller
# neighbour or two of them
PATH_AND_RELABELLED_PATH = [fe.path(12), fe.make_graph(12, [(i, i + 1) for i in range(1, 11)] + [(0, 11)])]
PRUFER_TREES = [fe.random_tree(40, seed=s) for s in range(8)]


@pytest.mark.parametrize("graphs", [PATH_AND_RELABELLED_PATH, PRUFER_TREES])
def test_stacks_out_of_parent_order_skip_the_recurrence(monkeypatch, graphs):
    # the 12-vertex paths are within the closure's range, the 40-vertex
    # Pruefer trees above it
    n = graphs[0].n
    edges = edge_stack(graphs)
    assert graph._parent_order(edges, n) is None
    closure, bfs = _spy(monkeypatch, "_closure_stack"), _spy(monkeypatch, "_bfs_stack")
    d = distance_stack(edges, n)
    assert (len(closure), len(bfs)) == ((1, 0) if n <= graph._ORACLE_MAX_N else (0, 1))
    for g, dg in zip(graphs, d):
        assert np.array_equal(dg, _networkx_distances(g))


@pytest.mark.parametrize("cyclomatic, max_n", [(1, 11), (2, 10)])
def test_closure_matches_bfs_and_networkx_on_every_enumerated_chunk(monkeypatch, cyclomatic, max_n):
    chunks = list(cyclic_chunks(cyclomatic, max_n))
    bfs = _spy(monkeypatch, "_bfs_stack")
    stacks = [distance_stack(edges, n) for n, edges in chunks]
    assert not bfs
    for (n, edges), d in zip(chunks, stacks):
        assert d.dtype == np.int32 and np.array_equal(d, graph._bfs_stack(edges, n))
        for row, dg in zip(edges, d):
            assert np.array_equal(dg, _networkx_distances(row_graph(row, n)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=28),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**31),
)
def test_closure_matches_bfs_and_networkx_on_random_graphs(n, chords, seed):
    # three graphs with equal n and m, so the stack has a graph axis
    extra = min(chords, (n - 1) * (n - 2) // 2)
    graphs = [fe.random_connected(n, seed=seed + i, extra_edges=extra) for i in range(3)]
    edges = edge_stack(graphs)
    d = graph._closure_stack(edges, n)
    assert d.dtype == np.int32 and np.array_equal(d, graph._bfs_stack(edges, n))
    for g, dg in zip(graphs, d):
        assert np.array_equal(dg, _networkx_distances(g))


def test_single_vertex_stack():
    edges = np.zeros((3, 0, 2), dtype=np.intp)
    for kernel in (distance_stack, graph._bfs_stack):
        assert np.array_equal(kernel(edges, 1), np.zeros((3, 1, 1), dtype=np.int32))
    assert all_pairs_distances(fe.make_graph(1, [])).tolist() == [[0]]


# a triangle plus an isolated vertex (m = n - 1, like a tree), and two
# triangles, where every vertex has a neighbour
TRIANGLE_AND_VERTEX = fe.make_graph(4, [(0, 1), (1, 2), (0, 2)], strict=False)
TWO_TRIANGLES = fe.make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], strict=False)


@pytest.mark.parametrize("g", [TRIANGLE_AND_VERTEX, TWO_TRIANGLES])
def test_disconnected_graphs_raise(g):
    with pytest.raises(ConnectivityError, match="distances require a connected graph"):
        all_pairs_distances(g)
    # the closure and the BFS refuse it with the same message
    for kernel in (graph._closure_stack, graph._bfs_stack):
        with pytest.raises(ConnectivityError, match="^distances require a connected graph$"):
            kernel(edge_stack([g]), g.n)
    for path in (fe.eps3_oracle, fe.eps3_pruned, fe.eps3_profile, full_report):
        with pytest.raises(ConnectivityError):
            path(g)
    # one disconnected graph spoils its whole stack
    stack = [fe.make_graph(g.n, [(i, (i + 1) % g.n) for i in range(g.m)], strict=False), g]
    with pytest.raises(ConnectivityError):
        distance_stack(edge_stack(stack), g.n)


def test_forest_shaped_rows_take_the_closure(monkeypatch):
    # m = n - 1, but vertex 2 has two smaller neighbours and 3 has none;
    # alone, or stacked after a path in parent order
    closure = _spy(monkeypatch, "_closure_stack")
    for stack in ([TRIANGLE_AND_VERTEX], [fe.path(4), TRIANGLE_AND_VERTEX]):
        with pytest.raises(ConnectivityError, match="distances require a connected graph"):
            distance_stack(edge_stack(stack), 4)
    assert len(closure) == 2


def test_eps3_tree_rejects_a_forest_shaped_graph():
    # m = n - 1 passes the tree precondition, so the kernel must refuse it
    with pytest.raises(ConnectivityError):
        fe.eps3_tree(TRIANGLE_AND_VERTEX)
