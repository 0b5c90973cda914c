"""The enumerators' edge-array chunks, against the Graph streams.

free_tree_chunks and cyclic_chunks are the form the sweeps and the
exhaustive search analyse; enumerate_* turn their rows into Graphs.
These tests hold the chunks to the Graph streams row for row and check
how each level is cut.
"""

from itertools import groupby

import numpy as np
import pytest

import fermatecc as fe
from fermatecc.generators import cyclic_chunks, free_tree_chunks
from fermatecc.graph import edge_stack

STREAMS = [
    (lambda max_n, min_n=1: free_tree_chunks(max_n, min_n), fe.enumerate_free_trees, 12, 0),
    (lambda max_n, min_n=0: cyclic_chunks(1, max_n, min_n), fe.enumerate_unicyclic, 10, 1),
    (lambda max_n, min_n=0: cyclic_chunks(2, max_n, min_n), fe.enumerate_bicyclic, 9, 2),
]
IDS = ["tree", "unicyclic", "bicyclic"]


def _check_chunks(chunks, graphs, cyclomatic, table):
    """The chunks hold exactly the graphs, in order, cut as index_chunks cuts."""
    seen = []
    for n, edges in chunks:
        assert edges.dtype == np.intp and edges.shape[1:] == (n + cyclomatic - 1, 2)
        assert 1 <= len(edges) <= max(1, table // (n * n))
        rows = graphs[len(seen) : len(seen) + len(edges)]
        assert [g.n for g in rows] == [n] * len(edges)
        np.testing.assert_array_equal(edges, edge_stack(rows).reshape(edges.shape))
        seen += [n] * len(edges)
    assert len(seen) == len(graphs)
    # a level is cut into full chunks and one last part: one chunk per
    # table's worth of graphs, none mixing two levels
    for n, level in groupby(seen):
        count = len(list(level))
        assert sum(1 for m, _ in chunks if m == n) == -(-count // max(1, table // (n * n)))


@pytest.mark.parametrize("chunks, enumerate_class, max_n, cyclomatic", STREAMS, ids=IDS)
def test_chunks_equal_the_graph_streams(chunks, enumerate_class, max_n, cyclomatic):
    graphs = list(enumerate_class(max_n))
    _check_chunks(list(chunks(max_n)), graphs, cyclomatic, fe.fermat._TABLE)
    # each row is a graph's sorted edge list, u < v
    for n, edges in chunks(max_n):
        key = edges[..., 0] * n + edges[..., 1]
        assert (edges[..., 0] < edges[..., 1]).all() and (np.diff(key, axis=1) > 0).all()
    # a stream started at min_n holds the same levels from there on
    low = 7
    _check_chunks(list(chunks(max_n, low)), [g for g in graphs if g.n >= low], cyclomatic, fe.fermat._TABLE)
    assert list(chunks(low - 1, low)) == []


@pytest.mark.parametrize("chunks, enumerate_class, max_n, cyclomatic", STREAMS, ids=IDS)
@pytest.mark.parametrize("table", [1, 200, 3000])
def test_small_tables_cut_the_same_rows(monkeypatch, chunks, enumerate_class, max_n, cyclomatic, table):
    # the Graph stream is read at the full table: the rows do not depend
    # on where the levels are cut
    graphs = list(enumerate_class(max_n))
    monkeypatch.setattr(fe.fermat, "_TABLE", table)
    _check_chunks(list(chunks(max_n)), graphs, cyclomatic, table)


def test_free_tree_chunks_build_no_smaller_level(monkeypatch):
    # level n plants forests of rooted trees on at most n // 2 vertices;
    # starting at 16 builds no tree class below 16 vertices
    import fermatecc.generators as gen

    planted = []
    real = gen._free_trees
    monkeypatch.setattr(gen, "_free_trees", lambda n: planted.append(n) or real(n))
    assert sum(len(edges) for _, edges in free_tree_chunks(16, 16)) == 19320  # A000055
    assert planted == [16]
