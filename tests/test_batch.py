"""Level batches: stacked analysis against per-vertex references.

The sweeps analyse each level in chunks of stacked distance matrices.
These tests hold every field of the chunk reports to brute-force
references, hold every lemma's failures to a direct per-vertex reading
of its definition, and check that how a level is cut into chunks
changes nothing and bounds the memory the analysis takes.
"""

import random
import tracemalloc
from itertools import groupby

import networkx as nx
import numpy as np
import pytest

import fermatecc as fe
import fermatecc.verify as verify
from fermatecc import Comparison, GraphKind, IndexReport, classify, eps3_pruned, fermat_distance
from fermatecc.generators import cyclic_chunks, decorate_stack, double_sweep, free_tree_chunks
from fermatecc.graph import edge_stack
from fermatecc.indices import index_chunks


def _levels(stream):
    for n, level in groupby(stream, key=lambda g: g.n):
        yield n, list(level)


def _chunk_reports(graphs):
    """Each graph's report, read off the chunks every list analysis uses."""
    return [ix.report(k) for chunk, ix in index_chunks(graphs) for k in range(len(chunk))]


def _reference_report(g):
    d = fe.all_pairs_distances(g)
    eps = eps3_pruned(g, d).eps3
    if g.n <= 6:
        assert eps == tuple(
            max(fermat_distance(d, u, v, w) for v in range(g.n) for w in range(g.n))
            for u in range(g.n)
        )
    h = nx.Graph(g.edges)
    ecc = nx.eccentricity(h)
    deg = dict(h.degree())

    def sums(x):
        return sum(x[u] ** 2 for u in range(g.n)), sum(x[u] * x[v] for u, v in g.edges)

    (f1, f2), (e1, e2), (z1, z2) = sums(eps), sums(ecc), sums(deg)
    delta = g.n * f2 - g.m * f1
    comparison = (
        Comparison.POSITIVE if delta > 0 else Comparison.NEGATIVE if delta < 0 else Comparison.ZERO
    )
    return IndexReport(
        g.n, g.m, classify(g).kind, eps, f1, f2, e1, e2, z1, z2, comparison
    )


@pytest.mark.parametrize(
    "enumerate_class, max_n",
    [(fe.enumerate_free_trees, 11), (fe.enumerate_unicyclic, 9), (fe.enumerate_bicyclic, 8)],
)
def test_level_reports_match_brute_force(enumerate_class, max_n):
    count = 0
    for n, graphs in _levels(enumerate_class(max_n)):
        if n < 2:
            continue
        for g, rep in zip(graphs, _chunk_reports(graphs), strict=True):
            assert rep == _reference_report(g), fe.to_graph6(g)
            assert isinstance(rep.f1, int) and isinstance(rep.eps3[0], int)
            count += 1
    assert count == {11: 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106 + 235, 9: 383, 8: 328}[max_n]


# ---------------------------------------------------------------------------
# lemma failures against the definitions, on perturbed eps3


def _reference_decoration(t, d):
    """The double-BFS path read from networkx, and feet, depths, centre by definition."""
    a = int(d[0].argmax())
    b = int(d[a].argmax())
    p = tuple(nx.shortest_path(nx.Graph(t.edges), a, b))
    p = min(p, p[::-1])
    foot = [min(range(len(p)), key=lambda i: d[v, p[i]]) for v in range(t.n)]
    depths = [max(int(d[v, p[i]]) for v in range(t.n) if foot[v] == i) for i in range(1, len(p) - 1)]
    ecc = d.max(axis=1)
    center = [int(c) for c in np.flatnonzero(ecc == ecc.min())]
    return p, foot, depths, center


def _reference_lipschitz(t, eps):
    return [
        f"edge ({u},{v}): eps3 {eps[u]} vs {eps[v]}" for u, v in t.edges if abs(eps[u] - eps[v]) > 1
    ]


def _reference_diametral(t, d, eps, decoration):
    """Each lemma read vertex by vertex along the path, in the checks' order."""
    p, foot, depths, center = decoration
    dlen = len(p) - 1
    ell = max(depths, default=0)
    out = []
    for i, depth in enumerate(depths, start=1):
        if depth > min(i, dlen - i):
            out.append(f"l_{i}={depth} exceeds min({i},{dlen - i})")
    for i in range(dlen + 1):
        if eps[p[i]] != eps[p[dlen - i]]:
            out.append(f"symmetry: eps3(v_{i})={eps[p[i]]} != eps3(v_{dlen - i})={eps[p[dlen - i]]}")
    for i in range(dlen):
        a, b = eps[p[i]], eps[p[i + 1]]
        # towards the middle eps3 falls by 0 or 1 per edge
        if not (b <= a <= b + 1 if i < dlen // 2 else a <= b <= a + 1):
            out.append(f"monotonicity fails at v_{i}: {a} vs {b}")
    path_min = min(eps[v] for v in p)
    out += [f"center {c} misses the minimum eps3 on the path" for c in center if eps[c] != path_min]
    for i in range(ell, dlen - ell):
        if eps[p[i]] != eps[p[i + 1]]:
            out.append(f"middle-segment edge (v_{i},v_{i + 1}) not constant")
    for i in [*range(0, ell), *range(dlen - ell, dlen)]:
        if abs(eps[p[i]] - eps[p[i + 1]]) != 1:
            out.append(f"outer-segment edge (v_{i},v_{i + 1}) differs by != 1")
    for u in range(t.n):
        root = p[foot[u]]
        if u != root and 1 <= foot[u] <= dlen - 1 and eps[u] != d[u, root] + eps[root]:
            out.append(f"subtree additivity fails at {u}: {eps[u]} != {d[u, root]}+{eps[root]}")
    return out


def test_lemma_failures_match_the_definitions():
    rng = random.Random(7)
    trials = failed = changed = 0
    for n, trees in _levels(fe.enumerate_free_trees(10)):
        if n < 3:
            continue
        d = np.stack([fe.all_pairs_distances(t) for t in trees])
        ix = fe.indices.index_stack(edge_stack(trees), n, d)
        decorations = [_reference_decoration(t, dt) for t, dt in zip(trees, d)]
        for _ in range(20):
            eps = ix.eps3.copy()
            for row in eps:
                delta = rng.choice((-2, -1, 0, 1, 2))
                row[rng.randrange(n)] += delta
                changed += delta != 0
            got = verify._failures(ix._replace(eps3=eps))
            want = []
            for t, dt, e, dec in zip(trees, d, eps.tolist(), decorations):
                single = []
                for name, problems in (
                    ("edge_lipschitz", _reference_lipschitz(t, e)),
                    ("diametrical_lemmas", _reference_diametral(t, dt, e, dec)),
                ):
                    if problems:
                        single.append(verify.CheckOutcome(name, fe.to_graph6(t), False, "; ".join(problems)))
                # the per-graph checks are the same lemmas on a stack of one
                assert [o for o in single if o.check_name == "edge_lipschitz"] == [
                    o for o in [fe.check_edge_lipschitz(t, e)] if not o.passed
                ]
                assert [o for o in single if o.check_name == "diametrical_lemmas"] == [
                    o for o in [fe.check_diametrical_lemmas(t, dt, e)] if not o.passed
                ]
                want += single
                trials += 1
                failed += bool(single)
            assert got == want
    assert trials == 20 * (1 + 2 + 3 + 6 + 11 + 23 + 47 + 106)
    # on a tree every eps3 value is pinned by symmetry or subtree
    # additivity, so each changed value breaks some lemma
    assert failed == changed
    assert trials // 2 < failed < trials


def test_closed_form_flags_exactly_the_trees_the_lemmas_fail():
    # the sweep runs the lemmas only on the trees off the closed form, so
    # the form must flag every tree the lemmas fail and no other
    rng = random.Random(30)
    messages = set()
    for n, edges in free_tree_chunks(12, 3):
        ix = fe.indices.index_stack(edges, n)
        frame = double_sweep(ix.edges, ix.d, ix.ecc)[:3]
        dec = decorate_stack(ix.edges, ix.d)
        trees = [fe.graph.row_graph(row, n) for row in edges]
        for _ in range(2):
            eps = ix.eps3.copy()
            for row in eps:
                for _ in range(rng.randrange(3)):
                    row[rng.randrange(n)] += rng.choice((-2, -1, 1, 2))
            bad, problems = verify._diametral_lemmas(ix.d, eps, dec)
            assert verify._off_closed_form(eps, *frame).tolist() == bad.tolist()
            got = [o for o in verify._failures(ix._replace(eps3=eps)) if o.check_name == "diametrical_lemmas"]
            want = [fe.check_diametrical_lemmas(t, dt, e) for t, dt, e in zip(trees, ix.d, eps.tolist())]
            assert got == [o for o in want if not o.passed]
            messages.update(p.split(" ")[0] for k in np.flatnonzero(bad) for p in problems(k))
    # each eps3 lemma fails somewhere; the depth lemma cannot while D is the diameter
    assert messages == {"symmetry:", "monotonicity", "center", "middle-segment", "outer-segment", "subtree"}


def test_closed_form_flags_a_hang_beyond_the_depth_bound():
    # the star K_{1,3} on the path 0-1-2 passes; the same frame with vertex
    # 3 hanging 2 below v_1, which no tree of diameter 2 has, fits the form
    # (eps3 = hang + 1 + max(0, ell - near), ell = 2) but breaks the bound
    length, foot = np.array([2]), np.array([[0, 1, 2, 1]])
    star = verify._off_closed_form(np.array([[3, 2, 3, 3]]), length, foot, np.array([[0, 0, 0, 1]]))
    deep = verify._off_closed_form(np.array([[3, 2, 3, 4]]), length, foot, np.array([[0, 0, 0, 2]]))
    assert (star.tolist(), deep.tolist()) == ([False], [True])


def test_main_inequality_flags_the_unicyclic_equality_case_both_ways():
    # on unicyclic graphs n*F2 = m*F1 exactly where eps3 is constant: on
    # 3 of the 13 classes with 6 vertices, the cycle C_6 among them
    (n, edges), = cyclic_chunks(1, 6, 6)
    ix = fe.indices.index_stack(edges, n)
    constant = (ix.eps3 == ix.eps3[:, :1]).all(axis=1)
    zero = ix.sign == 0
    assert constant.tolist() == zero.tolist() and zero.sum() == 3 and not constant[:3].any()
    assert verify._failures(ix) == []
    cyc = int(np.flatnonzero(constant)[0])
    graphs = [fe.graph.row_graph(row, n) for row in edges]
    # equality moved from the first constant class to the first class, and
    # a constant eps3 given to the third, which keeps its negative comparison
    eps = ix.eps3.copy()
    eps[2] = 3
    sign = ix.sign.copy()
    sign[0], sign[cyc] = 0, -1  # zero and negative
    bad = ix._replace(eps3=eps, sign=sign)
    want = [
        (0, "comparison=zero, eps3_constant=False"),
        (2, "comparison=negative, eps3_constant=True"),
        (cyc, "comparison=negative, eps3_constant=True"),
    ]
    expected = [
        verify.CheckOutcome(
            "main_inequality", fe.to_graph6(graphs[k]), False, f"equality characterization: {detail}"
        )
        for k, detail in want
    ]
    assert verify._failures(bad) == expected
    # the per-graph check is the same lemma on a stack of one
    for k, outcome in zip((0, 2, cyc), expected):
        report = bad.report(k)
        assert fe.verify_main_inequality(graphs[k], report) == outcome
    assert fe.verify_main_inequality(graphs[1], bad.report(1)).passed


# ---------------------------------------------------------------------------
# chunk boundaries


def _tied_extremes(monkeypatch):
    """F1 := 1 on stars and 0 elsewhere, F2 := -1 on paths and 0 elsewhere.

    From n = 4 on, every extremes check fails, and min F1 and max F2 are
    tied across the level, so the checks must name the first tree in
    stream order that attains them.
    """
    real = fe.indices.index_stack

    def tied(*args):
        ix = real(*args)
        stars = ix.degree.max(axis=1) == ix.n - 1
        paths = verify._is_path(ix.degree)
        return ix._replace(f1=stars.astype(np.int64), f2=-paths.astype(np.int64))

    monkeypatch.setattr(verify, "index_stack", tied)


def _expected_extremes(max_n):
    failures = []
    for n, trees in _levels(fe.enumerate_free_trees(max_n)):
        if n < 4:
            continue
        star = [max(map(len, t.adj)) == n - 1 for t in trees]
        path = [fe.is_path_graph(t) for t in trees]
        named = [
            (star.index(False), "min f1=0 not attained by the star (1)"),
            (star.index(True), "max f1=1 not attained by the path (0)"),
            (path.index(True), "min f2=-1 not attained by the star (0)"),
            (path.index(False), "max f2=0 not attained by the path (-1)"),
        ]
        failures += [
            verify.CheckOutcome("tree_extremes", fe.to_graph6(trees[k]), False, f"n={n}: {detail}")
            for k, detail in named
        ]
    return failures


def test_chunking_leaves_the_summaries_unchanged(monkeypatch):
    _tied_extremes(monkeypatch)
    trees = fe.sweep_class(GraphKind.TREE, range(2, 11))
    unicyclic = fe.sweep_class(GraphKind.UNICYCLIC, range(3, 9))
    searches = [
        fe.search_counterexample("exhaustive-small", budget=budget, max_n=8)
        for budget in (327, 328, 10_000)
    ]
    assert trees.failures == _expected_extremes(10)
    # 3000 entries: 30 trees of 10 vertices per chunk, 106 in the level;
    # 46 unicyclic or bicyclic graphs of 8 vertices, 89 and 236 in the levels
    monkeypatch.setattr(fe.fermat, "_TABLE", 3000)
    trees10 = [t for t in fe.enumerate_free_trees(10) if t.n == 10]
    bicyclic8 = [g for g in fe.enumerate_bicyclic(8) if g.n == 8]
    assert [len(chunk) for chunk, _ in index_chunks(trees10)] == [30, 30, 30, 16]
    assert [len(chunk) for chunk, _ in index_chunks(bicyclic8)] == [46] * 5 + [6]
    assert fe.sweep_class(GraphKind.TREE, range(2, 11)) == trees
    assert fe.sweep_class(GraphKind.UNICYCLIC, range(3, 9)) == unicyclic
    for budget, summary in zip((327, 328, 10_000), searches):
        assert fe.search_counterexample("exhaustive-small", budget=budget, max_n=8) == summary


def test_index_chunks_cut_the_stream_at_every_change_of_n_and_m():
    # path(4) and star(4) share (n, m) = (4, 3) but are not consecutive
    stream = [fe.path(4), fe.cycle(4), fe.star(4), fe.path(5), fe.star(5), fe.cycle(5)]
    chunks = [(chunk, ix) for chunk, ix in index_chunks(iter(stream))]
    assert [chunk for chunk, _ in chunks] == [stream[:1], stream[1:2], stream[2:3], stream[3:5], stream[5:]]
    assert [(ix.n, ix.m, ix.kind) for _, ix in chunks] == [
        (4, 3, GraphKind.TREE), (4, 4, GraphKind.UNICYCLIC), (4, 3, GraphKind.TREE),
        (5, 4, GraphKind.TREE), (5, 5, GraphKind.UNICYCLIC),
    ]
    reports = [ix.report(k) for chunk, ix in chunks for k in range(len(chunk))]
    assert reports == [fe.full_report(g) for g in stream]
    assert list(index_chunks(iter([]))) == []


def test_level_analysis_memory_is_bounded_by_the_table(monkeypatch):
    # 551 trees on 12 vertices: their whole stack is 79,344 entries, so a
    # table of 4096 entries cuts the level into 20 chunks of 28 trees
    table = 4096

    def peak(table_entries):
        monkeypatch.setattr(fe.fermat, "_TABLE", table_entries)
        chunks = [edges for _, edges in free_tree_chunks(12, 12)]
        summary = verify.SweepSummary(swept="tree")
        tracemalloc.start()
        try:
            verify._sweep_level(summary, 12, iter(chunks))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            assert summary.instance_count == 551 and summary.passed

    bound = 16 * 8 * table  # bytes: a few int64 arrays of the table's size
    assert peak(table) < bound
    # the bound is tight enough to see a level analysed whole
    assert peak(1 << 20) > bound
