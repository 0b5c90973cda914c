"""Property-based invariants over randomly drawn graphs."""

import itertools
import random

import networkx as nx
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fermatecc as fe
from fermatecc import all_pairs_distances, bfs_distances, eps3_oracle, fermat_distance


@st.composite
def connected_graphs(draw, max_n=14):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    extra = draw(st.integers(min_value=0, max_value=n))
    return fe.random_connected(n, seed=seed, extra_edges=extra)


@st.composite
def random_trees(draw, max_n=20):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return fe.random_tree(n, seed=seed)


@st.composite
def graphs_with_pendant_trees(draw, max_n=14):
    """A random connected core, each further vertex hung on an earlier one."""
    k = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=k, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    core = fe.random_connected(k, seed=seed, extra_edges=draw(st.integers(min_value=0, max_value=k)))
    rng = random.Random(seed)
    return fe.make_graph(n, [*core.edges, *((rng.randrange(v), v) for v in range(k, n))])


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_apsp_symmetric_and_triangle(g):
    d = all_pairs_distances(g)
    assert np.array_equal(d, d.T)
    assert (np.diag(d) == 0).all()
    # triangle inequality through every intermediate vertex
    assert (d[:, :, None] <= d[:, None, :] + d[None, :, :]).all()


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_apsp_rows_match_single_bfs(g):
    d = all_pairs_distances(g)
    for u in range(g.n):
        assert np.array_equal(d[u], bfs_distances(g, u))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=60),
)
def test_apsp_matches_networkx(n, seed, extra):
    # all_pairs_distances and bfs_distances share one BFS, so networkx is the oracle
    g = fe.random_connected(n, seed=seed, extra_edges=extra)
    h = nx.Graph(g.edges)
    h.add_nodes_from(range(n))
    want = np.zeros((n, n), dtype=np.int64)
    for u, row in nx.all_pairs_shortest_path_length(h):
        for v, dist in row.items():
            want[u, v] = dist
    assert np.array_equal(all_pairs_distances(g), want)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_fermat_half_perimeter_lower_bound(g):
    d = all_pairs_distances(g)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u, v, w = rng.integers(0, g.n, size=3)
        f = fermat_distance(d, int(u), int(v), int(w))
        perim = int(d[u, v] + d[v, w] + d[u, w])
        assert (perim + 1) // 2 <= f <= perim


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=11))
def test_edge_lipschitz_everywhere(g):
    eps3 = eps3_oracle(g).eps3
    assert all(abs(eps3[u] - eps3[v]) <= 1 for u, v in g.edges)


@settings(max_examples=80, deadline=None)
@given(graphs_with_pendant_trees())
def test_pair_ends_attain_every_eccentricity(g):
    # lemma A, checked on the oracle's own pair values: the pairs over the
    # pair ends S, repeats included, reach eps3 at every vertex, and every
    # vertex left out of S is a cut vertex
    d = all_pairs_distances(g)
    ends, _ = fe.fermat._pair_ends_and_hubs(g)
    # f[u, v, w] = min over s of d(s, u) + d(s, v) + d(s, w)
    f = (d[:, :, None, None] + d[:, None, :, None] + d[:, None, None, :]).min(axis=0)
    assert tuple(f[:, ends][:, :, ends].max(axis=(1, 2)).tolist()) == eps3_oracle(g, d).eps3
    assert set(range(g.n)) - set(ends) <= set(nx.articulation_points(nx.Graph(g.edges)))


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=9))
def test_fermat_vertex_is_a_terminal_or_a_hub(g):
    # lemma B: a minimising Fermat vertex that is not u, v or w has degree >= 3
    d = all_pairs_distances(g)
    hubs = [x for x in range(g.n) if g.degree(x) >= 3]
    for u, v, w in itertools.product(range(g.n), repeat=3):
        s = [u, v, w, *hubs]
        assert int((d[s, u] + d[s, v] + d[s, w]).min()) == fermat_distance(d, u, v, w)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=11))
def test_pruned_matches_oracle(g):
    d = all_pairs_distances(g)
    assert fe.eps3_pruned(g, d).eps3 == eps3_oracle(g, d).eps3


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.booleans())
def test_pruned_matches_oracle_both_pair_modes(g, distinct_pairs):
    # the pruned path takes the literal maximum over pairs; over distinct
    # pairs only (v != w) the maximum is the same, since n >= 2 here
    d = all_pairs_distances(g)
    if distinct_pairs:
        want = tuple(
            max(fermat_distance(d, u, v, w) for v in range(g.n) for w in range(g.n) if v != w)
            for u in range(g.n)
        )
    else:
        want = eps3_oracle(g, d).eps3
    assert fe.eps3_pruned(g, d).eps3 == want


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=11))
def test_distinct_pair_variant_dominated(g):
    d = all_pairs_distances(g)
    full = eps3_oracle(g, d).eps3
    # n >= 2, so every u has a distinct pair, and F(u, v, v) = d(u, v) <= F(u, v, w)
    strict = tuple(
        max(fermat_distance(d, u, v, w) for v in range(g.n) for w in range(g.n) if v != w)
        for u in range(g.n)
    )
    assert full == strict
    # and eps3 always dominates the ordinary eccentricity
    ecc = fe.eccentricity2_profile(g, d).ecc
    assert all(e2 <= e3 for e2, e3 in zip(ecc, full))


@settings(max_examples=40, deadline=None)
@given(random_trees())
def test_tree_lemma_suite_random(t):
    assert fe.check_diametrical_lemmas(t).passed
    assert fe.verify_main_inequality(t).passed


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.lists(st.integers(min_value=-1, max_value=1), min_size=2, max_size=50),
)
def test_cyclic_sequence_random_walks(start, steps):
    # build a cyclically 1-Lipschitz positive sequence from bounded steps
    xs = [start + 60]
    for s in steps[:-1]:
        xs.append(xs[-1] + s)
    # close the cycle gently back toward the start
    while abs(xs[-1] - xs[0]) > 1:
        xs.append(xs[-1] + (1 if xs[0] > xs[-1] else -1))
    assert fe.check_cyclic_sequence(xs).passed


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=80), st.floats(0, 1), st.integers(0, 2**31))
@example(62, 0.5, 0)
@example(63, 0.5, 0)
def test_graph6_matches_networkx(n, p, seed):
    h = nx.gnp_random_graph(n, p, seed=seed)
    g = fe.make_graph(n, h.edges(), strict=False)
    data = nx.to_graph6_bytes(h, header=False)
    assert (fe.to_graph6(g) + "\n").encode() == data
    back = nx.from_graph6_bytes(data)
    assert fe.from_graph6(data, strict=False) == fe.make_graph(n, back.edges(), strict=False)
    assert fe.from_graph6(b">>graph6<<" + data, strict=False) == g


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=40), st.lists(st.integers(63, 126), max_size=40).map(bytes)))
def test_graph6_junk_raises_only_graph_errors(data):
    try:
        g = fe.from_graph6(data, strict=False)
    except fe.GraphError:
        return
    assert fe.from_graph6(fe.to_graph6(g), strict=False) == g


_junk_token = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["x", "#", "1.5", "0x1", "--", "1e3", "\u0663"]),
    st.text(max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(max_value=10**5).map(str), _junk_token),
    st.lists(st.lists(_junk_token, max_size=3).map(" ".join), max_size=12),
)
def test_edge_list_junk_raises_only_graph_errors(count, lines):
    try:
        g = fe.parse_edge_list("\n".join([count] + lines))
    except fe.GraphError:
        return
    assert fe.parse_edge_list(fe.to_edge_list(g)) == g
