"""Families, random generators, enumerators, decorations, formulas."""

import hashlib
import itertools
import random
from collections import defaultdict
from functools import lru_cache

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermatecc as fe
from fermatecc import (
    GraphKind,
    bicyclic_delta_formula,
    classify,
    decorate_tree,
    dumbbell,
    enumerate_bicyclic,
    enumerate_free_trees,
    enumerate_unicyclic,
    make_graph,
    multicyclic_delta_formula,
    random_connected,
    random_tree,
    random_unicyclic,
    theta,
    two_cycles_with_tail,
)
from fermatecc.generators import _cores, _prufer_decode, cyclic_chunks, free_tree_chunks
from treeforms import canonical_form


def spider(*legs):
    """Paths of the given lengths glued at a common center vertex 0."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return make_graph(nxt, edges)


# ---------------------------------------------------------------------------
# named families


def test_path_cycle_star_shapes():
    assert fe.path(5).m == 4
    assert fe.cycle(5).m == 5
    assert fe.star(5).m == 4
    assert max(fe.star(5).degree(u) for u in range(5)) == 4


def test_family_argument_validation():
    with pytest.raises(ValueError):
        fe.path(0)
    with pytest.raises(ValueError):
        fe.cycle(2)
    with pytest.raises(ValueError):
        fe.star(1)
    with pytest.raises(ValueError):
        theta(1, 1, 3)
    with pytest.raises(ValueError):
        dumbbell(2, 3, 1)
    with pytest.raises(ValueError):
        two_cycles_with_tail(3, 3, 1, 2)


def test_theta_counts():
    g = theta(2, 2, 3)
    assert g.n == 2 + 1 + 1 + 2
    assert g.m == 7
    assert classify(g).cyclomatic == 2


def test_dumbbell_counts():
    g = dumbbell(3, 5, 2)
    assert g.n == 3 + 2 + 4
    assert g.m == g.n + 1
    g = dumbbell(3, 3, 1, 2, 2)
    assert g.n == 3 + 1 + 2 + 4
    assert classify(g).cyclomatic == 2
    g = dumbbell(4, 5, 0)  # the cycles share vertex 0
    assert g.n == 8
    assert g.m == 9


def test_two_cycles_with_tail_counts():
    g = two_cycles_with_tail(3, 4, 6, 2)
    assert g.n == 3 + 6 + 3 + 2
    assert g.m == g.n + 1
    assert classify(g).kind is GraphKind.MULTICYCLIC


# ---------------------------------------------------------------------------
# random generators


def test_random_tree_deterministic_and_tree():
    a = random_tree(30, seed=42)
    b = random_tree(30, seed=42)
    assert a == b
    assert classify(a).kind is GraphKind.TREE
    assert random_tree(30, seed=43) != a


def test_random_unicyclic_girth_and_class():
    g = random_unicyclic(12, girth=5, seed=1)
    assert classify(g).kind is GraphKind.UNICYCLIC
    assert g.has_edge(0, 4)  # the seeded cycle closes at the girth


def test_random_connected_extra_edges():
    g = random_connected(15, seed=0, extra_edges=4)
    assert g.m == 14 + 4
    assert random_connected(15, seed=0, extra_edges=4) == g


# sha256 of the newline-joined graph6 strings of each generator over a grid
# of its parameters, so a change of vertex labels, or of the random draws a
# seed makes, shows here.  Each seed of random_connected gives one graph,
# with or without extra_edges, at every n including 1 and 2
GENERATOR_DIGESTS = {
    "dumbbell": "75d372fb2e2817bade1e621b066b2ae37935e1f8c92e12e7033b91281de1c50d",
    "two_cycles_with_tail": "3ad01f75689298cd1eb893b92ed4aac469e426dd25922052ad2a3e3aa008c835",
    "random_tree": "04487e4a978c2f8907ed521fc95dd5c3d184b84984ca2ee6d17287389be17b71",
    "random_connected": "07371577b86e3a24bc03def58e7be0c016c4258c435b9f1f24f8ff100d5b2fdd",
    "random_connected_extra_edges": "11ddde59036dc02ab353872f738b28c96daff11fa01c764d17e262051c6cff81",
}
SEEDED = [(n, seed) for n in (1, 2, 3, 7, 20) for seed in range(300)]
GENERATOR_GRIDS = {
    "dumbbell": (dumbbell, list(itertools.product(range(3, 7), range(3, 7), range(5), range(4), range(4)))),
    "two_cycles_with_tail": (two_cycles_with_tail, list(itertools.product(range(3, 7), range(3, 7), range(2, 8), range(5)))),
    "random_tree": (random_tree, SEEDED),
    "random_connected": (random_connected, SEEDED),
    "random_connected_extra_edges": (lambda n, seed: random_connected(n, seed, extra_edges=2), SEEDED),
}


@pytest.mark.parametrize("name", GENERATOR_DIGESTS)
def test_generator_labels_are_pinned(name):
    build, grid = GENERATOR_GRIDS[name]
    text = "\n".join(fe.to_graph6(build(*params)) for params in grid)
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGESTS[name]


# ---------------------------------------------------------------------------
# enumeration


# Isomorphism-class counts: A000055, A001429 and A001435
FREE_TREE_COUNTS = dict(enumerate((1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159), 1))
UNICYCLIC_COUNTS = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806, 12: 5026, 13: 13999}
BICYCLIC_COUNTS = {4: 1, 5: 5, 6: 19, 7: 67, 8: 236, 9: 797, 10: 2678, 11: 8833, 12: 28908}
_PINNED = {
    enumerate_free_trees: FREE_TREE_COUNTS,
    enumerate_unicyclic: UNICYCLIC_COUNTS,
    enumerate_bicyclic: BICYCLIC_COUNTS,
}


@lru_cache(maxsize=None)
def _levels(enumerate_class):
    """{n: graphs} of one pass over a class, up to its largest pinned count."""
    stream = enumerate_class(max(_PINNED[enumerate_class]))
    return {n: tuple(level) for n, level in itertools.groupby(stream, key=lambda g: g.n)}


@pytest.mark.parametrize("n", range(1, 15))
def test_free_tree_class_counts(n):
    assert len(_levels(enumerate_free_trees)[n]) == FREE_TREE_COUNTS[n]


def test_free_trees_are_distinct_trees():
    seen = set()
    for g in _levels(enumerate_free_trees)[9]:
        assert classify(g).kind is GraphKind.TREE
        key = canonical_form(g.n, g.edges)
        assert key not in seen
        seen.add(key)


@pytest.mark.parametrize("n", range(3, 9))
def test_free_trees_match_prufer_oracle(n):
    # independent oracle: decode every Pruefer sequence and key it by the
    # reference canonical form; class sets must coincide exactly
    oracle = {canonical_form(n, _prufer_decode(seq, n)) for seq in itertools.product(range(n), repeat=n - 2)}
    enumerated = {canonical_form(g.n, g.edges) for g in _levels(enumerate_free_trees)[n]}
    assert enumerated == oracle


def test_free_trees_are_in_parent_order():
    # graph.distance_stack computes a stack's distances without a BFS only
    # when every row is in parent order: each edge (u, v) has u < v and
    # the larger ends are exactly 1..n-1, one edge each
    for n, edges in free_tree_chunks(12):
        assert (edges[..., 0] < edges[..., 1]).all()
        assert (np.sort(edges[..., 1], axis=1) == np.arange(1, n)).all()


@pytest.mark.parametrize("n", sorted(UNICYCLIC_COUNTS))
def test_unicyclic_class_counts(n):
    graphs = _levels(enumerate_unicyclic)[n]
    assert len(graphs) == UNICYCLIC_COUNTS[n]
    assert all(g.m == g.n == n for g in graphs)


@pytest.mark.parametrize("n", sorted(BICYCLIC_COUNTS))
def test_bicyclic_class_counts(n):
    graphs = _levels(enumerate_bicyclic)[n]
    assert len(graphs) == BICYCLIC_COUNTS[n]
    assert all(g.m == g.n + 1 == n + 1 for g in graphs)


# sha256 of the newline-joined graph6 strings each enumerator streams up to
# max_n, so a change of representative labels or of order shows here: for
# trees each class planted at its centroid, for cyclic classes the least
# labelling of each 2-core orbit
GRAPH6_DIGESTS = [
    (enumerate_free_trees, 12, "a1d027645d43f50b491f83e287fa6cdf45788369562e20e675f4953d95f55378"),
    (enumerate_unicyclic, 9, "2eabeaaaf79b6bb870b8abc440fb6790d04025e972a5fc8dedfedf6dcc3690ad"),
    (enumerate_bicyclic, 8, "4503784262081554ad921ccda4c1eb3798065e13dd3afe557089c85f296ed9eb"),
]


@pytest.mark.parametrize("enumerate_class, max_n, digest", GRAPH6_DIGESTS, ids=["tree", "unicyclic", "bicyclic"])
def test_enumerated_representatives_are_pinned(enumerate_class, max_n, digest):
    levels = _levels(enumerate_class)
    text = "\n".join(fe.to_graph6(g) for n in sorted(levels) if n <= max_n for g in levels[n])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of every (n, edges) chunk cyclic_chunks(cyclomatic, max_n) streams:
# each chunk's n and array shape, then its edge array as little-endian
# int64, so a change of labels, row order or chunk cut shows here
CHUNK_DIGESTS = [
    (1, 11, 2846, "e8a0c0fc2c211850cef45493742149acfd6c79789973715cd8f457ad6be34985"),
    (2, 10, 3803, "fe131f96d57abb7f551918c6ee845d762d178bc86d9d061068f9c8899e9add03"),
]


@pytest.mark.parametrize("cyclomatic, max_n, count, digest", CHUNK_DIGESTS, ids=["unicyclic", "bicyclic"])
def test_cyclic_chunks_are_pinned(cyclomatic, max_n, count, digest):
    h, rows = hashlib.sha256(), 0
    for n, edges in cyclic_chunks(cyclomatic, max_n):
        h.update(np.array([n, *edges.shape], dtype="<i8").tobytes())
        h.update(edges.astype("<i8").tobytes())
        rows += len(edges)
    assert rows == count
    assert h.hexdigest() == digest


def test_with_edge_equals_make_graph():
    # every graph the enumerators build without make_graph: each tree
    # planted at its centroid, and each cyclic class
    for enumerate_class, max_n in ((enumerate_free_trees, 12), (enumerate_unicyclic, 10), (enumerate_bicyclic, 9)):
        for n in range(max_n + 1):
            for g in _levels(enumerate_class).get(n, ()):
                assert g == make_graph(g.n, g.edges)


def test_bicyclic_enumeration_small():
    # brute force over all 6-edge subsets of K5 yields 5 connected classes
    graphs = [g for g in enumerate_bicyclic(5) if g.n == 5]
    assert all(g.m == g.n + 1 for g in graphs)
    assert len(graphs) == 5
    assert sum(1 for _ in enumerate_bicyclic(4)) == 1


def test_free_trees_need_rooted_trees_up_to_half(monkeypatch):
    # each tree hangs off its centroid or centroid edge, so no branch
    # exceeds n // 2 vertices, however warm the rooted-tree cache is
    import fermatecc.generators

    real = fermatecc.generators._rooted_trees
    sizes = set()
    monkeypatch.setattr(fermatecc.generators, "_rooted_trees", lambda size: sizes.add(size) or real(size))
    # A000055 at n = 15 and 16
    assert sum(1 for _ in enumerate_free_trees(16)) == sum(FREE_TREE_COUNTS.values()) + 7741 + 19320
    assert max(sizes) == 8


def test_enumeration_below_class_minimum_is_empty():
    assert list(enumerate_free_trees(0)) == []
    assert list(enumerate_unicyclic(2)) == []
    assert list(enumerate_bicyclic(3)) == []


# ---------------------------------------------------------------------------
# the reference tree key and the 2-core enumerators (networkx is the
# differential oracle)


def _nx(g):
    h = nx.Graph(g.edges)
    h.add_nodes_from(range(g.n))
    return h


def _by_degree_sequence(graphs):
    groups = defaultdict(list)
    for g in graphs:
        groups[tuple(sorted(map(len, g.adj)))].append(g)
    return groups.values()


def _assert_forms_match_isomorphism(graphs):
    # equal forms iff isomorphic, over every pair with the same degree sequence
    for group in _by_degree_sequence(graphs):
        keyed = [(canonical_form(g.n, g.edges), g) for g in group]
        for (ka, a), (kb, b) in itertools.combinations(keyed, 2):
            assert (ka == kb) == nx.is_isomorphic(_nx(a), _nx(b)), (a.edges, b.edges)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_form_ignores_labels(data):
    g = data.draw(st.sampled_from(_levels(enumerate_free_trees)[10]))
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_form(g.n, [(perm[u], perm[v]) for u, v in g.edges]) == canonical_form(g.n, g.edges)


def _leaf_extensions(t):
    # a new leaf on each vertex: many isomorphic copies of each larger tree
    return [make_graph(t.n + 1, t.edges + ((u, t.n),)) for u in range(t.n)]


@pytest.mark.parametrize(
    "enumerate_base, n, grow",
    [
        # 10 vertices is the least where a peeled vertex (not a centre) has two
        # children of equal height and different shape, so child order matters
        pytest.param(enumerate_free_trees, 9, _leaf_extensions, id="leaf_extensions-9"),
    ],
)
def test_forms_of_augmentations_match_isomorphism(enumerate_base, n, grow):
    # the raw extensions hold many isomorphic copies, so equal forms occur
    _assert_forms_match_isomorphism([g for b in _levels(enumerate_base)[n] for g in grow(b)])


def test_canonical_form_rejects_three_cycles():
    with pytest.raises(ValueError):
        canonical_form(4, itertools.combinations(range(4), 2))


@pytest.mark.parametrize("g", [fe.cycle(5), theta(1, 2, 3), dumbbell(3, 3, 0)], ids=["cycle", "theta", "dumbbell"])
def test_canonical_form_rejects_cyclic_graphs(g):
    with pytest.raises(ValueError):
        canonical_form(g.n, g.edges)


@pytest.mark.parametrize(
    "enumerate_class, n",
    [(enumerate_unicyclic, n) for n in range(3, 10)] + [(enumerate_bicyclic, n) for n in range(4, 9)],
    ids=[f"unicyclic-{n}" for n in range(3, 10)] + [f"bicyclic-{n}" for n in range(4, 9)],
)
def test_enumerated_classes_are_pairwise_non_isomorphic(enumerate_class, n):
    for group in _by_degree_sequence(_levels(enumerate_class)[n]):
        for a, b in itertools.combinations(group, 2):
            assert not nx.is_isomorphic(_nx(a), _nx(b)), (a.edges, b.edges)


def _family_cores(cyclomatic, max_k):
    """The cores _cores lists, built by the public family constructors in
    its documented order."""
    if cyclomatic == 1:
        return [fe.cycle(g) for g in range(3, max_k + 1)]
    thetas = [
        theta(a, b, c)
        for a in range(1, max_k)
        for b in range(max(a, 2), max_k)
        for c in range(b, max_k + 2 - a - b)
    ]
    return thetas + [
        dumbbell(p, q, bridge)
        for p in range(3, max_k)
        for q in range(p, max_k + 2 - p)
        for bridge in range(max_k + 2 - p - q)
    ]


@pytest.mark.parametrize("cyclomatic", [1, 2])
def test_core_automorphisms_match_networkx(cyclomatic):
    # every core on at most 12 vertices: its edges are the family
    # constructor's, and its closed-form group is exactly the automorphism
    # group networkx finds
    family = _family_cores(cyclomatic, 12)
    cores = _cores(cyclomatic, 12)
    assert len(cores) == len(family)
    for (k, flat, autos), core in zip(cores, family):
        assert (k, flat) == (core.n, tuple(itertools.chain.from_iterable(core.edges)))
        assert classify(core).cyclomatic == cyclomatic
        assert min(map(len, core.adj)) >= 2  # a 2-core: nothing hangs off it
        found = {
            tuple(m[v] for v in range(k))
            for m in nx.algorithms.isomorphism.GraphMatcher(_nx(core), _nx(core)).isomorphisms_iter()
        }
        assert found == set(autos) | {tuple(range(k))}, core.edges
        assert len(autos) == len(set(autos)) == len(found) - 1
    if cyclomatic == 2:
        # figure-eights, equal-loop ones among them, and dumbbells with equal
        # loops, whose groups have the swap
        for p, q, bridge in ((3, 4, 0), (3, 3, 0), (5, 5, 0), (3, 3, 1), (4, 4, 3), (5, 5, 2)):
            assert dumbbell(p, q, bridge) in family


# ---------------------------------------------------------------------------
# diametrical decoration


def test_decorate_path():
    dec = decorate_tree(fe.path(6))
    assert len(dec.diametrical_path) == 6
    assert dec.subtree_depths == (0, 0, 0, 0)
    assert dec.ell == 0


def test_decorate_star():
    dec = decorate_tree(fe.star(5))
    assert len(dec.diametrical_path) == 3
    hub = dec.diametrical_path[1]
    assert fe.star(5).degree(hub) == 4
    assert dec.subtree_depths == (1,)
    assert dec.ell == 1


def test_decorate_spider_332():
    t = spider(3, 3, 2)
    dec = decorate_tree(t)
    dlen = len(dec.diametrical_path) - 1
    assert dlen == 6
    assert dec.ell == 2
    assert sorted(dec.subtree_depths) == [0, 0, 0, 0, 2]
    # the depth-2 leg hangs off the middle of the path
    assert dec.subtree_depths[2] == 2
    # every vertex maps into exactly one hanging subtree or path position
    assert all(0 <= i <= dlen for i in dec.subtree_membership)


def test_decorate_membership_additive():
    t = random_tree(40, seed=17)
    d = fe.all_pairs_distances(t)
    dec = decorate_tree(t, d)
    p = dec.diametrical_path
    for u in range(t.n):
        root = p[dec.subtree_membership[u]]
        # distance to any path vertex routes through the subtree root
        assert d[u, p[0]] == d[u, root] + d[root, p[0]]


def _relabelled_random_trees():
    rng = random.Random(10)
    for n in (2, 3, 7, 15, 31, 60):
        t = random_tree(n, seed=rng.randrange(2**32))
        perm = rng.sample(range(n), n)
        yield make_graph(n, [(perm[u], perm[v]) for u, v in t.edges])


def test_decorate_matches_definition():
    for t in itertools.chain(enumerate_free_trees(10), _relabelled_random_trees()):
        d = fe.all_pairs_distances(t)
        dec = decorate_tree(t, d)
        a = int(d[0].argmax())
        b = int(d[a].argmax())
        p = tuple(nx.shortest_path(nx.Graph(t.edges), a, b)) if t.n > 1 else (0,)
        p = min(p, p[::-1])
        foot = [min(range(len(p)), key=lambda i: d[v, p[i]]) for v in range(t.n)]
        depths = [
            max(int(d[v, p[i]]) for v in range(t.n) if foot[v] == i) for i in range(1, len(p) - 1)
        ]
        assert dec.diametrical_path == p, t.edges
        assert dec.subtree_membership == tuple(foot), t.edges
        assert dec.subtree_depths == tuple(depths), t.edges
        assert dec.ell == max(depths, default=0)


def test_decorate_rejects_inconsistent_distances():
    t = fe.path(5)
    # a matrix that is not the tree's own: its diameter disagrees with the BFS path
    with pytest.raises(fe.PreconditionError):
        decorate_tree(t, fe.all_pairs_distances(t) * 2)


def test_decorate_blames_a_bad_row_off_the_path_on_the_input():
    # rows 0 and 4 (the path's ends) pass the spot check; row 2 makes the
    # diameter disagree with the double BFS path
    t = fe.path(5)
    d = fe.all_pairs_distances(t)
    d[2, 0] = 9
    with pytest.raises(fe.PreconditionError):
        decorate_tree(t, d)


def test_decorate_rejects_cycles():
    with pytest.raises(fe.PreconditionError):
        decorate_tree(fe.cycle(4))


# ---------------------------------------------------------------------------
# closed-form difference quotients


def test_bicyclic_formula_values():
    from fractions import Fraction

    assert bicyclic_delta_formula(0) == Fraction(55, 42)
    assert bicyclic_delta_formula(67) > 0
    assert bicyclic_delta_formula(68) < 0


def test_multicyclic_formula_signs():
    for k in range(3, 11):
        assert multicyclic_delta_formula(k, 0) > 0
        assert any(multicyclic_delta_formula(k, x) < 0 for x in range(1, 200))


def test_formula_argument_validation():
    with pytest.raises(ValueError):
        bicyclic_delta_formula(-1)
    with pytest.raises(ValueError):
        multicyclic_delta_formula(2, 5)
    with pytest.raises(ValueError):
        multicyclic_delta_formula(3, -1)
