"""Fermat distances, the three eccentricity paths, oracle witnesses, pruning.

The fast paths (eps3_pruned, eps3_tree) return values only; each is checked
against eps3_oracle, which alone names a maximising pair.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fermatecc as fe
from fermatecc import (
    ConnectivityError,
    PreconditionError,
    all_pairs_distances,
    eps3_oracle,
    eps3_profile,
    eps3_pruned,
    eps3_tree,
    fermat_distance,
    fermat_vertices,
)


def test_fermat_distance_path():
    d = all_pairs_distances(fe.path(5))
    # collinear triple: the Fermat value is the outer distance
    assert fermat_distance(d, 0, 2, 4) == 4
    assert fermat_distance(d, 0, 0, 0) == 0
    assert fermat_distance(d, 0, 0, 4) == 4


def test_fermat_vertices_star():
    d = all_pairs_distances(fe.star(4))
    # three distinct spokes meet at the hub, and only there
    assert fermat_vertices(d, 1, 2, 3) == (0,)
    assert fermat_distance(d, 1, 2, 3) == 3


def test_fermat_distance_rejects_bad_vertex():
    d = all_pairs_distances(fe.path(3))
    with pytest.raises(ValueError):
        fermat_distance(d, 0, 1, 3)
    with pytest.raises(ValueError):
        fermat_vertices(d, -1, 0, 1)


def test_eps3_known_path4():
    assert eps3_oracle(fe.path(4)).eps3 == (3, 3, 3, 3)


def test_eps3_known_star5():
    assert eps3_oracle(fe.star(5)).eps3 == (2, 3, 3, 3, 3)


def test_eps3_known_cycle6():
    assert eps3_oracle(fe.cycle(6)).eps3 == (4,) * 6


def test_eps3_path_n_general():
    # on P_n every vertex can span the whole path: eps3 == n-1 everywhere
    for n in (2, 5, 9):
        assert eps3_oracle(fe.path(n)).eps3 == (n - 1,) * n


@pytest.mark.parametrize("n", range(2, 9))
def test_three_paths_agree_on_trees(n):
    for g in (g for g in fe.enumerate_free_trees(n) if g.n == n):
        d = all_pairs_distances(g)
        ref = eps3_oracle(g, d).eps3
        assert eps3_pruned(g, d).eps3 == ref
        assert eps3_tree(g, d).eps3 == ref


@pytest.mark.parametrize("n", range(3, 8))
def test_pruned_agrees_on_unicyclic(n):
    for g in (g for g in fe.enumerate_unicyclic(n) if g.n == n):
        d = all_pairs_distances(g)
        assert eps3_pruned(g, d).eps3 == eps3_oracle(g, d).eps3


def test_pruned_agrees_on_random_connected():
    for seed in range(30):
        g = fe.random_connected(20, seed=seed)
        d = all_pairs_distances(g)
        assert eps3_pruned(g, d).eps3 == eps3_oracle(g, d).eps3


def test_eps3_tree_rejects_cycles():
    with pytest.raises(PreconditionError):
        eps3_tree(fe.cycle(5))


def test_witness_validity_oracle():
    graphs = [
        fe.random_connected(15, seed=3, extra_edges=4),
        fe.random_connected(12, seed=5, extra_edges=3),
        fe.random_tree(20, seed=11),
    ]
    for g in graphs:
        d = all_pairs_distances(g)
        prof = eps3_oracle(g, d, witnesses=True)
        for u, wit in enumerate(prof.witnesses):
            v, w = wit.pair
            assert fermat_distance(d, u, v, w) == wit.value == prof.eps3[u]
            # the rule: the lexicographically smallest maximising pair, then
            # its smallest Fermat vertex
            pairs = [(a, b) for a in range(g.n) for b in range(g.n) if fermat_distance(d, u, a, b) == wit.value]
            assert wit.pair == min(pairs)
            assert wit.fermat_vertex == min(fermat_vertices(d, u, v, w))
        assert eps3_profile(g, d).eps3 == prof.eps3


def test_distinct_pairs_never_exceeds_default():
    # F(u, v, v) = d(u, v) <= F(u, v, w) for w != v, so for n >= 2 the
    # maximum over distinct pairs equals the literal maximum
    for seed in range(10):
        g = fe.random_connected(12, seed=seed)
        d = all_pairs_distances(g)
        strict = tuple(
            max(fermat_distance(d, u, v, w) for v in range(g.n) for w in range(g.n) if v != w)
            for u in range(g.n)
        )
        assert eps3_oracle(g, d).eps3 == strict
        assert eps3_pruned(g, d).eps3 == strict


def test_pruned_supplied_d_bit_identical():
    g = fe.random_connected(25, seed=9, extra_edges=6)
    d = all_pairs_distances(g)
    supplied = eps3_pruned(g, d)
    computed = eps3_pruned(g)
    assert supplied == computed


def test_pruning_beats_oracle_on_long_path():
    g = fe.path(200)
    prof = eps3_pruned(g)
    assert prof.eps3 == (199,) * 200
    # the oracle evaluates n^2/2 pairs per vertex; the bounds must do better
    assert prof.pair_evaluations < 200 * (200 * 200) // 2


def test_eps3_profile_dispatch():
    t = fe.random_tree(15, seed=2)
    assert eps3_profile(t).eps3 == eps3_oracle(t).eps3
    c = fe.cycle(9)
    assert eps3_profile(c).eps3 == eps3_oracle(c).eps3
    # non-tree graphs just below and just above the oracle's size limit;
    # only eps3_pruned counts pair evaluations
    limit = fe.fermat._ORACLE_MAX_N
    for n in (limit - 1, limit, limit + 1, limit + 2):
        for seed in range(5):
            g = fe.random_connected(n, seed=seed, extra_edges=1 + seed)
            d = all_pairs_distances(g)
            prof = eps3_profile(g, d)
            assert prof.eps3 == eps3_oracle(g, d).eps3
            assert (prof.pair_evaluations is None) == (n <= limit)


@pytest.mark.parametrize("n", range(4, 8))
def test_pruned_agrees_on_bicyclic(n):
    for g in (g for g in fe.enumerate_bicyclic(n) if g.n == n):
        d = all_pairs_distances(g)
        assert eps3_pruned(g, d).eps3 == eps3_oracle(g, d).eps3, fe.to_graph6(g)


def test_pruned_agrees_on_named_multicyclic():
    graphs = [fe.dumbbell(c1, c2, b, p1, p2) for c1, c2, b, p1, p2 in
              [(3, 3, 0, 0, 0), (3, 4, 1, 0, 0), (4, 5, 2, 1, 0), (3, 6, 3, 2, 2)]]
    graphs += [fe.theta(a, b, c) for a, b, c in [(1, 2, 2), (2, 2, 2), (2, 3, 5), (1, 4, 6)]]
    graphs += [fe.two_cycles_with_tail(c1, c2, b, t) for c1, c2, b, t in
               [(3, 3, 2, 0), (3, 4, 2, 3), (4, 4, 4, 2), (5, 3, 6, 5)]]
    for g in graphs:
        d = all_pairs_distances(g)
        assert eps3_pruned(g, d).eps3 == eps3_oracle(g, d).eps3, fe.to_graph6(g)


def _relabel(g, perm):
    """g with vertex v renamed perm[v]."""
    return fe.make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _spider(legs, leg_len, ring=0):
    """legs paths of leg_len vertices hanging from vertex 0, and a ring-cycle through 0 if ring."""
    edges = [(i, (i + 1) % ring) for i in range(ring)]
    n = max(ring, 1)
    for _ in range(legs):
        edges += [(0 if i == 0 else n + i - 1, n + i) for i in range(leg_len)]
        n += leg_len
    return fe.make_graph(n, edges)


@pytest.mark.parametrize(
    "legs, leg_len, ring",
    # eps3 rises by one per step out along a spider's leg, so all leg
    # vertices but a few next to vertex 0 take the cap exit.  A tadpole
    # (one leg on a ring) keeps eps3 level along its tail, so there the
    # parent's pair falls short of the cap and the bound pass runs.
    # A triangle with a tail of 41 has diameter 42, the largest whose
    # sums fit in int8, and one of 42 takes int16; with a tail of 80,
    # int8 sums would wrap and give wrong values
    [(3, 20, 0), (3, 20, 5), (4, 7, 4), (1, 30, 5), (1, 30, 6), (1, 41, 3), (1, 42, 3), (1, 80, 3)],
)
def test_pruned_agrees_on_spiders_and_tadpoles(legs, leg_len, ring):
    g = _spider(legs, leg_len, ring)
    d = all_pairs_distances(g)
    assert eps3_pruned(g, d).eps3 == eps3_oracle(g, d).eps3
    # again with the last leg's end as vertex 0, a far leaf that is no
    # centre, so the BFS does not start where vertex 0 is
    perm = list(range(g.n))
    perm[0], perm[-1] = perm[-1], perm[0]
    g = _relabel(g, perm)
    d = all_pairs_distances(g)
    assert g.degree(0) == 1 and d[0].max() > d.max(axis=1).min()
    assert eps3_pruned(g, d).eps3 == eps3_oracle(g, d).eps3


def _random_connected_upto_12():
    for seed in range(120):
        yield fe.random_connected(2 + seed % 11, seed=seed, extra_edges=seed % 13)


@pytest.mark.parametrize(
    "graphs",
    [pytest.param(lambda: fe.enumerate_unicyclic(8), id="unicyclic-8"),
     pytest.param(lambda: fe.enumerate_bicyclic(7), id="bicyclic-7"),
     pytest.param(_random_connected_upto_12, id="random-12")],
)
def test_reach_bounds_every_triple(graphs):
    # lemma C: routing the triple through v gives F(u, v, w) <= d(u, v) +
    # d(v, w) <= ecc(v) + d(v, w), and the same through w, for every u
    for g in graphs():
        d = all_pairs_distances(g)
        ecc = d.max(axis=1)
        f = (d[:, :, None, None] + d[:, None, :, None] + d[:, None, None, :]).min(axis=0)
        assert (f <= d + np.minimum.outer(ecc, ecc)).all(), fe.to_graph6(g)


@pytest.mark.parametrize("seed", range(6))
def test_pruned_is_invariant_under_relabelling(seed):
    # the BFS root is the centre vertex of smallest id, so relabelling
    # moves it; the values must follow the labels and nothing else.
    # Cycles, where every vertex is a centre, and tadpoles are included
    rng = np.random.default_rng(seed)
    graphs = [
        fe.random_connected(21 + 3 * seed, seed=seed, extra_edges=seed),
        _cored_trees(5 + seed, 24 + seed, seed),
        fe.cycle(21 + seed),
        _spider(1, 18 + seed, 3 + seed),
    ]
    for g in graphs:
        eps = eps3_pruned(g).eps3
        perm = rng.permutation(g.n).tolist()
        moved = eps3_pruned(_relabel(g, perm)).eps3
        assert tuple(moved[perm[v]] for v in range(g.n)) == eps, fe.to_graph6(g)


def _cored_trees(k, n, seed):
    """A dense random core on k vertices with random trees hung on it, n vertices in all."""
    core = fe.random_connected(k, seed=seed, extra_edges=k * (k - 1) // 4)
    rng = np.random.default_rng(seed)
    return fe.make_graph(n, [*core.edges, *((int(rng.integers(v)), v) for v in range(k, n))])


def _above_cutoff():
    """Graphs above the oracle's size limit that shrink each axis of eps3_pruned."""
    for ring, tail in [(3, 26), (4, 25), (5, 31), (8, 32)]:
        yield pytest.param(_spider(1, tail, ring), id=f"tadpole-{ring}-{tail}")
    for n in (29, 30, 33, 40):
        yield pytest.param(fe.cycle(n), id=f"cycle-{n}")  # no hub at all
    for seed, (k, n) in enumerate([(6, 29), (8, 30), (10, 40), (7, 36)]):
        yield pytest.param(_cored_trees(k, n, seed), id=f"cored-{k}-{n}")


@pytest.mark.parametrize("g", _above_cutoff())
def test_pruned_agrees_above_the_oracle_cutoff(g):
    assert fe.fermat._ORACLE_MAX_N < g.n <= 40
    d = all_pairs_distances(g)
    prof = eps3_profile(g, d)
    assert prof.pair_evaluations is not None  # the pruned path ran
    assert prof.eps3 == eps3_oracle(g, d).eps3, fe.to_graph6(g)


def _level_walk_shapes():
    """Non-trees above the oracle's size limit that shape eps3_pruned's BFS levels."""
    # wide levels: 40 legs of two vertices on vertex 0 with 3 chords between
    # leg tips (levels of 40 vertices), and K_{2,40}
    spider = _spider(40, 2)
    yield pytest.param(fe.make_graph(spider.n, [*spider.edges, (2, 4), (6, 8), (10, 12)]), id="spider-40-legs")
    yield pytest.param(fe.make_graph(42, [(h, v) for h in (0, 1) for v in range(2, 42)]), id="k-2-40")
    # one or two vertices per level: a path with a chord under a random
    # relabelling (tadpoles above the limit are in the spider and tadpole test)
    path_chord = fe.make_graph(40, [*((i, i + 1) for i in range(39)), (10, 13)])
    yield pytest.param(_relabel(path_chord, np.random.default_rng(0).permutation(40).tolist()), id="path-chord")
    # a centre tied with every other vertex: theta(10, 10, 10), whose
    # vertices all have eccentricity 10, as labelled and relabelled
    theta = fe.theta(10, 10, 10)
    yield pytest.param(theta, id="theta-10-10-10")
    yield pytest.param(_relabel(theta, np.random.default_rng(1).permutation(theta.n).tolist()), id="theta-relabelled")
    # a long cycle: eps3 is level, so the first gather reaches no cap, the
    # second never runs and every vertex runs a bound pass
    yield pytest.param(fe.cycle(120), id="cycle-120")


@pytest.mark.parametrize("g", _level_walk_shapes())
def test_level_walk_agrees_with_the_oracle(g):
    assert g.m >= g.n and g.n > fe.fermat._ORACLE_MAX_N
    d = all_pairs_distances(g)
    prof = eps3_profile(g, d)
    assert prof.pair_evaluations is not None  # the pruned path ran
    assert prof.eps3 == eps3_oracle(g, d).eps3, fe.to_graph6(g)


def test_pruned_pair_evaluations_on_the_benchmark_graph(monkeypatch):
    # perfbench's compute_large graph, relabelling 0: 400 vertices, 439
    # edges.  Each pair evaluated exactly counts, in the first gather, the
    # second and the bound passes; a change to the level walk that changes
    # this figure changes what the benchmark's pair_evaluations reads
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from workloads import build_graph

    g = fe.make_graph(400, build_graph(400, 40, 0))
    assert eps3_pruned(g).pair_evaluations == 2241


@pytest.mark.parametrize("seed", [1, 7, 90])
def test_pruned_agrees_on_the_benchmark_structure(seed, monkeypatch):
    # perfbench's compute_large graph at n = 60: one random spanning tree
    # with 8 chords, relabelled by the seed
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from workloads import build_graph

    g = fe.make_graph(60, build_graph(60, 8, seed))
    d = all_pairs_distances(g)
    ends, hubs = fe.fermat._pair_ends_and_hubs(g)
    assert len(ends) < g.n and len(hubs) < g.n  # both axes shrink
    assert eps3_pruned(g, d).eps3 == eps3_oracle(g, d).eps3


@pytest.mark.parametrize("block", [1, 3])
def test_pruned_agrees_with_small_blocks(block, monkeypatch):
    # graphs this small rarely leave more than one block of open pairs;
    # shrinking the block runs the later blocks and the re-filtering
    monkeypatch.setattr(fe.fermat, "_BLOCK", block)
    # at seeds 878 and 953 some vertex's eps3 is reached only by a pair
    # whose upper bound is one above the running maximum when a block
    # raises it, so the re-filter must keep pairs with ub == best + 1
    for seed in [*range(100), 878, 953]:
        g = fe.random_connected(5 + seed % 20, seed=seed, extra_edges=seed % 9)
        d = all_pairs_distances(g)
        assert eps3_pruned(g, d).eps3 == eps3_oracle(g, d).eps3, seed


@pytest.mark.parametrize("table", [1, 1000])
def test_pruned_gather_tables_change_nothing(table, monkeypatch):
    # the second gather cuts its open vertices into tables of at most
    # _TABLE entries, at least one vertex each: a table of 1 takes one
    # vertex at a time, and 1000 a few.  Values and evaluations must not
    # depend on the cut
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from workloads import build_graph

    graphs = [fe.make_graph(60, build_graph(60, 8, seed)) for seed in (1, 7, 90)]
    graphs += [param.values[0] for param in _level_walk_shapes()]
    for g in graphs:
        d = all_pairs_distances(g)
        whole = eps3_pruned(g, d)
        with monkeypatch.context() as m:
            m.setattr(fe.fermat, "_TABLE", table)
            assert eps3_pruned(g, d) == whole, fe.to_graph6(g)


@pytest.mark.parametrize("landmarks", [1, 1000])
def test_pruned_agrees_with_any_landmark_count(landmarks, monkeypatch):
    # one landmark gives the loosest bound, and 1000 is above every hub
    # count here, so all hubs are landmarks; cycles have no hub at all
    monkeypatch.setattr(fe.fermat, "_LANDMARKS", landmarks)
    graphs = [fe.random_connected(5 + seed % 30, seed=seed, extra_edges=seed % 9) for seed in range(100)]
    graphs += [fe.cycle(n) for n in (5, 12, 21, 30)]
    graphs += [_spider(1, 20, 4), _spider(3, 8, 5), _cored_trees(8, 34, 2)]
    for g in graphs:
        d = all_pairs_distances(g)
        assert eps3_pruned(g, d).eps3 == eps3_oracle(g, d).eps3, fe.to_graph6(g)


@pytest.mark.parametrize("top, dtype", [(127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32)])
def test_sum_dtype_is_the_narrowest_that_holds_top(top, dtype):
    # top = 3 diam + 1: diameters 42 and 10922 are the last of int8 and
    # int16.  At diameter 43 no exact sum on a tadpole reaches 128, so only
    # this test shows a limit that is one too high
    assert fe.fermat._sum_dtype(top) is dtype


@pytest.mark.parametrize("sources", [1, 3])
def test_oracle_agrees_with_small_source_blocks(sources, monkeypatch):
    # values and witnesses must not depend on how the work is blocked;
    # with P = n(n+1)/2 pairs, a table of n^2 P entries takes the sorted
    # triples in a few blocks of c, and one of k * n P entries, k the
    # sources a table once held, cuts them into as many blocks as that
    # allows, down to one c each
    graphs = [fe.random_connected(2 + seed % 19, seed=seed, extra_edges=seed % 5) for seed in range(40)]
    graphs += [fe.path(2), fe.random_tree(17, seed=1)]
    for g in graphs:
        pairs = g.n * (g.n + 1) // 2
        monkeypatch.setattr(fe.fermat, "_TABLE", g.n**2 * pairs)
        whole = eps3_oracle(g, witnesses=True)  # one block
        monkeypatch.setattr(fe.fermat, "_TABLE", sources * g.n * pairs)
        assert eps3_oracle(g, witnesses=True) == whole, fe.to_graph6(g)


def test_oracle_stack_blocks_agree_with_single_graphs(monkeypatch):
    # five graphs with equal n and m, two whole graphs per block (their
    # pair sums take n P entries each): blocks of 2, 2 and 1 must give
    # each graph's own values and witnesses
    graphs = [fe.random_connected(9, seed=seed, extra_edges=3) for seed in range(5)]
    d = np.stack([all_pairs_distances(g) for g in graphs])
    singles = [fe.fermat._oracle_eps3(dg[None], witnesses=True) for dg in d]
    monkeypatch.setattr(fe.fermat, "_TABLE", 2 * 9 * (9 * 10 // 2))
    eps, arg = fe.fermat._oracle_eps3(d, witnesses=True)
    assert eps.tolist() == [e[0].tolist() for e, _ in singles]
    assert arg.tolist() == [a[0].tolist() for _, a in singles]


def _ordered_triple_eps3(d):
    """eps3 and the row-major index v * n + w of the first maximising
    ordered pair (v, w) of each vertex, for a (K, n, n) distance stack,
    from the Fermat distance of every ordered triple, graph by graph."""
    k, n = d.shape[:2]
    eps, arg = np.empty((k, n), dtype=np.int64), np.empty((k, n), dtype=np.intp)
    for j, dj in enumerate(d.astype(np.int64)):
        f = (dj[:, :, None, None] + dj[:, None, :, None] + dj[:, None, None, :]).min(axis=0)  # f[u, v, w]
        eps[j], arg[j] = f.reshape(n, n * n).max(axis=1), f.reshape(n, n * n).argmax(axis=1)
    return eps, arg


@pytest.mark.parametrize("table", [None, 3000], ids=["table", "small-table"])
@pytest.mark.parametrize("cyclomatic, max_n", [(1, 11), (2, 10)])
def test_stacked_oracle_matches_every_ordered_triple(monkeypatch, cyclomatic, max_n, table):
    # every enumerated chunk as the sweeps analyse it: the closure's
    # graph-innermost distance stack, whole.  A table of 3000 entries cuts
    # the chunks to 24 graphs at n = 11, the graphs into blocks of 4 and
    # the triples into many blocks of c
    if table:
        monkeypatch.setattr(fe.fermat, "_TABLE", table)
    for n, edges in fe.generators.cyclic_chunks(cyclomatic, max_n):
        d = fe.graph.distance_stack(edges, n)
        eps, arg = fe.fermat._oracle_eps3(d, witnesses=True)
        want_eps, want_arg = _ordered_triple_eps3(d)
        assert np.array_equal(eps, want_eps) and np.array_equal(arg, want_arg), n
        assert np.array_equal(fe.fermat.eps3_stack(edges, d), eps)


def _brute_force_profile(g):
    """eps3 and witnesses from one fermat_distance call per ordered triple."""
    d = all_pairs_distances(g)
    rows = d.tolist()
    eps, witnesses = [], []
    for u in range(g.n):
        best, pair = -1, None
        for v in range(g.n):
            for w in range(g.n):
                f = fermat_distance(d, u, v, w)
                if f > best:  # strictly: the first maximising pair is the least
                    best, pair = f, (v, w)
        v, w = pair
        s = next(s for s in range(g.n) if rows[s][u] + rows[s][v] + rows[s][w] == best)
        eps.append(best)
        witnesses.append(fe.FermatWitness(pair=pair, fermat_vertex=s, value=best))
    return fe.FermatProfile(eps3=tuple(eps), witnesses=tuple(witnesses))


_BRUTE_FORCE_CASES = {
    # every class with n <= 7, where ties between pairs are common
    "unicyclic": lambda: fe.enumerate_unicyclic(7),
    "bicyclic": lambda: fe.enumerate_bicyclic(7),
    # diameters 42 and 43: the oracle's last int8 sums (3 * 42 <= 127) and
    # its first int16 ones.  On the 44-vertex path int8 would wrap only
    # sums of triples that maximise nothing, so the type's limit itself is
    # pinned by test_sum_dtype_is_the_narrowest_that_holds_top
    "path-43": lambda: [fe.path(43)],
    "path-44": lambda: [fe.path(44)],
}


@pytest.mark.parametrize("case", list(_BRUTE_FORCE_CASES))
def test_oracle_matches_per_triple_brute_force(case):
    for g in _BRUTE_FORCE_CASES[case]():
        assert eps3_oracle(g, witnesses=True) == _brute_force_profile(g), fe.to_graph6(g)


@pytest.mark.parametrize("n", [40, 100])
def test_oracle_table_stays_within_budget(n):
    # with P = n(n+1)/2 pairs, a block of 16 sources would take 16 n P
    # entries (0.5 MB at n = 40, 8 MB at n = 100 in int8); the block
    # shrinks to fit _TABLE, and to one source's n P entries where even
    # one does not fit.  The table sits beside the pair sums, n P entries
    # per graph, and the pair index arrays
    g = fe.random_connected(n, seed=n, extra_edges=4)
    d = all_pairs_distances(g)
    itemsize = np.dtype(fe.fermat._sum_dtype(3 * int(d.max()))).itemsize
    tracemalloc.start()
    try:
        eps3_oracle(g, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * itemsize * max(fe.fermat._TABLE, n * n * (n + 1) // 2)


def test_pruned_tiny_graphs():
    one = fe.make_graph(1, [])
    two = fe.path(2)
    for g in (one, two):
        assert eps3_pruned(g).eps3 == eps3_oracle(g).eps3
    # one vertex has no distinct pair; its only pair is (0, 0)
    assert eps3_oracle(one, witnesses=True).witnesses[0].pair == (0, 0)


def test_pruned_pair_evaluations_repeat_exactly():
    g = fe.random_connected(60, seed=4, extra_edges=12)
    d = all_pairs_distances(g)
    first = eps3_pruned(g, d)
    second = eps3_pruned(g, d)
    assert first.pair_evaluations == second.pair_evaluations
    assert first.pair_evaluations > 0


def test_pruned_rejects_disconnected_graph():
    g = fe.make_graph(4, [(0, 1), (2, 3)], strict=False)
    with pytest.raises(ConnectivityError):
        eps3_pruned(g, all_pairs_distances(fe.path(4)))
    # two triangles, one with a pendant: not a tree, so eps3_profile takes
    # the oracle, which must reject it too
    g = fe.make_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (5, 6)], strict=False)
    for path in (eps3_oracle, eps3_profile):
        with pytest.raises(ConnectivityError):
            path(g, all_pairs_distances(fe.path(7)))


def test_pruned_rejects_another_graphs_d():
    # unchecked, path(8)'s matrix gave cycle(6) eps3 (5,) * 6, not (4,) * 6
    with pytest.raises(PreconditionError, match=r"of shape \(6, 6\), got \(8, 8\)"):
        eps3_pruned(fe.cycle(6), all_pairs_distances(fe.path(8)))


# ---------------------------------------------------------------------------
# the tree kernel on the sweep ends' rows, read off the narrow
# graph-innermost table the parent recurrence fills


def _far_vertex_eps3(d):
    """The far-vertex tree kernel, the reference for the two sweep ends'
    rows: per vertex u, its first farthest vertex f and the perimeters
    through f."""
    far = d.argmax(axis=2)
    perims = d[np.arange(len(d))[:, None], far]
    perims += d
    perims += np.take_along_axis(d, far[:, :, None], axis=2)
    return perims.max(axis=2) // 2


def _parent_ordered(g):
    """g relabelled by BFS from 0, so that every vertex but 0 has one smaller neighbour."""
    order, parent = fe.graph.bfs_tree(g)
    label = {v: i for i, v in enumerate(order)}
    return fe.make_graph(g.n, [(label[parent[v]], label[v]) for v in order[1:]])


def test_tree_kernel_equals_the_oracle_on_every_tree_to_14():
    for n, edges in fe.generators.free_tree_chunks(14, 2):
        d = fe.graph._tree_stack(edges, n)
        wide = d.astype(np.int64)
        eps = fe.fermat._tree_eps3(d)
        assert np.array_equal(eps, fe.fermat._oracle_eps3(wide)[0]), n
        assert np.array_equal(eps, _far_vertex_eps3(wide)), n
        # the index stack reads the same table, and its ends
        assert np.array_equal(fe.indices.index_stack(edges, n).eps3, eps), n


@pytest.mark.parametrize("seed", range(6))
def test_tree_kernel_equals_the_far_vertex_kernel_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    for n in (*rng.integers(2, 60, size=4).tolist(), 150, 300):
        g = _parent_ordered(fe.random_tree(n, seed=seed * 1000 + n))
        edges = fe.graph.edge_stack([g])
        d = fe.graph._tree_stack(edges, n)
        assert d is not None, n
        wide = all_pairs_distances(g)[None]
        assert np.array_equal(d, wide), n
        eps = fe.fermat._tree_eps3(d)
        assert np.array_equal(eps, _far_vertex_eps3(wide)), n
        if n <= 40:
            assert np.array_equal(eps, fe.fermat._oracle_eps3(wide)[0]), n


@pytest.mark.parametrize("n, dtype", [(42, np.int8), (43, np.int8), (44, np.int16), (130, np.int16)])
def test_tree_table_is_the_narrowest_type_at_its_boundary(n, dtype):
    # every eps3 sum d(u, x) + d(x, w) + d(u, w) is at most 3 (n - 1): 126
    # at n = 43, the last int8 size, and on a path it is reached.  A path
    # and a stack of random trees against the int32 distances
    graphs = [fe.path(n)] if n == 130 else [_parent_ordered(fe.random_tree(n, seed=s)) for s in range(5)]
    graphs.append(fe.path(n))
    for g in graphs:
        edges = fe.graph.edge_stack([g])
        d = fe.graph._tree_stack(edges, n)
        assert d.dtype == dtype
        wide = fe.graph.distance_stack(edges, n)
        assert wide.dtype == np.int32 and np.array_equal(d, wide)
        assert np.array_equal(fe.fermat._tree_eps3(d), _far_vertex_eps3(wide))
        assert fe.full_report(g).eps3 == tuple(_far_vertex_eps3(wide)[0].tolist())


def test_tree_kernel_takes_a_callers_c_order_d():
    for g in (fe.path(9), fe.star(7), fe.random_tree(30, seed=5), fe.random_tree(50, seed=6)):
        d = all_pairs_distances(g)
        assert d.flags.c_contiguous
        assert eps3_tree(g, d).eps3 == eps3_oracle(g).eps3 == eps3_tree(g).eps3
        assert eps3_tree(g, d.tolist()).eps3 == eps3_oracle(g).eps3
    # a C-order stack of several trees
    trees = [fe.random_tree(20, seed=s) for s in range(4)]
    d = np.stack([all_pairs_distances(t) for t in trees])
    assert np.array_equal(fe.fermat._tree_eps3(d), _far_vertex_eps3(d))
