"""Graph families, random generators, exhaustive enumerators, formulas.

Each enumerator streams one graph per isomorphism class on every vertex
count in a range, in increasing n, built from one cache of rooted trees.
A free tree is planted at its centroid: a forest of small rooted trees
under one root, or two rooted trees of half its size joined at their
roots.  Unicyclic and bicyclic classes are built from their 2-core (a
cycle, a theta or a dumbbell) with a rooted tree hung on each core
vertex, one labelling per orbit of the core's automorphism group.  So
each class is produced once and no isomorphism key or dedup is needed.

A core of cyclomatic number 1 or 2 is a subdivided kernel: a loop, three
parallel edges, or two loops joined by an edge or sharing their vertex.
Its group follows from that shape and is written in closed form: a
cycle's rotations and reflections; a theta's permutations of equal-length
arms times the hub swap; a dumbbell's flip of each cycle times, for equal
cycles, their swap.  A core is built when a level first reaches it, as
(k, flat sorted edge tuple, group), from the same edge helpers as the
public cycle, theta and dumbbell, so the labels are theirs.  Its edges
are valid by construction and only their flat tuple is used, so no Graph
is built: make_graph's checks, connectivity BFS and adjacency would be
spent on nothing.

The stream's own form is (n, edges) chunks, free_tree_chunks and
cyclic_chunks: edges is a (K, m, 2) int array of at most
max(1, fermat._TABLE // n^2) classes of one level, each row a graph's
sorted edge list.  Rooted trees are cached as flat int tuples, already
shifted to where a branch or a hung tree sits, so a class is a
concatenation of cached tuples, and a chunk is one flat list turned into
an array and sorted row by row in numpy.  Every free tree is numbered
in preorder from the root 0, so each vertex v >= 1 has exactly one
smaller neighbour, its parent; graph.distance_stack relies on that
parent order to compute a tree chunk's distances without a BFS, and the
tests pin it.  No Graph is built;
enumerate_free_trees, enumerate_unicyclic and enumerate_bicyclic turn
the rows into Graphs for callers that want them.

The two closed-form difference quotients for the multicyclic
counterexample families are evaluated in exact rational arithmetic; only
their signs are checked, and no graph here realises them yet.
"""

import random
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, combinations_with_replacement, islice, permutations, product
from numbers import Rational
from operator import itemgetter, sub
from typing import Iterator, NamedTuple

import numpy as np

from . import fermat
from .errors import InternalError, PreconditionError
from .graph import (
    Graph,
    GraphKind,
    all_pairs_distances,
    bfs_distances,
    classify,
    distance_matrix,
    eccentricities,
    edge_stack,
    make_graph,
    row_graph,
)


# ---------------------------------------------------------------------------
# canonical families


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return make_graph(n, _walk_edges([[*range(n), 0]]))


def star(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    return make_graph(n, [(0, i) for i in range(1, n)])


def _walk_edges(walks) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, between consecutive vertices of each walk."""
    return [(u, v) if u < v else (v, u) for w in walks for u, v in zip(w, w[1:])]


def theta(a: int, b: int, c: int) -> Graph:
    """Two hub vertices joined by three internally disjoint paths.

    a, b, c are the path lengths in edges; at most one may be 1 or the
    graph would not be simple.
    """
    lengths = sorted((a, b, c))
    if lengths[0] < 1 or lengths[1] < 2:
        raise ValueError(f"invalid theta path lengths ({a}, {b}, {c})")
    return make_graph(a + b + c - 1, _walk_edges(_theta_walks(a, b, c)))


def _theta_walks(a: int, b: int, c: int) -> list[list[int]]:
    """The three paths of theta(a, b, c), each from hub 0 to hub 1, their
    inner vertices numbered on from 2."""
    walks, nxt = [], 2
    for length in (a, b, c):
        walks.append([0, *range(nxt, nxt + length - 1), 1])
        nxt += length - 1
    return walks


def _two_cycles(c1: int, c2: int, bridge: int, pendants) -> Graph:
    """The two cycles and bridge of _dumbbell_walks, then for each
    (base, length) of pendants a path of length edges off base, numbered
    on from there."""
    edges = _walk_edges(_dumbbell_walks(c1, c2, bridge))
    nxt = c1 + bridge + c2 - 1
    for prev, length in pendants:
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return make_graph(nxt, edges)


def _dumbbell_walks(c1: int, c2: int, bridge: int) -> list[list[int]]:
    """The cycle 0..c1-1, the bridge path 0, c1, .., c1 + bridge - 1, and
    the second cycle from the bridge's last vertex through the next c2 - 1
    labels; each cycle a closed walk from its attachment vertex."""
    path = [0, *range(c1, c1 + bridge)]
    hub = path[-1]
    return [[*range(c1), 0], path, [hub, *range(c1 + bridge, c1 + bridge + c2 - 1), hub]]


def dumbbell(c1: int, c2: int, bridge: int, pendant1: int = 0, pendant2: int = 0) -> Graph:
    """Two cycles joined by a bridge path, optional pendant paths.

    bridge counts edges between the two attachment vertices (0 makes the
    cycles share a vertex).  Pendant paths hang off the cycle vertex
    opposite each attachment point.
    """
    if c1 < 3 or c2 < 3 or bridge < 0 or pendant1 < 0 or pendant2 < 0:
        raise ValueError("invalid dumbbell parameters")
    # the second cycle's vertex c2 // 2 steps round from its attachment
    opposite2 = c1 + bridge + c2 // 2 - 1
    return _two_cycles(c1, c2, bridge, ((c1 // 2, pendant1), (opposite2, pendant2)))


def two_cycles_with_tail(c1: int, c2: int, bridge: int, tail: int) -> Graph:
    """Two cycles joined by a bridge path with a pendant path at its midpoint.

    bridge must be >= 2 so the midpoint is an interior bridge vertex.
    """
    if c1 < 3 or c2 < 3 or bridge < 2 or tail < 0:
        raise ValueError("invalid two_cycles_with_tail parameters")
    # the bridge's vertex bridge // 2 steps from 0
    return _two_cycles(c1, c2, bridge, ((c1 + bridge // 2 - 1, tail),))


# ---------------------------------------------------------------------------
# random generators (explicit seeds, never ambient randomness)


def _prufer_decode(seq: list[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [u for u in range(n) if degree[u] == 1]
    heapify(leaves)
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    u = heappop(leaves)
    v = heappop(leaves)
    edges.append((u, v))
    return edges


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A uniform random labeled tree on n >= 1 vertices, decoded from a
    Pruefer sequence of n - 2 draws from rng."""
    if n == 1:
        return []
    return _prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via a random Pruefer sequence."""
    if n < 1:
        raise ValueError(f"random_tree needs n >= 1, got {n}")
    return make_graph(n, _random_tree_edges(n, random.Random(seed)))


def random_unicyclic(n: int, girth: int, seed: int) -> Graph:
    """A girth-g cycle with random trees attached at its vertices."""
    if not 3 <= girth <= n:
        raise ValueError(f"need 3 <= girth <= n, got girth={girth}, n={n}")
    rng = random.Random(seed)
    edges = [(i, (i + 1) % girth) for i in range(girth)]
    for v in range(girth, n):
        edges.append((rng.randrange(v), v))
    return make_graph(n, edges)


def random_connected(n: int, seed: int, extra_edges: int | None = None) -> Graph:
    """Random connected graph: random tree plus random extra non-edges."""
    if n < 1:
        raise ValueError(f"random_connected needs n >= 1, got {n}")
    rng = random.Random(seed)
    edges = set(tuple(sorted(e)) for e in _random_tree_edges(n, rng))
    max_extra = n * (n - 1) // 2 - len(edges)
    if extra_edges is None:
        extra_edges = rng.randint(0, min(n, max_extra))
    extra_edges = min(extra_edges, max_extra)
    while extra_edges > 0:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in edges:
            continue
        edges.add(e)
        extra_edges -= 1
    return make_graph(n, sorted(edges))


# ---------------------------------------------------------------------------
# enumeration: trees planted at their centroid, cyclic classes as rooted
# trees hung on a 2-core, streamed as edge-array chunks


@lru_cache(maxsize=None)
def _rooted_trees(size: int) -> tuple[tuple[int, ...], ...]:
    """The rooted trees on size vertices, one per class (A000081).

    Each is a flat edge tuple (p, c, p, c, ...) of (parent, child) pairs,
    with the root 0 and the other vertices numbered 1..size-1 in
    preorder.  Class (s, i) is entry i of size s; a class is its root's
    multiset of child classes, listed as a nonincreasing tuple of (s, i)
    keys.  Sizes are built on first use, each from the smaller ones; free
    trees on n vertices need sizes up to n // 2, the trees hung on a
    2-core up to n - 2.
    """
    # (size, 0) bounds no key of a smaller size
    return tuple(_forests(size - 1, (size, 0), 1))


@lru_cache(maxsize=None)
def _branches(size: int, off: int) -> tuple[tuple[int, ...], ...]:
    """Each rooted tree on size vertices as a branch of the root 0: the
    edge (0, off) and the tree with its vertices shifted by off."""
    return tuple((0, off, *(x + off for x in tree)) for tree in _rooted_trees(size))


def _forests(total: int, largest: tuple[int, int], off: int) -> Iterator[tuple[int, ...]]:
    """Flat edge tuples of the forests planted under the root 0, their
    vertices numbered in preorder from off: nonincreasing tuples of
    rooted-tree keys, none above largest, with sizes summing to total."""
    if largest[0] == 1 or total == 0:  # leaves only: one forest
        yield _leaves(total, off)
        return
    for s in range(min(total, largest[0]), 0, -1):
        branches = _branches(s, off)
        top = largest[1] if s == largest[0] else len(_rooted_trees(s)) - 1
        for i in range(top, -1, -1):
            if s == total:
                yield branches[i]
            else:
                head = branches[i]
                for rest in _forests(total - s, (s, i), off + s):
                    yield head + rest


@lru_cache(maxsize=None)
def _leaves(count: int, off: int) -> tuple[int, ...]:
    """count leaves off..off+count-1 under the root 0, as a flat edge tuple."""
    return tuple(chain.from_iterable((0, x) for x in range(off, off + count)))


def _free_trees(n: int) -> Iterator[tuple[int, ...]]:
    """One flat edge tuple per tree class on n vertices.

    By Jordan's centroid theorem a tree on n vertices either has one
    centroid, a vertex whose branches all have at most (n - 1) // 2
    vertices, or two adjacent centroids, whose edge splits it into two
    rooted trees on n / 2 vertices.  So each class is exactly one of: a
    forest of rooted trees on at most (n - 1) // 2 vertices each,
    planted under the root 0; or, for even n, an unordered pair of
    rooted trees on n / 2 vertices with their roots 0 and n / 2 joined.
    Every class comes out once and no dedup runs; a level needs no
    smaller level, only the rooted trees on at most n / 2 vertices.
    """
    h = (n - 1) // 2
    # for n <= 2 the bound (0, -1) admits no branch
    yield from _forests(n - 1, (h, len(_rooted_trees(h)) - 1), 1)
    if n % 2 == 0:
        h = n // 2
        halves, uppers = _rooted_trees(h), _branches(h, h)
        for i, j in combinations_with_replacement(range(len(halves)), 2):
            yield halves[i] + uppers[j]


# A core is (k, flat sorted edge tuple, group): its vertex count, its
# edges as (u, v, u, v, ...) with u < v, and every automorphism but the
# identity, each a tuple perm with perm[v] the image of v.  Each builder
# below lists the identity first and drops it.
Core = tuple[int, tuple[int, ...], list[tuple[int, ...]]]


def _flat_edges(walks) -> tuple[int, ...]:
    """The walks' edges (u, v), u < v, sorted, as one flat tuple."""
    return tuple(chain.from_iterable(sorted(_walk_edges(walks))))


def _permutation(k: int, maps) -> tuple[int, ...]:
    """The permutation of 0..k-1 that sends each vertex of a list in maps
    to the vertex at the same place in its partner list, and fixes the
    rest."""
    perm = list(range(k))
    for src, dst in maps:
        for x, y in zip(src, dst):
            perm[x] = y
    return tuple(perm)


def _cycle_core(g: int) -> Core:
    """C_g as cycle(g) labels it; its group is the g rotations and the g
    reflections."""
    group = [tuple((r + s * v) % g for v in range(g)) for r in range(g) for s in (1, -1)]
    return g, _flat_edges([[*range(g), 0]]), group[1:]


def _theta_core(a: int, b: int, c: int) -> Core:
    """theta(a, b, c) as theta labels it.  Its hubs 0 and 1 are the only
    vertices of degree 3, so an automorphism maps arms onto arms of equal
    length: its group is the permutations of equal-length arms, times
    the hub swap, which reverses every arm."""
    arms = _theta_walks(a, b, c)
    k = a + b + c - 1
    group = []
    for order in permutations(range(3)):  # arm i goes onto arm order[i]
        if all(len(arms[i]) == len(arms[j]) for i, j in enumerate(order)):
            group.append(_permutation(k, zip(arms, [arms[j] for j in order])))
            group.append(_permutation(k, zip(arms, [arms[j][::-1] for j in order])))
    return k, _flat_edges(arms), group[1:]


def _dumbbell_core(p: int, q: int, bridge: int) -> Core:
    """dumbbell(p, q, bridge) as dumbbell labels it.  An automorphism
    keeps the bridge, so it maps each cycle onto a cycle of the same
    length, hub onto hub (a figure-eight, bridge 0, has one hub): its
    group is a flip of each cycle about its hub, times, when p == q, the
    swap of the two cycles that also reverses the bridge."""
    walks = loop1, path, loop2 = _dumbbell_walks(p, q, bridge)
    k = p + bridge + q - 1
    group = []
    # a cycle's closed walk read backwards is its flip about the hub
    for flip1 in (loop1, loop1[::-1]):
        for flip2 in (loop2, loop2[::-1]):
            group.append(_permutation(k, [(loop1, flip1), (loop2, flip2)]))
            if p == q:
                group.append(_permutation(k, [(loop1, flip2), (loop2, flip1), (path, path[::-1])]))
    return k, _flat_edges(walks), group[1:]


@lru_cache(maxsize=None)
def _core(build, *params) -> Core:
    return build(*params)


def _cores(cyclomatic: int, max_k: int) -> list[Core]:
    """Each 2-core of cyclomatic number 1 or 2 on at most max_k vertices,
    built on its first use.

    The cores are the cycles C_g, the thetas theta(a, b, c) with a <= b <= c,
    a >= 1, b >= 2, and the dumbbells C_p, path(L), C_q with p <= q and
    L >= 0 (L = 0 is the figure-eight), each family in lexicographic order.
    """
    if cyclomatic == 1:
        return [_core(_cycle_core, g) for g in range(3, max_k + 1)]
    cores = []
    for a in range(1, max_k):
        for b in range(max(a, 2), max_k):
            cores += [_core(_theta_core, a, b, c) for c in range(b, max_k + 2 - a - b)]
    for p in range(3, max_k):
        for q in range(p, max_k + 2 - p):
            cores += [_core(_dumbbell_core, p, q, bridge) for bridge in range(max_k + 2 - p - q)]
    return cores


def _hang_trees(core: Core, n: int) -> Iterator[tuple[int, ...]]:
    """One flat edge tuple per class with 2-core `core` on n vertices.

    A labelling gives core vertex v a rooted tree (s_v, t_v); two
    labellings give isomorphic graphs exactly when an automorphism of the
    core carries one onto the other.  Labellings are ordered by the size
    vector s, then by the tree-index vector t, and the least of each
    orbit is kept.  A size vector some automorphism lowers is skipped
    before any tree is chosen; otherwise only the automorphisms that fix
    it can lower t.
    """
    k, core_edges, autos = core
    images = [itemgetter(*perm) for perm in autos]  # image(x)[v] = x[perm[v]]
    for cuts in combinations(range(1, n), k - 1):
        sizes = tuple(map(sub, (*cuts, n), (0, *cuts)))
        fixing = []
        for image in images:
            moved = image(sizes)
            if moved < sizes:
                break
            if moved == sizes:
                fixing.append(image)
        else:  # no automorphism lowers the size vector
            # the trees hung on v are numbered from base on, root v itself
            hung, base = [], k
            for v, s in enumerate(sizes):
                hung.append(_hung(s, v, base - 1))
                base += s - 1
            picks = product(*[range(len(trees)) for trees in hung])
            for pick, parts in zip(picks, product(*hung)):
                if fixing and any(image(pick) < pick for image in fixing):
                    continue
                yield core_edges + tuple(chain.from_iterable(parts))


@lru_cache(maxsize=None)
def _hung(size: int, v: int, off: int) -> tuple[tuple[int, ...], ...]:
    """Each rooted tree on size vertices hung on core vertex v: its root
    is v and its other vertices are shifted by off."""
    table = (v, *range(off + 1, off + size))  # table[x] is x's new label
    return tuple(tuple(map(table.__getitem__, tree)) for tree in _rooted_trees(size))


def _chunks(n: int, m: int, flats: Iterator[tuple[int, ...]]) -> Iterator[tuple[int, np.ndarray]]:
    """The flat edge tuples of one level, graphs on n vertices with m
    edges, as (n, edges) chunks: edges is a (K, m, 2) array of at most
    max(1, fermat._TABLE // n^2) graphs, each row's edges (u, v), u < v,
    in sorted order."""
    size = max(1, fermat._TABLE // (n * n))
    while part := list(islice(flats, size)):
        edges = np.array(list(chain.from_iterable(part)), dtype=np.intp).reshape(len(part), m, 2)
        # every edge has u < v, so sorting u * n + v sorts the pairs
        key = edges[..., 0] * n + edges[..., 1]
        key.sort(axis=1)
        yield n, np.stack(np.divmod(key, n), axis=-1)


def free_tree_chunks(max_n: int, min_n: int = 1) -> Iterator[tuple[int, np.ndarray]]:
    """One tree per isomorphism class on min_n..max_n vertices, by
    increasing n, in _chunks.  Level n builds on no smaller level."""
    for n in range(max(min_n, 1), max_n + 1):
        yield from _chunks(n, n - 1, _free_trees(n))


def cyclic_chunks(cyclomatic: int, max_n: int, min_n: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """One connected graph with m = n + cyclomatic - 1 per class on
    min_n..max_n vertices, by increasing n, in _chunks; cyclomatic is 1 or
    2.  A level's cores are built when it starts; no core has fewer than
    cyclomatic + 2 vertices."""
    for n in range(max(min_n, cyclomatic + 2), max_n + 1):
        level = chain.from_iterable(_hang_trees(core, n) for core in _cores(cyclomatic, n))
        yield from _chunks(n, n + cyclomatic - 1, level)


def _graphs(chunks: Iterator[tuple[int, np.ndarray]]) -> Iterator[Graph]:
    for n, edges in chunks:
        for row in edges.tolist():
            yield Graph(n, tuple(map(tuple, row)))


def enumerate_free_trees(max_n: int) -> Iterator[Graph]:
    """One tree per isomorphism class on 1..max_n vertices, by increasing n
    (free_tree_chunks, one Graph per row)."""
    return _graphs(free_tree_chunks(max_n))


def enumerate_unicyclic(max_n: int) -> Iterator[Graph]:
    """One connected graph with m = n per class on 3..max_n vertices, by increasing n."""
    return _graphs(cyclic_chunks(1, max_n))


def enumerate_bicyclic(max_n: int) -> Iterator[Graph]:
    """One connected graph with m = n + 1 per class on 4..max_n vertices, by increasing n."""
    return _graphs(cyclic_chunks(2, max_n))


# ---------------------------------------------------------------------------
# diametrical-path decoration of trees


class TreeDecoration(NamedTuple):
    """Diametrical-path scaffolding of a tree.

    diametrical_path is v_0..v_D, read from its smaller end, and contains
    all central vertices.  Every vertex v meets it at one vertex, its
    foot: v_i with i = (d(v_0, v) + D - d(v_D, v)) / 2, and v hangs
    (d(v_0, v) + d(v_D, v) - D) / 2 below it.  subtree_membership maps
    every vertex to its foot's index (path vertices map to their own).
    subtree_depths[i-1] is the depth of the subtree hanging off v_i, the
    deepest vertex with foot v_i, for i = 1..D-1; ell is their maximum
    (0 when the path has no interior).
    """

    diametrical_path: tuple[int, ...]
    center: tuple[int, ...]
    subtree_depths: tuple[int, ...]
    ell: int
    subtree_membership: tuple[int, ...]


class DecorationStack(NamedTuple):
    """TreeDecoration fields of K trees on n vertices, one array row per tree.

    Tree k's diametrical path is path[k, :length[k] + 1]; the entries
    after it are 0.  foot[k] is its subtree_membership, depths[k, i] the
    depth of the subtree hanging off v_i and ell[k] the largest of
    depths[k, 1:length[k]].  center[k] marks the central vertices.
    """

    path: np.ndarray
    length: np.ndarray
    center: np.ndarray
    foot: np.ndarray
    depths: np.ndarray
    ell: np.ndarray

    def decoration(self, k: int) -> TreeDecoration:
        dlen = int(self.length[k])
        return TreeDecoration(
            diametrical_path=tuple(self.path[k, : dlen + 1].tolist()),
            center=tuple(np.flatnonzero(self.center[k]).tolist()),
            subtree_depths=tuple(self.depths[k, 1:dlen].tolist()),
            ell=int(self.ell[k]),
            subtree_membership=tuple(self.foot[k].tolist()),
        )


def _path_ends(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends a < b of the double-BFS path of each tree of a (K, n, n) stack."""
    # argmax picks the smallest id among ties
    a = d[:, 0].argmax(axis=1)
    b = d[np.arange(len(d)), a].argmax(axis=1)
    # a path and its reverse differ in their first vertex, so starting at
    # the smaller end reads the lexicographically smaller of the two
    return np.minimum(a, b), np.maximum(a, b)


def check_path_rows(t: Graph, d: np.ndarray) -> None:
    """Spot-check a supplied d against t's own distances on the two rows a
    decoration is read from.

    The other rows are checked only when a decoration invariant fails.
    """
    for r in _path_ends(d[None]):
        if not np.array_equal(d[r[0]], bfs_distances(t, int(r[0]))):
            raise PreconditionError("d is not the distance matrix of the tree")


def double_sweep(edges: np.ndarray, d: np.ndarray, ecc: np.ndarray):
    """(length, foot, hang, center) of each tree's double-BFS path, read off
    rows a and b of the (K, n, n) distance stack d, with ecc the trees'
    (K, n) eccentricities.

    With a the first farthest vertex from 0, b the first farthest from a
    and D = d(a, b), vertex v meets the a-b path (d(a, v) + D - d(b, v)) / 2
    from a and hangs (d(a, v) + d(b, v) - D) / 2 below it.  Both
    invariants, D equal to the diameter and every centre on the path, are
    checked; a failure is a bug when d holds the trees' own distances.
    """
    rows = np.arange(len(d))
    a, b = _path_ends(d)
    da, db = d[rows, a], d[rows, b]
    length = da[rows, b]
    foot = (da + length[:, None] - db) // 2
    hang = (da + db - length[:, None]) // 2
    diameter = ecc.max(axis=1)
    center = ecc == ecc.min(axis=1)[:, None]
    bad = np.flatnonzero((length != diameter) | (center & (hang != 0)).any(axis=1))
    if bad.size:
        k = bad[0]
        if length[k] != diameter[k]:
            message = f"double BFS path has length {length[k]}, diameter is {diameter[k]}"
        else:
            message = "the diametral path misses a center vertex"
        _invariant_failed(row_graph(edges[k], d.shape[1]), d[k], message)
    return length, foot, hang, center


def decorate_stack(edges: np.ndarray, d: np.ndarray) -> DecorationStack:
    """Decorate each tree of a (K, m, 2) edge stack along its double_sweep
    path, the vertices that hang at depth 0, from its distance stack d."""
    count, n = d.shape[:2]
    length, foot, hang, center = double_sweep(edges, d, eccentricities(d))
    path = np.zeros((count, n), dtype=np.intp)
    k, v = np.nonzero(hang == 0)
    path[k, foot[k, v]] = v
    depths = np.zeros_like(hang)
    np.maximum.at(depths, (np.repeat(np.arange(count), n), foot.ravel()), hang.ravel())
    i = np.arange(n)
    inner = (1 <= i) & (i < length[:, None])
    return DecorationStack(
        path=path,
        length=length,
        center=center,
        foot=foot,
        depths=depths,
        ell=np.where(inner, depths, 0).max(axis=1, initial=0),
    )


def decorate_tree(t: Graph, d: np.ndarray | None = None) -> TreeDecoration:
    """Decorate t along the double-BFS path, reading every field off d
    (decorate_stack on a stack of one)."""
    if classify(t).kind is not GraphKind.TREE:
        raise PreconditionError("decorate_tree requires a tree")
    d = distance_matrix(t, d)
    check_path_rows(t, d)
    return decorate_stack(edge_stack([t]), d[None]).decoration(0)


def _invariant_failed(t: Graph, d: np.ndarray, message: str) -> None:
    """Raise for a failed decoration invariant: a bug only if d is t's own distance matrix."""
    if not np.array_equal(d, all_pairs_distances(t)):
        raise PreconditionError("d is not the distance matrix of the tree")
    raise InternalError(message)


# ---------------------------------------------------------------------------
# closed-form difference quotients for the multicyclic counterexamples
#
# Each evaluates one rational function exactly, read as F1/n - F2/m of a
# multicyclic family: positive where the tree/unicyclic inequality still
# holds, negative where it fails.  No graph in this package realises either
# yet, so a sign says nothing about a graph the searches produce.
# fractions is loaded on the first call; no other command needs it.


def bicyclic_delta_formula(x: int) -> Rational:
    """(-x^3/2 + 31x^2 + 173x + 55) / ((3x+6)(3x+7)), exactly, for x >= 0.

    The closed form stated for the bicyclic counterexample family.  What
    `formula` and acceptance criterion 6 check is only its sign at the
    given x (positive at x = 67, negative at x = 68).  No graph in this
    package realises it yet.
    """
    from fractions import Fraction

    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    num = Fraction(-(x**3), 2) + 31 * x**2 + 173 * x + 55
    den = (3 * x + 6) * (3 * x + 7)
    return num / den


def multicyclic_delta_formula(k: int, x: int) -> Rational:
    """The k-cycle family's rational function of x, exactly, for k >= 3 and x >= 0.

    ((-k^2/6 - 26k/3) x^3 + (8k^2 - 54k) x^2 + (121k^2/6 - 226k/3) x
    + 12k^2 - 30k) / ((kx + 3k)(kx + 2k + 1)), the closed form stated for
    the family with k independent cycles.  What `formula` and acceptance
    criterion 6 check is only its sign at the given x (for each
    k = 3..10, positive at x = 0 and negative at some x < 10^4).  No
    graph in this package realises it yet.
    """
    from fractions import Fraction

    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    num = (
        (Fraction(-(k**2), 6) - Fraction(26 * k, 3)) * x**3
        + (8 * k**2 - 54 * k) * x**2
        + (Fraction(121 * k**2, 6) - Fraction(226 * k, 3)) * x
        + 12 * k**2
        - 30 * k
    )
    den = (k * x + 3 * k) * (k * x + 2 * k + 1)
    return num / den
