"""Fermat (Steiner-3) distances and eccentricities.

Three interchangeable computation paths:

* eps3_oracle  -- exhaustive brute force over all pairs, the reference.
                  F is symmetric in its three vertices, so it takes
                  each unordered triple once, from the pair sums
                  d(s,v) + d(s,w) of the pairs v <= w, and each vertex
                  gathers its pairs' values from those.  The work is
                  laid out graph-innermost, so one numpy call covers a
                  block of whole graphs of a stack; every table fits in
                  _TABLE entries of the narrowest exact integer type
                  (_sum_dtype).
* eps3_pruned  -- same values from fewer pairs and fewer candidate Fermat
                  vertices (lemmas A and B below), skipping pairs by
                  exact lower/upper bounds.  Single-threaded: vertices
                  are visited level by level in BFS order from a centre,
                  each capped by the edge-Lipschitz lemma |eps3(u) -
                  eps3(p)| <= 1 against its BFS parent p.  Two gathers
                  per level evaluate every vertex's parent pair, then,
                  where that closed some vertex, the vertices still open
                  against the distinct pairs the previous level won; a
                  vertex where either reaches eps3(p) + 1 is done (the
                  cap exit).  The rest run a
                  bound pass each: it scans only the pairs whose reach
                  (lemma C) beats the running maximum, keeps those whose
                  landmark bound (below) beats it too, and evaluates the
                  pairs the bounds leave open in numpy blocks.
* eps3_tree    -- O(n) per vertex fast path valid on trees only.

eps3_profile picks by size and class: trees take eps3_tree, other graphs
with at most _ORACLE_MAX_N vertices take eps3_oracle, whose
n^2 (n+1)(n+2)/6 sums are cheaper there than the pruned path's
per-vertex Python work, and larger graphs take eps3_pruned.  eps3_stack makes the same choice
for a stack of graphs with equal n and m, given as edge rows; it builds
a Graph only for a row eps3_pruned takes.  The tree and oracle kernels
work on (K, n, n) distance stacks; eps3_tree and eps3_oracle run them
on a stack of one.

The eccentricity of u maximises the Fermat distance of {u, v, w} over all
ordered pairs (v, w) in V x V, repeats included (the literal definition).
For n >= 2 distinct pairs give the same maximum: F(u,v,v) = d(u,v) <= F(u,v,w).
The fast paths return values only; the oracle alone can name a maximising
pair and its Fermat vertex.

Three exact lemmas shrink eps3_pruned's search, F being the Fermat distance.
Lemma A: the pair ends v and w, repeats included, may be taken from any
set S that holds every non-cut vertex, such as the vertices of degree
<= 1 and those with no neighbour outside the 2-core.  Proof: for a cut
vertex v, either some component of G - v holds neither u nor w, and any
x there gives F(u,x,w) >= F(u,v,w) + 1, or v separates u from w, and then
F(u,v,w) = d(u,w) <= ecc(u) = F(u,x,x) for a farthest vertex x from u,
which is never a cut vertex.  Lemma B: a minimising Fermat vertex that is
not u, v or w has degree >= 3, because at a vertex of degree <= 2 two of
the three shortest paths leave through one neighbour and stepping there
lowers the sum.  So the least of the three terminal sums (eps3_pruned's upper
bound) and the sums over the hubs, the vertices of degree >= 3, is exact.
Lemma C: F(u,v,w) <= reach(v,w) = d(v,w) + min(ecc(v), ecc(w)) for every
u, ecc being the ordinary eccentricity.  Proof: routing the triple
through v gives F(u,v,w) <= d(u,v) + d(v,w) <= ecc(v) + d(v,w), and the
same holds through w.  So a pair whose reach is at most the running
maximum cannot raise it at any vertex.

The landmark bound needs no lemma: F is a minimum over every vertex s,
so any fixed vertex h gives F(u,v,w) <= d(u,h) + d(h,v) + d(h,w)
(landmarks, as in Goldberg and Harrelson's A* search, SODA 2005).
eps3_pruned takes the least of these over _LANDMARKS central hubs.
Its sums never exceed 3 diam + 1, so it holds distances in the
narrowest signed integer type that fits that (_sum_dtype): int8 up to
diameter 42, int16 up to diameter 10922, int32 above.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .graph import _ORACLE_MAX_N, Graph, _sum_dtype, bfs_tree, distance_matrix, eccentricities, row_graph


class FermatWitness(NamedTuple):
    pair: tuple[int, int]
    fermat_vertex: int
    value: int


class FermatProfile(NamedTuple):
    eps3: tuple[int, ...]
    witnesses: tuple[FermatWitness, ...] | None = None
    pair_evaluations: int | None = None


def _check_vertex(n: int, u: int) -> None:
    if not (0 <= u < n):
        raise ValueError(f"vertex id {u} out of range for n={n}")


def fermat_distance(d: np.ndarray, u: int, v: int, w: int) -> int:
    """min over all vertices s of d(s,u)+d(s,v)+d(s,w)."""
    n = d.shape[0]
    for x in (u, v, w):
        _check_vertex(n, x)
    return int((d[:, u] + d[:, v] + d[:, w]).min())


def fermat_vertices(d: np.ndarray, u: int, v: int, w: int) -> tuple[int, ...]:
    """The full argmin set of Fermat vertices for the triple {u, v, w}."""
    n = d.shape[0]
    for x in (u, v, w):
        _check_vertex(n, x)
    sums = d[:, u] + d[:, v] + d[:, w]
    best = sums.min()
    return tuple(int(s) for s in np.flatnonzero(sums == best))


# Entries in one oracle table, of the oracle's sum type (int8 up to
# diameter 42: 256 KB).  With P = n(n+1)/2 pairs, a block of the oracle
# holds as many whole graphs as keep their pair sums (n P entries each)
# within it, at least one: 23 graphs at n = 28, 647 at n = 9.  Its tables
# of sorted triples and its gathers fit in it too, at least one vertex
# each; one graph's pair sums, or one vertex's table of at most n P
# entries, exceed it from n = 81 on.  The sweeps cut each level into
# chunks of at most _TABLE // n^2 graphs, so a chunk's distance stack
# has no more entries than a table.  eps3_pruned's second gather keeps
# its tables within the same budget.  With the graph-innermost oracle, on
# stacks of unicyclic or bicyclic graphs with n = 9 and 12 (whole
# chunks) and of 60 random graphs with 2 chords and n = 20 and 28
# (2-vCPU Xeon VM, best of 9), 2^17 took 1.10-2.10x the time of 2^18 and
# 2^16 1.64-4.05x, as a block then holds few graphs; 2^19 took
# 0.70-1.07x, 2^20 0.35-1.44x and 2^22 0.43-1.13x.  Above 2^18 only the
# stacks of 28 vertices, which no sweep analyses, gain throughout, while
# the tables and a chunk's int32 distance stack (4 _TABLE bytes) grow.
_TABLE = 1 << 18

# eps3_profile and eps3_stack send non-tree graphs up to _ORACLE_MAX_N
# vertices to the oracle.  On random graphs with 1-5 chords (same VM,
# supplied d, 30 graphs per size, best of 7-9 interleaved rounds) the
# oracle took 0.36x eps3_pruned's time per graph at n = 20, 0.44-0.48x
# at n = 24, 0.66-0.73x at n = 28, 0.79-0.82x at n = 30, 0.93-0.94x at
# n = 32 and 1.11x at n = 34; on stacks of 60 graphs with equal n and m
# it took 0.19x at n = 20, 0.57x at n = 28, 0.83x at n = 32 and 1.21x at
# n = 36.  Denser graphs (n/4 or n chords) and tadpoles favour the oracle
# more, 0.29-0.75x at n = 24-34, as the oracle's time depends on n
# alone.  With eps3_pruned walking BFS levels (same VM and method, 30
# graphs per size, best of 9) the oracle took 0.41x at n = 24, 0.59x at
# n = 28, 0.71x at n = 30, 0.92x at n = 32, 1.03x at n = 34 and 1.28x at
# n = 36.  28 keeps a margin below the sparse graphs' crossover at about
# 33: at these sizes the pruned kernel's per-level and per-vertex Python
# work, not its pair count, sets its time.  Taking each unordered triple
# once, graph-innermost (same VM and method; above 28 with the per-n
# gather tables cached, as a raised constant would have them), the
# oracle took 0.22x eps3_pruned's time per graph at n = 20, 0.30-0.32x
# at 28, 0.42x at 32, 0.45x at 36 and 0.55-0.57x at 40; on stacks of 60
# graphs with 3 chords it took 0.05x at n = 20, 0.26-0.28x at 28, 0.53x
# at 32, 0.77-0.81x at 34 and 1.09-1.14x at 36, where a block holds only
# 10 graphs.  The stacks' crossover moved from about 33 to about 35, so
# 28 keeps its margin.  The constant lives in graph, whose distance_stack
# takes the same stacks to its closure.


def _blocks(rows: int, width: int) -> list[slice]:
    """Slices that cut rows of width entries each into blocks of at most
    _TABLE entries, at least one row per block."""
    step = max(1, _TABLE // width)
    return [slice(i, i + step) for i in range(0, rows, step)]


class _Pairs(NamedTuple):
    """The oracle's per-n index tables (_pairs)."""

    tri: np.ndarray  # tri[b] = b(b+1)/2, b = 0..n
    iv: np.ndarray  # the P pairs v <= w, row-major
    iw: np.ndarray
    cv: np.ndarray  # the same pairs in column order, by w and then v
    cw: np.ndarray
    # per vertex u and row-major pair (v, w), the largest of u, v, w and
    # tri[median] + smallest: up to _ORACLE_MAX_N only, in uint8 and
    # uint16 (below n and P), else None
    top: np.ndarray | None
    low: np.ndarray | None


def _top_low(u: np.ndarray, t: _Pairs) -> tuple[np.ndarray, np.ndarray]:
    """_Pairs.top and .low of the vertices u, (len(u), P) each."""
    u = u[:, None]
    low = t.tri[np.clip(u, t.iv, t.iw)]  # the median, as v <= w
    low += np.minimum(u, t.iv)
    return np.maximum(u, t.iw), low


def _pairs(n: int) -> _Pairs:
    """The oracle's index tables for n vertices; top and low only where a
    stack can reach the oracle (n <= _ORACLE_MAX_N), and there the tables
    are kept for the last few n (_small_pairs): at most 47 KB each."""
    # the pairs of np.triu_indices and np.tril_indices, in 14 against 43
    # us at n = 8: a fresh process builds these tables once per size
    x = np.arange(n + 1)
    tri = x * (x + 1) // 2
    p = np.arange(tri[n])
    iv = np.repeat(x[:n], n - x[:n])  # row v holds n - v pairs
    cw = np.repeat(x[:n], x[1:])  # column w holds w + 1 pairs
    t = _Pairs(tri, iv, p - n * iv + tri[iv], p - tri[cw], cw, None, None)
    if n > _ORACLE_MAX_N:
        return t
    top, low = _top_low(x[:n], t)
    t = t._replace(top=top.astype(np.uint8), low=low.astype(np.uint16))
    for a in t:
        a.flags.writeable = False  # shared through the cache
    return t


# A sweep takes one size at a time, and cyclic_sweep's bicyclic search
# (n = 4..8) follows a unicyclic sweep of n = 3..9, so 8 sizes let it
# reuse every table.  search family-sweep reaches the oracle with 20
# sizes of graph, and keeping all their tables in intp took its peak
# RSS from 48.4 to 49.9 MB; in uint8 and uint16 top and low take 3
# bytes an entry, not 16, and np.take reads them almost as fast (22
# against 20 us for a whole graph at n = 28).
_small_pairs = lru_cache(maxsize=8)(_pairs)


@lru_cache(maxsize=64)
def _triple_blocks(n: int, kb: int, table: int) -> tuple[tuple[tuple[int, int, int], ...], int, np.ndarray]:
    """How _oracle_eps3 cuts the largest vertex c of the sorted triples
    a <= b <= c of n vertices into blocks, for kb graphs at once: each
    block c0..c1-1 takes the tri[c1] pairs with b < c1, for all its c in
    one table of n (c1 - c0) tri[c1] kb entries.  A block holds as many
    c as keep that within table (_TABLE) entries and its sums within
    twice the (c + 1)(c + 2)/2 each c needs (at least one c).  On a
    single graph one block of every c would sum as many triples as the
    ordered ones, and one block per c would cost two numpy calls per c.
    Returns each block's (c0, c1, position in f), f's length, and
    base[c], the position of F(0, 0, c): F(a, b, c) sits at base[c] +
    tri[b] + a.
    """
    tri = [x * (x + 1) // 2 for x in range(n + 2)]
    blocks, size, c0 = [], 0, 0
    while c0 < n:
        c1 = c0 + 1
        while c1 < n and (
            n * (c1 + 1 - c0) * tri[c1 + 1] * kb <= table
            and (c1 + 1 - c0) * tri[c1 + 1] <= 2 * sum(tri[c0 + 1 : c1 + 2])
        ):
            c1 += 1
        blocks.append((c0, c1, size))
        size += (c1 - c0) * tri[c1]
        c0 = c1
    base = np.array([o + (c - c0) * tri[c1] for c0, c1, o in blocks for c in range(c0, c1)], dtype=np.intp)
    base.flags.writeable = False  # shared through the cache
    return tuple(blocks), size, base


def _oracle_eps3(d: np.ndarray, witnesses: bool = False):
    """Exhaustive eps3 of each graph in a (K, n, n) distance stack.

    F is symmetric in its three vertices, so it is taken once per sorted
    triple a <= b <= c, n(n+1)(n+2)/6 of them, about a third of the
    ordered ones.  The work is laid out graph-innermost, (.., K), so each
    numpy call runs over a block of whole graphs at once, as many as
    keep the pair sums within _TABLE entries (at least one).  The pair
    sums pw[s, p] = d[s, v] + d[s, w] of the P = n(n+1)/2 pairs v <= w are
    taken in column order, by w and then v, so the pairs with w <= c are
    a prefix of (c+1)(c+2)/2 of them, and F(a, b, c) = min_s (pw[s, p(a,
    b)] + d[s, c]) over that prefix.  One numpy call takes a block of c
    (_triple_blocks), and its minimum goes straight into f, where F(a,
    b, c) sits at base[c] + b(b+1)/2 + a.  No sum exceeds 3 diam, so
    every entry is held in the narrowest signed integer type that fits
    it (_sum_dtype).

    Each vertex u then gathers F of its P pairs v <= w, in row-major
    order, through its sorted triple's position.  Returns eps3 as a
    (K, n) array and, with witnesses, the row-major index v * n + w of
    the first maximising ordered pair of each vertex, else None: that
    pair has v <= w, since its mirror maximises too.
    """
    k_all, n = d.shape[:2]
    t = _small_pairs(n) if n <= _ORACLE_MAX_N else _pairs(n)
    tri, pairs = t.tri.tolist(), t.iv.size
    dtype = _sum_dtype(3 * int(d.max()))
    eps = np.empty((k_all, n), dtype=np.int64)
    arg = np.empty((k_all, n), dtype=np.intp) if witnesses else None
    for ks in _blocks(k_all, n * pairs):
        dk = np.ascontiguousarray(d[ks].transpose(1, 2, 0), dtype=dtype)  # dk[s, x, k]
        kb = dk.shape[2]
        # pw[s, p, k] = d[s, cv[p]] + d[s, cw[p]] of graph k.  np.take keeps
        # C order, where dk[:, cv] puts the pair axis outermost in memory
        pw = np.take(dk, t.cv, axis=1)
        pw += np.take(dk, t.cw, axis=1)
        blocks, size, base = _triple_blocks(n, kb, _TABLE)
        f = np.empty((size, kb), dtype=dtype)
        for c0, c1, o in blocks:
            w = tri[c1]
            out = f[o : o + (c1 - c0) * w].reshape(c1 - c0, w, kb)
            np.min(dk[:, c0:c1, None] + pw[:, None, :w], axis=0, out=out)
        del pw  # the gathers read f alone
        # a vertex's row gathers P kb sums, through P indices (8 bytes
        # each) that are built per block above _ORACLE_MAX_N, three at once
        for us in _blocks(n, pairs * (kb if t.top is not None else kb + 24)):
            top, low = (t.top[us], t.low[us]) if t.top is not None else _top_low(np.arange(n)[us], t)
            at = base.take(top)
            at += low
            g = np.take(f, at, axis=0)  # g[i, p, k] = F(u_i, iv[p], iw[p]) of graph k
            eps[ks, us] = g.max(axis=1).T
            if witnesses:
                # argmax takes the first maximum; the pairs are in row-major
                # order, so it is the lexicographic min
                a = g.argmax(axis=1).T
                arg[ks, us] = t.iv[a] * n + t.iw[a]
    return eps, arg


def eps3_oracle(
    g: Graph,
    d: np.ndarray | None = None,
    witnesses: bool = False,
) -> FermatProfile:
    """Exhaustive reference computation of all Fermat eccentricities.

    No pruning: for each u the maximum runs over every pair v <= w,
    which covers every ordered pair as F is symmetric in v and w, and
    each F(u, v, w) is the one value of its unordered triple
    (_oracle_eps3, on a stack of one).  Witnesses, when requested, pick
    the lexicographically smallest maximising (v, w) and then the
    smallest minimising Fermat vertex.
    """
    d = distance_matrix(g, d)
    eps, arg = _oracle_eps3(d[None], witnesses)
    eps = eps[0]
    if not witnesses:
        return FermatProfile(eps3=tuple(eps.tolist()))
    v, w = np.divmod(arg[0], g.n)
    # d is symmetric, so row u stands for column u
    sigma = (d + d[v] + d[w]).argmin(axis=1)
    return FermatProfile(
        eps3=tuple(eps.tolist()),
        witnesses=tuple(
            FermatWitness(pair=(int(a), int(b)), fermat_vertex=int(s), value=int(x))
            for a, b, s, x in zip(v, w, sigma, eps)
        ),
    )


# Pairs evaluated exactly per numpy call.  On the 400-vertex, 439-edge
# benchmark graph (2-vCPU Xeon VM, supplied d, 16 relabellings, best of
# 7 interleaved rounds) a bound pass leaves a median of 8-12 open pairs
# after the landmark bound, so only 3-6 of its about 105 passes need a
# second block.  Blocks of 32 to 256 pairs ran the kernel within 1% of
# 64 in the median (0.94-1.04x per relabelling) and blocks of 16 at
# 1.02x, while the median exact evaluations grew with the block: 1.5k
# at 16, 2.1k at 64 and 2.2k at 256.
_BLOCK = 64

# Hubs whose distances bound each pair in eps3_pruned's bound pass (the
# landmark bound, module docstring).  On the 400-vertex, 439-edge
# benchmark graph (2-vCPU Xeon VM, supplied d, 16 relabellings, best of
# 7 interleaved rounds) 1, 2, 4, 8 and 16 landmarks took 1.48x, 1.12x,
# 1, 0.96x and 1.14x the kernel time of 4 (medians), for median exact
# evaluations of 8.1k, 5.9k, 3.4k, 2.1k and 1.7k: past 8 the bound costs
# more than the evaluations it saves.  Over 24 relabellings 8 beat 4 on
# 18 (median 0.94x); on random graphs with 1-5 chords it took 0.90x the
# time of 4 at n = 24 and 0.82x at n = 40.
_LANDMARKS = 8


def _pair_ends_and_hubs(g: Graph) -> tuple[list[int], list[int]]:
    """The pair ends S and the hubs of g (lemmas A and B, module docstring).

    S holds the vertices of degree <= 1 and those with no neighbour
    outside the 2-core; one leaf-peeling pass finds the vertices next to
    a peeled one.  Every vertex left out of S is a cut vertex.  The hubs
    are the vertices of degree >= 3, or vertex 0 where there are none:
    an extra vertex keeps the minimum exact, and one keeps the hub
    columns from being empty.
    """
    adj = g.adj
    deg = [len(a) for a in adj]
    hubs = [v for v, k in enumerate(deg) if k >= 3] or [0]
    peeled = [v for v, k in enumerate(deg) if k <= 1]
    by_tree = [False] * g.n
    for v in peeled:  # grows as the peeling goes
        for x in adj[v]:
            by_tree[x] = True
            deg[x] -= 1
            if deg[x] == 1:
                peeled.append(x)
    ends = [v for v, a in enumerate(adj) if len(a) <= 1 or not by_tree[v]]
    return ends, hubs


def eps3_pruned(g: Graph, d: np.ndarray | None = None) -> FermatProfile:
    """Bound-pruned computation; value-identical to eps3_oracle.

    The pairs (v, w), v <= w, run over the pair ends S only (lemma A in
    the module docstring), sorted once by reach(v, w) = d(v, w) +
    min(ecc(v), ecc(w)), highest first.  By lemma C no pair outside the
    prefix whose reach beats the running maximum can raise it, so each
    bound pass scans that prefix only.  Of the prefix it keeps only the
    pairs whose landmark bound, the least of d(u, h) + d(h, v) + d(h, w)
    over the _LANDMARKS hubs h of least eccentricity (smallest ids among
    ties), still beats the maximum: F is a minimum over every vertex, so
    routing through a fixed h bounds it from above.  d(h, v) + d(h, w)
    is summed once per pair, so the bound costs one sum and one minimum
    per landmark and needs no gather.  The kept pairs' upper bound is the
    least of the landmark bound and the sums through the pair's own
    terminals, and a block's exact Fermat distances are the least of
    that bound and the sums over the hubs alone (lemma B).  Distances
    are held in the narrowest signed integer type that holds 3 diam + 1
    (_sum_dtype), which bounds every sum here: int8 up to diameter 42.

    Vertices are visited level by level in BFS order from a centre, the
    vertex of least eccentricity with the smallest id: eps3 tends to rise
    away from it, so more vertices take the cap exit below.  Across an
    edge every pair's Fermat distance changes by at most 1, so eps3(u) is
    within 1 of eps3(p), p being u's BFS parent, one level up and already
    done: eps3(p) + 1 caps eps3(u).  The centre's cap is 2 ecc, the sum
    through the centre itself.  Each level takes two gathers, the level
    batching of multi-source BFS (Then et al., VLDB 2014).  The first
    evaluates each vertex's parent pair, the pair that attained eps3(p),
    over every vertex, for the whole level at once: for one pair a full
    column sum is cheaper than the terminal sums lemma B needs.  A vertex
    where it reaches the cap is done (the cap exit).  The second
    evaluates the vertices still open against the distinct pairs that
    attained eps3 at the previous level, exact in the same way, in tables
    of at most _TABLE entries (at least one vertex each), and at the cap
    a vertex is done too.  It runs only on a level where the first closed
    some vertex: on search family-sweep's graphs above 28 vertices, whose
    thetas and tailed cycles keep eps3 level, it closed none of 1,123
    open vertices in 385 levels without that condition.  Where one pair
    won the previous level, it is every vertex's parent pair, and the
    second gather is skipped too.  Only the vertices still below their
    cap run a bound pass: the running maximum starts at the larger of
    their gathered value and the largest lower bound over the kept
    pairs, and stops at the cap.  The lower bound is the ceiling of
    half the pairwise-distance perimeter; it never exceeds the landmark
    bound, so no pair left out holds a larger one.  The kept pairs whose
    upper bound still beats it are evaluated exactly in blocks of
    _BLOCK, highest lower bound first, and filtered again after each
    raise.

    pair_evaluations counts every pair evaluated exactly, pairs of S
    only: one per vertex but the centre in the first gather, each open
    vertex times the pairs in the second, and every pair of every
    evaluated block.  On relabelling 0 of the benchmark's 400-vertex,
    439-edge graph (14 levels, up to 60 vertices wide), 92 vertices run
    a bound pass against 112 when each vertex was probed with its parent
    pair alone, and pair_evaluations is 2,241 against 1,875: the second
    gather adds more pairs than the bound passes it saves, but a level
    costs a few numpy calls where each vertex cost one or more.  Where
    the first gather never reaches the cap (a cycle with a long tail,
    whose eps3 stays level) it adds one evaluation per vertex, and the
    second does not run.
    """
    return _pruned(g, distance_matrix(g, d))


def _pruned(g: Graph, d: np.ndarray) -> FermatProfile:
    """eps3_pruned on g's own distance matrix d, taken without a check:
    eps3_stack's rows come from distance_stack, which raises on a
    disconnected graph."""
    n = g.n
    ecc = eccentricities(d)
    order, parent = bfs_tree(g, int(ecc.argmin()))  # a centre, the smallest id
    ends, hubs = _pair_ends_and_hubs(g)
    # no sum below exceeds 3 diam + 1 (lb's numerator), nor -reach 2 diam
    diam = int(ecc.max())
    t = _sum_dtype(3 * diam + 1)
    dn, ecc = d.astype(t), ecc.astype(t)
    dh = dn[:, hubs]
    # the landmarks: the least-eccentric hubs, the smallest ids among ties
    marks = np.take(hubs, np.argsort(ecc[hubs], kind="stable")[:_LANDMARKS])
    dm = dn[marks]
    # indexing row by row: np.take with the (2, P) index array took 1.2
    # against 0.2 ms for 30k pairs
    ends = np.array(ends)
    iu, iw = (ends[i] for i in np.triu_indices(len(ends)))
    # the pairs by reach (lemma C), highest first, as an ascending key.
    # numpy sorts an integer key of 16 bits or fewer stably by radix, 0.5
    # against 3.0 ms for an int32 key on 30k pairs, and a stable sort
    # keeps the pair order, and so pair_evaluations, the same everywhere
    dvw = dn[iu, iw]
    key = np.negative(dvw + np.minimum(ecc[iu], ecc[iw]))
    by_reach = np.argsort(key, kind="stable")
    iu, iw, dvw, key = iu[by_reach], iw[by_reach], dvw[by_reach], key[by_reach]
    # gm[i] = d(h, v) + d(h, w) over the pairs for landmark h = marks[i].
    # np.take keeps C order, where dm[:, iu] is F-ordered: the landmark
    # bound over 13k pairs took 9 us on C order against 670 us on F order
    gm = np.take(dm, iu, axis=1) + np.take(dm, iw, axis=1)
    # stops[b + 1] counts the pairs with reach > b, b = -1 .. 2 diam.  A
    # bound pass's running maximum b is a pair's exact value or lower
    # bound, never above its reach, so it fits
    stops = key.searchsorted(-np.arange(-1, 2 * diam + 1, dtype=t)).tolist()
    eps = np.zeros(n, dtype=np.int64)
    # per vertex, the index into (iu, iw) of one pair whose exact value is eps[u]
    arg = np.zeros(n, dtype=np.intp)
    evals = 0
    order, parent = np.array(order), np.array(parent)
    # order lists the BFS levels one after another; d(centre, .) counts them
    ends_at = np.bincount(d[order[0]]).cumsum().tolist()
    for start, end in zip([0, *ends_at], ends_at):
        us = order[start:end]
        if not start:
            # the centre has no parent; F(u, v, w) <= d(u, v) + d(u, w), through
            # u itself, caps it at 2 ecc(u)
            best, caps = np.array([-1]), 2 * ecc[us].astype(np.int64)
            ks, rest = np.zeros(1, dtype=np.intp), np.arange(1)
        else:
            # gather 1: each vertex's parent pair, exact at u over every vertex
            # (for one pair a full column sum is cheaper than the terminal sums
            # lemma B needs): >= eps[p] - 1, and at the cap eps[p] + 1 it is eps[u].
            # won keeps the pairs the previous level won
            pu = parent[us]
            won, ks, caps = ks, arg[pu], eps[pu] + 1
            best = (dn[us] + dn[iu[ks]] + dn[iw[ks]]).min(axis=1)
            evals += us.size
            rest = (best < caps).nonzero()[0]
            # gather 2: the vertices still open against the distinct pairs won at
            # the previous level, exact in the same way, on a level where gather
            # 1 closed some vertex.  Where one pair won there, it is every
            # vertex's parent pair, already evaluated.  A set, as np.unique
            # loads numpy.ma on its first call, about 40 ms cold
            if 0 < rest.size < us.size and (won := np.array(sorted(set(won.tolist())))).size > 1:
                sums, ou = dn[iu[won]] + dn[iw[won]], us[rest]
                vals = np.concatenate([(dn[ou[r], None] + sums).min(axis=2) for r in _blocks(ou.size, sums.size)])
                evals += vals.size
                # won holds each vertex's parent pair, so no value falls
                top = vals.argmax(axis=1)
                best[rest], ks[rest] = vals[np.arange(rest.size), top], won[top]
                rest = rest[best[rest] < caps[rest]]
        # the bound pass, on the vertices still below their cap only
        for i in rest.tolist():
            u, b, k, cap = int(us[i]), int(best[i]), int(ks[i]), int(caps[i])
            du, dhu = dn[u], dh[u]
            # only the pairs with reach > b can raise b (lemma C), and of those
            # only the ones whose landmark bound beats it; d is symmetric, so
            # dm[:, u] is d(u, h).  A pair with lb > b has ubl >= lb, so the
            # pairs left out hold none that could raise b
            j = stops[b + 1]
            ubl = (dm[:, u, None] + gm[:, :j]).min(axis=0)
            pairs = (ubl > b).nonzero()[0]
            if pairs.size:
                pv, pw, pvw = du[iu[pairs]], du[iw[pairs]], dvw[pairs]
                lb = (pv + pw + pvw + 1) >> 1
                ub = np.minimum(np.minimum(pv + pw, np.minimum(pv, pw) + pvw), ubl[pairs])
                # if b ends at lb.max(), that pair attains it; b >= every tight
                # pair's exact value, so each pair with ub > b has lb < ub
                top = int(lb.argmax())
                if lb[top] > b:
                    b, k = int(lb[top]), int(pairs[top])
                # positions into pairs, lb and ub
                cand = (ub > b).nonzero()[0]
                while cand.size and b != cap:
                    if cand.size > _BLOCK:
                        part = np.argpartition(-lb[cand], _BLOCK - 1)
                        blk, cand = cand[part[:_BLOCK]], cand[part[_BLOCK:]]
                    else:
                        blk, cand = cand, cand[:0]
                    evals += blk.size
                    # ub's landmark term bounds F from above too, so the minimum
                    # stays exact; d is symmetric, so rows stand in for columns
                    at = pairs[blk]
                    vals = np.minimum(ub[blk], (dhu + dh[iu[at]] + dh[iw[at]]).min(axis=1))
                    top = int(vals.argmax())
                    if vals[top] > b:
                        b, k = int(vals[top]), int(at[top])
                        cand = cand[ub[cand] > b]
            best[i], ks[i] = b, k
        eps[us], arg[us] = best, ks
    return FermatProfile(eps3=tuple(eps.tolist()), pair_evaluations=evals)


def _sweep_ends(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The double sweep of each tree of a (K, n, n) distance stack, in any
    memory order: a, the first farthest vertex from 0, b, the first
    farthest from a, as (K,) arrays, and their rows as (n, K) arrays,
    da[w, k] = d(a, w) of tree k."""
    t = d.transpose(1, 2, 0)  # graph-innermost, t[u, w, k] = d(u, w) of tree k
    trees = np.arange(t.shape[2])
    a = t[0].argmax(axis=0)  # argmax picks the smallest id among ties
    da = t[a, :, trees].T
    b = da.argmax(axis=0)
    return a, b, da, t[b, :, trees].T


def _tree_eps3(d: np.ndarray, ends: tuple | None = None) -> np.ndarray:
    """eps3 of each tree in a (K, n, n) distance stack, as a (K, n) array
    in d's type, from its double sweep's ends (_sweep_ends where ends is
    None).

    On a tree the Fermat distance equals half the pairwise-distance
    perimeter, and a farthest vertex from u can always serve as one of
    the two maximisers.  One of the sweep's ends a and b is farthest from
    every u (Handler, "Minimax location of a facility in an undirected
    tree graph", 1973).  A farthest vertex from any vertex ends a longest
    path, so D = d(a, b) is the diameter.  Let f be u's foot on the a-b
    path and x any vertex, with foot g; say g lies between f and b.  Then
    d(g, x) <= d(g, b), or d(a, x) = d(a, g) + d(g, x) would exceed D, so
    d(u, x) <= d(u, f) + d(f, g) + d(g, b) = d(u, b); with g between a
    and f, d(u, x) <= d(u, a) the same way.  So

        eps3(u) = max over x in {a, b} of (d(u, x) + max_w (d(x, w) + d(u, w))) / 2,

    each term being some F(u, x, w) <= eps3(u).  That is two broadcast
    sums over the graph-innermost table and two maxima over its middle
    axis.  Every sum is at most 3 (n - 1), which d's type holds when it
    comes from the tree table (graph._sum_dtype).
    """
    da, db = (_sweep_ends(d) if ends is None else ends)[2:]
    t = d.transpose(1, 2, 0)
    sums = np.empty(t.shape, dtype=t.dtype)
    far = []
    for dx in (da, db):
        np.add(t, dx[None], out=sums)  # sums[u, w, k] = d(u, w) + d(x, w)
        far.append(sums.max(axis=1) + dx)  # d is symmetric: d(u, x) = d(x, u)
    return (np.maximum(*far) // 2).T  # tree perimeters are even


def eps3_tree(g: Graph, d: np.ndarray | None = None) -> FermatProfile:
    """Tree fast path: fix each end of the double sweep, scan the second
    vertex (see _tree_eps3)."""
    if g.m != g.n - 1:  # a connected graph is a tree iff m = n - 1
        raise PreconditionError("eps3_tree requires a tree")
    return FermatProfile(eps3=tuple(_tree_eps3(distance_matrix(g, d)[None])[0].tolist()))


def eps3_stack(edges: np.ndarray, d: np.ndarray) -> np.ndarray:
    """eps3 of the K connected graphs of a (K, m, 2) edge stack, as a (K, n) array.

    d is their (K, n, n) distance stack.  The path is eps3_profile's:
    the tree kernel on trees, the oracle up to _ORACLE_MAX_N vertices,
    on the whole stack at once, and eps3_pruned's kernel above, row by
    row, on a Graph built from each row (row_graph): the only place an
    index computation builds one.  d is trusted: distance_stack has raised on any
    disconnected row, so the kernel skips distance_matrix's check.
    """
    return _eps3_stack(edges, d, None)


def _eps3_stack(edges: np.ndarray, d: np.ndarray, graphs) -> np.ndarray:
    """eps3_stack, with graphs the rows' Graphs where the caller holds
    them (else None), which the pruned kernel then takes as they are."""
    n = d.shape[1]
    if edges.shape[1] == n - 1:
        return _tree_eps3(d)
    if n <= _ORACLE_MAX_N:
        return _oracle_eps3(d)[0]
    if graphs is None:
        graphs = (row_graph(row, n) for row in edges)
    return np.array([_pruned(g, dg).eps3 for g, dg in zip(graphs, d)], dtype=np.int64)


def eps3_profile(g: Graph, d: np.ndarray | None = None) -> FermatProfile:
    """Fastest valid path for g: eps3_tree on trees, eps3_oracle on other
    graphs with at most _ORACLE_MAX_N vertices, eps3_pruned on the rest.

    The size cut-off is measured (see _ORACLE_MAX_N); every path gives
    the same values.
    """
    if g.m == g.n - 1:
        return eps3_tree(g, d)
    if g.n <= _ORACLE_MAX_N:
        return eps3_oracle(g, d)
    return eps3_pruned(g, d)
