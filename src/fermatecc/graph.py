"""Core graph representation: construction, parsing, BFS/APSP, classification.

Graphs are undirected, simple, and use dense 0-based integer vertex ids.
Every distance matrix comes from distance_stack on a stack of graphs at
once; distance_matrix runs it on a stack of one, and all_pairs_distances
widens that to int64.  A stack of trees in parent order (each vertex
v >= 1 has exactly one smaller neighbour, as the tree enumerator labels
them) takes a recurrence, row v its parent's row plus one; every other
stack with at most _ORACLE_MAX_N vertices takes a min-plus closure laid
out graph-innermost, and a larger one a bit-parallel BFS from all
sources.  bfs_distances is one BFS from one source.
graph6 strings (McKay's six-bit format) are encoded and decoded natively.

Every per-graph function that takes a distance matrix d (the four eps3
paths, eccentricity2_profile, full_report, decorate_tree and
check_diametrical_lemmas) takes it through distance_matrix: d None is
computed, and a supplied d is checked for its shape (n, n) and for the
graph's connectivity.  Its entries are the caller's promise; trees are
also spot-checked on two rows by generators.check_path_rows.
"""

from enum import Enum
from functools import cached_property
from math import isqrt
from typing import NamedTuple

import numpy as np

from .errors import ConnectivityError, ParseError, PreconditionError, ValidationError


class GraphKind(Enum):
    TREE = "tree"
    UNICYCLIC = "unicyclic"
    MULTICYCLIC = "multicyclic"


class GraphClass(NamedTuple):
    kind: GraphKind
    cyclomatic: int


class _GraphFields(NamedTuple):
    n: int
    edges: tuple[tuple[int, int], ...]


class Graph(_GraphFields):
    """Immutable undirected simple graph on vertices 0..n-1, with its edges
    (u, v), u < v, in sorted order.  Equal and hashed as the tuple (n, edges)."""

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, built on first use; sorted edges list
        them in increasing order, the smaller ones first."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __setattr__(self, name: str, value) -> None:
        # the instance dict holds only adj's cache, which cached_property
        # writes directly
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Graph is immutable: cannot delete {name!r}")


def make_graph(n: int, edges, strict: bool = True) -> Graph:
    """Build a Graph from an iterable of vertex pairs.

    Rejects self-loops, duplicate edges, and out-of-range ids.  With
    strict=True (the default for analysis entry points) the graph must
    also be connected.
    """
    if n < 1:
        raise ValidationError(f"vertex count must be >= 1, got {n}")
    seen = set()
    norm = []
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"vertex id out of range in edge ({u}, {v}) with n={n}")
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise ValidationError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        norm.append((u, v))
    norm.sort()
    g = Graph(n=n, edges=tuple(norm))
    return _require_connected(g) if strict else g


def _require_connected(g: Graph) -> Graph:
    # too few edges to connect n vertices is caught before adjacency is built
    if g.n > g.m + 1 or not is_connected(g):
        raise ConnectivityError(f"graph with n={g.n}, m={g.m} is not connected")
    return g


def is_connected(g: Graph) -> bool:
    return len(bfs_tree(g)[0]) == g.n


def parse_edge_list(text: str) -> Graph:
    """Parse the line-oriented edge-list format.

    First non-comment line holds the vertex count n, each following line
    one "u v" pair.  '#' starts a comment, blank lines are ignored.  The
    graph must be connected.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ParseError(f"line {lineno}: expected vertex count, got {raw!r}")
            try:
                n = int(parts[0])
            except ValueError:
                raise ParseError(f"line {lineno}: vertex count is not an integer: {raw!r}") from None
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two vertex ids, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id: {raw!r}") from None
        edges.append((u, v))
    if n is None:
        raise ParseError("empty input: missing vertex count line")
    return make_graph(n, edges)


def to_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _graph6_size(n: int) -> list[int]:
    """N(n) of McKay's graph6 format: one, four or eight 6-bit units."""
    width = 1 if n < 63 else 3 if n < 258048 else 6
    return [63] * (width // 3) + [n >> 6 * s & 63 for s in reversed(range(width))]


def from_graph6(line: str | bytes, strict: bool = True) -> Graph:
    """Decode one graph6 string; an optional >>graph6<< header is skipped."""
    if isinstance(line, str):
        line = line.encode("utf-8", "surrogatepass")  # non-ASCII fails the range check
    data = [c - 63 for c in line.strip().removeprefix(b">>graph6<<")]
    if not data or not all(0 <= x < 64 for x in data):
        raise ParseError(f"invalid graph6 data: {line[:40]!r}")
    head = 1 if data[0] < 63 else 4 if len(data) > 1 and data[1] < 63 else 8
    n = sum(x << 6 * i for i, x in enumerate(reversed(data[head // 4 : head])))
    body, nbits = data[head:], n * (n - 1) // 2
    if len(data) < head or len(body) != (nbits + 5) // 6:
        raise ParseError(f"graph6 data does not fit its vertex count n={n}: {line[:40]!r}")
    if n < 1:
        raise ValidationError(f"vertex count must be >= 1, got {n}")
    edges = []
    for t, x in enumerate(body):
        for b in range(6) if x else ():
            k = 6 * t + b  # bit k stands for the pair (i, j), i < j, in column order
            if x >> 5 - b & 1 and k < nbits:
                j = (1 + isqrt(8 * k + 1)) // 2
                edges.append((k - j * (j - 1) // 2, j))
    # each bit names one pair i < j < n, so the edges need no make_graph checks
    g = Graph(n, tuple(sorted(edges)))
    return _require_connected(g) if strict else g


def to_graph6(g: Graph) -> str:
    """graph6 string of g, without header or newline (graph6_stack on a stack of one)."""
    return graph6_stack(edge_stack([g]), g.n)[0]


def graph6_stack(edges: np.ndarray, n: int) -> list[str]:
    """graph6 strings of the K graphs of a (K, m, 2) edge stack on n
    vertices, each edge (u, v) with u < v."""
    k = len(edges)
    if not k:
        return []
    width = (n * (n - 1) // 2 + 5) // 6
    u, v = edges[..., 0], edges[..., 1]
    bit = v * (v - 1) // 2 + u  # the pair's position in column order
    # each bit is set once, so summing the bits of a six-bit unit ORs them
    unit = (np.arange(k) * width)[:, None] + bit // 6
    body = np.bincount(unit.ravel(), weights=(32 >> bit % 6).ravel(), minlength=k * width)
    head = _graph6_size(n)
    rows = np.empty((k, len(head) + width), dtype=np.uint8)
    rows[:, : len(head)] = head
    rows[:, len(head) :] = body.reshape(k, width)
    rows += 63
    text, step = rows.tobytes().decode("ascii"), rows.shape[1]
    return [text[i : i + step] for i in range(0, k * step, step)]


def bfs_tree(g: Graph, root: int = 0) -> tuple[list[int], list[int]]:
    """Vertices in BFS order from root, and the BFS parent of each (-1 at the root)."""
    parent = [-1] * g.n
    seen = [False] * g.n
    seen[root] = True
    order = [root]
    for u in order:
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    return order, parent


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Hop distances from source to every vertex as an int64 array, read
    off bfs_tree in O(n + m) (graph must be connected)."""
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range for n={g.n}")
    order, parent = bfs_tree(g, source)
    if len(order) < g.n:
        raise ConnectivityError("distances require a connected graph")
    dist = [0] * g.n
    for v in order[1:]:
        dist[v] = dist[parent[v]] + 1
    return np.array(dist, dtype=np.int64)


def all_pairs_distances(g: Graph) -> np.ndarray:
    """n x n int64 matrix of hop distances: distance_matrix's, widened."""
    return distance_matrix(g).astype(np.int64)


def distance_matrix(g: Graph, d=None) -> np.ndarray:
    """The distance matrix a per-graph function works on: with d None,
    g's int32 hop distances (distance_stack on a stack of one), else the
    caller's d as an array (a nested list becomes one) once its shape is
    (n, n) and g is connected."""
    if d is None:
        return distance_stack(edge_stack([g]), g.n)[0]
    try:
        d = np.asarray(d)
    except ValueError:  # rows of unequal length
        raise PreconditionError(f"d must be a distance matrix of shape {(g.n, g.n)}, got ragged rows") from None
    if d.shape != (g.n, g.n):
        raise PreconditionError(f"d must be a distance matrix of shape {(g.n, g.n)}, got {d.shape}")
    _require_connected(g)
    return d


def edge_stack(graphs) -> np.ndarray:
    """(K, m, 2) array of the sorted edge lists of K graphs with equal m."""
    return np.array([g.edges for g in graphs], dtype=np.intp).reshape(len(graphs), -1, 2)


def row_graph(row: np.ndarray, n: int) -> Graph:
    """The Graph of one (m, 2) row of an edge stack, its edges in sorted order."""
    return Graph(n, tuple(map(tuple, row.tolist())))


# one bit per BFS source, 64 sources to a word; the byte order is fixed so
# that packbits/unpackbits read the same bits on any host
_WORD = np.dtype("<u8")


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """(r, n) booleans as (r, ceil(n / 64)) words: column s of a row is bit
    s % 64 of word s // 64."""
    words = -(-bits.shape[1] // 64)
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((len(bits), 8 * words), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return out.view(_WORD)


def _arcs_by_head(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The tails of the arcs of a (K, m, 2) edge stack, each edge taken both
    ways, sorted by head, with vertex v of graph j as row j * n + v; and
    where each row's run of arcs starts.  Every row must have an arc."""
    k = len(edges)
    arcs = (edges + (n * np.arange(k)).reshape(k, 1, 1)).reshape(-1, 2)
    arcs = np.concatenate([arcs, arcs[:, ::-1]])  # (tail, head)
    degree = np.bincount(arcs[:, 1], minlength=k * n)
    if n > 1 and not degree.all():
        raise ConnectivityError("distances require a connected graph")
    return arcs[np.argsort(arcs[:, 1]), 0], np.cumsum(degree) - degree


def _level_planes(tails: np.ndarray, starts: np.ndarray, k: int, n: int) -> list[np.ndarray]:
    """BFS from every source of k graphs at once, one level per step.

    Row j * n + v, vertex v of graph j, holds one bit per source of graph
    j.  Plane i holds the bits first reached at every level whose bit i
    is set.
    """
    eye = np.eye(n, dtype=bool)
    front = np.tile(_pack_rows(eye), (k, 1))
    unseen = np.tile(_pack_rows(~eye), (k, 1))
    gathered = np.empty((len(tails), front.shape[1]), dtype=_WORD)
    reached = np.empty_like(front)
    planes: list[np.ndarray] = []
    level = 0
    while unseen.any():
        level += 1
        np.take(front, tails, axis=0, out=gathered)
        np.bitwise_or.reduceat(gathered, starts, axis=0, out=reached)
        front, reached = reached, front
        front &= unseen
        if not front.any():
            raise ConnectivityError("distances require a connected graph")
        unseen ^= front
        while len(planes) < level.bit_length():
            planes.append(np.zeros_like(front))
        for i, plane in enumerate(planes):
            if level >> i & 1:
                plane |= front
    return planes


def _parent_order(edges: np.ndarray, n: int) -> np.ndarray | None:
    """The (K, n) parent arrays of a (K, n - 1, 2) edge stack whose every
    row is a tree in parent order, else None.

    Vertex v's parent is the first end of the edge whose second end is v.
    A row qualifies when each v >= 1 is the second end of exactly one
    edge and its parent is smaller than v: then every vertex steps down
    to 0, so the row is connected, and with n - 1 edges it is a tree.
    """
    k = len(edges)
    parent = np.full((k, n), n, dtype=np.intp)  # n: v is no edge's second end
    parent[np.arange(k)[:, None], edges[..., 1]] = edges[..., 0]
    return parent if (parent[:, 1:] < np.arange(1, n)).all() else None


def _tree_distances(parent: np.ndarray) -> np.ndarray:
    """(K, n, n) int32 distances of K trees in parent order.

    The path from x < v to 0 only steps down, so it misses v, and the
    path from v to x leaves v through its parent p: d(v, x) = d(p, x) + 1.
    Step v writes d(v, x) for x < v into row v and column v, so before
    it row p already holds every entry below v, and the step is one
    gather of row p's first v entries and one add, over all K trees.
    """
    k, n = parent.shape
    d = np.zeros((k, n, n), dtype=np.int32)
    rows = np.arange(k)
    for v in range(1, n):
        row = d[rows, parent[:, v], :v]
        row += 1
        d[:, v, :v] = row
        d[:, :v, v] = row
    return d


# Stacks up to this size that are not trees in parent order take
# _closure_stack; fermat.eps3_stack and eps3_profile send the non-tree
# graphs among them to the oracle, whose range it is (measured there).
# On stacks of 60 random graphs with 3 chords (2-vCPU Xeon VM, best of
# 7) the closure took 0.32x the BFS's time at n = 12, 0.41x at 20,
# 0.54x at 28 and 0.62-0.76x at 32-40; on single graphs with 1-5 chords
# (best of 15, 20 graphs) 0.43x at n = 8, 0.48x at 20, 0.59x at 28 and
# 0.69x at 36.  So the oracle's range, not the closure's, sets it.
_ORACLE_MAX_N = 28


def _closure_stack(edges: np.ndarray, n: int) -> np.ndarray:
    """distance_stack by a min-plus closure (Floyd, "Algorithm 97:
    Shortest path", CACM 1962) over a whole stack, for n <= 63.

    The table is (n, n, K) int8, the graph axis innermost, so each of
    the n steps is two numpy calls over every graph at once: through
    vertex w, d(u, v) becomes min(d(u, v), d(u, w) + d(w, v)).  An absent
    edge starts at the sentinel n, above every distance; no sum exceeds
    2n, and a pair that no path joins keeps n.  Returns a (K, n, n) view
    of the table widened to int32, still graph-innermost in memory.
    """
    k = len(edges)
    d = np.full((n, n, k), n, dtype=np.int8)
    d[np.arange(n), np.arange(n)] = 0
    graphs = np.arange(k)[:, None]
    d[edges[..., 0], edges[..., 1], graphs] = 1
    d[edges[..., 1], edges[..., 0], graphs] = 1
    for w in range(n):
        np.minimum(d, d[:, w, None] + d[w, None], out=d)
    if (d[0] == n).any():
        raise ConnectivityError("distances require a connected graph")
    return d.astype(np.int32).transpose(2, 0, 1)


def distance_stack(edges: np.ndarray, n: int) -> np.ndarray:
    """(K, n, n) int32 hop distances of the K connected graphs of a (K, m, 2)
    edge stack on n vertices, every source of every graph at once.

    A stack of trees in parent order (m = n - 1, and in every row each
    vertex v >= 1 is the second end of exactly one edge, whose first end
    is smaller) takes the parent recurrence, _tree_distances: n - 1
    vectorised steps and no BFS.  Against the BFS's one level per unit of
    diameter it is slower only on shallow trees with many vertices, such
    as a large star.  Every other stack with at most _ORACLE_MAX_N
    vertices takes the min-plus closure, _closure_stack, and larger ones
    take _bfs_stack.  Every path returns int32; the closure's is a view
    whose graph axis is innermost in memory, the layout the oracle works
    in (astype keeps that order, so its transpose back is a view).
    """
    if edges.shape[1] == n - 1 and (parent := _parent_order(edges, n)) is not None:
        return _tree_distances(parent)
    if n <= _ORACLE_MAX_N:
        return _closure_stack(edges, n)
    return _bfs_stack(edges, n)


def _bfs_stack(edges: np.ndarray, n: int) -> np.ndarray:
    """distance_stack by a multi-source bit-parallel BFS (MS-BFS, Then et
    al., VLDB 2014), for any stack of connected graphs.

    The K graphs are laid out as K * n rows, one per vertex, each a
    bitset of the n sources of its graph.  The arcs are sorted by head
    once, so each level is one gather of the frontier at every arc's
    tail, one OR over each head's run of arcs, and a mask with the
    unreached bits.  Distances are kept bit-sliced, one plane per bit of
    the level number, so memory is (log2(diameter) + 4) bitsets of
    K * n * n bits plus the gathered arcs, and the planes are decoded
    once at the end.
    """
    k = len(edges)
    planes = _level_planes(*_arcs_by_head(edges, n), k, n)
    d = np.zeros((k * n, n), dtype=np.int32)
    for plane in reversed(planes):
        d <<= 1  # most significant plane first
        d |= np.unpackbits(plane.view(np.uint8), axis=1, count=n, bitorder="little")
    return d.reshape(k, n, n)


def edge_ends(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(K, m, 2) values of a (K, n) vertex array at the two ends of every edge."""
    k, m = edges.shape[:2]
    return np.take_along_axis(x, edges.reshape(k, 2 * m), axis=1).reshape(k, m, 2)


def degree_stack(edges: np.ndarray, n: int) -> np.ndarray:
    """(K, n) vertex degrees of a (K, m, 2) edge stack on n vertices."""
    k = edges.shape[0]
    offset = (n * np.arange(k)).reshape(k, 1, 1)
    return np.bincount((edges + offset).ravel(), minlength=k * n).reshape(k, n)


def classify(g: Graph) -> GraphClass:
    """Cyclomatic classification of a connected graph."""
    cyc = g.m - g.n + 1
    if cyc < 0:
        raise ConnectivityError("classify requires a connected graph")
    return GraphClass(kind=cyclomatic_kind(cyc), cyclomatic=cyc)


def cyclomatic_kind(cyclomatic: int) -> GraphKind:
    """The class of a connected graph with this cyclomatic number."""
    if cyclomatic == 0:
        return GraphKind.TREE
    return GraphKind.UNICYCLIC if cyclomatic == 1 else GraphKind.MULTICYCLIC


class Ecc2Profile(NamedTuple):
    ecc: tuple[int, ...]
    radius: int
    diameter: int
    center: tuple[int, ...]


def eccentricities(d: np.ndarray) -> np.ndarray:
    """Ordinary eccentricities: the row maxima of a distance matrix, or of
    each matrix of a (K, n, n) stack."""
    return d.max(axis=-1)


def eccentricity2_profile(g: Graph, d: np.ndarray | None = None) -> Ecc2Profile:
    """Ordinary eccentricities plus radius, diameter and center set."""
    ecc = eccentricities(distance_matrix(g, d))
    radius = int(ecc.min())
    diameter = int(ecc.max())
    center = tuple(int(u) for u in np.flatnonzero(ecc == radius))
    return Ecc2Profile(
        ecc=tuple(int(e) for e in ecc),
        radius=radius,
        diameter=diameter,
        center=center,
    )
