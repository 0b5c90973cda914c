"""The six indices and the exact cross-multiplied average comparison.

F1/F2 use Fermat eccentricities, E1/E2 ordinary eccentricities, Z1/Z2
vertex degrees.  index_stack computes all six for a (K, m, 2) edge stack
of graphs with equal n and m in one set of array reductions: eps3 by
fermat.eps3_stack, which builds a Graph only for a row the pruned
kernel takes, eccentricities as row maxima of the distance stack,
degrees and edge sums by indexing the edge stack, from which the
distance stack itself comes when none is supplied.  The sweeps and
search exhaustive-small hand it the enumerators' edge-array chunks
directly; index_chunks cuts any other Graph stream (the family grid,
witness files) into chunks of the same size, at most fermat._TABLE
distance entries each, so each list the package analyses is held a
chunk at a time.  A single graph is a chunk of one: full_report runs
the same code on a stack of one.  The comparison of F2/m against F1/n
is decided by the sign of the integer n*F2 - m*F1, exact and never in
floats: on a stack it is taken on the F1/F2 arrays (_signs), and a
Comparison is built only for a reported row.
"""

from enum import Enum
from itertools import groupby, islice
from typing import Iterator, NamedTuple

import numpy as np

from . import fermat
from .errors import PreconditionError
from .fermat import eps3_stack
from .graph import (
    Graph,
    GraphKind,
    cyclomatic_kind,
    degree_stack,
    distance_matrix,
    distance_stack,
    eccentricities,
    edge_ends,
    edge_stack,
)


class Comparison(Enum):
    NEGATIVE = "negative"
    ZERO = "zero"
    POSITIVE = "positive"


class IndexReport(NamedTuple):
    n: int
    m: int
    kind: GraphKind
    eps3: tuple[int, ...]
    f1: int
    f2: int
    e1: int
    e2: int
    z1: int
    z2: int
    comparison: Comparison


def _zagreb(x: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per graph of a stack: the sum of x(u)^2 over vertices and of x(u) * x(v) over edges."""
    x = x.astype(np.int64, copy=False)
    ends = edge_ends(x, edges)
    return (x * x).sum(axis=1), (ends[..., 0] * ends[..., 1]).sum(axis=1)


# the Comparison of each sign of n*F2 - m*F1, and back
_BY_SIGN = {-1: Comparison.NEGATIVE, 0: Comparison.ZERO, 1: Comparison.POSITIVE}
_SIGN = {c: s for s, c in _BY_SIGN.items()}


def compare_averages(n: int, m: int, f1: int, f2: int) -> Comparison:
    """Sign of n*F2 - m*F1; NEGATIVE means F2/m < F1/n strictly."""
    if m == 0:
        raise ValueError("comparison of averages is undefined for m = 0")
    delta = n * f2 - m * f1
    return _BY_SIGN[(delta > 0) - (delta < 0)]


def _signs(n: int, m: int, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """(K,) sign of n*F2 - m*F1 per graph, exact: in int64 where both
    products stay below 2^62 (F1 and F2 are never negative), else in
    Python ints."""
    if n * int(f2.max(initial=0)) < 2**62 and m * int(f1.max(initial=0)) < 2**62:
        delta = n * f2 - m * f1
        return (delta > 0).astype(np.int64) - (delta < 0)
    deltas = (n * b - m * a for a, b in zip(f1.tolist(), f2.tolist()))
    return np.array([(x > 0) - (x < 0) for x in deltas], dtype=np.int64)


class IndexStack(NamedTuple):
    """The indices of K graphs with equal n and m: one row or entry per graph."""

    n: int
    m: int
    kind: GraphKind
    edges: np.ndarray  # (K, m, 2)
    d: np.ndarray  # (K, n, n) distances
    ecc: np.ndarray  # (K, n) eccentricities
    eps3: np.ndarray  # (K, n)
    degree: np.ndarray  # (K, n)
    f1: np.ndarray  # (K,), as are the five sums below
    f2: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    sign: np.ndarray  # (K,) sign of n*F2 - m*F1: -1, 0 or 1

    def report(self, k: int) -> IndexReport:
        """The IndexReport of graph k, in Python ints."""
        return IndexReport(
            n=self.n,
            m=self.m,
            kind=self.kind,
            eps3=tuple(self.eps3[k].tolist()),
            f1=int(self.f1[k]),
            f2=int(self.f2[k]),
            e1=int(self.e1[k]),
            e2=int(self.e2[k]),
            z1=int(self.z1[k]),
            z2=int(self.z2[k]),
            comparison=_BY_SIGN[int(self.sign[k])],
        )


def index_stack(edges: np.ndarray, n: int, d: np.ndarray | None = None) -> IndexStack:
    """All six indices and the comparison of the K connected graphs of a
    (K, m, 2) edge stack on n vertices, from their (K, n, n) distance
    stack d.  With d None the distances come from distance_stack on the
    same edge stack.  Every per-graph step runs on the rows; eps3_stack
    builds a Graph only for the rows its pruned kernel takes."""
    m = edges.shape[1]
    if m == 0:
        raise PreconditionError("the comparison needs at least one edge")
    if d is None:
        d = distance_stack(edges, n)
    eps = eps3_stack(edges, d)
    degree = degree_stack(edges, n)
    f1, f2 = _zagreb(eps, edges)
    ecc = eccentricities(d)
    e1, e2 = _zagreb(ecc, edges)
    z1, z2 = _zagreb(degree, edges)
    return IndexStack(
        n=n,
        m=m,
        kind=cyclomatic_kind(m - n + 1),
        edges=edges,
        d=d,
        ecc=ecc,
        eps3=eps,
        degree=degree,
        f1=f1,
        f2=f2,
        e1=e1,
        e2=e2,
        z1=z1,
        z2=z2,
        sign=_signs(n, m, f1, f2),
    )


def index_chunks(graphs) -> Iterator[tuple[list[Graph], IndexStack]]:
    """index_stack over a stream of Graphs, in order, as (chunk, its
    IndexStack): each run of equal (n, m) cut into chunks whose (K, n, n)
    distance stack holds at most fermat._TABLE entries (at least one
    graph), the cut the enumerators' edge-array chunks make.  Only the
    chunk's edge stack is analysed; the Graphs are handed back as given."""
    for (n, _), run in groupby(graphs, key=lambda g: (g.n, g.m)):
        size = max(1, fermat._TABLE // (n * n))
        for chunk in iter(lambda: list(islice(run, size)), []):
            yield chunk, index_stack(edge_stack(chunk), n)


def full_report(g: Graph, d: np.ndarray | None = None) -> IndexReport:
    """All six indices plus the comparison: index_stack on a stack of one,
    which computes d from the same edge stack when d is None."""
    if d is not None:
        d = distance_matrix(g, d)[None]
    return index_stack(edge_stack([g]), g.n, d).report(0)
