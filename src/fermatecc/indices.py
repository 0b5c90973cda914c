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
chunk at a time.  A single graph is a chunk of one: full_report and the
zagreb_* functions run the same code on a stack of one.  The comparison
of F2/m against F1/n is decided by the sign of the integer n*F2 - m*F1,
in Python ints, never floats.
"""

from enum import Enum
from itertools import groupby, islice
from typing import Iterator, NamedTuple

import numpy as np

from . import fermat
from .errors import ConnectivityError, PreconditionError
from .fermat import FermatProfile, eps3_stack
from .graph import (
    Graph,
    GraphKind,
    cyclomatic_kind,
    degree_stack,
    distance_stack,
    eccentricities,
    eccentricity2_profile,
    edge_ends,
    edge_stack,
    is_connected,
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


def _zagreb_one(g: Graph, x) -> tuple[int, int]:
    s1, s2 = _zagreb(np.array([x], dtype=np.int64).reshape(1, g.n), edge_stack([g]))
    return int(s1[0]), int(s2[0])


def zagreb_fermat(g: Graph, p: FermatProfile) -> tuple[int, int]:
    """F1 = sum of eps3(u)^2 over vertices, F2 = sum of eps3(u)*eps3(v) over edges."""
    return _zagreb_one(g, p.eps3)


def zagreb_eccentricity(g: Graph, d: np.ndarray | None = None) -> tuple[int, int]:
    """E1/E2: the same sums with ordinary eccentricity."""
    return _zagreb_one(g, eccentricity2_profile(g, d).ecc)


def zagreb_classic(g: Graph) -> tuple[int, int]:
    """Z1/Z2: the same sums with vertex degree."""
    return _zagreb_one(g, degree_stack(edge_stack([g]), g.n)[0])


def compare_averages(n: int, m: int, f1: int, f2: int) -> Comparison:
    """Sign of n*F2 - m*F1; NEGATIVE means F2/m < F1/n strictly."""
    if m == 0:
        raise ValueError("comparison of averages is undefined for m = 0")
    delta = n * f2 - m * f1
    if delta < 0:
        return Comparison.NEGATIVE
    if delta > 0:
        return Comparison.POSITIVE
    return Comparison.ZERO


class IndexStack(NamedTuple):
    """The indices of K graphs with equal n and m: one row or entry per graph."""

    n: int
    m: int
    kind: GraphKind
    edges: np.ndarray  # (K, m, 2)
    d: np.ndarray  # (K, n, n) distances
    eps3: np.ndarray  # (K, n)
    degree: np.ndarray  # (K, n)
    f1: np.ndarray  # (K,), as are the five sums below
    f2: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    comparisons: tuple[Comparison, ...]

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
            comparison=self.comparisons[k],
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
    e1, e2 = _zagreb(eccentricities(d), edges)
    z1, z2 = _zagreb(degree, edges)
    return IndexStack(
        n=n,
        m=m,
        kind=cyclomatic_kind(m - n + 1),
        edges=edges,
        d=d,
        eps3=eps,
        degree=degree,
        f1=f1,
        f2=f2,
        e1=e1,
        e2=e2,
        z1=z1,
        z2=z2,
        comparisons=tuple(
            compare_averages(n, m, a, b) for a, b in zip(f1.tolist(), f2.tolist())
        ),
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
    """All six indices plus the comparison: index_stack on a stack of one."""
    if d is not None:  # distance_stack checks connectivity otherwise
        if d.shape != (g.n, g.n):
            raise PreconditionError(f"full_report needs a distance matrix of shape {(g.n, g.n)}, got {d.shape}")
        if not is_connected(g):
            raise ConnectivityError("full_report requires a connected graph")
    return index_stack(edge_stack([g]), g.n, None if d is None else d[None]).report(0)
