"""The six indices and the exact cross-multiplied average comparison.

F1/F2 use Fermat eccentricities, E1/E2 ordinary eccentricities, Z1/Z2
vertex degrees.  The comparison of F2/m against F1/n is decided by the
sign of the integer n*F2 - m*F1; no floating point is ever involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import PreconditionError
from .fermat import FermatProfile, eps3_profile
from .graph import (
    Graph,
    GraphKind,
    all_pairs_distances,
    classify,
    eccentricity2_profile,
)


class Comparison(Enum):
    NEGATIVE = "negative"
    ZERO = "zero"
    POSITIVE = "positive"


@dataclass(frozen=True)
class IndexReport:
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


def zagreb_fermat(g: Graph, p: FermatProfile) -> tuple[int, int]:
    """F1 = sum of eps3(u)^2 over vertices, F2 = sum of eps3(u)*eps3(v) over edges."""
    eps = p.eps3
    f1 = sum(e * e for e in eps)
    f2 = sum(eps[u] * eps[v] for u, v in g.edges)
    return f1, f2


def zagreb_eccentricity(g: Graph, d: np.ndarray | None = None) -> tuple[int, int]:
    """E1/E2: the same sums with ordinary eccentricity."""
    ecc = eccentricity2_profile(g, d).ecc
    e1 = sum(e * e for e in ecc)
    e2 = sum(ecc[u] * ecc[v] for u, v in g.edges)
    return e1, e2


def zagreb_classic(g: Graph) -> tuple[int, int]:
    """Z1/Z2: the same sums with vertex degree."""
    deg = [g.degree(u) for u in range(g.n)]
    z1 = sum(x * x for x in deg)
    z2 = sum(deg[u] * deg[v] for u, v in g.edges)
    return z1, z2


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


def full_report(g: Graph, d: np.ndarray | None = None) -> IndexReport:
    """All six indices plus the comparison, via the fastest valid eps3 path."""
    if g.m == 0:
        raise PreconditionError("the comparison needs at least one edge")
    if d is None:
        d = all_pairs_distances(g)
    profile = eps3_profile(g, d)
    f1, f2 = zagreb_fermat(g, profile)
    e1, e2 = zagreb_eccentricity(g, d)
    z1, z2 = zagreb_classic(g)
    comparison = compare_averages(g.n, g.m, f1, f2)
    return IndexReport(
        n=g.n,
        m=g.m,
        kind=classify(g).kind,
        eps3=profile.eps3,
        f1=f1,
        f2=f2,
        e1=e1,
        e2=e2,
        z1=z1,
        z2=z2,
        comparison=comparison,
    )
