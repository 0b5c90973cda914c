"""Mechanical checks of the structural lemmas and comparison theorems.

Each lemma is stated once, as a mask over a stack of K graphs with equal
n and m: edge-Lipschitz, the main inequality with its equality case
(the paths among trees, constant eps3 on unicyclic graphs), the
eccentric analogue and the diametral-path lemmas.  A lemma function
returns every graph's failure flag and a formatter of one graph's
problems.  Sweeps take the enumerator's edge-array chunks one level at
a time, through indices.index_stack: each chunk's distance stack from
the parent recurrence for trees and from one bit-parallel BFS over all
its graphs otherwise, then the indices and every lemma as array
reductions over the chunk, so a level is never held whole.  The
per-graph check_* functions run the same lemma functions on a stack of
one, so their details are the sweep's, byte for byte.

A tree chunk checks the diametral-path lemmas through one closed form.
On the double-sweep path v_0..v_D, with foot i(u), hang h(u),
near(u) = min(i(u), D - i(u)), ell the largest interior hang and
c = eps3(v_ell), the six eps3 lemmas hold exactly when eps3(u) =
h(u) + c + max(0, ell - near(u)) for every u: the form meets each, and
the middle, outer and monotonicity lemmas fix it on the path (ell <= D/2
as D is the diameter), additivity off it (nothing hangs off v_0 or v_D).
The depth lemma is h(u) <= near(u).  Only trees off the form get the
decoration and the lemma masks.

A failing CheckOutcome names its instance as a graph6 string (or, for
the cyclic-sequence lemma, the sequence), so any failure can be
re-checked standalone; a passing one has instance "".  Only reported
graphs are encoded, straight from their edge rows.  The counterexample
search hunts multicyclic graphs on both sides of the comparison
inequality; all but random-walk, whose next graph depends on the last
one, analyse their streams in the same chunks.
"""

import random
from functools import partial
from itertools import groupby, islice
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .fermat import eps3_profile, eps3_tree
from .generators import (
    DecorationStack,
    check_path_rows,
    cyclic_chunks,
    decorate_stack,
    double_sweep,
    dumbbell,
    free_tree_chunks,
    random_connected,
    theta,
    two_cycles_with_tail,
)
from .graph import (
    Graph,
    GraphKind,
    classify,
    degree_stack,
    distance_matrix,
    edge_ends,
    edge_stack,
    graph6_stack,
    is_connected,
    make_graph,
    to_graph6,
)
from .indices import _BY_SIGN, _SIGN, Comparison, IndexReport, IndexStack, full_report, index_chunks, index_stack


class CheckOutcome(NamedTuple):
    check_name: str
    instance: str
    passed: bool
    detail: str = ""


class SweepSummary:
    """What a sweep or search saw; mutable, filled in as it runs.  Equal
    when every field is, and printed field by field."""

    __slots__ = (
        "swept",
        "instance_count",
        "failures",
        "equality_instances",
        "positive_instances",
        "negative_instances",
        "complete",
    )

    def __init__(
        self,
        swept: str,
        instance_count: int = 0,
        failures: list[CheckOutcome] | None = None,
        equality_instances: list[str] | None = None,
        positive_instances: list[str] | None = None,
        negative_instances: list[str] | None = None,
        complete: bool = True,
    ) -> None:
        self.swept = swept
        self.instance_count = instance_count
        self.failures = [] if failures is None else failures
        self.equality_instances = [] if equality_instances is None else equality_instances
        self.positive_instances = [] if positive_instances is None else positive_instances
        self.negative_instances = [] if negative_instances is None else negative_instances
        self.complete = complete

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"SweepSummary({fields})"

    @property
    def passed(self) -> bool:
        return not self.failures


def _outcome(name: str, subject, problems: list[str]) -> CheckOutcome:
    """Pass, or fail naming the subject: a Graph by graph6, a sequence by str."""
    if not problems:
        return CheckOutcome(name, "", True)
    instance = to_graph6(subject) if isinstance(subject, Graph) else str(subject)
    return CheckOutcome(name, instance, False, "; ".join(problems))


# ---------------------------------------------------------------------------
# the lemmas, each over a stack of K graphs


def _edge_lipschitz(eps: np.ndarray, edges: np.ndarray):
    """|eps3(u) - eps3(v)| <= 1 across every edge."""
    ends = edge_ends(eps, edges)
    bad = np.abs(ends[..., 0] - ends[..., 1]) > 1

    def problems(k: int) -> list[str]:
        return [
            f"edge ({u},{v}): eps3 {x} vs {y}"
            for (u, v), (x, y) in zip(edges[k][bad[k]].tolist(), ends[k][bad[k]].tolist())
        ]

    return bad.any(axis=1), problems


def _is_path(degree: np.ndarray) -> np.ndarray:
    """Structural path test per row of a (K, n) degree array: exactly two
    leaves and maximum degree <= 2, or a single vertex."""
    if degree.shape[1] == 1:
        return np.ones(len(degree), dtype=bool)
    return (degree.max(axis=1) <= 2) & ((degree == 1).sum(axis=1) == 2)


def _main_inequality(kind: GraphKind, sign: np.ndarray, f1, f2, degree: np.ndarray, eps: np.ndarray):
    """n*F2 <= m*F1, with equality exactly on the paths among trees and
    exactly where eps3 is constant on other graphs; sign is that of
    n*F2 - m*F1 per graph."""
    positive, zero = sign > 0, sign == 0
    if kind is GraphKind.TREE:
        name, equal = "is_path", _is_path(degree)
    else:
        name, equal = "eps3_constant", (eps == eps[:, :1]).all(axis=1)
    mismatch = zero != equal

    def problems(k: int) -> list[str]:
        out = []
        if positive[k]:
            out.append(f"n*F2 - m*F1 > 0 (F1={f1[k]}, F2={f2[k]})")
        if mismatch[k]:
            out.append(
                f"equality characterization: comparison={_BY_SIGN[int(sign[k])].value}, "
                f"{name}={bool(equal[k])}"
            )
        return out

    return positive | mismatch, problems


def _eccentric_analogue(n: int, m: int, e1: list[int], e2: list[int]):
    """n*E2 <= m*E1, the ordinary-eccentricity analogue, in Python ints."""
    lhs, rhs = [n * x for x in e2], [m * x for x in e1]
    bad = np.array([a > b for a, b in zip(lhs, rhs)], dtype=bool)

    def problems(k: int) -> list[str]:
        return [f"n*E2={lhs[k]} > m*E1={rhs[k]}"] if bad[k] else []

    return bad, problems


def _diametral_lemmas(d: np.ndarray, eps: np.ndarray, dec: DecorationStack):
    """The lemmas along each tree's decorated diametrical path v_0..v_D.

    Subtree depth l_i <= min(i, D - i); symmetry eps3(v_i) = eps3(v_{D-i});
    monotonicity, eps3 falling by 0 or 1 along each path edge towards the
    middle; every centre at the path's minimum; a constant middle segment
    v_ell..v_{D-ell} and steps of exactly 1 outside it; and subtree
    additivity, eps3(u) = d(u, v_i) + eps3(v_i) for u hanging off an
    interior v_i.
    """
    n = eps.shape[1]
    i, j = np.arange(n), np.arange(n - 1)  # path positions, path edges (v_j, v_j+1)
    dlen, ell = dec.length[:, None], dec.ell[:, None]
    on_path = i <= dlen
    ep = np.take_along_axis(eps, dec.path, axis=1)  # eps3(v_i)
    mirror = np.take_along_axis(ep, np.maximum(dlen - i, 0), axis=1)  # eps3(v_{D-i})
    step = ep[:, 1:] - ep[:, :-1]  # eps3(v_{j+1}) - eps3(v_j)
    fall = np.where(j < dlen // 2, -step, step)  # the fall towards the middle
    path_min = ep.min(axis=1, where=on_path, initial=np.iinfo(ep.dtype).max)
    root = np.take_along_axis(dec.path, dec.foot, axis=1)  # each vertex's foot
    d_root = np.take_along_axis(d, root[:, :, None], axis=2)[:, :, 0]
    e_root = np.take_along_axis(eps, root, axis=1)
    masks = (
        (1 <= i) & (i < dlen) & (dec.depths > np.minimum(i, dlen - i)),
        on_path & (ep != mirror),
        (j < dlen) & (fall != 0) & (fall != 1),
        dec.center & (eps != path_min[:, None]),
        (ell <= j) & (j < dlen - ell) & (step != 0),
        ((j < ell) | ((dlen - ell <= j) & (j < dlen))) & (np.abs(step) != 1),
        (i != root) & (1 <= dec.foot) & (dec.foot < dlen) & (eps != d_root + e_root),
    )

    def problems(k: int) -> list[str]:
        e, p, D = eps[k].tolist(), dec.path[k].tolist(), int(dec.length[k])
        depth, sym, mono, center, middle, outer, additive = (
            np.flatnonzero(mask[k]).tolist() for mask in masks
        )
        # a diametral pair's subtree depths are at most D/2, so the two
        # outer segments never overlap and ascending order is path order
        return (
            [f"l_{i}={dec.depths[k, i]} exceeds min({i},{D - i})" for i in depth]
            + [f"symmetry: eps3(v_{i})={e[p[i]]} != eps3(v_{D - i})={e[p[D - i]]}" for i in sym]
            + [f"monotonicity fails at v_{i}: {e[p[i]]} vs {e[p[i + 1]]}" for i in mono]
            + [f"center {c} misses the minimum eps3 on the path" for c in center]
            + [f"middle-segment edge (v_{i},v_{i + 1}) not constant" for i in middle]
            + [f"outer-segment edge (v_{i},v_{i + 1}) differs by != 1" for i in outer]
            + [
                f"subtree additivity fails at {u}: {e[u]} != {d_root[k, u]}+{e[root[k, u]]}"
                for u in additive
            ]
        )

    return np.logical_or.reduce([mask.any(axis=1) for mask in masks]), problems


def _off_closed_form(eps: np.ndarray, length: np.ndarray, foot: np.ndarray, hang: np.ndarray):
    """Per tree of a stack, from double_sweep's fields: whether eps3 leaves
    the closed form, whose residual eps3 - h - max(0, ell - near) is c at
    v_ell and so constant on the row, or a hang the depth bound."""
    near = np.minimum(foot, length[:, None] - foot)
    ell = np.where(near > 0, hang, 0).max(axis=1, keepdims=True)
    residual = eps - hang - np.maximum(ell - near, 0)
    return ((residual != residual[:, :1]) | (hang > near)).any(axis=1)


def _tree_lemmas(ix: IndexStack):
    """_diametral_lemmas on the trees of a chunk _off_closed_form flags; the others pass."""
    rows = np.flatnonzero(_off_closed_form(ix.eps3, *double_sweep(ix.edges, ix.d, ix.ecc)[:3]))
    bad = np.zeros(len(ix.edges), dtype=bool)
    if not rows.size:
        return bad, None
    d = ix.d[rows]
    bad[rows], problems = _diametral_lemmas(d, ix.eps3[rows], decorate_stack(ix.edges[rows], d))
    return bad, lambda k: problems(int(rows.searchsorted(k)))


def _single(name: str, g: Graph, lemma) -> CheckOutcome:
    """The outcome of a lemma run on a stack of one."""
    return _outcome(name, g, lemma[1](0))


def _vertex_values(g: Graph, eps3) -> np.ndarray:
    """A caller's eps3 of g as a stack of one, one entry per vertex."""
    if len(eps3) != g.n:
        raise PreconditionError(f"eps3 must have {g.n} entries, one per vertex, got {len(eps3)}")
    return np.array(eps3, dtype=np.int64).reshape(1, g.n)


def _report_of(g: Graph, report: IndexReport | None) -> IndexReport:
    """g's full_report, or a caller's report of a graph with g's n, m and
    degree sums z1, z2."""
    if report is None:
        return full_report(g)
    if (report.n, report.m) != (g.n, g.m):
        raise PreconditionError(f"report of a graph with (n, m) = {(report.n, report.m)}, not {(g.n, g.m)}")
    degree = [len(nbrs) for nbrs in g.adj]
    z = (sum(x * x for x in degree), sum(degree[u] * degree[v] for u, v in g.edges))
    if (report.z1, report.z2) != z:
        raise PreconditionError(f"report of a graph with (z1, z2) = {(report.z1, report.z2)}, not {z}")
    return report


# ---------------------------------------------------------------------------
# the per-graph checks: each lemma on a stack of one


def check_edge_lipschitz(g: Graph, eps3=None) -> CheckOutcome:
    """|eps3(u) - eps3(v)| <= 1 across every edge."""
    if eps3 is None:
        eps3 = eps3_profile(g).eps3
    return _single("edge_lipschitz", g, _edge_lipschitz(_vertex_values(g, eps3), edge_stack([g])))


def check_diametrical_lemmas(t: Graph, d: np.ndarray | None = None, eps3=None) -> CheckOutcome:
    """Symmetry, center minimality, edge partition, subtree additivity
    and the subtree-depth bound along a decorated diametrical path."""
    if classify(t).kind is not GraphKind.TREE:
        raise PreconditionError("check_diametrical_lemmas requires a tree")
    d = distance_matrix(t, d)
    check_path_rows(t, d)
    if eps3 is None:
        eps3 = eps3_tree(t, d).eps3
    eps = _vertex_values(t, eps3)
    lemma = _diametral_lemmas(d[None], eps, decorate_stack(edge_stack([t]), d[None]))
    return _single("diametrical_lemmas", t, lemma)


def check_cyclic_sequence(xs) -> CheckOutcome:
    """sum(x_i^2) >= sum(x_i * x_{i+1}) for cyclically 1-Lipschitz positive ints."""
    xs = list(xs)
    if len(xs) < 2:
        raise PreconditionError("cyclic sequence needs length >= 2")
    if any(x <= 0 for x in xs):
        raise PreconditionError("cyclic sequence entries must be positive")
    for i in range(len(xs)):
        if abs(xs[i] - xs[(i + 1) % len(xs)]) > 1:
            raise PreconditionError(f"|x_{i} - x_{i + 1}| > 1 violates the precondition")
    lhs = sum(x * x for x in xs)
    rhs = sum(xs[i] * xs[(i + 1) % len(xs)] for i in range(len(xs)))
    problems = []
    if lhs < rhs:
        problems.append(f"sum of squares {lhs} < cyclic product sum {rhs}")
    return _outcome("cyclic_sequence", xs, problems)


def is_path_graph(g: Graph) -> bool:
    """Structural path test: exactly two leaves, maximum degree <= 2."""
    return bool(_is_path(degree_stack(edge_stack([g]), g.n))[0])


def verify_main_inequality(g: Graph, report=None) -> CheckOutcome:
    """n*F2 <= m*F1 on trees/unicyclic graphs, with equality exactly when
    a tree is a path and when a unicyclic graph's eps3 is constant.
    Multicyclic inputs only have their sign recorded."""
    report = _report_of(g, report)
    if report.kind is GraphKind.MULTICYCLIC:
        return CheckOutcome(
            "main_inequality", "", True, f"multicyclic, sign recorded: {report.comparison.value}"
        )
    degree = degree_stack(edge_stack([g]), g.n)
    eps = np.array([report.eps3])
    sign = np.array([_SIGN[report.comparison]])
    lemma = _main_inequality(report.kind, sign, [report.f1], [report.f2], degree, eps)
    return _single("main_inequality", g, lemma)


def check_eccentric_analogue(g: Graph, report=None) -> CheckOutcome:
    """n*E2 <= m*E1, the ordinary-eccentricity analogue, on the same classes."""
    report = _report_of(g, report)
    lemma = _eccentric_analogue(report.n, report.m, [report.e1], [report.e2])
    return _single("eccentric_analogue", g, lemma)


# ---------------------------------------------------------------------------
# sweeps: a level at a time, in stacked chunks


def _failures(ix: IndexStack) -> list[CheckOutcome]:
    """Every failed check of a chunk, graph by graph in the checks' order."""
    lemmas = [
        ("edge_lipschitz", _edge_lipschitz(ix.eps3, ix.edges)),
        (
            "main_inequality",
            _main_inequality(ix.kind, ix.sign, ix.f1, ix.f2, ix.degree, ix.eps3),
        ),
        ("eccentric_analogue", _eccentric_analogue(ix.n, ix.m, ix.e1.tolist(), ix.e2.tolist())),
    ]
    if ix.kind is GraphKind.TREE:
        lemmas.append(("diametrical_lemmas", _tree_lemmas(ix)))
    failed = np.flatnonzero(np.logical_or.reduce([bad for _, (bad, _) in lemmas]))
    return [
        CheckOutcome(name, g6, False, "; ".join(problems(k)))
        for k, g6 in zip(failed.tolist(), graph6_stack(ix.edges[failed], ix.n))
        for name, (bad, problems) in lemmas
        if bad[k]
    ]


def _graph6_of(ix: IndexStack, comparison: Comparison) -> list[str]:
    """graph6 of the chunk's graphs with this comparison, in order."""
    return graph6_stack(ix.edges[ix.sign == _SIGN[comparison]], ix.n)


def _tree_extremes(n: int, picks: dict, shapes: dict) -> list[CheckOutcome]:
    """Extremal theorem: the star minimises and the path maximises F1 and F2.

    picks maps (index, side) to each chunk's first extreme value and its
    tree's edge row, in stream order; shapes maps "star" and "path" to
    the first such tree's indices.
    """
    failures = []
    for name in ("f1", "f2"):
        for side, pick, shape in (("min", min, "star"), ("max", max, "path")):
            # min and max return the first extreme: the level's first
            val, row = pick(picks[name, side], key=lambda pair: pair[0])
            want = shapes[shape][name]
            if want != val:
                failures.append(
                    CheckOutcome(
                        "tree_extremes",
                        graph6_stack(row[None], n)[0],
                        False,
                        f"n={n}: {side} {name}={val} not attained by the {shape} ({want})",
                    )
                )
    return failures


def _sweep_level(summary: SweepSummary, n: int, chunks) -> None:
    """Analyse one level, a stream of (K, m, 2) edge chunks on n vertices,
    chunk by chunk, recording into summary."""
    picks: dict = {}  # (index, side) -> [(first extreme value, its edge row) per chunk]
    shapes: dict = {}  # "star" / "path" -> indices of the first such tree
    for edges in chunks:
        ix = index_stack(edges, n)
        summary.instance_count += len(edges)
        summary.failures.extend(_failures(ix))
        summary.equality_instances.extend(_graph6_of(ix, Comparison.ZERO))
        if ix.kind is not GraphKind.TREE:
            continue
        for name in ("f1", "f2"):
            vals = getattr(ix, name).tolist()
            for side, pick in (("min", min), ("max", max)):
                k = vals.index(pick(vals))
                # a copy, so that no pick holds its whole chunk
                picks.setdefault((name, side), []).append((vals[k], edges[k].copy()))
        found = (("star", ix.degree.max(axis=1) == n - 1), ("path", _is_path(ix.degree)))
        for shape, mask in found:
            hits = np.flatnonzero(mask)
            if shape not in shapes and hits.size:
                shapes[shape] = {"f1": int(ix.f1[hits[0]]), "f2": int(ix.f2[hits[0]])}
    if picks and n >= 3:
        summary.failures.extend(_tree_extremes(n, picks, shapes))


def sweep_class(kind: GraphKind, n_values) -> SweepSummary:
    """Run all applicable checks on every enumerated isomorphism class.

    One enumeration pass grows every level from min(n_values) to
    max(n_values), in edge-array chunks; the sizes not in n_values are
    skipped.
    """
    if kind is GraphKind.TREE:
        summary, chunks = SweepSummary(swept="tree"), free_tree_chunks
    elif kind is GraphKind.UNICYCLIC:
        summary, chunks = SweepSummary(swept="unicyclic"), partial(cyclic_chunks, 1)
    else:
        raise ValueError("sweep_class handles tree and unicyclic classes only")
    wanted = set(n_values)
    stream = chunks(max(wanted, default=0), min(wanted, default=0))
    for n, level in groupby(stream, key=itemgetter(0)):
        if n in wanted:
            _sweep_level(summary, n, map(itemgetter(1), level))
    return summary


# ---------------------------------------------------------------------------
# counterexample search over multicyclic graphs

SEARCH_STRATEGIES = ("exhaustive-small", "family-sweep", "random-walk")


def _family_grid():
    # theta graphs with near-equal arms
    for a in (2, 3, 4, 6, 8, 12, 16, 24, 36, 50, 70):
        for da, db in ((0, 1), (1, 2)):
            yield theta(a, a + da, a + db)
    # dumbbells, optionally with pendant paths hanging off the cycles
    for c in (3, 5, 9, 15):
        for bridge in (1, 4, 10):
            for p in (0, 3):
                yield dumbbell(c, c, bridge, p, p)
    # two cycles joined by a long path that carries a pendant path at its
    # midpoint; this corner of the parameter grid crosses into violation
    # territory (n*F2 > m*F1) once the joining path is long enough
    for half in (6, 10, 14, 16, 18, 20, 24, 28, 32):
        for tail_frac in (2, 3):
            for c in (3, 4):
                yield two_cycles_with_tail(c, c, 2 * half, half // tail_frac)


def _record(summary: SweepSummary, ix: IndexStack) -> None:
    summary.instance_count += len(ix.edges)
    summary.positive_instances.extend(_graph6_of(ix, Comparison.POSITIVE))
    summary.negative_instances.extend(_graph6_of(ix, Comparison.NEGATIVE))


def search_counterexample(
    strategy: str,
    budget: int | None = None,
    seed: int = 0,
    max_n: int = 8,
) -> SweepSummary:
    """Hunt multicyclic graphs on both sides of the comparison inequality.

    Positive instances violate the tree/unicyclic inequality direction,
    negative ones violate its opposite.  Deterministic per (strategy,
    budget, seed).  complete=False flags an exhausted budget before both
    directions were seen.
    """
    if strategy not in SEARCH_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {SEARCH_STRATEGIES}")
    summary = SweepSummary(swept=f"search:{strategy}")

    if strategy == "exhaustive-small":
        # exhaustive over all classes in range: complete even if one side
        # has no instance at these sizes, unless the budget cut it short
        left = 10_000 if budget is None else budget
        for n, edges in cyclic_chunks(2, max_n):
            if len(edges) > left:
                edges, summary.complete = edges[:left], False
            left -= len(edges)
            if len(edges):
                _record(summary, index_stack(edges, n))
            if not summary.complete:
                break
    elif strategy == "family-sweep":
        for _, ix in index_chunks(islice(_family_grid(), 200 if budget is None else budget)):
            _record(summary, ix)
        summary.complete = bool(summary.positive_instances and summary.negative_instances)
    else:
        budget = budget if budget is not None else 300
        rng = random.Random(seed)
        # a spanning tree plus 3 extra edges: cyclomatic number 3
        g = random_connected(14, seed=rng.randrange(2**32), extra_edges=3)
        while summary.instance_count < budget:
            _record(summary, index_stack(edge_stack([g]), g.n))
            # edge-swap perturbation preserving m (hence cyclomatic) and
            # connectivity
            for _ in range(50):
                edges = list(g.edges)
                u, v = edges[rng.randrange(len(edges))]
                a = rng.randrange(g.n)
                b = rng.randrange(g.n)
                if a == b or g.has_edge(a, b):
                    continue
                newe = [e for e in edges if e != (u, v)] + [(min(a, b), max(a, b))]
                cand = make_graph(g.n, newe, strict=False)
                if is_connected(cand):
                    g = cand
                    break
            if summary.positive_instances and summary.negative_instances:
                break
        summary.complete = bool(summary.positive_instances and summary.negative_instances)

    return summary
