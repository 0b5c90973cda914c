"""Mechanical checks of the structural lemmas and comparison theorems.

A failing CheckOutcome names its instance as a graph6 string (or, for
the cyclic-sequence lemma, the sequence), so any failure can be
re-checked standalone; a passing one has instance "".  Sweeps run the
applicable checks over every enumerated isomorphism class, computing
distances and eps3 once per graph and encoding only reported graphs;
the counterexample search hunts multicyclic graphs on both sides of the
comparison inequality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import PreconditionError
from .fermat import eps3_profile, eps3_tree
from .generators import (
    decorate_tree,
    dumbbell,
    enumerate_bicyclic,
    enumerate_free_trees,
    enumerate_unicyclic,
    random_connected,
    theta,
    two_cycles_with_tail,
)
from .graph import (
    Graph,
    GraphKind,
    all_pairs_distances,
    classify,
    is_connected,
    make_graph,
    to_graph6,
)
from .indices import Comparison, IndexReport, full_report


@dataclass(frozen=True)
class CheckOutcome:
    check_name: str
    instance: str
    passed: bool
    detail: str = ""


@dataclass
class SweepSummary:
    swept: str
    instance_count: int = 0
    failures: list[CheckOutcome] = field(default_factory=list)
    equality_instances: list[str] = field(default_factory=list)
    positive_instances: list[str] = field(default_factory=list)
    negative_instances: list[str] = field(default_factory=list)
    complete: bool = True
    # IndexReport of each positive and negative instance, keyed by graph6
    reports: dict[str, IndexReport] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def _outcome(name: str, subject, problems: list[str]) -> CheckOutcome:
    """Pass, or fail naming the subject: a Graph by graph6, a sequence by str."""
    if not problems:
        return CheckOutcome(name, "", True)
    instance = to_graph6(subject) if isinstance(subject, Graph) else str(subject)
    return CheckOutcome(name, instance, False, "; ".join(problems))


def check_edge_lipschitz(g: Graph, eps3=None) -> CheckOutcome:
    """|eps3(u) - eps3(v)| <= 1 across every edge."""
    if eps3 is None:
        eps3 = eps3_profile(g).eps3
    problems = []
    for u, v in g.edges:
        if abs(eps3[u] - eps3[v]) > 1:
            problems.append(f"edge ({u},{v}): eps3 {eps3[u]} vs {eps3[v]}")
    return _outcome("edge_lipschitz", g, problems)


def check_diametrical_lemmas(t: Graph, d: np.ndarray | None = None, eps3=None) -> CheckOutcome:
    """Symmetry, center minimality, edge partition, subtree additivity
    and the subtree-depth bound along a decorated diametrical path."""
    if classify(t).kind is not GraphKind.TREE:
        raise PreconditionError("check_diametrical_lemmas requires a tree")
    if d is None:
        d = all_pairs_distances(t)
    if eps3 is None:
        eps3 = eps3_tree(t, d).eps3
    dec = decorate_tree(t, d)
    p = dec.diametrical_path
    dlen = len(p) - 1
    problems = []

    for i, depth in enumerate(dec.subtree_depths, start=1):
        if depth > min(i, dlen - i):
            problems.append(f"l_{i}={depth} exceeds min({i},{dlen - i})")

    for i in range(dlen + 1):
        if eps3[p[i]] != eps3[p[dlen - i]]:
            problems.append(
                f"symmetry: eps3(v_{i})={eps3[p[i]]} != eps3(v_{dlen - i})={eps3[p[dlen - i]]}"
            )

    half = dlen // 2
    for i in range(half):
        a, b = eps3[p[i]], eps3[p[i + 1]]
        if not (b <= a <= b + 1):
            problems.append(f"monotonicity fails at v_{i}: {a} vs {b}")
    for i in range(half, dlen):
        a, b = eps3[p[i]], eps3[p[i + 1]]
        if not (a <= b <= a + 1):
            problems.append(f"monotonicity fails at v_{i}: {a} vs {b}")
    path_min = min(eps3[v] for v in p)
    for c in dec.center:
        if eps3[c] != path_min:
            problems.append(f"center {c} misses the minimum eps3 on the path")

    ell = dec.ell
    for i in range(ell, dlen - ell):
        if eps3[p[i]] != eps3[p[i + 1]]:
            problems.append(f"middle-segment edge (v_{i},v_{i + 1}) not constant")
    for i in list(range(0, ell)) + list(range(dlen - ell, dlen)):
        if abs(eps3[p[i]] - eps3[p[i + 1]]) != 1:
            problems.append(f"outer-segment edge (v_{i},v_{i + 1}) differs by != 1")

    for u in range(t.n):
        i = dec.subtree_membership[u]
        root = p[i]
        if u == root or not (1 <= i <= dlen - 1):
            continue
        if eps3[u] != d[u, root] + eps3[root]:
            problems.append(
                f"subtree additivity fails at {u}: {eps3[u]} != {d[u, root]}+{eps3[root]}"
            )

    return _outcome("diametrical_lemmas", t, problems)


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
    if g.n == 1:
        return True
    degs = [g.degree(u) for u in range(g.n)]
    return max(degs) <= 2 and sum(1 for x in degs if x == 1) == 2


def verify_main_inequality(g: Graph, report=None) -> CheckOutcome:
    """n*F2 <= m*F1 on trees/unicyclic graphs; trees additionally must hit
    equality exactly when the tree is a path.  Multicyclic inputs only
    have their sign recorded."""
    if report is None:
        report = full_report(g)
    problems = []
    if report.kind is GraphKind.MULTICYCLIC:
        return CheckOutcome(
            "main_inequality", "", True, f"multicyclic, sign recorded: {report.comparison.value}"
        )
    if report.comparison is Comparison.POSITIVE:
        problems.append(f"n*F2 - m*F1 > 0 (F1={report.f1}, F2={report.f2})")
    if report.kind is GraphKind.TREE:
        is_zero = report.comparison is Comparison.ZERO
        if is_zero != is_path_graph(g):
            problems.append(
                f"equality characterization: comparison={report.comparison.value}, "
                f"is_path={is_path_graph(g)}"
            )
    return _outcome("main_inequality", g, problems)


def check_eccentric_analogue(g: Graph, report=None) -> CheckOutcome:
    """n*E2 <= m*E1, the ordinary-eccentricity analogue, on the same classes."""
    if report is None:
        report = full_report(g)
    problems = []
    if report.n * report.e2 > report.m * report.e1:
        problems.append(f"n*E2={report.n * report.e2} > m*E1={report.m * report.e1}")
    return _outcome("eccentric_analogue", g, problems)


def sweep_class(kind: GraphKind, n_values) -> SweepSummary:
    """Run all applicable checks on every enumerated isomorphism class.

    One enumeration pass grows every level up to max(n_values); the
    sizes not in n_values are skipped.
    """
    if kind is GraphKind.TREE:
        summary, enumerate_class = SweepSummary(swept="tree"), enumerate_free_trees
    elif kind is GraphKind.UNICYCLIC:
        summary, enumerate_class = SweepSummary(swept="unicyclic"), enumerate_unicyclic
    else:
        raise ValueError("sweep_class handles tree and unicyclic classes only")
    wanted = set(n_values)

    for n, graphs in groupby(enumerate_class(max(wanted, default=0)), key=lambda g: g.n):
        if n not in wanted:
            continue
        level = []  # (report, graph) of each tree, for the extremal theorem
        for g in graphs:
            summary.instance_count += 1
            d = all_pairs_distances(g)
            report = full_report(g, d)
            outcomes = [
                check_edge_lipschitz(g, report.eps3),
                verify_main_inequality(g, report),
                check_eccentric_analogue(g, report),
            ]
            if kind is GraphKind.TREE:
                outcomes.append(check_diametrical_lemmas(g, d, report.eps3))
                level.append((report, g))
            summary.failures.extend(o for o in outcomes if not o.passed)
            if report.comparison is Comparison.ZERO:
                summary.equality_instances.append(to_graph6(g))
        if kind is GraphKind.TREE and n >= 3:
            # extremal theorem: star minimises and path maximises F1 and F2
            star = next(r for r, g in level if max(map(len, g.adj)) == n - 1)
            path = next(r for r, g in level if is_path_graph(g))
            ends = (("min", min, "star", star), ("max", max, "path", path))
            for name in ("f1", "f2"):
                for side, pick, shape, shape_report in ends:
                    best, h = pick(level, key=lambda rg: getattr(rg[0], name))
                    val, want = getattr(best, name), getattr(shape_report, name)
                    if want != val:
                        summary.failures.append(
                            CheckOutcome(
                                "tree_extremes",
                                to_graph6(h),
                                False,
                                f"n={n}: {side} {name}={val} not attained by the {shape} ({want})",
                            )
                        )
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


def _record(summary: SweepSummary, g: Graph, report: IndexReport) -> None:
    if report.comparison is Comparison.POSITIVE:
        instances = summary.positive_instances
    elif report.comparison is Comparison.NEGATIVE:
        instances = summary.negative_instances
    else:
        return
    g6 = to_graph6(g)
    instances.append(g6)
    summary.reports[g6] = report


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
        budget = budget if budget is not None else 10_000
        for g in enumerate_bicyclic(max_n):
            if summary.instance_count >= budget:
                # exhaustive over all classes in range: complete even if one
                # side has no instance at these sizes, unless the budget cut
                # it short
                summary.complete = False
                break
            summary.instance_count += 1
            _record(summary, g, full_report(g))
    elif strategy == "family-sweep":
        budget = budget if budget is not None else 200
        for g in _family_grid():
            if summary.instance_count >= budget:
                break
            summary.instance_count += 1
            _record(summary, g, full_report(g))
        summary.complete = bool(summary.positive_instances and summary.negative_instances)
    else:  # random-walk
        budget = budget if budget is not None else 300
        rng = random.Random(seed)
        # a spanning tree plus 3 extra edges: cyclomatic number 3
        g = random_connected(14, seed=rng.randrange(2**32), extra_edges=3)
        while summary.instance_count < budget:
            summary.instance_count += 1
            _record(summary, g, full_report(g))
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
