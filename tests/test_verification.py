"""Lemma/theorem checks, class sweeps, and the counterexample search."""

import pytest

import fermatecc as fe
from fermatecc import (
    GraphKind,
    PreconditionError,
    check_cyclic_sequence,
    check_diametrical_lemmas,
    check_eccentric_analogue,
    check_edge_lipschitz,
    from_graph6,
    generators,
    is_path_graph,
    search_counterexample,
    sweep_class,
    to_graph6,
    verify_main_inequality,
)


def test_edge_lipschitz_passes_on_samples():
    for g in (fe.path(7), fe.star(6), fe.cycle(8), fe.theta(2, 3, 4)):
        assert check_edge_lipschitz(g).passed


def test_edge_lipschitz_detects_violation():
    g = fe.path(4)
    outcome = check_edge_lipschitz(g, eps3=(1, 5, 5, 5))
    assert not outcome.passed
    assert "(0,1)" in outcome.detail.replace(" ", "")
    assert outcome.instance == to_graph6(g)


def test_edge_lipschitz_rejects_eps3_of_another_length():
    with pytest.raises(PreconditionError, match="must have 4 entries, one per vertex, got 5"):
        check_edge_lipschitz(fe.path(4), eps3=(3, 3, 3, 3, 3))


def test_diametrical_lemmas_on_samples():
    for g in (fe.path(9), fe.star(7), fe.random_tree(35, seed=8)):
        out = check_diametrical_lemmas(g)
        assert out.passed, out.detail


def test_diametrical_lemmas_requires_tree():
    with pytest.raises(PreconditionError):
        check_diametrical_lemmas(fe.cycle(5))


def test_diametrical_lemmas_reject_eps3_of_another_length():
    t = fe.path(5)
    with pytest.raises(PreconditionError, match="must have 5 entries, one per vertex, got 4"):
        check_diametrical_lemmas(t, fe.all_pairs_distances(t), (4, 3, 3, 4))


def test_cyclic_sequence_lemma():
    assert check_cyclic_sequence([3, 4, 4, 3, 2, 2]).passed
    assert check_cyclic_sequence([5, 5, 5]).passed
    with pytest.raises(PreconditionError):
        check_cyclic_sequence([1])
    with pytest.raises(PreconditionError):
        check_cyclic_sequence([1, 3, 2])  # jump of 2 breaks the hypothesis
    with pytest.raises(PreconditionError):
        check_cyclic_sequence([0, 1, 1])  # entries must be positive


def test_is_path_graph():
    assert is_path_graph(fe.path(1))
    assert is_path_graph(fe.path(2))
    assert is_path_graph(fe.path(7))
    assert not is_path_graph(fe.star(4))
    assert not is_path_graph(fe.cycle(4))


def test_main_inequality_tree_and_unicyclic():
    assert verify_main_inequality(fe.path(6)).passed
    assert verify_main_inequality(fe.star(6)).passed
    assert verify_main_inequality(fe.cycle(7)).passed
    assert verify_main_inequality(fe.random_unicyclic(11, girth=4, seed=2)).passed


def test_main_inequality_multicyclic_records_sign():
    out = verify_main_inequality(fe.theta(2, 2, 2))
    assert out.passed
    assert "sign recorded" in out.detail


def test_main_inequality_rejects_another_graphs_report():
    # unchecked, path(5) passed with cycle(5)'s report
    with pytest.raises(PreconditionError, match=r"\(n, m\) = \(5, 5\), not \(5, 4\)"):
        verify_main_inequality(fe.path(5), fe.full_report(fe.cycle(5)))


def test_eccentric_analogue_rejects_another_graphs_report():
    with pytest.raises(PreconditionError, match=r"\(n, m\) = \(5, 5\), not \(5, 4\)"):
        check_eccentric_analogue(fe.path(5), fe.full_report(fe.cycle(5)))


@pytest.mark.parametrize("check", [verify_main_inequality, check_eccentric_analogue])
def test_checks_reject_a_report_of_another_graph_with_equal_n_and_m(check):
    # star(5) and path(5) both have (n, m) = (5, 4); unchecked, the star
    # failed the main inequality with a detail about the path
    with pytest.raises(PreconditionError, match=r"\(z1, z2\) = \(14, 12\), not \(20, 16\)"):
        check(fe.star(5), fe.full_report(fe.path(5)))
    assert check(fe.star(5), fe.full_report(fe.star(5))).passed


def test_eccentric_analogue_samples():
    for g in (fe.path(8), fe.star(8), fe.cycle(9), fe.random_tree(25, seed=3)):
        assert check_eccentric_analogue(g).passed


def test_sweep_trees_small():
    summary = sweep_class(GraphKind.TREE, range(2, 8))
    assert summary.passed, [f.detail for f in summary.failures]
    assert summary.instance_count == 1 + 1 + 2 + 3 + 6 + 11
    # equality instances are exactly the paths, one per n
    assert len(summary.equality_instances) == 6
    assert all(is_path_graph(from_graph6(g6)) for g6 in summary.equality_instances)


def test_sweep_analyses_each_tree_once(monkeypatch):
    import fermatecc.graph
    import fermatecc.indices
    import fermatecc.verify

    calls = {"graph6": 0, "apsp": 0}
    stacks = []  # (n, the graphs' edge lists) of each tree table built

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    real = fermatecc.indices._tree_stack

    def recording(edges, n):
        stacks.append((n, [e.tobytes() for e in edges]))
        return real(edges, n)

    real_graph6 = fermatecc.verify.graph6_stack

    def encoding(edges, n):
        calls["graph6"] += len(edges)
        return real_graph6(edges, n)

    monkeypatch.setattr(fermatecc.verify, "to_graph6", counting("graph6", fermatecc.verify.to_graph6))
    monkeypatch.setattr(fermatecc.verify, "graph6_stack", encoding)
    # every per-graph APSP goes through graph.distance_matrix, which looks
    # distance_stack up in graph; indices builds a tree chunk's table with
    # its own import of _tree_stack
    monkeypatch.setattr(fermatecc.graph, "distance_stack", counting("apsp", fermatecc.graph.distance_stack))
    monkeypatch.setattr(fermatecc.indices, "_tree_stack", recording)
    summary = sweep_class(GraphKind.TREE, range(2, 9))
    assert summary.passed
    # graph6 only for the reported (equality) graphs, and no per-graph APSP
    assert calls["graph6"] == len(summary.equality_instances)
    assert calls["apsp"] == 0
    # one tree table per chunk (each level 2..8 is one chunk),
    # whose stack holds every tree of the level exactly once
    assert [(n, len(set(edges))) for n, edges in stacks] == [
        (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23)
    ]
    assert sum(len(edges) for _, edges in stacks) == summary.instance_count


def test_sweep_grows_each_level_once(monkeypatch):
    import fermatecc.verify

    yields, real = [], fermatecc.verify.free_tree_chunks

    def counting(max_n, min_n):
        yields.append(0)
        for n, edges in real(max_n, min_n):
            yields[-1] += len(edges)
            yield n, edges

    monkeypatch.setattr(fermatecc.verify, "free_tree_chunks", counting)
    sweep_class(GraphKind.TREE, range(2, 10))
    # one call yields every class on 2..9 vertices once, and none smaller
    # than the sweep's least n: A000055 summed
    assert yields == [sum((1, 1, 2, 3, 6, 11, 23, 47))] == [94]


def test_tree_sweep_runs_no_bfs(monkeypatch):
    # the enumerated trees are in parent order, so their distances come
    # from the recurrence; a relabelled enumerator would fail here rather
    # than only slow the sweep down
    import fermatecc.graph

    def refuse(*args):
        raise AssertionError("the tree sweep ran the bit-parallel BFS")

    monkeypatch.setattr(fermatecc.graph, "_level_planes", refuse)
    summary = sweep_class(GraphKind.TREE, range(2, 11))
    assert summary.passed and summary.instance_count == sum((1, 1, 2, 3, 6, 11, 23, 47, 106))


def test_cyclic_claims_run_no_bfs(monkeypatch):
    # every enumerated cyclic class with at most _ORACLE_MAX_N vertices
    # takes the min-plus closure, so a unicyclic sweep and the bicyclic
    # search never reach the bit-parallel BFS
    import fermatecc.graph

    def refuse(*args):
        raise AssertionError("a cyclic claim ran the bit-parallel BFS")

    monkeypatch.setattr(fermatecc.graph, "_level_planes", refuse)
    unicyclic = sweep_class(GraphKind.UNICYCLIC, range(3, 11))
    assert unicyclic.passed and unicyclic.instance_count == sum((1, 2, 5, 13, 33, 89, 240, 657))
    search = search_counterexample("exhaustive-small", budget=1125, max_n=9)
    assert search.instance_count == sum((1, 5, 19, 67, 236, 797))
    assert (len(search.positive_instances), len(search.negative_instances)) == (0, 1070)


def test_sweep_tree_extremes_names_the_extremal_tree(monkeypatch):
    import fermatecc.indices
    import fermatecc.verify

    real = fermatecc.indices.index_stack

    def inflated_star(*args):
        # the sweep reads F1 off each chunk's index arrays
        ix = real(*args)
        stars = ix.degree.max(axis=1) == ix.n - 1
        return ix._replace(f1=ix.f1 + 1000 * (stars & (ix.n == 5)))

    # the sweep analyses each enumerated chunk through the name it imports
    monkeypatch.setattr(fermatecc.verify, "index_stack", inflated_star)
    summary = sweep_class(GraphKind.TREE, range(5, 6))
    low, high = [f for f in summary.failures if f.check_name == "tree_extremes"]
    # each failure names the tree holding the extreme: the chair (max degree
    # 3) now has the smallest F1, the inflated star the largest
    assert low.detail.startswith("n=5: min f1=") and "by the star" in low.detail
    assert high.detail.startswith("n=5: max f1=") and "by the path" in high.detail
    assert max(map(len, from_graph6(low.instance).adj)) == 3
    assert max(map(len, from_graph6(high.instance).adj)) == 4


def test_sweep_unicyclic_small():
    summary = sweep_class(GraphKind.UNICYCLIC, range(3, 7))
    assert summary.passed, [f.detail for f in summary.failures]
    assert summary.instance_count == 1 + 2 + 5 + 13


def test_sweep_rejects_multicyclic():
    with pytest.raises(ValueError):
        sweep_class(GraphKind.MULTICYCLIC, range(4, 6))


def test_search_family_sweep_finds_both_signs():
    summary = search_counterexample("family-sweep")
    assert summary.complete
    assert summary.positive_instances
    assert summary.negative_instances
    # witness round-trip: every recorded sign re-checks standalone
    for g6 in summary.positive_instances[:2]:
        rep = fe.full_report(from_graph6(g6))
        assert rep.n * rep.f2 > rep.m * rep.f1
        assert rep.kind is GraphKind.MULTICYCLIC
    for g6 in summary.negative_instances[:2]:
        rep = fe.full_report(from_graph6(g6))
        assert rep.n * rep.f2 < rep.m * rep.f1


def test_search_exhaustive_small_has_no_positives():
    summary = search_counterexample("exhaustive-small", max_n=7)
    assert summary.complete
    assert not summary.positive_instances
    assert summary.negative_instances


def test_smallest_bicyclic_witness():
    # theta(1, 2, 3) with a 7-edge pendant path at the triangle's apex: the
    # one positive bicyclic class on 12 vertices
    g = from_graph6("KtO_gO@?G?_@")
    rep = fe.full_report(g)
    assert (rep.n, rep.m, rep.f1, rep.f2) == (12, 13, 1067, 1156)
    assert rep.n * rep.f2 - rep.m * rep.f1 == 1
    assert rep.comparison is fe.Comparison.POSITIVE
    assert fe.eps3_oracle(g).eps3 == rep.eps3


def test_no_bicyclic_class_below_12_vertices_is_positive():
    summary = search_counterexample("exhaustive-small", budget=12_636, max_n=11)
    assert summary.instance_count == 12_636
    assert summary.complete
    assert not summary.positive_instances


@pytest.mark.parametrize(
    "budget, count, complete, negatives",
    [
        (0, 0, False, 0),
        (1, 1, False, 0),
        (327, 327, False, 294),
        (328, 328, True, 295),
        (10_000, 328, True, 295),
    ],
)
def test_exhaustive_search_budget_boundary(budget, count, complete, negatives):
    # 328 bicyclic classes with n <= 8: a budget of exactly 328 completes
    # the search, one less cuts it short, inside the last level's chunk
    summary = search_counterexample("exhaustive-small", budget=budget, max_n=8)
    assert summary.instance_count == count
    assert summary.complete is complete
    assert len(summary.negative_instances) == negatives
    assert not summary.positive_instances


def test_exhaustive_search_builds_only_the_cores_it_reaches(monkeypatch):
    # a budget of 5 stops at n = 5, so no core on more than 5 vertices is
    # built, however large max_n is
    built = []

    def counted(build):
        def wrapper(*params):
            built.append(build(*params))
            return built[-1]

        return wrapper

    for name in ("_theta_core", "_dumbbell_core"):
        monkeypatch.setattr(generators, name, counted(getattr(generators, name)))
    generators._core.cache_clear()
    try:
        summary = search_counterexample("exhaustive-small", budget=5, max_n=60)
    finally:
        generators._core.cache_clear()
    assert summary.instance_count == 5 and not summary.complete
    assert built and max(k for k, _, _ in built) <= 5


def test_search_budget_marks_incomplete():
    summary = search_counterexample("family-sweep", budget=3)
    assert summary.instance_count == 3
    assert not summary.complete


def test_search_deterministic_per_seed():
    a = search_counterexample("random-walk", budget=40, seed=123)
    b = search_counterexample("random-walk", budget=40, seed=123)
    assert a == b


def test_search_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        search_counterexample("simulated-annealing")
