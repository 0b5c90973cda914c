"""The six indices and the exact cross-multiplied comparison."""

import inspect

import numpy as np
import pytest

import fermatecc as fe
from fermatecc import Comparison, PreconditionError, compare_averages, full_report


def test_full_report_path4():
    rep = full_report(fe.path(4))
    assert rep.eps3 == (3, 3, 3, 3)
    assert (rep.f1, rep.f2) == (36, 27)
    assert rep.comparison is Comparison.ZERO
    assert rep.kind is fe.GraphKind.TREE


def test_full_report_star5():
    rep = full_report(fe.star(5))
    assert rep.eps3 == (2, 3, 3, 3, 3)
    assert (rep.f1, rep.f2) == (40, 24)
    # 5*24 = 120 < 4*40 = 160
    assert rep.comparison is Comparison.NEGATIVE


def test_full_report_cycle6():
    rep = full_report(fe.cycle(6))
    assert rep.eps3 == (4,) * 6
    assert (rep.f1, rep.f2) == (96, 96)
    assert rep.comparison is Comparison.ZERO
    assert rep.kind is fe.GraphKind.UNICYCLIC


def test_zagreb_classic_star():
    rep = full_report(fe.star(5))
    assert rep.z1 == 16 + 4 * 1
    assert rep.z2 == 4 * 4


def test_zagreb_eccentricity_path5():
    rep = full_report(fe.path(5))
    # eccentricities 4,3,2,3,4
    assert rep.e1 == 16 + 9 + 4 + 9 + 16
    assert rep.e2 == 12 + 6 + 6 + 12


def test_compare_averages_signs():
    assert compare_averages(4, 3, 36, 27) is Comparison.ZERO
    assert compare_averages(5, 4, 40, 24) is Comparison.NEGATIVE
    assert compare_averages(3, 3, 1, 2) is Comparison.POSITIVE


def test_compare_averages_rejects_edgeless():
    with pytest.raises(ValueError):
        compare_averages(1, 0, 0, 0)


def test_comparison_uses_exact_integers():
    # values near the boundary that would misclassify under float division
    big = 10**18
    assert compare_averages(3, 3, big, big) is Comparison.ZERO
    assert compare_averages(3, 3, big, big + 1) is Comparison.POSITIVE
    assert compare_averages(3, 3, big + 1, big) is Comparison.NEGATIVE


@pytest.mark.parametrize("top", [2**60 // 3, 2**60, 2**62], ids=["int64", "python-2^60", "python-2^62"])
def test_stack_signs_stay_exact(top):
    # 3 * (2^60 // 3) keeps both products below 2^62, so the signs come
    # from int64; 3 * 2^60 and 3 * 2^62 do not, and at 2^62 int64 would wrap
    from fermatecc.indices import _signs

    f1 = np.array([top, top, top - 1, top, 0], dtype=np.int64)
    f2 = np.array([top, top - 1, top, 0, 0], dtype=np.int64)
    want = [compare_averages(3, 3, a, b) for a, b in zip(f1.tolist(), f2.tolist())]
    got = _signs(3, 3, f1, f2)
    assert [{-1: Comparison.NEGATIVE, 0: Comparison.ZERO, 1: Comparison.POSITIVE}[s] for s in got.tolist()] == want


def test_full_report_supplied_d_identical():
    g = fe.random_connected(20, seed=4, extra_edges=5)
    assert full_report(g, fe.all_pairs_distances(g)) == full_report(g)


def test_full_report_rejects_edgeless():
    with pytest.raises(PreconditionError):
        full_report(fe.make_graph(1, []))


def _takers_of_d():
    """Every public function that takes a graph and its distance matrix d,
    found by signature, so that none added later escapes the tests below."""
    found = []
    for name in sorted(dir(fe)):
        f = getattr(fe, name)
        if inspect.isfunction(f):
            params = list(inspect.signature(f).parameters.values())
            if params and params[0].annotation is fe.Graph and "d" in (p.name for p in params):
                found.append(f)
    assert {f.__name__ for f in found} == {
        "check_diametrical_lemmas",
        "decorate_tree",
        "eccentricity2_profile",
        "eps3_oracle",
        "eps3_profile",
        "eps3_pruned",
        "eps3_tree",
        "full_report",
    }
    return found


def test_full_report_rejects_disconnected_graph_with_supplied_d():
    # a triangle plus an isolated vertex has m = n - 1, like a tree; the
    # supplied matrix (a path's) must not stand in for its distances in
    # any function that takes d
    g = fe.make_graph(4, [(0, 1), (1, 2), (0, 2)], strict=False)
    d = fe.all_pairs_distances(fe.path(4))
    for f in _takers_of_d():
        with pytest.raises(fe.ConnectivityError):
            f(g, d=d)


@pytest.mark.parametrize("wrong", [7, 3])
def test_full_report_rejects_a_supplied_d_of_another_size(wrong):
    # unchecked, a 7 x 7 matrix gave path(5) a report (F1 = 252) and seven
    # eps3 values, and a 3 x 3 one an IndexError; both are the caller's
    # fault, in every function that takes d
    d = fe.all_pairs_distances(fe.path(wrong))
    for f in _takers_of_d():
        with pytest.raises(PreconditionError, match=r"of shape \(5, 5\), got \(%d, %d\)" % (wrong, wrong)):
            f(fe.path(5), d=d)


def test_a_nested_list_d_gets_the_arrays_answer():
    # a list of rows raised AttributeError ('list' object has no attribute
    # 'shape') in every function that takes d
    g = fe.path(5)
    d = fe.all_pairs_distances(g)
    for f in _takers_of_d():
        assert f(g, d=d.tolist()) == f(g, d=d), f.__name__


@pytest.mark.parametrize(
    "rows, got",
    [([[0, 1, 2, 3, 4]] * 4 + [[4, 3, 2, 1]], "ragged rows"), ([[0, 1, 2, 3, 4]] * 4, r"\(4, 5\)")],
    ids=["ragged", "4x5"],
)
def test_a_nested_list_d_of_another_shape_is_rejected(rows, got):
    for f in _takers_of_d():
        with pytest.raises(PreconditionError, match=r"of shape \(5, 5\), got " + got):
            f(fe.path(5), d=rows)
