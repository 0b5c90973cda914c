"""The six indices and the exact cross-multiplied comparison."""

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
    g = fe.star(5)
    z1, z2 = fe.zagreb_classic(g)
    assert z1 == 16 + 4 * 1
    assert z2 == 4 * 4


def test_zagreb_eccentricity_path5():
    g = fe.path(5)
    e1, e2 = fe.zagreb_eccentricity(g)
    # eccentricities 4,3,2,3,4
    assert e1 == 16 + 9 + 4 + 9 + 16
    assert e2 == 12 + 6 + 6 + 12


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


def test_full_report_supplied_d_identical():
    g = fe.random_connected(20, seed=4, extra_edges=5)
    assert full_report(g, fe.all_pairs_distances(g)) == full_report(g)


def test_full_report_rejects_edgeless():
    with pytest.raises(PreconditionError):
        full_report(fe.make_graph(1, []))


def test_full_report_rejects_disconnected_graph_with_supplied_d():
    # a triangle plus an isolated vertex has m = n - 1, like a tree; the
    # supplied matrix (a path's) must not stand in for its distances
    g = fe.make_graph(4, [(0, 1), (1, 2), (0, 2)], strict=False)
    with pytest.raises(fe.ConnectivityError):
        full_report(g, fe.all_pairs_distances(fe.path(4)))


@pytest.mark.parametrize("wrong", [7, 3])
def test_full_report_rejects_a_supplied_d_of_another_size(wrong):
    # unchecked, a 7 x 7 matrix gives path(5) a report (F1 = 252) and a
    # 3 x 3 one an IndexError; both are the caller's fault
    with pytest.raises(PreconditionError, match=r"of shape \(5, 5\), got \(%d, %d\)" % (wrong, wrong)):
        full_report(fe.path(5), fe.all_pairs_distances(fe.path(wrong)))
