"""Acceptance gate: the nine release criteria, one test (and one verbose
pass/fail line) per criterion.

Each test is self-contained apart from two shared exhaustive sweeps, prints
a PASS line with its measured scope, and fails loudly with the offending
instance otherwise.
"""

import json
import random
import subprocess
import sys
import time

import pytest

import fermatecc as fe
from fermatecc import (
    Comparison,
    GraphKind,
    all_pairs_distances,
    check_cyclic_sequence,
    check_diametrical_lemmas,
    check_edge_lipschitz,
    enumerate_free_trees,
    enumerate_unicyclic,
    eps3_oracle,
    eps3_pruned,
    eps3_tree,
    from_graph6,
    full_report,
    is_path_graph,
    random_connected,
    random_tree,
    search_counterexample,
    sweep_class,
    to_graph6,
)
from treeforms import canonical_form


def _pass(criterion, detail, started):
    print(f"PASS {criterion}: {detail} [{time.monotonic() - started:.1f}s]")


@pytest.fixture(scope="module")
def tree_sweep():
    return sweep_class(GraphKind.TREE, range(2, 11))


@pytest.fixture(scope="module")
def unicyclic_sweep():
    return sweep_class(GraphKind.UNICYCLIC, range(3, 9))


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    checked = 0
    for g in enumerate_free_trees(10):
        d = all_pairs_distances(g)
        ref = eps3_oracle(g, d).eps3
        assert eps3_pruned(g, d).eps3 == ref, to_graph6(g)
        assert eps3_tree(g, d).eps3 == ref, to_graph6(g)
        checked += 1
    for g in enumerate_unicyclic(8):
        d = all_pairs_distances(g)
        assert eps3_pruned(g, d).eps3 == eps3_oracle(g, d).eps3, to_graph6(g)
        checked += 1
    for seed in range(500):
        n = 4 + (seed * 7) % 57  # deterministic spread over 4..60
        g = random_connected(n, seed=seed)
        d = all_pairs_distances(g)
        ref = eps3_oracle(g, d).eps3
        assert eps3_pruned(g, d).eps3 == ref, to_graph6(g)
        if fe.classify(g).kind is GraphKind.TREE:
            assert eps3_tree(g, d).eps3 == ref, to_graph6(g)
        checked += 1
    _pass("criterion-1 oracle equivalence", f"{checked} graphs, exact match", started)


def test_criterion_2_tree_inequality_sweep(tree_sweep):
    started = time.monotonic()
    bad = [f for f in tree_sweep.failures if f.check_name == "main_inequality"]
    assert not bad, bad[0]
    # equality exactly on paths: one equality instance per n, each a path
    assert len(tree_sweep.equality_instances) == 9
    assert all(is_path_graph(from_graph6(g6)) for g6 in tree_sweep.equality_instances)
    _pass(
        "criterion-2 tree inequality",
        f"{tree_sweep.instance_count} tree classes (n=2..10), equality iff path",
        started,
    )


def test_criterion_3_tree_extremes():
    started = time.monotonic()
    levels = {}
    for g in enumerate_free_trees(10):
        levels.setdefault(g.n, []).append(g)
    for n in range(3, 11):
        values = {}
        for g in levels[n]:
            rep = full_report(g)
            values[canonical_form(g.n, g.edges)] = (rep.f1, rep.f2)
        star6 = canonical_form(n, fe.star(n).edges)
        path6 = canonical_form(n, fe.path(n).edges)
        for idx, name in ((0, "F1"), (1, "F2")):
            lo = min(v[idx] for v in values.values())
            hi = max(v[idx] for v in values.values())
            assert values[star6][idx] == lo, f"n={n}: {name} minimum not at the star"
            assert values[path6][idx] == hi, f"n={n}: {name} maximum not at the path"
    _pass("criterion-3 tree extremes", "star minimises, path maximises F1 and F2, n=3..10", started)


def test_criterion_4_unicyclic_inequality_sweep(unicyclic_sweep):
    started = time.monotonic()
    bad = [f for f in unicyclic_sweep.failures if f.check_name == "main_inequality"]
    assert not bad, bad[0]
    _pass(
        "criterion-4 unicyclic inequality",
        f"{unicyclic_sweep.instance_count} unicyclic classes (n=3..8)",
        started,
    )


def test_criterion_5_lemma_suite():
    started = time.monotonic()
    enumerated = 0
    for t in enumerate_free_trees(10):
        if t.n < 2:
            continue
        out = check_diametrical_lemmas(t)
        assert out.passed, f"{out.instance}: {out.detail}"
        out = check_edge_lipschitz(t)
        assert out.passed, f"{out.instance}: {out.detail}"
        enumerated += 1
    for seed in range(1000):
        n = 2 + (seed % 59)  # deterministic spread over 2..60
        t = random_tree(n, seed=seed)
        out = check_diametrical_lemmas(t)
        assert out.passed, f"seed={seed}: {out.detail}"
        out = check_edge_lipschitz(t)
        assert out.passed, f"seed={seed}: {out.detail}"
    rng = random.Random(0)
    for _ in range(10_000):
        length = rng.randint(2, 50)
        k = rng.randint(0, (length - 1) // 2)
        steps = [1] * k + [-1] * k + [0] * (length - 1 - 2 * k)
        rng.shuffle(steps)
        xs = [rng.randint(26, 100)]
        for s in steps:
            xs.append(xs[-1] + s)
        out = check_cyclic_sequence(xs)
        assert out.passed, out.detail
    _pass(
        "criterion-5 lemma suite",
        f"{enumerated} enumerated + 1000 random trees, 10000 cyclic sequences",
        started,
    )


def test_criterion_6_formula_signs():
    started = time.monotonic()
    assert fe.bicyclic_delta_formula(67) > 0
    assert fe.bicyclic_delta_formula(68) < 0
    crossings = []
    for k in range(3, 11):
        assert fe.multicyclic_delta_formula(k, 0) > 0, f"k={k} not positive at x=0"
        for x in range(1, 10_000):
            if fe.multicyclic_delta_formula(k, x) < 0:
                crossings.append((k, x))
                break
        else:
            pytest.fail(f"k={k}: no negative value found by upward scan")
    _pass(
        "criterion-6 formula signs",
        f"bicyclic flips at x=68; multicyclic crossings {crossings}",
        started,
    )


def test_criterion_7_counterexamples_both_directions():
    started = time.monotonic()
    summary = search_counterexample("family-sweep")
    assert summary.complete, "default family-sweep budget exhausted before both signs"
    assert summary.positive_instances, "no multicyclic instance with n*F2 > m*F1"
    assert summary.negative_instances, "no multicyclic instance with n*F2 < m*F1"
    # independent re-check of one witness per direction
    for g6, want in (
        (summary.positive_instances[0], Comparison.POSITIVE),
        (summary.negative_instances[0], Comparison.NEGATIVE),
    ):
        rep = full_report(from_graph6(g6))
        assert rep.kind is GraphKind.MULTICYCLIC
        assert rep.comparison is want
    _pass(
        "criterion-7 counterexample existence",
        f"{len(summary.positive_instances)} positive / "
        f"{len(summary.negative_instances)} negative multicyclic instances",
        started,
    )


def test_criterion_8_eccentric_analogue(tree_sweep, unicyclic_sweep):
    started = time.monotonic()
    for sweep in (tree_sweep, unicyclic_sweep):
        bad = [f for f in sweep.failures if f.check_name == "eccentric_analogue"]
        assert not bad, bad[0]
    _pass(
        "criterion-8 eccentric analogue",
        f"n*E2 <= m*E1 on {tree_sweep.instance_count} trees "
        f"+ {unicyclic_sweep.instance_count} unicyclic classes",
        started,
    )


def test_criterion_9_determinism(tmp_path):
    started = time.monotonic()
    f = tmp_path / "g.txt"
    f.write_text(fe.to_edge_list(fe.random_connected(18, seed=5, extra_edges=4)))

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "fermatecc.cli", *args], capture_output=True
        )
        return proc.returncode, proc.stdout, proc.stderr

    commands = [
        ("compute", "--input", str(f)),
        ("compute", "--input", str(f), "--format", "csv"),
        ("verify", "tree", "2..7"),
        ("formula", "multicyclic", "5", "3"),
        ("search", "random-walk", "--budget", "25", "--seed", "11"),
        ("search", "family-sweep", "--budget", "40"),
    ]
    for cmd in commands:
        base = run(*cmd)
        assert run(*cmd) == base, f"rerun differs for {cmd}"
        assert run(*cmd, "--threads", "1") == base, f"--threads 1 differs for {cmd}"
    _pass(
        "criterion-9 determinism",
        f"{len(commands)} commands byte-identical across reruns and thread counts",
        started,
    )
