"""Tests of the benchmark harness: smoke mode, gate, tracer, input builder.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SMOKE, WORKLOADS, build_graph  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_mode_passes_the_gate(trace):
    proc = bench("--smoke", "--workload", "all", "--seconds", "0", "--seed", "3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # one untraced pass per workload, plus one traced pass in a traced run
    calls = sum(len(w.calls) for w in SMOKE.values())
    assert result["attempted"] == calls * (2 if trace == "1" else 1)
    want = declared("per_layer" if trace == "1" else "end_to_end")
    for name in SMOKE:
        for metric, unit in want.items():
            assert result["metrics"][f"{name}.{metric}"]["unit"] == unit


def test_declared_metrics_match_the_harness():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS) == set(SMOKE)


def test_single_workload_reports_exactly_the_declared_metrics():
    proc = bench("--smoke", "--workload", "cyclic_sweep", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc)["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == declared("per_layer")
    # the enumerator led this workload and its dedup ratio was measured
    assert metrics["generators.enumerate.yielded"]["value"] == 8 + 6
    assert 0 < metrics["generators.dedup_keep_ratio"]["value"] < 1
    record = json.loads((BENCH / "out" / "cyclic_sweep.smoke.seed0.trace1.result.json").read_text())
    assert record["versions"].keys() == {"python", "numpy", "networkx"}
    assert record["threads"] == 2 and record["nproc"] >= 1


def test_span_dump_is_well_nested():
    proc = bench("--smoke", "--workload", "tree_sweep", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    dump = json.loads((BENCH / "out" / "tree_sweep.smoke.seed0.trace1.spans.json").read_text())
    assert dump["fields"] == ["name", "start", "end", "parent"]
    spans = dump["spans"]
    assert spans[0][0] == "cli" and spans[0][3] == -1
    for i, (name, start, end, parent) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            assert parent < i
            assert spans[parent][1] <= start and end <= spans[parent][2]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "tree_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def graph6(g):
    return nx.to_graph6_bytes(g, header=False).decode().strip()


@pytest.mark.parametrize("n", [1, 2, 7, 62, 63, 100])
def test_decode_graph6_matches_networkx(n):
    g = nx.gnp_random_graph(n, 0.2, seed=n)
    got_n, edges = gate.decode_graph6(graph6(g))
    assert got_n == n
    assert sorted(edges) == sorted(tuple(sorted(e)) for e in g.edges)


def test_fingerprint_ignores_labels_and_order():
    graphs = [nx.gnp_random_graph(9, 0.4, seed=s) for s in range(5)]
    rng = random.Random(1)
    relabelled = []
    for g in reversed(graphs):
        perm = list(range(9))
        rng.shuffle(perm)
        relabelled.append(nx.relabel_nodes(g, dict(enumerate(perm))))
    assert gate.fingerprint(map(graph6, graphs)) == gate.fingerprint(map(graph6, relabelled))
    assert gate.fingerprint(map(graph6, graphs)) != gate.fingerprint(map(graph6, graphs[1:]))


def tree_sweep_output():
    return {
        "swept": "tree",
        "instance_count": 13,
        "failures": [],
        "complete": True,
        "equality_instances": [graph6(nx.path_graph(n)) for n in range(2, 7)],
        "positive_instances": [],
        "negative_instances": [],
    }


def test_gate_accepts_a_correct_summary_and_rejects_tampered_ones():
    expect = SMOKE["tree_sweep"].calls[0].expect
    assert gate.check_summary(tree_sweep_output(), 0, expect) == []
    assert gate.check_summary(tree_sweep_output(), 1, expect)
    for key, bad in (
        ("instance_count", 12),
        ("complete", False),
        ("failures", [{"check": "main_inequality"}]),
        ("equality_instances", [graph6(nx.path_graph(n)) for n in range(2, 6)] + [graph6(nx.star_graph(5))]),
        ("positive_instances", [graph6(nx.star_graph(4))]),
    ):
        data = tree_sweep_output()
        data[key] = bad
        assert gate.check_summary(data, 0, expect), key


def test_gate_checks_report_values_against_the_graph():
    call = SMOKE["compute_large"].calls[0]
    n, extra = SMOKE["compute_large"].graph
    edges = build_graph(n, extra, seed=5)
    import fermatecc as fe

    rep = fe.full_report(fe.make_graph(n, edges))
    data = {
        "n": rep.n, "m": rep.m, "class": rep.kind.value, "eps3": list(rep.eps3),
        "f1": rep.f1, "f2": rep.f2, "e1": rep.e1, "e2": rep.e2, "z1": rep.z1, "z2": rep.z2,
        "comparison": rep.comparison.value,
    }
    assert gate.check_report(data, 0, call.expect, n, edges) == []
    wrong = dict(data, eps3=[data["eps3"][0] + 1] + data["eps3"][1:])
    assert gate.check_report(wrong, 0, call.expect, n, edges)
    assert gate.check_report(dict(data, f2=data["f2"] + 1), 0, call.expect, n, edges)


def test_recorded_smoke_report_matches_the_oracle():
    import fermatecc as fe

    n, extra = SMOKE["compute_large"].graph
    g = fe.make_graph(n, build_graph(n, extra, seed=0))
    eps = fe.eps3_oracle(g).eps3
    expect = SMOKE["compute_large"].calls[0].expect
    assert expect["f1"] == sum(e * e for e in eps)
    assert expect["f2"] == sum(eps[u] * eps[v] for u, v in g.edges)


def test_build_graph_relabels_one_structure():
    n, extra = WORKLOADS["compute_large"].graph
    a, b = build_graph(n, extra, seed=1), build_graph(n, extra, seed=2)
    assert a == build_graph(n, extra, seed=1)
    assert sorted(a) != sorted(b)
    assert len(a) == n - 1 + extra
    ga, gb = nx.Graph(a), nx.Graph(b)
    assert nx.is_connected(ga) and ga.number_of_nodes() == n
    assert sorted(d for _, d in ga.degree) == sorted(d for _, d in gb.degree)


def test_tracer_self_times_and_counts():
    import fermatecc.cli as cli
    import fermatecc.verify as verify

    original = verify.to_graph6
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.begin("cli")
        assert cli.main(["verify", "tree", "2..6", "--output", str(BENCH / "out" / "tracer_test.json")]) == 0
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert verify.to_graph6 is original
    assert tracer.missing == []
    wall = tracer.spans[0][2] - tracer.spans[0][1]
    metrics = tracer.layer_metrics(wall)
    self_s, calls = tracer.self_times()
    assert sum(self_s.values()) == pytest.approx(wall)
    assert metrics["trace.unattributed_s"] == pytest.approx(0.0, abs=1e-9)
    # graph6: four checks per tree, the extremes bookkeeping for each of the
    # 12 trees with n >= 3, and one equality record per path; APSP: two per tree
    assert metrics["graph.graph6.calls"] == 4 * 13 + 12 + 5
    assert metrics["graph.apsp.calls"] == 2 * 13
    assert metrics["generators.enumerate.yielded"] == 13
    assert calls["generators.enumerate"] == 13 + 5  # one exhausting next() per n


def test_probe_scales_to_reference_speed():
    from probe import REFERENCE_S, Probe

    p = Probe()
    # probes at twice the reference time: the core ran at half speed
    p.samples = [(1.0 + 0.1 * i, 2 * REFERENCE_S) for i in range(10)]
    out = p.scale(1.0, 2.0)
    assert out["probes"] == 10
    assert out["net_s"] == pytest.approx(1.0 - 20 * REFERENCE_S)
    assert out["ref_s"] == pytest.approx(out["net_s"] / 2)
    # a span with no probe in it keeps its own time
    assert p.scale(5.0, 5.5)["ref_s"] == pytest.approx(0.5)


def test_probe_samples_during_a_pass():
    job = {"src": str(ROOT / "src"), "calls": [], "trace": False, "spans": None}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    setup = json.loads(proc.stdout.strip().splitlines()[-1])["setup_probe"]
    assert setup["probes"] >= 1 and setup["ref_s"] > 0
