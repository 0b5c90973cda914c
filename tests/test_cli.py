"""Command-line interface: formats, exit codes, determinism, witnesses."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import fermatecc as fe
from fermatecc.cli import main


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "fermatecc.cli", *args],
        capture_output=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_main_freezes_the_import_heap_once_and_keeps_gc_on():
    # a fresh interpreter: nothing is frozen before the first command, the
    # import's objects are after it, and a second command freezes no more
    code = (
        "import gc, sys\n"
        "from fermatecc.cli import main\n"
        "assert gc.get_freeze_count() == 0\n"
        "assert main(['formula', 'bicyclic', '3', '--output', sys.argv[1]]) == 0\n"
        "frozen = gc.get_freeze_count()\n"
        "garbage = [[] for _ in range(1000)]\n"
        "assert main(['formula', 'bicyclic', '3', '--output', sys.argv[1]]) == 0\n"
        "print(frozen > 10000, gc.get_freeze_count() == frozen, gc.isenabled())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, os.devnull], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.split()) == (0, ["True", "True", "True"]), proc.stderr


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text(fe.to_edge_list(fe.path(4)))
    return str(f)


def test_compute_json(p4_file, capsys):
    assert main(["compute", "--input", p4_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4
    assert payload["m"] == 3
    assert payload["class"] == "tree"
    assert payload["eps3"] == [3, 3, 3, 3]
    assert payload["f1"] == 36
    assert payload["f2"] == 27
    assert payload["comparison"] == "zero"
    assert set(payload) == {
        "n", "m", "class", "eps3", "f1", "f2", "e1", "e2", "z1", "z2", "comparison",
    }


def test_compute_csv(p4_file, capsys):
    assert main(["compute", "--input", p4_file, "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header == "name,n,m,class,f1,f2,e1,e2,z1,z2,comparison"
    assert row == "p4,4,3,tree,36,27,26,16,10,8,zero"


def test_compute_csv_quotes_the_name(tmp_path, capsys):
    f = tmp_path / 'a,b "c".txt'
    f.write_text(fe.to_edge_list(fe.path(4)))
    assert main(["compute", "--input", str(f), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == '"a,b ""c""",4,3,tree,36,27,26,16,10,8,zero'
    header, row = csv.reader(io.StringIO(out))
    assert len(row) == len(header)
    assert row[0] == 'a,b "c"'


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "tree", "2..4"),
        ("search", "exhaustive-small", "--max-n", "5"),
        ("formula", "bicyclic", "3"),
    ],
)
def test_csv_is_a_usage_error_outside_compute(args, capsys):
    # csv is compute's one-row report; a summary or a formula has no csv form
    assert main([*args, "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--format" in err
    assert main([*args, "--format", "text"]) in (0, 4)


def test_compute_text(p4_file, capsys):
    assert main(["compute", "--input", p4_file, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "n=4" in out and "zero" in out


def test_compute_graph6_input(tmp_path, capsys):
    f = tmp_path / "c6.g6"
    f.write_text(fe.to_graph6(fe.cycle(6)) + "\n")
    assert main(["compute", "--input", str(f)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == "unicyclic"
    assert payload["eps3"] == [4] * 6


def test_compute_output_file(p4_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["compute", "--input", p4_file, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["f1"] == 36


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a number\n0 1\n")
    code, _, err = run_cli("compute", "--input", str(bad))
    assert code == 3
    assert err


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "loop.txt"
    bad.write_text("3\n0 0\n0 1\n0 2\n")
    code, _, err = run_cli("compute", "--input", str(bad))
    assert code == 3


def test_disconnected_error_exit_code(tmp_path):
    bad = tmp_path / "disc.txt"
    bad.write_text("4\n0 1\n2 3\n")
    code, _, _ = run_cli("compute", "--input", str(bad))
    assert code == 3


def test_edgeless_graph_exit_code(tmp_path):
    one = tmp_path / "k1.txt"
    one.write_text("1\n")
    code, out, err = run_cli("compute", "--input", str(one))
    assert code == 3
    assert out == b""
    assert b"at least one edge" in err


def test_multi_graph_g6_exit_code(tmp_path):
    two = tmp_path / "two.g6"
    two.write_text(fe.to_graph6(fe.cycle(6)) + "\n" + fe.to_graph6(fe.path(4)) + "\n")
    code, out, err = run_cli("compute", "--input", str(two))
    assert code == 3
    assert out == b""
    assert b"2 graphs" in err


@pytest.mark.parametrize(
    "name, data",
    [
        ("blank.g6", b"\n"),
        ("tilde.g6", b"~\n"),
        ("high.g6", b"\xff\n"),
        ("latin1.txt", b"3\n0 1\n1 2  # caf\xe9\n"),
    ],
)
def test_malformed_graph_file_exit_code(tmp_path, capsys, name, data):
    f = tmp_path / name
    f.write_bytes(data)
    assert main(["compute", "--input", str(f)]) == 3
    assert "input error" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    code, _, _ = run_cli("compute", "--input", str(tmp_path / "absent.txt"))
    assert code == 3


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli("compute")
    assert code == 2
    code, _, _ = run_cli("no-such-command")
    assert code == 2
    # arguments the parser accepts but the command's domain does not
    for argv in (
        ["verify", "tree", "a..b"],
        ["verify", "tree", "0..3"],
        ["verify", "tree", "1..3"],
        ["verify", "unicyclic", "2..5"],
        ["formula", "bicyclic", "-1"],
        ["formula", "multicyclic", "2", "0"],
        ["search", "exhaustive-small", "--budget", "-1"],
        ["search", "exhaustive-small", "--max-n", "3"],
    ):
        assert main(argv) == 2, argv
        assert "usage error" in capsys.readouterr().err


def test_unwritable_output_is_usage_error(p4_file, tmp_path, capsys):
    # a path under a regular file can be neither opened nor created
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    target = str(blocker / "sub")
    for argv in (
        ["compute", "--input", p4_file, "--output", target],
        ["search", "exhaustive-small", "--max-n", "5", "--witness-dir", target],
    ):
        assert main(argv) == 2, argv
        assert f"usage error: cannot write {target}" in capsys.readouterr().err


def test_verify_tree_sweep(capsys):
    assert main(["verify", "tree", "2..7", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instance_count"] == 24
    assert payload["failures"] == []
    assert len(payload["equality_instances"]) == 6


def test_verify_unicyclic_sweep(capsys):
    assert main(["verify", "unicyclic", "3..6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instance_count"] == 21
    assert payload["failures"] == []


def test_verify_cap_requires_force(capsys):
    code, _, err = run_cli("verify", "tree", "2..13")
    assert code == 2
    assert b"--force" in err


def test_verify_unicyclic_cap_requires_force(capsys):
    code, _, err = run_cli("verify", "unicyclic", "3..11")
    assert code == 2
    assert b"--force" in err


def test_formula_commands(capsys):
    assert main(["formula", "bicyclic", "67"]) == 0
    assert json.loads(capsys.readouterr().out)["sign"] == "positive"
    assert main(["formula", "bicyclic", "68"]) == 0
    assert json.loads(capsys.readouterr().out)["sign"] == "negative"
    assert main(["formula", "multicyclic", "4", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["sign"] == "positive"


def test_formula_wrong_arity():
    code, _, _ = run_cli("formula", "bicyclic", "1", "2")
    assert code == 2
    code, _, _ = run_cli("formula", "multicyclic", "3")
    assert code == 2


def test_search_family_sweep_succeeds(capsys):
    assert main(["search", "family-sweep"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complete"]
    assert payload["positive_instances"]
    assert payload["negative_instances"]


def test_search_incomplete_exit_code(capsys):
    # tiny budget: only theta graphs are visited, all on one side
    assert main(["search", "family-sweep", "--budget", "2"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert not payload["complete"]


def test_search_witness_dir(tmp_path, capsys):
    # witnesses.json, written record by record, is byte for byte one
    # json.dumps of the list of records, each from a fresh full_report on
    # its named graph, in the summary's order
    wdir = tmp_path / "wit"
    assert main(["search", "family-sweep", "--witness-dir", str(wdir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    text = (wdir / "witnesses.json").read_text()
    records = json.loads(text)
    assert records
    named = [("positive", g6) for g6 in summary["positive_instances"]]
    named += [("negative", g6) for g6 in summary["negative_instances"]]
    expected = [
        {
            "file": f"{tag}_{i:04d}.edges",
            "kind": tag,
            "graph6": g6,
            **fe.cli._report_dict(fe.full_report(fe.from_graph6(g6))),
        }
        for i, (tag, g6) in enumerate(named)
    ]
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    for rec in records:
        g = fe.parse_edge_list((wdir / rec["file"]).read_text())
        assert rec["graph6"] == fe.to_graph6(g)
        rep = fe.full_report(g)
        assert list(rep.eps3) == rec["eps3"]
        assert rep.f1 == rec["f1"] and rep.f2 == rec["f2"]
        assert rep.comparison.value == rec["comparison"]


@pytest.fixture
def failing_sweep(monkeypatch):
    """verify's sweeps report the first graph of every chunk as failing."""

    def failures(ix):
        first = fe.graph.graph6_stack(ix.edges[:1], ix.n)
        return [fe.verify.CheckOutcome("forced", g6, False, "forced") for g6 in first]

    monkeypatch.setattr(fe.verify, "_failures", failures)


@pytest.mark.parametrize(
    "argv",
    [["verify", "tree", "2..4"], ["search", "family-sweep", "--budget", "3"]],
    ids=["verify", "search"],
)
def test_unwritable_witness_dir_prints_no_summary(argv, failing_sweep, tmp_path, capsys):
    # the witness files are written before the summary, so a directory that
    # cannot be written ends the command with exit 2 and nothing on stdout
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    assert main([*argv, "--witness-dir", str(blocker / "sub")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage error: cannot write" in err


def test_verify_witness_dir_on_failure(failing_sweep, tmp_path, capsys):
    wdir = tmp_path / "wit"
    assert main(["verify", "tree", "2..4", "--format", "json", "--witness-dir", str(wdir)]) == 1
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert len(failures) == 3  # levels 2, 3 and 4 are one chunk each
    records = json.loads((wdir / "witnesses.json").read_text())
    assert [(r["file"], r["graph6"]) for r in records] == [
        (f"failure_{i:04d}.edges", f["instance"]) for i, f in enumerate(failures)
    ]
    assert fe.to_graph6(fe.parse_edge_list((wdir / "failure_0000.edges").read_text())) == failures[0]["instance"]


def test_empty_witness_list(tmp_path, capsys):
    # a budget of 0 names no graph: the list is json.dumps([]) and no edge file is written
    wdir = tmp_path / "wit"
    argv = ["search", "exhaustive-small", "--max-n", "4", "--budget", "0", "--witness-dir", str(wdir)]
    assert main(argv) == 4
    capsys.readouterr()
    assert [p.name for p in wdir.iterdir()] == ["witnesses.json"]
    assert (wdir / "witnesses.json").read_bytes() == b"[]\n"


# sha256 of search family-sweep's JSON stdout, pinned from one full_report
# per graph: analysing the grid in chunks must not change a byte
FAMILY_SWEEP_DIGESTS = [
    ((), "0a05da3852f045a4d85e16f7cbf644e71df6949375eceb5233720d244feb2d7c"),
    (("--budget", "2"), "1f0f8eaede6ac356335f6cb26fb40b7547cf13e6e18764f63136ed9231966b86"),
]


@pytest.mark.parametrize("extra, digest", FAMILY_SWEEP_DIGESTS, ids=["default", "budget-2"])
def test_family_sweep_output_is_pinned(extra, digest, capsys):
    main(["search", "family-sweep", *extra])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_byte_identical_across_threads(p4_file):
    base = run_cli("compute", "--input", p4_file)
    assert base[0] == 0
    assert run_cli("compute", "--input", p4_file) == base
    assert run_cli("compute", "--input", p4_file, "--threads", "1") == base
    assert run_cli("compute", "--input", p4_file, "--threads", "4") == base


def test_cli_search_byte_identical_per_seed():
    a = run_cli("search", "random-walk", "--budget", "25", "--seed", "7")
    b = run_cli("search", "random-walk", "--budget", "25", "--seed", "7")
    assert a == b


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_threads_must_be_a_positive_integer(p4_file, value, capsys):
    assert main(["compute", "--input", p4_file, f"--threads={value}"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_internal_error_exit_code(p4_file, monkeypatch, capsys):
    import fermatecc.cli as cli

    def broken(g, d=None):
        raise fe.InternalError("invariant failed")

    monkeypatch.setattr(cli, "full_report", broken)
    assert main(["compute", "--input", p4_file]) == 5
    assert "invariant failed" in capsys.readouterr().err


def test_stray_value_error_is_internal(p4_file, monkeypatch, capsys):
    # only the command-line checks make usage errors; a ValueError from
    # inside the library is a bug
    import fermatecc.cli as cli

    def broken(g, d=None):
        raise ValueError("stray")

    monkeypatch.setattr(cli, "full_report", broken)
    assert main(["compute", "--input", p4_file]) == 5
    assert "internal error: stray" in capsys.readouterr().err


def test_sweep_invariant_failure_is_internal(monkeypatch, capsys):
    # the sweep checks each tree's double-BFS path against the eccentricities
    # index_stack reduced from its own distances, so a failed diametral-path
    # invariant is a bug (exit 5), not an input error (exit 3)
    import fermatecc.indices as indices

    real = indices.eccentricities
    # every eccentricity one too large: the diameter exceeds the path length
    monkeypatch.setattr(indices, "eccentricities", lambda d: real(d) + 1)
    assert main(["verify", "tree", "2..5"]) == 5
    assert "double BFS path" in capsys.readouterr().err


def test_sweep_center_invariant_failure_is_internal(monkeypatch, capsys):
    import fermatecc.indices as indices

    real = indices.eccentricities

    def flat(d):
        # every eccentricity the diameter: every vertex a centre, so the
        # first star (n = 4) has a centre off its diametral path
        ecc = real(d)
        return ecc.max(axis=1, keepdims=True).repeat(ecc.shape[1], axis=1)

    monkeypatch.setattr(indices, "eccentricities", flat)
    assert main(["verify", "tree", "2..5"]) == 5
    assert "the diametral path misses a center vertex" in capsys.readouterr().err


def test_benchmarked_commands_load_no_unused_stdlib(p4_file):
    # the records are NamedTuples, not dataclasses, and fractions (with
    # decimal) and csv load only for formula and --format csv
    unused = ["copy", "csv", "dataclasses", "decimal", "fractions"]
    code = (
        "import sys, fermatecc.cli as c; "
        "codes = [c.main(['verify', 'tree', '2..6']), "
        "c.main(['search', 'exhaustive-small', '--max-n', '5']), "
        f"c.main(['compute', '--input', {p4_file!r}])]; "
        f"print(codes, sorted(set({unused!r}) & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fe.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 4, 0] []"
