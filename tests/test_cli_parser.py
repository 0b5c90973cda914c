"""The command-line table parser against the argparse parser it replaced.

``reference_parser`` is the argparse parser the CLI used before its
table; every command line in the corpus below, and every one hypothesis
draws, must get the same outcome from both (accepted, help with exit 0,
or an error with exit 2) and, when accepted, the same value for every
argument.  The drawn forms are those whose argparse behaviour is the
same on Python 3.10 and 3.12: at most one "--", after the command and
not straight after a flag, with a token after it; negative numbers only
as -N, -N.N and -.N; and of the short flags only -h written alone
and the unknown -x.
"""

import argparse
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatecc import cli
from fermatecc.verify import SEARCH_STRATEGIES


def reference_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fermatecc",
        description="Fermat eccentricities, Zagreb-Fermat indices, and inequality verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "text")):
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--output", default=None)
        p.add_argument("--threads", type=cli._thread_count, default=os.cpu_count() or 1)

    p = sub.add_parser("compute")
    p.add_argument("--input", required=True)
    common(p, formats=("json", "csv", "text"))
    p.set_defaults(func=cli.cmd_compute)

    p = sub.add_parser("verify")
    p.add_argument("graph_class", choices=("tree", "unicyclic"))
    p.add_argument("n_range")
    p.add_argument("--force", action="store_true")
    p.add_argument("--witness-dir", default=None)
    common(p)
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("formula")
    p.add_argument("name", choices=("bicyclic", "multicyclic"))
    p.add_argument("params", type=int, nargs="+")
    common(p)
    p.set_defaults(func=cli.cmd_formula)

    p = sub.add_parser("search")
    p.add_argument("strategy", choices=SEARCH_STRATEGIES)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--witness-dir", default=None)
    common(p)
    p.set_defaults(func=cli.cmd_search)
    return ap


REFERENCE = reference_parser()


def _run(parse, argv):
    """(outcome, stdout, stderr): outcome is ("ok", handler, values),
    ("help",) or ("error",)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = {0: ("help",), 2: ("error",)}[exc.code]
    return result, out.getvalue(), err.getvalue()


def reference(argv):
    ns = vars(REFERENCE.parse_args(argv))
    handler = ns.pop("func")
    ns.pop("command")
    return "ok", handler, ns


def table(argv):
    handler, args = cli.parse_args(argv)
    return "ok", handler, vars(args)


def check_same(argv):
    want, _, _ = _run(reference, argv)
    got, out, err = _run(table, argv)
    assert got == want, argv
    if got == ("error",):
        assert out == "" and err.startswith("usage: fermatecc")
    elif got == ("help",):
        assert out.startswith("usage: fermatecc") and err == ""
    return got


# every command line tests/ passes to main or run_cli (file names stand
# for the temporary paths), the CLI calls of the CI workflow and the
# benchmark's calls with the options perfbench/run.py adds
CORPUS = [
    # tests/test_cli.py
    ["compute", "--input", "p4.txt"],
    ["compute", "--input", "p4.txt", "--format", "csv"],
    ["compute", "--input", 'a,b "c".txt', "--format", "csv"],
    ["verify", "tree", "2..4", "--format", "csv"],
    ["verify", "tree", "2..4", "--format", "text"],
    ["search", "exhaustive-small", "--max-n", "5", "--format", "csv"],
    ["search", "exhaustive-small", "--max-n", "5", "--format", "text"],
    ["formula", "bicyclic", "3", "--format", "csv"],
    ["formula", "bicyclic", "3", "--format", "text"],
    ["compute", "--input", "p4.txt", "--format", "text"],
    ["compute", "--input", "c6.g6"],
    ["compute", "--input", "p4.txt", "--output", "report.json"],
    ["compute"],
    ["no-such-command"],
    ["verify", "tree", "a..b"],
    ["verify", "tree", "0..3"],
    ["verify", "tree", "1..3"],
    ["verify", "unicyclic", "2..5"],
    ["formula", "bicyclic", "-1"],
    ["formula", "multicyclic", "2", "0"],
    ["search", "exhaustive-small", "--budget", "-1"],
    ["search", "exhaustive-small", "--max-n", "3"],
    ["search", "exhaustive-small", "--max-n", "5", "--witness-dir", "plain-file/sub"],
    ["verify", "tree", "2..7", "--format", "json"],
    ["verify", "unicyclic", "3..6"],
    ["verify", "tree", "2..13"],
    ["verify", "unicyclic", "3..11"],
    ["formula", "bicyclic", "67"],
    ["formula", "bicyclic", "68"],
    ["formula", "multicyclic", "4", "0"],
    ["formula", "bicyclic", "1", "2"],
    ["formula", "multicyclic", "3"],
    ["search", "family-sweep"],
    ["search", "family-sweep", "--budget", "2"],
    ["search", "family-sweep", "--witness-dir", "wit"],
    ["search", "exhaustive-small", "--max-n", "4", "--budget", "0", "--witness-dir", "wit"],
    ["compute", "--input", "p4.txt", "--threads", "1"],
    ["compute", "--input", "p4.txt", "--threads", "4"],
    ["search", "random-walk", "--budget", "25", "--seed", "7"],
    ["compute", "--input", "p4.txt", "--threads=0"],
    ["compute", "--input", "p4.txt", "--threads=-3"],
    ["compute", "--input", "p4.txt", "--threads=two"],
    ["verify", "tree", "2..5"],
    # tests/test_acceptance.py, each also with --threads 1
    ["formula", "multicyclic", "5", "3"],
    ["formula", "multicyclic", "5", "3", "--threads", "1"],
    ["verify", "tree", "2..7", "--threads", "1"],
    ["search", "random-walk", "--budget", "25", "--seed", "11", "--threads", "1"],
    ["search", "family-sweep", "--budget", "40", "--threads", "1"],
    ["compute", "--input", "g.txt", "--format", "csv", "--threads", "1"],
    # .github/workflows/tests.yml
    ["compute", "--input", "path130.txt", "--output", "path130.json"],
    ["verify", "tree", "2..8"],
    ["verify", "tree", "2..18", "--force", "--output", "trees.json"],
    ["verify", "unicyclic", "3..14", "--force", "--output", "unicyclic.json"],
    ["search", "exhaustive-small", "--max-n", "12", "--budget", "41544", "--output", "bicyclic.json"],
    ["search", "exhaustive-small", "--max-n", "10", "--budget", "3803", "--witness-dir", "wit"],
    ["search", "exhaustive-small", "--max-n", "80", "--budget", "5"],
    # perfbench/workloads.py calls, with the options perfbench/run.py adds
    *(
        [*call, "--threads", "2", "--format", "json", "--output", "out.json"]
        for call in (
            ["verify", "tree", "2..12"],
            ["verify", "unicyclic", "3..9"],
            ["search", "exhaustive-small"],
            ["search", "family-sweep"],
            ["compute", "--input", "g.edges"],
        )
    ),
    # the syntax README.md documents, and each kind of usage error
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["compute", "-h"],
    ["verify", "--help"],
    ["search", "--he"],
    ["formula", "bicyclic", "-h", "x"],
    ["formula", "bicyclic", "x", "-h"],
    ["--bogus", "formula", "-h"],
    ["--bogus", "formula", "bicyclic", "3"],
    ["compute", "--in=g.txt", "--form=csv"],
    ["compute", "--input=", "--output="],
    ["verify", "--force", "tree", "--output", "o.json", "2..9"],
    ["verify", "tree", "--", "2..9"],
    ["verify", "--force", "--", "tree", "2..9"],
    ["verify", "tree", "2..9", "--", "extra"],
    ["verify", "tree", "--", "--force"],
    ["verify", "tree", "--fo"],
    ["verify", "-h", "--fo"],
    ["verify", "tree", "2..9", "--force=yes"],
    ["verify", "tree"],
    ["verify", "tree", "2..9", "3..9"],
    ["verify", "forest", "2..9"],
    ["verify", "tree", "-1.5"],
    ["formula", "bicyclic", "-1"],
    ["formula", "bicyclic", "--", "-1"],
    ["formula", "multicyclic", "--format", "text", "3", "0"],
    ["formula", "multicyclic", "3", "--format", "text", "0"],
    ["formula", "bicyclic", "1.5"],
    ["formula", "bicyclic"],
    ["search", "random-walk", "--budget", "-1"],
    ["search", "random-walk", "--budget=-1", "--seed", "-3"],
    ["search", "random-walk", "--budget", "x"],
    ["search", "random-walk", "--seed", "1.5"],
    ["search", "random-walk", "--max-n", "-2.0"],
    ["search", "random-walk", "--seed", "1", "--seed", "2"],
    ["search", "random-walk", "--seed"],
    ["search", "random-walk", "--seed", "--budget", "3"],
    ["search", "random-walk", "--s", "4"],
    ["search", "walk"],
    ["search", "random-walk", "-x"],
    ["search", "random-walk", "--bogus=1"],
    ["search", "random-walk", "--help=x"],
    ["compute", "--input", "g.txt", "--format", "xml"],
]


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_corpus_parses_as_argparse_did(argv):
    check_same(argv)


LONG_FLAGS = sorted({flag for *_, options in cli.COMMANDS.values() for flag, *_ in options} | {"--help"})
PREFIXES = sorted({flag[:k] for flag in LONG_FLAGS for k in range(3, len(flag) + 1)})
VALUES = [
    *("json", "csv", "text", "tree", "unicyclic", "bicyclic", "multicyclic", *SEARCH_STRATEGIES),
    *("0", "1", "3", "67", "-1", "-3", "1.5", "-1.5", "-.5", "x", "2..9", "", "-", "a b", "g.txt"),
]
JUNK = ["--bogus", "--bogus=1", "-x", "-h", "junk"]
# a stray token: any flag of any command or a prefix of one, alone or
# with "=", a value, or junk
tokens = st.one_of(
    st.sampled_from(PREFIXES),
    st.builds("{}={}".format, st.sampled_from(PREFIXES), st.sampled_from(VALUES)),
    st.sampled_from(VALUES),
    st.sampled_from(JUNK),
)
GOOD = {str: ["out.json", "", "-1", "a b", "-a b", "-.5", "2..9"], int: ["0", "3", "-1", "67"]}
BAD = {tuple: ["csv", "bogus"], str: ["--bogus"], int: ["x", "1.5", "-2.0"]}


@st.composite
def command_lines(draw):
    """A command line that is often valid: the command's positionals in
    order, its options spelt in full or by prefix, with "=" or not, placed
    anywhere between them; now and then a stray token, -h or "--"."""

    def chance(k):
        return draw(st.integers(0, k - 1)) == 0

    def value(kind):
        key = tuple if isinstance(kind, tuple) else str if kind is str else int  # int or _thread_count
        good = kind if key is tuple else GOOD[key]
        return draw(st.sampled_from(BAD[key] if BAD[key] and chance(5) else good))

    command = "bogus" if chance(20) else draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, positionals, options = cli.COMMANDS.get(command, (None, None, (), ()))
    groups = []
    for name, kind, arity, _ in positionals:
        count = draw(st.integers(1, 3)) if arity == "+" else 1
        groups.append([value(kind) for _ in range(count)])
    for flag, kind, _, _ in draw(st.lists(st.sampled_from(options), max_size=4)) if options else ():
        name = draw(st.sampled_from([flag[:k] for k in range(3, len(flag) + 1)]))
        if kind is None:
            group = [f"{name}=x"] if chance(8) else [name]
        else:
            text = value(kind)
            group = [f"{name}={text}"] if draw(st.booleans()) else [name, text]
        groups.insert(draw(st.integers(0, len(groups))), group)
    for extra in (tokens, st.sampled_from(["-h", "--help", "--he"])):
        if chance(4 if extra is tokens else 10):
            groups.insert(draw(st.integers(0, len(groups))), [draw(extra)])
    rest = [token for group in groups for token in group]
    if rest and chance(4):
        cut = draw(st.integers(0, len(rest) - 1))
        if not (cut and rest[cut - 1].startswith("--")):
            rest.insert(cut, "--")
    before = [draw(st.sampled_from(["-h", "--help", "--he", "--bogus", "-x"]))] if chance(10) else []
    return [*before, command, *rest]


@settings(max_examples=1500, deadline=None)
@given(command_lines())
def test_drawn_command_lines_parse_as_argparse_did(argv):
    check_same(argv)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--h"]])
def test_top_help_lists_every_command_and_option(argv, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    for command, (_, line, positionals, options) in cli.COMMANDS.items():
        assert command in out and line in out
        for flag, *_ in options:
            assert f"fermatecc {command} " in out and flag in out
    for syntax in ("--flag=VALUE", "prefix", "--"):
        assert syntax in out


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_command_help_lists_its_arguments(command, capsys):
    for flag in ("-h", "--help"):
        assert cli.main([command, flag]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        _, line, positionals, options = cli.COMMANDS[command]
        assert out.startswith(f"usage: fermatecc {command} ") and line in out
        for name, kind, *_ in positionals:
            assert (name if callable(kind) else "{" + ",".join(kind) + "}") in out
        for flag_name, *_ in options:
            assert flag_name in out


@pytest.mark.parametrize(
    "argv, named",
    [
        (["verify", "tree", "2..9", "--bogus"], "--bogus"),
        (["verify", "tree", "2..9", "-x"], "-x"),
        (["verify", "tree", "2..9", "--fo"], "--fo"),
        (["search", "random-walk", "--seed"], "--seed"),
        (["compute", "--input"], "--input"),
        (["compute", "--input", "g.txt", "--format", "xml"], "xml"),
        (["verify", "forest", "2..9"], "forest"),
        (["bogus"], "bogus"),
        (["search", "random-walk", "--budget", "x"], "--budget"),
        (["search", "random-walk", "--seed", "1.5"], "--seed"),
        (["search", "random-walk", "--max-n", "-2.0"], "--max-n"),
        (["formula", "bicyclic", "x"], "params"),
        (["verify", "tree"], "n_range"),
        (["verify", "tree", "2..9", "3..9"], "3..9"),
        (["formula"], "name"),
        (["compute"], "--input"),
        (["compute", "--input", "g.txt", "--threads", "0"], "--threads"),
        (["verify", "tree", "2..9", "--force=yes"], "--force"),
        (["verify", "tree", "2..9", "--force", "--"], "--"),
    ],
)
def test_parse_errors_name_the_argument(argv, named, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, message = err.splitlines()
    assert usage.startswith("usage: fermatecc")
    assert message.startswith("fermatecc") and ": error: " in message and named in message


def test_parsed_values():
    handler, args = cli.parse_args(["formula", "--fo=text", "multicyclic", "--", "-1", "3"])
    assert handler is cli.cmd_formula
    assert (args.name, args.params, args.format) == ("multicyclic", [-1, 3], "text")
    _, args = cli.parse_args(["search", "--budget", "-1", "random-walk", "--max=9", "--seed", "1", "--s", "2"])
    assert (args.strategy, args.budget, args.max_n, args.seed, args.witness_dir) == ("random-walk", -1, 9, 2, None)


def test_no_argparse_at_run_time():
    # the table replaces argparse, and with it gettext and locale's import
    code = (
        "import sys, fermatecc.cli as c; c.main(['formula', 'bicyclic', '67']); "
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
