"""Command-line front end.

Subcommands: compute, verify, formula, search.  Exit codes:
0 success/verified, 1 verification failure (witness written), 2 usage,
3 parse/validation (and an edgeless graph, which has no comparison),
4 incomplete search, 5 internal error.
"""

from __future__ import annotations

import gc
import io
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .errors import ConnectivityError, GraphError, ParseError, PreconditionError, ValidationError
from .generators import bicyclic_delta_formula, multicyclic_delta_formula
from .graph import Graph, GraphKind, from_graph6, parse_edge_list, to_edge_list
from .indices import IndexReport, full_report, index_chunks
from .verify import SEARCH_STRATEGIES, SweepSummary, search_counterexample, sweep_class

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INCOMPLETE = 4
EXIT_INTERNAL = 5

# largest n a verify sweep enumerates without --force; in-process, best
# of 5 on a 2-vCPU VM, `verify tree 2..12` takes 0.027 s, `verify tree
# 2..13` 0.051 s, `verify unicyclic 3..10` 0.035 s and `verify unicyclic
# 3..11` 0.082 s
FREE_TREE_CAP = 12
UNICYCLIC_CAP = 10


class UsageError(Exception):
    pass


def _thread_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


def _read_graph(path: str) -> Graph:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if not path.endswith((".g6", ".graph6")):
            return parse_edge_list(data.decode("utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    lines = [line for line in data.splitlines() if line.strip()]
    if len(lines) > 1:
        raise ParseError(f"{path} holds {len(lines)} graphs; expected one")
    return from_graph6(lines[0] if lines else b"")


def _report_dict(rep: IndexReport) -> dict:
    return {
        "n": rep.n,
        "m": rep.m,
        "class": rep.kind.value,
        "eps3": list(rep.eps3),
        "f1": rep.f1,
        "f2": rep.f2,
        "e1": rep.e1,
        "e2": rep.e2,
        "z1": rep.z1,
        "z2": rep.z2,
        "comparison": rep.comparison.value,
    }


def _report_csv(name: str, rep: IndexReport) -> str:
    import csv  # only compute --format csv writes csv: loaded on first use

    fields = {"name": name, **_report_dict(rep)}
    del fields["eps3"]  # the row holds one value per column
    buf = io.StringIO()
    # quotes a field only where it holds a comma, a quote or a line break
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerow(fields.values())
    return buf.getvalue()


def _report_text(name: str, rep: IndexReport) -> str:
    lines = [
        f"graph {name}: n={rep.n} m={rep.m} class={rep.kind.value}",
        f"  F1={rep.f1} F2={rep.f2} E1={rep.e1} E2={rep.e2} Z1={rep.z1} Z2={rep.z2}",
        f"  sign of n*F2 - m*F1: {rep.comparison.value}",
    ]
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        _write(output, text)
    else:
        sys.stdout.write(text)


def _summary_dict(s: SweepSummary) -> dict:
    return {
        "swept": s.swept,
        "instance_count": s.instance_count,
        "failures": [
            {
                "check": f.check_name,
                "instance": f.instance,
                "detail": f.detail,
            }
            for f in s.failures
        ],
        "equality_instances": s.equality_instances,
        "positive_instances": s.positive_instances,
        "negative_instances": s.negative_instances,
        "complete": s.complete,
    }


def _summary_text(s: SweepSummary) -> str:
    lines = [
        f"sweep {s.swept}: {s.instance_count} instances, {len(s.failures)} failures",
    ]
    for f in s.failures:
        lines.append(f"  FAIL {f.check_name} on {f.instance}: {f.detail}")
    if s.equality_instances:
        lines.append(f"  equality instances ({len(s.equality_instances)}):")
        lines.extend(f"    {g6}" for g6 in s.equality_instances)
    if s.positive_instances or s.negative_instances:
        lines.append(
            f"  positives: {len(s.positive_instances)}  negatives: {len(s.negative_instances)}"
        )
    return "\n".join(lines) + "\n"


def _parse_range(spec: str) -> range:
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return range(int(lo), int(hi) + 1)
        v = int(spec)
        return range(v, v + 1)
    except ValueError:
        raise UsageError(f"bad vertex count range {spec!r}; expected N or LO..HI") from None


def _named(summary: SweepSummary):
    """(kind, graph6) of each graph the summary names, in witness order."""
    yield from (("failure", f.instance) for f in summary.failures)
    yield from (("positive", g6) for g6 in summary.positive_instances)
    yield from (("negative", g6) for g6 in summary.negative_instances)


def _record_json(record: dict) -> str:
    """json.dumps(record, indent=2, sort_keys=True), indented by two more
    spaces, for a record of strings, integers and non-empty lists of
    integers.

    json's indenting encoder is pure Python; the pieces here are C-encoded
    strings and integer reprs, three times faster on a witness listing.
    """
    lines = []
    for key, value in sorted(record.items()):
        if isinstance(value, str):
            value = encode_basestring_ascii(value)
        elif isinstance(value, list):
            value = "[\n      " + ",\n      ".join(map(str, value)) + "\n    ]"
        lines.append(f"    {encode_basestring_ascii(key)}: {value}")
    return "  {\n" + ",\n".join(lines) + "\n  }"


def _write_witnesses(summary: SweepSummary, witness_dir: str) -> None:
    """Write each named graph's edge list, and stream witnesses.json one
    record at a time: json.dumps(records, indent=2, sort_keys=True) + "\n",
    from reports analysed in chunks."""
    try:
        os.makedirs(witness_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write {witness_dir}: {exc.strerror}") from None
    # the summary's graphs are connected (distance_stack refuses any that
    # is not), so no adjacency is built to check it
    graphs = (from_graph6(g6, strict=False) for _, g6 in _named(summary))
    reports = ((g, ix.report(k)) for chunk, ix in index_chunks(graphs) for k, g in enumerate(chunk))
    listing = os.path.join(witness_dir, "witnesses.json")
    try:
        with open(listing, "w") as fh:
            fh.write("[")
            i = -1
            for i, ((tag, g6), (g, rep)) in enumerate(zip(_named(summary), reports)):
                base = f"{tag}_{i:04d}"
                _write(os.path.join(witness_dir, base + ".edges"), to_edge_list(g))
                record = {"file": base + ".edges", "kind": tag, "graph6": g6, **_report_dict(rep)}
                fh.write((",\n" if i else "\n") + _record_json(record))
            fh.write("\n]\n" if i >= 0 else "]\n")
    except OSError as exc:
        raise UsageError(f"cannot write {listing}: {exc.strerror}") from None


def _emit_summary(summary: SweepSummary, args, witness_dir: str | None) -> None:
    """Write the witness files to witness_dir, if given, and then the
    summary: a directory that cannot be written stops the command before
    any summary is printed."""
    if witness_dir:
        _write_witnesses(summary, witness_dir)
    if args.format == "json":
        _emit(json.dumps(_summary_dict(summary), sort_keys=True) + "\n", args.output)
    else:
        _emit(_summary_text(summary), args.output)


def cmd_compute(args) -> int:
    g = _read_graph(args.input)
    rep = full_report(g)
    name = os.path.splitext(os.path.basename(args.input))[0]
    if args.format == "json":
        _emit(json.dumps(_report_dict(rep), sort_keys=True) + "\n", args.output)
    elif args.format == "csv":
        _emit(_report_csv(name, rep), args.output)
    else:
        _emit(_report_text(name, rep), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.graph_class == "tree":
        kind, least, cap = GraphKind.TREE, 2, FREE_TREE_CAP
    else:
        kind, least, cap = GraphKind.UNICYCLIC, 3, UNICYCLIC_CAP
    ns = _parse_range(args.n_range)
    if len(ns) == 0:
        raise UsageError(f"empty range {args.n_range!r}")
    if min(ns) < least:
        raise UsageError(f"{args.graph_class} sweeps need n >= {least}, got {min(ns)}")
    if max(ns) > cap and not args.force:
        raise UsageError(
            f"n={max(ns)} exceeds the {args.graph_class} enumeration cap {cap} (use --force)"
        )
    summary = sweep_class(kind, ns)
    _emit_summary(summary, args, args.witness_dir if summary.failures else None)
    return EXIT_VERIFY_FAIL if summary.failures else EXIT_OK


def cmd_formula(args) -> int:
    if args.name == "bicyclic":
        if len(args.params) != 1:
            raise UsageError("formula bicyclic takes one parameter: x")
        formula = bicyclic_delta_formula
    else:
        if len(args.params) != 2:
            raise UsageError("formula multicyclic takes two parameters: k x")
        formula = multicyclic_delta_formula
    try:  # the formulas raise ValueError only for out-of-domain parameters
        value = formula(*args.params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    sign = "positive" if value > 0 else ("negative" if value < 0 else "zero")
    if args.format == "json":
        payload = {
            "formula": args.name,
            "params": args.params,
            "numerator": value.numerator,
            "denominator": value.denominator,
            "sign": sign,
        }
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)
    else:
        _emit(f"{value.numerator}/{value.denominator} sign={sign}\n", args.output)
    return EXIT_OK


def cmd_search(args) -> int:
    if args.budget is not None and args.budget < 0:
        raise UsageError(f"--budget must be at least 0, got {args.budget}")
    if args.strategy == "exhaustive-small" and args.max_n < 4:
        raise UsageError(f"no bicyclic graph has fewer than 4 vertices; got --max-n {args.max_n}")
    summary = search_counterexample(
        args.strategy,
        budget=args.budget,
        seed=args.seed,
        max_n=args.max_n,
    )
    _emit_summary(summary, args, args.witness_dir)
    if summary.positive_instances and summary.negative_instances:
        return EXIT_OK
    return EXIT_INCOMPLETE


DESCRIPTION = "Fermat eccentricities, Zagreb-Fermat indices, and inequality verification"
HELP_FLAGS = ("-h", "--help")
REQUIRED = object()  # the default of an option that must be given


def _shared(formats=("json", "text")):
    """The options every command takes."""
    return (
        ("--format", formats, "json", "output format"),
        ("--output", str, None, "write to this file instead of stdout"),
        (
            "--threads",
            _thread_count,
            os.cpu_count() or 1,
            "accepted for compatibility and ignored: every computation is single-threaded",
        ),
    )


# The command line, read by parse_args and printed by -h.  Each command
# maps to (handler, help line, positionals, options).  A positional is
# (name, choices or converter, arity, help); arity "+" takes one or more
# values as a list.  An option is (flag, choices or converter or None for
# a switch, default, help); its value is stored under the flag without
# its dashes, "-" read as "_".
COMMANDS = {
    "compute": (
        cmd_compute,
        "index report for one graph file",
        (),
        (
            ("--input", str, REQUIRED, "edge-list file (or .g6 for graph6)"),
            *_shared(("json", "csv", "text")),  # csv is one report row
        ),
    ),
    "verify": (
        cmd_verify,
        "exhaustive theorem sweep over a graph class",
        (
            ("graph_class", ("tree", "unicyclic"), 1, "class to sweep"),
            ("n_range", str, 1, "vertex count range, e.g. 2..9"),
        ),
        (
            ("--force", None, False, "override enumeration caps"),
            ("--witness-dir", str, None, "write each failing graph to this directory"),
            *_shared(),
        ),
    ),
    "formula": (
        cmd_formula,
        "evaluate a counterexample difference formula",
        (
            ("name", ("bicyclic", "multicyclic"), 1, "formula"),
            ("params", int, "+", "x for bicyclic, k x for multicyclic"),
        ),
        _shared(),
    ),
    "search": (
        cmd_search,
        "hunt multicyclic comparison violations",
        (("strategy", SEARCH_STRATEGIES, 1, "search strategy"),),
        (
            ("--budget", int, None, "most graphs to examine (by default 10000, 200 or 300 by strategy)"),
            ("--seed", int, 0, "random-walk seed"),
            ("--max-n", int, 8, "largest vertex count on exhaustive-small"),
            ("--witness-dir", str, None, "write each graph the summary names to this directory"),
            *_shared(),
        ),
    ),
}
TOP_USAGE = "fermatecc [-h] {" + ",".join(COMMANDS) + "} ..."
SYNTAX = """\
An option may come before, between or after the positionals, as
--flag VALUE or --flag=VALUE; a unique prefix of a long flag stands for
it, the last of a repeated option wins, and -- ends the options.
"""


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _metavar(name: str, kind) -> str:
    if isinstance(kind, tuple):
        return "{" + ",".join(kind) + "}"
    return name


def _spelt(flag: str, kind) -> str:
    """An option as usage and help show it: the flag, and its value's name."""
    return flag if kind is None else f"{flag} {_metavar(_dest(flag).upper(), kind)}"


def _usage(command: str) -> str:
    _, _, positionals, options = COMMANDS[command]
    words = [f"fermatecc {command} [-h]"]
    for flag, kind, default, _ in options:
        word = _spelt(flag, kind)
        words.append(word if default is REQUIRED else f"[{word}]")
    for name, kind, arity, _ in positionals:
        word = _metavar(name, kind)
        words.append(f"{word} [{word} ...]" if arity == "+" else word)
    return " ".join(words)


def _help(command: str | None) -> str:
    """fermatecc -h, or one command's -h, from the table."""
    if command is None:
        width = max(map(len, COMMANDS)) + 2
        rows = "".join(
            f"  {name:<{width}}{entry[1]}\n    {_usage(name)}\n" for name, entry in COMMANDS.items()
        )
        return (
            f"usage: {TOP_USAGE}\n\n{DESCRIPTION}\n\ncommands:\n{rows}\n{SYNTAX}"
            "fermatecc COMMAND -h describes one command.\n"
        )
    _, line, positionals, options = COMMANDS[command]
    rows = [(_metavar(name, kind), text) for name, kind, _, text in positionals]
    for flag, kind, default, text in options:
        if default is REQUIRED:
            text += " (required)"
        elif default is not None and kind is not None:
            text += f" (default {default})"
        rows.append((_spelt(flag, kind), text))
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows) + 2
    body = "".join(f"  {left:<{width}}{text}\n" for left, text in rows)
    return f"usage: {_usage(command)}\n\n{line}\n\narguments:\n{body}\n{SYNTAX}"


def _read(token: str, flags) -> tuple | None:
    """How argparse reads one token before "--": None for a positional,
    (flag, attached value or None) for a flag given in full or as a unique
    prefix, and (None, None) for an option-like token that names no flag.
    A prefix of two flags raises ValueError."""
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if token[1] == "-":
        hits = [f for f in flags if f.startswith(name)]
        if len(hits) > 1:
            raise ValueError(f"ambiguous option: {name} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    # a negative number (-N, -N.N or -.N) or a token with a space is a value
    whole, dot, frac = token[1:].partition(".")
    number = (frac if dot else whole).isdecimal() and (whole.isdecimal() or not whole)
    return None if number or " " in token else (None, None)


def _answer_help(command: str | None, flag: str, value: str | None) -> None:
    # -hh is -h twice, as argparse reads it; any other attached value is an error
    if value is None or (flag == "-h" and value and not value.strip("h")):
        sys.stdout.write(_help(command))
        raise SystemExit(EXIT_OK)
    raise ValueError(f"argument -h/--help: ignored explicit argument {value!r}")


def _convert(name: str, kind, token: str):
    if isinstance(kind, tuple):
        if token not in kind:
            raise ValueError(f"argument {name}: invalid choice: {token!r} (choose from {', '.join(kind)})")
        return token
    try:
        return kind(token)
    except ValueError as exc:
        raise ValueError(f"argument {name}: {exc}") from None


def _parse_command(command: str, argv: list[str], extras: list[str]) -> SimpleNamespace:
    _, _, positionals, options = COMMANDS[command]
    kinds = {flag: kind for flag, kind, _, _ in options}
    args = {_dest(flag): default for flag, _, default, _ in options}
    end = argv.index("--") if "--" in argv else len(argv)
    # every token is read before any is acted on, so an ambiguous prefix
    # is an error even after -h
    reads = [_read(token, (*HELP_FLAGS, *kinds)) for token in argv[:end]]
    pending = list(positionals)
    run: list[str] = []  # the positionals since the last flag

    def take_run():
        # a run fills as many positionals as it can, "+" taking all it has
        # left; the positionals it leaves wait for the next run
        while run and pending:
            name, kind, arity, _ = pending.pop(0)
            count = len(run) if arity == "+" else 1
            values = [_convert(name, kind, token) for token in run[:count]]
            args[name] = values if arity == "+" else values[0]
            del run[:count]
        extras.extend(run)
        run.clear()

    i = 0
    while i < end:
        token, read = argv[i], reads[i]
        i += 1
        if read is None:
            run.append(token)
            continue
        take_run()
        flag, value = read
        if flag is None:
            extras.append(token)
        elif flag in HELP_FLAGS:
            _answer_help(command, flag, value)
        elif kinds[flag] is None:
            if value is not None:
                raise ValueError(f"argument {flag}: ignored explicit argument {value!r}")
            args[_dest(flag)] = True
        else:
            if value is None:
                if i == end or reads[i] is not None:
                    raise ValueError(f"argument {flag}: expected one argument")
                value = argv[i]
                i += 1
            args[_dest(flag)] = _convert(flag, kinds[flag], value)
    run.extend(argv[end + 1 :])
    if end < len(argv) and not run:
        extras.append("--")  # argparse keeps a "--" that no positional takes
    take_run()
    missing = [name for name, *_ in pending]
    missing += [flag for flag in kinds if args[_dest(flag)] is REQUIRED]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**args)


def parse_args(argv: list[str]) -> tuple:
    """(handler, arguments) of a command line, read from COMMANDS.

    It accepts, rejects and answers with help the command lines argparse
    did: flags as --flag VALUE, --flag=VALUE or a unique prefix of a long
    flag, before, between or after the positionals; -- ends the flags;
    negative numbers are values; the last of a repeated option wins.
    -h prints help to stdout and raises SystemExit(0); a usage error is
    printed to stderr and raises SystemExit(2).
    """
    unknown: list[str] = []  # reported only after the command's own errors
    command = None
    try:
        for i, token in enumerate(argv):
            read = None if token == "--" else _read(token, HELP_FLAGS)
            if read is None:
                if token not in COMMANDS:
                    raise ValueError(
                        f"argument command: invalid choice: {token!r} (choose from {', '.join(COMMANDS)})"
                    )
                command = token
                return COMMANDS[command][0], _parse_command(command, argv[i + 1 :], unknown)
            if read[0] is None:
                unknown.append(token)
            else:
                _answer_help(None, *read)
        raise ValueError("the following arguments are required: command")
    except ValueError as exc:
        if command is None:
            usage, prog = TOP_USAGE, "fermatecc"
        else:
            usage, prog = _usage(command), f"fermatecc {command}"
        sys.stderr.write(f"usage: {usage}\n{prog}: error: {exc}\n")
        raise SystemExit(EXIT_USAGE) from None


@cache
def _freeze_import_heap() -> None:
    """Move every object alive now, the modules and caches the import
    made, out of the collector's generations, once per process.  They
    live as long as the process, so no collection can free them; frozen,
    they are not rescanned by the generation-1 and -2 collections a
    command's allocations trigger, and what the import allocates no
    longer decides when those collections fall."""
    gc.freeze()


def main(argv=None) -> int:
    _freeze_import_heap()
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    try:
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError, ConnectivityError, PreconditionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
