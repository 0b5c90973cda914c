"""Command-line front end.

Subcommands: compute, verify, formula, search.  Exit codes:
0 success/verified, 1 verification failure (witness written), 2 usage,
3 parse/validation (and an edgeless graph, which has no comparison),
4 incomplete search, 5 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii

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

CSV_COLUMNS = "name,n,m,class,f1,f2,e1,e2,z1,z2,comparison"

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
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
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
    row = [
        name,
        rep.n,
        rep.m,
        rep.kind.value,
        rep.f1,
        rep.f2,
        rep.e1,
        rep.e2,
        rep.z1,
        rep.z2,
        rep.comparison.value,
    ]
    buf = io.StringIO()
    # quotes a field only where it holds a comma, a quote or a line break
    csv.writer(buf, lineterminator="\n").writerow(row)
    return CSV_COLUMNS + "\n" + buf.getvalue()


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
    if args.format == "json":
        _emit(json.dumps(_summary_dict(summary), sort_keys=True) + "\n", args.output)
    else:
        _emit(_summary_text(summary), args.output)
    if summary.failures:
        if args.witness_dir:
            _write_witnesses(summary, args.witness_dir)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


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
    if args.witness_dir:
        _write_witnesses(summary, args.witness_dir)
    if args.format == "json":
        _emit(json.dumps(_summary_dict(summary), sort_keys=True) + "\n", args.output)
    else:
        _emit(_summary_text(summary), args.output)
    if summary.positive_instances and summary.negative_instances:
        return EXIT_OK
    return EXIT_INCOMPLETE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fermatecc",
        description="Fermat eccentricities, Zagreb-Fermat indices, and inequality verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "text")):
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.add_argument(
            "--threads",
            type=_thread_count,
            default=os.cpu_count() or 1,
            help="accepted for compatibility and ignored: every computation is single-threaded",
        )

    p = sub.add_parser("compute", help="index report for one graph file")
    p.add_argument("--input", required=True, help="edge-list file (or .g6 for graph6)")
    common(p, formats=("json", "csv", "text"))  # csv is one report row
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="exhaustive theorem sweep over a graph class")
    p.add_argument("graph_class", choices=("tree", "unicyclic"))
    p.add_argument("n_range", help="vertex count range, e.g. 2..9")
    p.add_argument("--force", action="store_true", help="override enumeration caps")
    p.add_argument("--witness-dir", default=None)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("formula", help="evaluate a counterexample difference formula")
    p.add_argument("name", choices=("bicyclic", "multicyclic"))
    p.add_argument("params", type=int, nargs="+")
    common(p)
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("search", help="hunt multicyclic comparison violations")
    p.add_argument("strategy", choices=SEARCH_STRATEGIES)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--witness-dir", default=None)
    common(p)
    p.set_defaults(func=cmd_search)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
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
