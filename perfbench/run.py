"""Benchmark of the fermatecc command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 0 --smoke

Each timed pass starts a fresh interpreter (child.py) that imports
``fermatecc.cli`` from the checkout's ``src`` and calls ``main`` the way
a command-line user would, with ``--output`` to a file.  Passes repeat
until ``--seconds`` have elapsed.  Every metric is the median over
passes; times are at the reference core speed of probe.py.  The
outputs of every pass go through the correctness gate (gate.py) after
timing.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics instead of the end-to-end ones; ``--smoke`` swaps
in tiny inputs.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a record of every sample,
the seed and the library versions goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import gate
from tracer import LAYERS
from workloads import SMOKE, THREADS, WORKLOADS, build_graph, write_graph

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {"wall_s": "s", "graphs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {f"{layer}.self_s": "s" for layer in LAYERS}
PER_LAYER.update(
    {
        "graph.graph6.calls": "count",
        "graph.apsp.calls": "count",
        "fermat.eps3_pruned.calls": "count",
        "fermat.pair_evaluations": "count",
        "fermat.prune_ratio": "ratio",
        "generators.enumerate.yielded": "count",
        "generators.dedup_keep_ratio": "ratio",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
    }
)
# import-only interpreters started before timing: the first fills the
# bytecode cache, the rest add set-up samples
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a gate failure)."""


def run_child(calls: list[list[str]], trace: bool, spans: Path | None = None) -> dict:
    job = {"src": str(SRC), "calls": calls, "trace": trace, "spans": str(spans) if spans else None}
    # a fixed string-hash seed keeps set and dict layouts, and so timings, alike across passes
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    """One workload's passes, their outputs and the gate's verdicts."""

    def __init__(self, workload, seed: int, tag: str) -> None:
        self.workload = workload
        self.tag = tag
        self.graph = self.input = None
        if workload.graph:
            n, extra = workload.graph
            self.graph = (n, build_graph(n, extra, seed))
            self.input = OUT / f"{tag}.edges"
            write_graph(self.input, *self.graph)
        self.passes: list[dict] = []

    def run_pass(self, trace: bool) -> None:
        outputs = [OUT / f"{self.tag}.call{i}.pass{len(self.passes)}.json" for i in range(len(self.workload.calls))]
        for out in outputs:
            out.unlink(missing_ok=True)  # a call that writes nothing must not be judged on an old file
        calls = [
            [a.replace("{input}", str(self.input)) for a in call.argv]
            + ["--threads", str(THREADS), "--format", "json", "--output", str(out)]
            for call, out in zip(self.workload.calls, outputs)
        ]
        result = run_child(calls, trace, OUT / f"{self.tag}.spans.json" if trace else None)
        result.update(traced=trace, outputs=outputs)
        self.passes.append(result)

    def check(self) -> tuple[int, list[str]]:
        """Gate every call of every pass; sets each pass's ``instances``.

        Returns the number of failed calls and the problems found.  A call
        also fails when its output differs from the first pass's.
        """
        failed = 0
        problems: list[str] = []
        verdicts: dict[tuple, list[str]] = {}
        first: list[str] = []
        for p in self.passes:
            p["instances"] = 0
            for k, (call, res, path) in enumerate(zip(self.workload.calls, p["calls"], p["outputs"])):
                text = path.read_text() if path.exists() else ""
                key = (k, res["exit"], text)
                if key not in verdicts:
                    verdicts[key] = self.check_output(call, res["exit"], text)
                found = list(verdicts[key])
                if len(first) == k:
                    first.append(text)
                elif text != first[k]:
                    found.append("output differs from the first pass")
                if found:
                    failed += 1
                    problems.extend(f"{' '.join(call.argv)}: {msg}" for msg in found)
                else:
                    p["instances"] += json.loads(text).get("instance_count", 1)
        return failed, problems

    def check_output(self, call, exit_code: int, text: str) -> list[str]:
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            return [f"output is not JSON (exit {exit_code})"]
        if self.graph:
            return gate.check_report(data, exit_code, call.expect, *self.graph)
        return gate.check_summary(data, exit_code, call.expect)


def wall(p: dict) -> float:
    return sum(c["wall_s"] for c in p["calls"])


def ref_wall(p: dict) -> float:
    """The pass's call time at the probe's reference speed (probe.py)."""
    return sum(c["probe"]["ref_s"] for c in p["calls"])


def measure(workload, seed: int, seconds: float, trace: bool, tag: str) -> dict:
    run = Run(workload, seed, tag)
    setup = [run_child([], False)["setup_probe"]["ref_s"] for _ in range(SETUP_PROBES + 1)][1:]
    start = time.perf_counter()
    # a traced run alternates untraced and traced passes and ends on a traced one
    while True:
        run.run_pass(trace and len(run.passes) % 2 == 1)
        if time.perf_counter() - start >= seconds and not (trace and len(run.passes) % 2):
            break

    failed, problems = run.check()
    plain = [p for p in run.passes if not p["traced"]]
    # Other tenants of the shared host swing the speed of a core by up to 2x
    # for seconds to minutes at a time, so raw pass times of one code spread
    # by 30-40% between runs.  Timings are therefore taken at the reference
    # speed of the probe sampled during each untraced pass.
    metrics = {
        "wall_s": median(ref_wall(p) for p in plain),
        "graphs_per_s": median(p["instances"] / ref_wall(p) for p in plain),
        "setup_s": median(setup + [p["setup_probe"]["ref_s"] for p in plain]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
    }
    units = END_TO_END
    if trace:
        traced = [p for p in run.passes if p["traced"]]
        layers = {name: median([p["layers"][name] for p in traced]) for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = min(wall(p) for p in traced) - min(wall(p) for p in plain)
        metrics, units = layers, PER_LAYER
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "versions": run.passes[0]["versions"],
        "missing_trace_names": run.passes[-1].get("missing", []),
        "passes": len(run.passes),
        "samples": [
            {k: p[k] for k in ("traced", "setup_s", "setup_probe", "calls", "peak_rss_mb", "instances")}
            for p in run.passes
        ],
        "setup_probes_s": setup,
        "attempted": sum(len(p["calls"]) for p in run.passes),
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the harness")
    args = ap.parse_args(argv)

    if not (SRC / "fermatecc" / "__init__.py").is_file():
        print(f"no fermatecc package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    table = SMOKE if args.smoke else WORKLOADS
    names = sorted(table) if args.workload == "all" else [args.workload]

    records = []
    try:
        for name in names:
            tag = f"{name}{'.smoke' if args.smoke else ''}.seed{args.seed}.trace{args.trace}"
            rec = measure(table[name], args.seed, args.seconds, bool(args.trace), tag)
            (OUT / f"{tag}.result.json").write_text(json.dumps(rec, indent=1) + "\n")
            records.append(rec)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 3

    for rec in records:
        v = rec["versions"]
        print(
            f"{rec['workload']}: seed={rec['seed']} trace={rec['trace']} threads={rec['threads']} "
            f"nproc={rec['nproc']} passes={rec['passes']} python={v['python']} "
            f"numpy={v['numpy']} networkx={v['networkx']} "
            f"failed_ratio={rec['failed']}/{rec['attempted']}"
        )
        for name, m in rec["metrics"].items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
        for msg in rec["problems"]:
            print(f"  GATE FAILURE {msg}", file=sys.stderr)
        if rec["missing_trace_names"]:
            print(f"  not traced (name missing): {', '.join(rec['missing_trace_names'])}", file=sys.stderr)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
