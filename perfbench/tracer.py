"""Span tracer for the benchmark's traced passes.

Wraps the package's functions at the names their callers look up (the
modules import each other by name, so ``fermatecc.verify.to_graph6`` is
wrapped, not ``fermatecc.graph.to_graph6``).  Each call becomes a span
with a name, start, end and parent; enumeration generators are lazy, so
each ``next()`` on them is its own span.  A layer's self time is the sum
of its spans' durations minus the durations of their child spans.

Nothing under the package's source changes: tracing from inside the
program is separate work.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from math import comb

_clock = time.perf_counter

# (module, attribute) -> span name.  Every name the workloads reach is here.
CALL_SPANS = {
    ("fermatecc.cli", "parse_edge_list"): "graph.parse",
    ("fermatecc.verify", "to_graph6"): "graph.graph6",
    ("fermatecc.indices", "all_pairs_distances"): "graph.apsp",
    ("fermatecc.verify", "all_pairs_distances"): "graph.apsp",
    ("fermatecc.generators", "all_pairs_distances"): "graph.apsp",
    ("fermatecc.fermat", "all_pairs_distances"): "graph.apsp",
    ("fermatecc.verify", "decorate_tree"): "generators.decorate_tree",
    ("fermatecc.fermat", "eps3_tree"): "fermat.eps3_tree",
    ("fermatecc.verify", "eps3_tree"): "fermat.eps3_tree",
    ("fermatecc.fermat", "eps3_pruned"): "fermat.eps3_pruned",
    ("fermatecc.cli", "full_report"): "indices.full_report",
    ("fermatecc.verify", "full_report"): "indices.full_report",
    ("fermatecc.indices", "zagreb_fermat"): "indices.sums",
    ("fermatecc.indices", "zagreb_eccentricity"): "indices.sums",
    ("fermatecc.indices", "zagreb_classic"): "indices.sums",
    ("fermatecc.indices", "compare_averages"): "indices.sums",
    ("fermatecc.verify", "check_edge_lipschitz"): "verify.checks",
    ("fermatecc.verify", "verify_main_inequality"): "verify.checks",
    ("fermatecc.verify", "check_eccentric_analogue"): "verify.checks",
    ("fermatecc.verify", "check_diametrical_lemmas"): "verify.checks",
    ("fermatecc.cli", "sweep_class"): "verify",
    ("fermatecc.cli", "search_counterexample"): "verify",
}

# (module, attribute) -> graph class the enumerator yields.  The inner
# names in fermatecc.generators are wrapped too, so the augmentation
# counts of the nested enumerations are measured, not assumed.
ENUM_SPANS = {
    ("fermatecc.verify", "enumerate_free_trees"): "tree",
    ("fermatecc.verify", "enumerate_unicyclic"): "unicyclic",
    ("fermatecc.verify", "enumerate_bicyclic"): "bicyclic",
    ("fermatecc.generators", "enumerate_free_trees"): "tree",
    ("fermatecc.generators", "enumerate_unicyclic"): "unicyclic",
}

# Edges of the graphs each cyclic enumerator augments, as a function of n:
# unicyclic classes come from trees (n - 1 edges), bicyclic from unicyclic
# graphs (n edges); every non-edge of each base graph is one augmentation.
_BASE_EDGES = {"unicyclic": lambda n: n - 1, "bicyclic": lambda n: n}

LAYERS = (
    "cli",
    "verify",
    "verify.checks",
    "graph.parse",
    "graph.graph6",
    "graph.apsp",
    "generators.enumerate",
    "generators.decorate_tree",
    "fermat.eps3_tree",
    "fermat.eps3_pruned",
    "indices.full_report",
    "indices.sums",
)


class Tracer:
    """Records spans in memory; ``dump`` writes them out at the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.enumerations: list[dict] = []
        self.missing: list[str] = []
        self._open: list[int] = []
        self._enum_stack: list[dict] = []
        self._saved: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _clock(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._open.pop()

    def _call_wrapper(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if name == "fermat.eps3_pruned":
                n = (args[0] if args else kwargs["g"]).n
                self.counts["pair_evaluations"] += result.pair_evaluations or 0
                self.counts["candidate_pairs"] += n * n * (n + 1) // 2
            return result

        return traced

    def _enum_wrapper(self, fn, kind: str):
        def traced(n, *args, **kwargs):
            record = {"kind": kind, "n": n, "yielded": 0, "base_yields": 0, "top": not self._enum_stack}
            self.enumerations.append(record)
            inner = fn(n, *args, **kwargs)
            while True:
                idx = self.begin("generators.enumerate")
                self._enum_stack.append(record)
                try:
                    g = next(inner)
                except StopIteration:
                    return
                finally:
                    self._enum_stack.pop()
                    self.end(idx)
                record["yielded"] += 1
                if self._enum_stack:
                    self._enum_stack[-1]["base_yields"] += 1
                yield g

        return traced

    def install(self) -> None:
        """Wrap every traced name; a name the package no longer has is listed in ``missing``."""
        for table, make in ((CALL_SPANS, self._call_wrapper), (ENUM_SPANS, self._enum_wrapper)):
            for (module_name, attr), label in table.items():
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, make(fn, label))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self) -> tuple[dict[str, float], Counter]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything traced so far; ``wall_s`` is the traced wall time."""
        self_s, calls = self.self_times()
        kept = tried = 0
        for rec in self.enumerations:
            if rec["kind"] in _BASE_EDGES:
                n = rec["n"]
                kept += rec["yielded"]
                tried += rec["base_yields"] * (comb(n, 2) - _BASE_EDGES[rec["kind"]](n))
        candidates = self.counts["candidate_pairs"]
        out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
        out.update(
            {
                "graph.graph6.calls": calls["graph.graph6"],
                "graph.apsp.calls": calls["graph.apsp"],
                "fermat.eps3_pruned.calls": calls["fermat.eps3_pruned"],
                "fermat.pair_evaluations": self.counts["pair_evaluations"],
                "fermat.prune_ratio": self.counts["pair_evaluations"] / candidates if candidates else 0.0,
                "generators.enumerate.yielded": sum(r["yielded"] for r in self.enumerations if r["top"]),
                "generators.dedup_keep_ratio": kept / tried if tried else 0.0,
                "trace.unattributed_s": wall_s - sum(self_s.values()),
            }
        )
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every span as [name, start, end, parent], times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [[name, start - t0, end - t0, parent] for name, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
