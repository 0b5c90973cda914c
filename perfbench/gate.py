"""Correctness gate for the benchmark's CLI outputs.

Runs outside the timed region, on the files the CLI wrote.  Every check
is invariant under vertex relabelling: it compares counts, instance-list
fingerprints built from degree sequences, structural facts (an equality
instance of the tree sweep is a path) and index values, never graph6
strings byte for byte.  graph6 is decoded here, not by the package under
test.
"""

from __future__ import annotations

import hashlib
import json


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of one graph6 string (n < 63 or n < 258048)."""
    data = [ord(c) - 63 for c in text.strip()]
    if not data or any(not 0 <= x < 64 for x in data):
        raise ValueError(f"not a graph6 string: {text!r}")
    if data[0] < 63:
        n, body = data[0], data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n, body = (data[1] << 12) | (data[2] << 6) | data[3], data[4:]
    else:
        raise ValueError(f"unsupported graph6 size header: {text!r}")
    needed = n * (n - 1) // 2
    if len(body) != (needed + 5) // 6:
        raise ValueError(f"graph6 body length {len(body)} does not fit n={n}")
    bits = (x >> (5 - k) & 1 for x in body for k in range(6))
    edges = [(i, j) for j in range(1, n) for i in range(j) if next(bits)]
    return n, edges


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def fingerprint(graph6_list) -> str:
    """Order- and labelling-independent digest of a list of graphs."""
    keys = []
    for g6 in graph6_list:
        n, edges = decode_graph6(g6)
        keys.append((n, len(edges), sorted(degrees(n, edges))))
    keys.sort()
    return hashlib.sha256(json.dumps(keys).encode()).hexdigest()[:16]


def is_path(n: int, edges) -> bool:
    if len(edges) != n - 1:
        return False
    deg = degrees(n, edges)
    if n == 1:
        return True
    if max(deg) > 2 or deg.count(1) != 2:
        return False
    # n - 1 edges, degrees <= 2, two leaves: a path unless a cycle split it off
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def check_summary(data: dict, exit_code: int, expect: dict) -> list[str]:
    """Problems with one sweep or search summary; empty when it passes."""
    problems = []
    if exit_code != expect["exit"]:
        problems.append(f"exit code {exit_code}, expected {expect['exit']}")
    if data.get("swept") != expect["swept"]:
        problems.append(f"swept {data.get('swept')!r}, expected {expect['swept']!r}")
    if data.get("instance_count") != expect["instance_count"]:
        problems.append(f"instance_count {data.get('instance_count')}, expected {expect['instance_count']}")
    if data.get("failures"):
        problems.append(f"{len(data['failures'])} check failures, first {data['failures'][0]}")
    if data.get("complete") is not expect["complete"]:
        problems.append(f"complete is {data.get('complete')}, expected {expect['complete']}")
    for key in ("equality", "positive", "negative"):
        found = data.get(f"{key}_instances", [])
        if len(found) != expect[key]:
            problems.append(f"{len(found)} {key} instances, expected {expect[key]}")
        elif f"{key}_fp" in expect and fingerprint(found) != expect[f"{key}_fp"]:
            problems.append(f"{key} instances fingerprint {fingerprint(found)}, expected {expect[f'{key}_fp']}")
    if "equality_paths" in expect:
        lo, hi = expect["equality_paths"]
        decoded = [decode_graph6(g6) for g6 in data.get("equality_instances", [])]
        if not all(is_path(n, e) for n, e in decoded):
            problems.append("an equality instance is not a path")
        if sorted(n for n, _ in decoded) != list(range(lo, hi + 1)):
            problems.append(f"equality instances do not cover n = {lo}..{hi} once each")
    return problems


def check_report(data: dict, exit_code: int, expect: dict, n: int, edges) -> list[str]:
    """Problems with one compute report on the graph (n, edges)."""
    problems = []
    if exit_code != expect["exit"]:
        problems.append(f"exit code {exit_code}, expected {expect['exit']}")
    for key, want in expect.items():
        if key != "exit" and data.get(key) != want:
            problems.append(f"{key} = {data.get(key)!r}, expected {want!r}")
    eps = data.get("eps3")
    if not isinstance(eps, list) or len(eps) != n:
        return problems + ["eps3 list missing or of the wrong length"]
    # the indices must follow from the reported eps3 on the graph as labelled
    f1 = sum(e * e for e in eps)
    f2 = sum(eps[u] * eps[v] for u, v in edges)
    if (data.get("f1"), data.get("f2")) != (f1, f2):
        problems.append(f"F1, F2 = {data.get('f1')}, {data.get('f2')} do not follow from eps3 ({f1}, {f2})")
    if any(abs(eps[u] - eps[v]) > 1 for u, v in edges):
        problems.append("eps3 differs by more than 1 across an edge")
    return problems
