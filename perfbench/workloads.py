"""The benchmark's workload table: the CLI calls each workload makes, the
inputs it builds from the seed, and the values its outputs must show.

Expected values are those of the package at the commit that defined the
benchmark.  Counts and fingerprints are invariant under vertex
relabelling, so a change that picks other class representatives or
another vertex order still passes; see gate.py for what each key checks.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from pathlib import Path

# Passed to every CLI call: the reference machine has two cores, and a fixed
# value keeps the load the same from machine to machine.
THREADS = 2

# Isomorphism-class counts by vertex count n (OEIS A000055, A001429 and the
# connected graphs with m = n + 1); the gate checks instance counts
# against these, not against constants from the package under test.
FREE_TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}
UNICYCLIC = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240}
BICYCLIC = {4: 1, 5: 5, 6: 19, 7: 67, 8: 236}


def _classes(table: dict[int, int], lo: int, hi: int) -> int:
    return sum(table[n] for n in range(lo, hi + 1))


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the gate's expectations for its output.

    ``{input}`` in argv is replaced by the workload's generated input file.
    ``expect`` keys: exit, swept, instance_count, complete, equality,
    positive, negative (counts), *_fp (fingerprints of those instance lists),
    equality_paths (one path per n in an inclusive range), and for compute
    the report fields n, m, class, f1, f2, e1, e2, z1, z2, comparison.
    """

    argv: tuple[str, ...]
    expect: dict


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    # vertex count and extra edges of the generated compute input, if any
    graph: tuple[int, int] | None = None


def sweep_expect(exit_code, swept, count, equality=0, positive=0, negative=0, complete=True, **fps) -> dict:
    return {
        "exit": exit_code,
        "swept": swept,
        "instance_count": count,
        "complete": complete,
        "equality": equality,
        "positive": positive,
        "negative": negative,
        **fps,
    }


def report_expect(n, m, f1, f2, e1, e2, z1, z2, comparison) -> dict:
    return {
        "exit": 0,
        "n": n,
        "m": m,
        "class": "multicyclic",
        "f1": f1,
        "f2": f2,
        "e1": e1,
        "e2": e2,
        "z1": z1,
        "z2": z2,
        "comparison": comparison,
    }


# Why each workload was chosen, and which layer leads it: perfbench/layers.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tree_sweep",
            (
                Call(
                    ("verify", "tree", "2..12"),
                    sweep_expect(0, "tree", _classes(FREE_TREES, 2, 12), equality=11, equality_paths=(2, 12)),
                ),
            ),
        ),
        Workload(
            "cyclic_sweep",
            (
                Call(
                    ("verify", "unicyclic", "3..9"),
                    sweep_expect(0, "unicyclic", _classes(UNICYCLIC, 3, 9), equality=20, equality_fp="02360b73c692b244"),
                ),
                # exit 4 is this search's defined result: no positive instance exists at n <= 8
                Call(
                    ("search", "exhaustive-small"),
                    sweep_expect(
                        4, "search:exhaustive-small", _classes(BICYCLIC, 4, 8), negative=295, negative_fp="01ec08d08dd47608"
                    ),
                ),
            ),
        ),
        Workload(
            "family_search",
            (
                Call(
                    ("search", "family-sweep"),
                    sweep_expect(
                        0, "search:family-sweep", 82, positive=16, negative=60,
                        positive_fp="6f72d6a8dc8dc933", negative_fp="bd385efd35714268",
                    ),
                ),
            ),
        ),
        Workload(
            "compute_large",
            (Call(("compute", "--input", "{input}"), report_expect(400, 439, 310940, 331506, 113530, 118775, 2476, 3346, "negative")),),
            graph=(400, 40),
        ),
    )
}

# Tiny variants of every workload for the smoke mode: same gate, same
# tracer, well under a second each.
SMOKE = {
    w.name: w
    for w in (
        Workload(
            "tree_sweep",
            (Call(("verify", "tree", "2..6"), sweep_expect(0, "tree", _classes(FREE_TREES, 2, 6), equality=5, equality_paths=(2, 6))),),
        ),
        Workload(
            "cyclic_sweep",
            (
                Call(
                    ("verify", "unicyclic", "3..5"),
                    sweep_expect(0, "unicyclic", _classes(UNICYCLIC, 3, 5), equality=4, equality_fp="65e50f9c3c65d7b9"),
                ),
                Call(
                    ("search", "exhaustive-small", "--max-n", "5"),
                    sweep_expect(4, "search:exhaustive-small", _classes(BICYCLIC, 4, 5), negative=3, negative_fp="8374ed9692c044c9"),
                ),
            ),
        ),
        Workload(
            "family_search",
            (
                Call(
                    ("search", "family-sweep", "--budget", "6"),
                    sweep_expect(4, "search:family-sweep", 6, negative=1, complete=False, negative_fp="ed0c160045fe10ab"),
                ),
            ),
        ),
        Workload(
            "compute_large",
            (Call(("compute", "--input", "{input}"), report_expect(30, 33, 4164, 4316, 1880, 1846, 176, 239, "negative")),),
            graph=(30, 4),
        ),
    )
}


def _prufer_tree(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """Uniform random labelled tree on n >= 2 vertices from a Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [u for u in range(n) if degree[u] == 1]
    heapq.heapify(leaves)
    edges = set()
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.add((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.add((min(u, v), max(u, v)))
    return edges


def build_graph(n: int, extra: int, seed: int) -> list[tuple[int, int]]:
    """Edges of a connected graph with n vertices and n - 1 + extra edges.

    The structure is a random spanning tree of K_n plus ``extra`` random
    chords, drawn from a fixed structure seed; ``seed`` draws a vertex
    relabelling and the edge order.  The work of the pruned eps3 kernel
    depends on the structure far more than the machine's noise does, so
    relabelling keeps one seed's timings comparable with another's while
    still feeding the program a different input file per seed.
    """
    rng = random.Random(0)
    edges = _prufer_tree(rng, n)
    while len(edges) < n - 1 + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    rng = random.Random(seed)
    perm = rng.sample(range(n), n)
    out = [(perm[u], perm[v]) for u, v in sorted(edges)]
    rng.shuffle(out)
    return out


def write_graph(path: Path, n: int, edges: list[tuple[int, int]]) -> None:
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
