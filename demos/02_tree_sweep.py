"""Exhaustive verification of the tree theorems.

Enumerates every tree isomorphism class up to a chosen order, checks
n*F2 <= m*F1 with equality exactly on paths, and confirms the extremal
statement: the star minimises F1 and F2, the path maximises both.
"""

import fermatecc as fe


def main():
    max_n = 10
    summary = fe.sweep_class(fe.GraphKind.TREE, range(2, max_n + 1))
    print(f"checked {summary.instance_count} tree classes, n = 2..{max_n}")
    print(f"failures: {len(summary.failures)}")
    for f in summary.failures:
        print(f"  {f.check_name} on {f.instance}: {f.detail}")

    print("\nequality cases (these decode to exactly the paths):")
    for g6 in summary.equality_instances:
        g = fe.from_graph6(g6)
        print(f"  {g6:12s} n={g.n:2d} is_path={fe.is_path_graph(g)}")

    n = 9
    print(f"\nF1 range over all trees with n={n}:")
    reports = [fe.full_report(g) for g in fe.enumerate_free_trees(n) if g.n == n]
    f1s = sorted(r.f1 for r in reports)
    star = fe.full_report(fe.star(n))
    path = fe.full_report(fe.path(n))
    print(f"  minimum {f1s[0]} = star's {star.f1};  maximum {f1s[-1]} = path's {path.f1}")


if __name__ == "__main__":
    main()
