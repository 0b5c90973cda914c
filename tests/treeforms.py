"""A reference isomorphism key for trees, for the tests only.

The package enumerates each tree class once without any key; the tests
check that claim against this independent one.
"""


def canonical_form(n, edges) -> tuple:
    """Isomorphism-class key of the tree on n vertices with these edges.

    Leaves are peeled layer by layer; a peeled vertex's form is the tuple
    of its child forms in decreasing tuple order (a rooted AHU form),
    handed to its one surviving neighbour, until only the one or two
    centres are left.  Any fixed order on the forms would do: the key
    only has to be equal exactly on isomorphic trees.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if sum(map(len, adj)) != 2 * (n - 1):
        raise ValueError(f"canonical_form needs a tree, got n={n}, m={sum(map(len, adj)) // 2}")
    degree = [len(a) for a in adj]
    children: list[list[tuple]] = [[] for _ in range(n)]
    alive = [True] * n
    left = n
    layer = [u for u in range(n) if degree[u] == 1]
    while layer and left > 2:
        nxt = []
        for u in layer:
            alive[u] = False
            left -= 1
            children[u].sort(reverse=True)
            peeled = tuple(children[u])
            for v in adj[u]:
                if alive[v]:
                    children[v].append(peeled)
                    degree[v] -= 1
                    if degree[v] == 1:
                        nxt.append(v)
        layer = nxt
    centres = sorted((tuple(sorted(children[u], reverse=True)) for u in range(n) if alive[u]), reverse=True)
    return centres[0] if len(centres) == 1 else tuple(centres)
