"""Reference implementations that the tests compare the package with.

`max_independent_set_reference` is the exact solver as it stood before its
nodes were made cheaper: it recomputes the whole greedy clique cover at
every node, pushes both children on the stack and scans the candidates for
a max-degree vertex from the lowest index up.  The package's solver must
walk exactly the same search tree.
"""

from erpg.graphs import MISResult, SolveBudget, bits


def greedy_cover_count(adj, cand):
    """Greedy clique-cover upper bound on the independence number of cand."""
    bound = 0
    rest = cand
    while rest:
        v = (rest & -rest).bit_length() - 1
        clique_members = 1 << v
        grow = rest & adj[v]
        while grow:
            w = (grow & -grow).bit_length() - 1
            clique_members |= 1 << w
            grow &= adj[w]
        rest &= ~clique_members
        bound += 1
    return bound


def max_independent_set_reference(g, budget=None, initial=None):
    """Exact maximum independent set by bitset branch-and-bound.

    Branches on a maximum-degree candidate vertex (least index breaks
    ties), including it first; the bound is a greedy clique cover of the
    candidate set.  The search keeps its open nodes on an explicit stack,
    so the graph size is not limited by the recursion limit.
    Deterministic: identical inputs give identical outputs.  `initial`
    seeds the incumbent with a known independent set.
    """
    if budget is None:
        budget = SolveBudget()
    adj = g.adj
    n = g.n
    full = (1 << n) - 1

    best_set = 0
    if initial:
        witness = g.is_independent(initial)
        if witness is not None:
            raise ValueError(f"initial set is not independent: edge {witness}")
        for v in initial:
            best_set |= 1 << v
    best = best_set.bit_count()

    max_nodes = budget.max_nodes
    nodes = 0
    exhausted = False
    stack = [(0, 0, full)]  # open nodes: (chosen, its size, candidates)
    while stack:
        chosen, csize, cand = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            exhausted = True
            break
        if not cand:
            if csize > best:
                best, best_set = csize, chosen
            continue
        if csize + greedy_cover_count(adj, cand) <= best:
            continue
        # max-degree candidate (degree within cand), least index on ties
        v, vdeg = -1, -1
        rest = cand
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            d = (adj[u] & cand).bit_count()
            if d > vdeg:
                v, vdeg = u, d
        # exclude v is pushed first, so include v is searched first
        stack.append((chosen, csize, cand & ~(1 << v)))
        stack.append((chosen | (1 << v), csize + 1,
                      cand & ~(adj[v] | (1 << v))))
    status = "budget_exhausted" if exhausted else "optimal"
    return MISResult(best, sorted(bits(best_set)), status, nodes)
