"""Reference implementations that the tests compare the package with.

`max_independent_set_reference` is the exact solver as it stood before its
nodes were made cheaper: it recomputes the whole greedy clique cover at
every node, pushes both children on the stack and still scans every
candidate, from the lowest index up, for a max-degree vertex, where the
package's solver reads it from bit-sliced degree counters.  The package's
solver must walk exactly the same search tree.  `check_symmetric_reference`
compares the rows with the transpose of the whole matrix, where the
package compares them tile by tile.  `induced` and `triangles` are the
plain oracles for `induced_on_points` and for the edges of the triangle
hypergraph.  `c4_pair` checks exactly that a graph has no C4, in
O(n * max degree) row operations, where a scan of all pairs takes O(n^2).
`girth_reference` runs a BFS over dicts from every vertex, where
`Graph.girth` looks for 3- and 4-cycles by one local pass over the rows
first.
The geometry here evaluates dot products and the polarity's bilinear form
directly on coordinate triples, and `plane_points` lists the plane's points
as the stored enumeration that `ProjectivePlane.point` and `index_of`
compute.  The `*_reference` codecs build each file, or parse it,
as one string; the package's codecs must give the same bytes, graphs and
errors while holding a row or a block at a time.
`certificate_json_reference` writes a certificate with the stdlib `json`
encoder alone, where `Certificate.to_json` splices in the points' text.
`listed_pair_reference` names a conjugate pair from rows, where
`point_set_independent` reads line counts, and `greedy_extend` extends an
independent set on rows, where `coclique_even` marks polar lines.
Only `alpha_subset_scan` needs numpy, so `tests/ci_checks.py` can import
this module where the test extras are not installed.
"""

import binascii
import json
import math

from erpg.constructions import CERTIFICATE_VERSION, pencil_conics
from erpg.field import field_for_order
from erpg.graphs import (_B64_TO_G6, _G6, _G6_TO_B64, _MAX_VERTICES, Graph,
                         MISResult, SolveBudget, _graph6_size,
                         _graph6_size_bytes, bits, transpose)
from erpg.plane import ProjectivePlane, collineation


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


def check_symmetric_reference(g):
    """`Graph.check_symmetric` as a comparison of the rows with the
    transpose of the whole matrix: the first row that differs from its
    column gives u, and the least bit of their difference gives v."""
    n, adj = g.n, g.adj
    for u, row in enumerate(adj):
        if row.bit_length() > n:
            raise AssertionError(f"vertex {u} has a neighbour out of range")
        if row >> u & 1:
            raise AssertionError(f"loop at vertex {u}")
    for u, (row, col) in enumerate(zip(adj, transpose(adj))):
        if row != col:
            v = next(bits(row ^ col))
            if not row >> v & 1:
                u, v = v, u
            raise AssertionError(f"asymmetric edge ({u},{v})")


def induced(g, S):
    """The subgraph of g induced on S; vertex i is the i-th least of S."""
    S = sorted(set(S))
    pos = {v: i for i, v in enumerate(S)}
    return Graph(len(S), [sum(1 << pos[w] for w in bits(g.adj[v]) if w in pos)
                          for v in S])


def greedy_extend(g, S, candidates):
    """Extend an independent set greedily over candidates in given order,
    on the rows of g: the oracle of the marking walk in
    `constructions.coclique_even`."""
    witness = g.is_independent(S)
    if witness is not None:
        raise ValueError(f"input set is not independent: edge {witness}")
    chosen = list(S)
    mask = 0
    for v in chosen:
        mask |= 1 << v
    blocked = 0
    for v in chosen:
        blocked |= g.adj[v]
    for v in candidates:
        g._check_vertex(v)
        b = 1 << v
        if not (mask & b) and not (blocked & b):
            chosen.append(v)
            mask |= b
            blocked |= g.adj[v]
    return chosen


def triangles(g):
    """All triangles of g as triples u < v < w, in lexicographic order."""
    for u, v in g.edges():
        common = g.adj[u] & g.adj[v]
        for w in bits(common >> (v + 1) << (v + 1)):
            yield (u, v, w)


def c4_pair(g):
    """The first pair (u, x), x != u, with two common neighbours, in the
    order of u, or None when g has no C4.  For each u the rows of its
    neighbours are ORed together, keeping the bits reached twice."""
    for u, row in enumerate(g.adj):
        once = twice = 0
        for v in bits(row):
            twice |= once & g.adj[v]
            once |= g.adj[v]
        twice &= ~(1 << u)
        if twice:
            return u, next(bits(twice))
    return None


def girth_reference(g):
    """Reference oracle: dict-based BFS from every vertex, closing a cycle
    at the first non-tree edge between visited vertices."""
    best = math.inf
    nbrs = [list(bits(row)) for row in g.adj]
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        d = 0
        while frontier and 2 * d + 1 < best:
            nxt = []
            for u in frontier:
                for w in nbrs[u]:
                    if w not in dist:
                        dist[w] = d + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and dist[w] >= d:
                        # cross (dist equal) or forward (d+1) edge
                        best = min(best, dist[w] + d + 1)
            frontier = nxt
            d += 1
    return best


def random_graph(n, p, rng):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def alpha_exact(g):
    """Exact oracle sharing no code with the solver: the recursion
    alpha(S) = max(alpha(S - v), 1 + alpha(S - N[v])), v the lowest vertex
    of S, memoised over vertex bitmasks."""
    adj = g.adj
    memo = {0: 0}

    def alpha(S):
        a = memo.get(S)
        if a is None:
            v = (S & -S).bit_length() - 1
            rest = S & (S - 1)
            a = memo[S] = max(alpha(rest), 1 + alpha(rest & ~adj[v]))
        return a

    return alpha((1 << g.n) - 1)


def alpha_subset_scan(g):
    """Cross-check of alpha_exact for small n: a vectorized scan of all
    2^n vertex subsets."""
    import numpy as np
    n = g.n
    masks = np.arange(1 << n, dtype=np.uint32)
    ok = np.ones(1 << n, dtype=bool)
    for v in range(n):
        has_v = (masks >> v & 1).astype(bool)
        conflict = (masks & np.uint32(g.adj[v])) != 0
        ok &= ~(has_v & conflict)
    size = np.zeros(1 << n, dtype=np.int8)
    for v in range(n):
        size += (masks >> v & 1).astype(np.int8)
    return int(size[ok].max())


def certificate_json_reference(cert):
    """The certificate as json.dumps(doc, indent=2, sort_keys=True), with
    each point as three coefficient lists."""
    ctx = field_for_order(cert.q)
    doc = {
        "version": CERTIFICATE_VERSION,
        "construction": cert.construction_id,
        "q": cert.q,
        "modulus": list(ctx.modulus),
        "parameters": cert.parameters,
        "size": cert.size,
        "claimed_size": cert.claimed_size,
        "points": [[list(ctx.coeffs(c)) for c in pt] for pt in cert.points],
        "verified": cert.verified,
    }
    if cert.extension is not None:
        doc["extension"] = cert.extension
    return json.dumps(doc, indent=2, sort_keys=True)


def preserves_adjacency(g, perm):
    """Whether adj[perm[u]] is the image of adj[u] for every vertex u."""
    return all(g.adj[perm[u]] == sum(1 << perm[v] for v in bits(row))
               for u, row in enumerate(g.adj))


def plane_points(plane):
    """The points of the plane as a stored list in index order, the
    enumeration that `ProjectivePlane.point` and `index_of` compute."""
    q = plane.q
    pts = [(0, 0, 1)]
    pts.extend((0, 1, z) for z in range(q))
    pts.extend((1, y, z) for y in range(q) for z in range(q))
    return pts


def dot(f, u, v):
    """u . v over the field f; a point u lies on a line v when it is 0."""
    return f.add(f.add(f.mul(u[0], v[0]), f.mul(u[1], v[1])), f.mul(u[2], v[2]))


def conjugate(f, P, Q):
    """Whether P^T A Q = 0 for the polarity's matrix A: [[1,0,0],[0,0,1],
    [0,1,0]] for even q, [[0,0,1],[0,-2,0],[1,0,0]] for odd q."""
    if f.p == 2:
        return dot(f, P, (Q[0], Q[2], Q[1])) == 0
    return dot(f, P, (Q[2], f.neg(f.add(Q[1], Q[1])), Q[0])) == 0


def listed_pair_reference(f, points):
    """The conjugate pair that `Graph.is_independent` names on rows over
    the positions of a point list, or None.  Row i holds the last position
    k != i of every listed point conjugate to points[i], itself included
    where it is absolute, as the rows of `induced_on_points` did when they
    certified cocliques."""
    last = {P: k for k, P in enumerate(points)}
    rows = [sum(1 << k for Q, k in last.items()
                if k != i and conjugate(f, P, Q))
            for i, P in enumerate(points)]
    witness = Graph(len(points), rows).is_independent(range(len(points)))
    return None if witness is None else (points[witness[0]],
                                         points[witness[1]])


def conic_polar_disjointness(q, lam):
    """Whether every point of the pencil conic with parameter lam^2 has a
    polar line disjoint from that conic: no two of its points are conjugate
    (none is absolute).  Holds exactly when Tr(lam) = 0."""
    f = field_for_order(q)
    pts = pencil_conics(ProjectivePlane(f), f.find_trace_one(),
                        [f.mul(lam, lam)])[0]
    return not any(conjugate(f, P, R) for P in pts for R in pts)


def cyclic_pencil_group(q):
    """A generator, as a point permutation, of the cyclic order-(q+1) group
    stabilizing the pencil; its orbits off X1 = 0 are the pencil conics."""
    f = field_for_order(q)
    plane, alpha = ProjectivePlane(f), f.find_trace_one()
    group = [collineation(plane, ((1, 0, 0), (0, a, f.mul(alpha, b)),
                                  (0, b, f.add(a, b))))
             for a in range(q) for b in range(q)
             if f.add(f.mul(a, f.add(a, b)), f.mul(alpha, f.mul(b, b))) == 1]
    assert len(group) == q + 1, f"pencil group has {len(group)} elements"
    identity = list(range(plane.size))
    for g in group:
        power, order = g, 1
        while power != identity:
            power, order = [g[j] for j in power], order + 1
        if order == q + 1:
            return g
    raise AssertionError("pencil group has no element of order q+1")


# -- interchange formats: the whole-string codecs the package streams -------

def to_graph6_reference(g):
    """graph6 with every column joined into one bit string, then packed."""
    stream = "".join(format(g.adj[v] & ((1 << v) - 1), f"0{v}b")[::-1]
                     for v in range(1, g.n))
    nbits = len(stream)
    body = b""
    if nbits:
        pad = -nbits % 24
        raw = int(stream + "0" * pad, 2).to_bytes((nbits + pad) // 8, "big")
        body = binascii.b2a_base64(raw, newline=False).translate(_B64_TO_G6)
        body = body[:(nbits + 5) // 6]
    return _graph6_size_bytes(g.n) + body


def from_graph6_reference(data):
    """graph6 parsed through one bit string of the whole body."""
    data = bytes(data).strip()
    n, start = _graph6_size(data)
    body = data[start:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(f"graph6 body has {len(body)} bytes, "
                         f"n = {n} needs {(nbits + 5) // 6}")
    if body.translate(None, _G6):
        raise ValueError("invalid graph6 byte")
    stream = ""
    if body:
        raw = binascii.a2b_base64(body.translate(_G6_TO_B64)
                                  + b"A" * (-len(body) % 4))
        stream = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
        if "1" in stream[nbits:]:
            raise ValueError("nonzero graph6 padding bits")
    low = [int(stream[v * (v - 1) // 2:v * (v + 1) // 2][::-1] or "0", 2)
           for v in range(n)]
    return Graph(n, [a | b for a, b in zip(low, transpose(low))])


def vertex_count(n):
    """n; the text decoders reject a non-int n and more than _MAX_VERTICES
    vertices."""
    if not isinstance(n, int):
        raise ValueError(f"vertex count {n!r} is not a non-negative int")
    if n > _MAX_VERTICES:
        raise ValueError(f"{n} vertices, more than the limit of "
                         f"{_MAX_VERTICES}")
    return n


def to_dimacs_reference(g):
    lines = [f"p edge {g.n} {g.num_edges()}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return ("\n".join(lines) + "\n").encode()


def from_dimacs_reference(data):
    g = None
    for raw in bytes(data).decode().splitlines():
        tok = raw.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            if g is not None or len(tok) != 4 or int(tok[2]) < 0:
                raise ValueError(f"bad DIMACS problem line {raw!r}")
            g = Graph(vertex_count(int(tok[2])))
        elif tok[0] == "e":
            if g is None:
                raise ValueError("DIMACS edge line before the problem line")
            try:
                g.add_edge(int(tok[1]) - 1, int(tok[2]) - 1)
            except (IndexError, ValueError):
                raise ValueError(f"bad DIMACS edge line {raw!r} "
                                 f"for n = {g.n}") from None
    if g is None:
        raise ValueError("missing DIMACS problem line")
    return g


def to_edgelist_csv_reference(g):
    lines = ["u,v"]
    lines.extend(f"{u},{v}" for u, v in g.edges())
    return ("\n".join(lines) + "\n").encode()


def from_edgelist_csv_reference(data, n=None):
    if n is not None:
        vertex_count(n)
    edges = []
    for r in bytes(data).decode().splitlines()[1:]:
        if r.strip():
            u, v = r.split(",")
            edges.append((int(u), int(v)))
    if n is None:
        n = vertex_count(1 + max((max(e) for e in edges), default=-1))
    return Graph.from_edges(n, edges)
