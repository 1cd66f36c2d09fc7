"""The 3-uniform hypergraph of triangles of ER_q.

Vertices are the non-absolute points; edges are the vertex triples of the
triangles of ER_q.  The edge count is q(q^2-1)/6.  H_q is linear, which
`build_hypergraph` checks, and has girth five: linearity rules out Berge
cycles of length 2 and, as every triangle of ER_q is an edge, of length 3;
ER_q has no C4, which rules out length 4.  A set S of non-absolute points
contains no edge exactly when ER_q[S] is triangle-free, which
`constructions.triangle_free_certificate` certifies for its sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .field import factor_prime_power, field_for_order
from .graphs import bits
from .plane import ProjectivePlane
from .polarity import Polarity, build_er_graph


@dataclass
class TriangleHypergraph:
    q: int
    vertices: list   # point indices: vertex i is plane.point(i)
    edges: list      # sorted triples of point indices, lexicographic

    def num_edges(self):
        return len(self.edges)


def build_hypergraph(q) -> TriangleHypergraph:
    """All triangles of ER_q, from one pass over its edges, row by row.

    Two points share at most one neighbour, the pole of their line, so H_q
    is linear (no two edges share two vertices).  Aborts on a triangle
    through an absolute point (none can exist: no two neighbours of an
    absolute point are adjacent, checked once per absolute point), on an
    edge with two common neighbours or if the count differs from
    q(q^2-1)/6.
    """
    plane = ProjectivePlane(field_for_order(q))
    pol = Polarity(plane)
    g = build_er_graph(plane)
    absolute = {plane.index_of(pt) for pt in pol.absolute_points()}
    adj, edges = g.adj, []
    for a in sorted(absolute):
        for b in bits(adj[a]):
            common = adj[a] & adj[b]
            if common:
                triangle = tuple(sorted((a, b, common.bit_length() - 1)))
                raise AssertionError(
                    f"absolute point in triangle {triangle}")
    for u, row in enumerate(adj):
        for v in bits(row >> (u + 1) << (u + 1)):
            common = row & adj[v]
            if common & (common - 1):
                raise AssertionError(f"points {u}, {v} share "
                                     f"{common.bit_count()} neighbours: "
                                     "H_q is not linear")
            if common >> v > 1:  # the common neighbour w is above v
                edges.append((u, v, common.bit_length() - 1))
    expected = q * (q * q - 1) // 6
    if len(edges) != expected:
        raise AssertionError(
            f"{len(edges)} triangles found, expected {expected}")
    vertices = [i for i in range(g.n) if i not in absolute]
    return TriangleHypergraph(q=q, vertices=vertices, edges=edges)


def mw_bound_report(q):
    """Lower bound achieved for even q and the leading upper-bound terms.

    ValueError if q is not a prime power or is odd.
    """
    factor_prime_power(q)
    if q % 2:
        raise ValueError("report applies to even q")
    lower = q * (q + 1) // 2
    upper_leading = q * q / 2 + q ** 1.5
    # lower <= q^2/2 + q^1.5 + 2q in integers, as 2q^1.5 = sqrt(4q^3)
    if not 2 * lower <= q * q + 4 * q + math.isqrt(4 * q ** 3):
        raise AssertionError("lower bound exceeds the upper-bound envelope")
    return {"q": q, "lower": lower, "upper_leading": upper_leading}

