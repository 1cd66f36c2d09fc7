"""The 3-uniform hypergraph of triangles of ER_q.

Vertices are the non-absolute points; edges are the vertex triples of the
triangles of ER_q.  The edge count is q(q^2-1)/6.  Queries read the
triangles of induced subgraphs of the ER_q graph that H_q keeps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .field import field_for_order
from .graphs import Graph, bits
from .plane import ProjectivePlane
from .polarity import Polarity, build_er_graph


@dataclass
class TriangleHypergraph:
    q: int
    vertices: list   # indices into the plane's point list
    edges: list      # sorted triples of point indices, lexicographic
    graph: Graph     # ER_q; vertex i is the plane's i-th point

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
    absolute = {plane.index[pt] for pt in pol.absolute_points()}
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
    return TriangleHypergraph(q=q, vertices=vertices, edges=edges, graph=g)


def hyper_independent(h: TriangleHypergraph, S):
    """None if no edge of h lies inside S, else the lexicographically
    first one: the first triangle of the subgraph induced on S."""
    S = sorted(set(S))
    outside = set(S).difference(h.vertices)
    if outside:
        raise ValueError(f"vertex {min(outside)} is not a hypergraph vertex")
    tri = next(h.graph.induced(S).triangles(), None)
    return None if tri is None else tuple(S[i] for i in tri)


def sample_girth_five(h: TriangleHypergraph, samples=10_000, seed=0):
    """Sample 8-subsets of the vertex set and raise if one spans 4+ edges.

    Returns the max edge count seen over all samples; a value >= 4 would
    contradict the girth-five structure and raises.  A sampled check
    proves nothing; build_hypergraph checks linearity exactly.
    """
    rng = random.Random(seed)
    worst = 0
    for _ in range(samples):
        sub = set(rng.sample(h.vertices, 8))
        inside = h.graph.induced(sub).triangle_count()
        worst = max(worst, inside)
        if inside >= 4:
            raise AssertionError(
                f"8-subset {sorted(sub)} spans {inside} triangle edges")
    return worst


def mw_bound_report(q):
    """Lower bound achieved for even q and the leading upper-bound terms."""
    if q % 2:
        raise ValueError("report applies to even q")
    lower = q * (q + 1) // 2
    upper_leading = q * q / 2 + q ** 1.5
    # lower <= q^2/2 + q^1.5 + 2q in integers, as 2q^1.5 = sqrt(4q^3)
    if not 2 * lower <= q * q + 4 * q + math.isqrt(4 * q ** 3):
        raise AssertionError("lower bound exceeds the upper-bound envelope")
    return {"q": q, "lower": lower, "upper_leading": upper_leading}

