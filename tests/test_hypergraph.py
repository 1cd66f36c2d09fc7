import random

import pytest

from erpg import constructions as cons
from erpg import hypergraph as hg
from erpg.constructions import triangle_free_set
from erpg.field import field_for_order
from erpg.graphs import Graph, bits
from erpg.plane import ProjectivePlane
from erpg.polarity import Polarity, build_er_graph

from reference import c4_pair, induced, triangles


def hyper_independent_reference(h, S):
    """The first edge of h, in list order, inside S, or None."""
    S = set(S)
    for e in h.edges:
        if all(v in S for v in e):
            return e
    return None


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_edge_counts(q):
    h = hg.build_hypergraph(q)
    assert h.num_edges() == q * (q * q - 1) // 6
    assert len(h.vertices) == q * q  # non-absolute points
    for e in h.edges:
        assert e[0] < e[1] < e[2]
        assert all(v in set(h.vertices) for v in e)
    g = build_er_graph(ProjectivePlane(field_for_order(q)))
    assert h.edges == list(triangles(g))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_edges_inside_a_set_are_the_triangles_it_induces(q):
    """For non-absolute points S, the edges of H_q inside S are the
    triangles of ER_q[S], so "no edge inside S" is what the triangle-free
    certificate checks on `induced_on_points`."""
    h = hg.build_hypergraph(q)
    plane = ProjectivePlane(field_for_order(q))
    g = build_er_graph(plane)
    rng = random.Random(q)
    found = {True: 0, False: 0}
    for _ in range(300):
        S = sorted(rng.sample(h.vertices, rng.randint(0, 2 * q + 2)))
        witness = hyper_independent_reference(h, S)
        first = next(triangles(induced(g, S)), None)
        assert witness == (None if first is None
                           else tuple(S[i] for i in first))
        sub = cons.induced_on_points(plane, [plane.point(i) for i in S])
        assert (sub.triangle_count() == 0) == (witness is None)
        found[witness is None] += 1
    assert found[True] and found[False]


@pytest.mark.parametrize("q", [4, 8, 16])
def test_hypergraph_has_girth_five(q):
    """H_q has no Berge cycle of length 2, 3 or 4.  Length 2 would be two
    edges sharing two vertices, which `build_hypergraph` rules out by
    checking that H_q is linear.  Length 3 would be three edges pairwise
    meeting in three distinct vertices.  These form a triangle of ER_q,
    so an edge of H_q that shares two vertices with each of the three, and
    linearity makes all four equal.  Length 4 would have its four meeting
    vertices close a 4-cycle of ER_q, and ER_q has no C4.  Hence no
    8 vertices span 4 edges: 4 edges with no Berge cycle cover at least
    12 - 4 + 1 = 9 vertices.  The cross-check: the vertex-edge incidence
    graph of H_q has girth 10, twice the Berge girth."""
    h = hg.build_hypergraph(q)  # raises unless H_q is linear
    assert c4_pair(build_er_graph(ProjectivePlane(field_for_order(q)))) is None
    n = q * q + q + 1
    incidence = Graph.from_edges(n + h.num_edges(), [
        (v, n + i) for i, e in enumerate(h.edges) for v in e])
    assert incidence.girth() == 10


def test_build_rejects_non_linear_graph(monkeypatch):
    """One added edge a-b gives the edge a-c, c the pole of the line ab,
    a second common neighbour; the build pass must name that, not let the
    triangle count catch it or miss it."""
    real = hg.build_er_graph

    def with_extra_edge(plane):
        g = real(plane)
        pol = Polarity(plane)
        absolute = {plane.index_of(pt) for pt in pol.absolute_points()}
        vertices = [i for i in range(g.n) if i not in absolute]
        a = vertices[0]
        for b in vertices[1:]:
            common = g.adj[a] & g.adj[b]
            c = common.bit_length() - 1
            if not g.adj[a] >> b & 1 and c in vertices:
                g.add_edge(a, b)
                return g
        raise AssertionError("no pair to join")

    monkeypatch.setattr(hg, "build_er_graph", with_extra_edge)
    with pytest.raises(AssertionError, match="not linear"):
        hg.build_hypergraph(5)


def test_build_rejects_a_triangle_through_an_absolute_point(monkeypatch):
    """Joining two neighbours b < c of an absolute point a makes the
    triangle {a, b, c}, which the check of a's neighbourhood reports."""
    real = hg.build_er_graph
    joined = []

    def with_absolute_triangle(plane):
        g = real(plane)
        a = plane.index_of(Polarity(plane).absolute_points()[0])
        b, c = list(bits(g.adj[a]))[:2]
        g.add_edge(b, c)
        joined.append(tuple(sorted((a, b, c))))
        return g

    monkeypatch.setattr(hg, "build_er_graph", with_absolute_triangle)
    with pytest.raises(AssertionError, match="absolute point in triangle") \
            as caught:
        hg.build_hypergraph(5)
    assert str(joined[0]) in str(caught.value)


@pytest.mark.parametrize("q", [4, 8])
def test_triangle_free_set_is_hypergraph_independent(q):
    h = hg.build_hypergraph(q)
    plane = ProjectivePlane(field_for_order(q))
    tfs = triangle_free_set(q)
    S = [plane.index_of(P) for P in tfs.points]
    assert len(S) == q * (q + 1) // 2
    assert hyper_independent_reference(h, S) is None


def test_mw_bound_report():
    r = hg.mw_bound_report(8)
    assert r["lower"] == 36
    assert abs(r["upper_leading"] - (32 + 8 ** 1.5)) < 1e-9
    assert hg.mw_bound_report(16)["lower"] == 136
    assert hg.mw_bound_report(64)["lower"] == 2080
    assert hg.mw_bound_report(16)["upper_leading"] == 128 + 64
    with pytest.raises(ValueError):
        hg.mw_bound_report(9)


@pytest.mark.parametrize("q", [0, 6, 12, 4.0, 9.0])
def test_mw_bound_report_rejects_non_prime_powers(q):
    with pytest.raises(ValueError, match="not a prime power"):
        hg.mw_bound_report(q)
    with pytest.raises(ValueError, match="not a prime power"):
        hg.build_hypergraph(q)
