import random

import pytest

from erpg import hypergraph as hg
from erpg.constructions import triangle_free_set
from erpg.field import field_for_order
from erpg.plane import ProjectivePlane
from erpg.polarity import Polarity, build_er_graph


def hyper_independent_reference(h, S):
    """The edge-scan hyper_independent that the induced-subgraph one
    replaced: the first edge of h, in list order, inside S."""
    S = set(S)
    vs = set(h.vertices)
    for v in S:
        if v not in vs:
            raise IndexError(f"vertex {v} is not a hypergraph vertex")
    for e in h.edges:
        if all(v in S for v in e):
            return e
    return None


def sample_girth_five_reference(h, samples=10_000, seed=0):
    """The edge-scan sample_girth_five: each sample counts the edges of h
    inside it."""
    rng = random.Random(seed)
    worst = 0
    for _ in range(samples):
        sub = set(rng.sample(h.vertices, 8))
        inside = sum(1 for e in h.edges if all(v in sub for v in e))
        worst = max(worst, inside)
        if inside >= 4:
            raise AssertionError(
                f"8-subset {sorted(sub)} spans {inside} triangle edges")
    return worst


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_edge_counts(q):
    h = hg.build_hypergraph(q)
    assert h.num_edges() == q * (q * q - 1) // 6
    assert len(h.vertices) == q * q  # non-absolute points
    for e in h.edges:
        assert e[0] < e[1] < e[2]
        assert all(v in set(h.vertices) for v in e)
    assert h.graph == build_er_graph(ProjectivePlane(field_for_order(q)))
    assert h.edges == list(h.graph.triangles())


def test_hyper_independent():
    h = hg.build_hypergraph(4)
    assert hg.hyper_independent(h, []) is None
    assert hg.hyper_independent(h, h.vertices[:2]) is None  # edges have size 3
    first = h.edges[0]
    assert hg.hyper_independent(h, first) == first
    with pytest.raises(ValueError):
        hg.hyper_independent(h, [10 ** 6])
    absolute = set(range(h.graph.n)) - set(h.vertices)
    with pytest.raises(ValueError):
        hg.hyper_independent(h, [h.vertices[0], min(absolute)])


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_hyper_independent_matches_edge_scan(q):
    h = hg.build_hypergraph(q)
    rng = random.Random(q)
    found = {True: 0, False: 0}
    for _ in range(300):
        S = rng.sample(h.vertices, rng.randint(0, 2 * q + 2))
        witness = hg.hyper_independent(h, S)
        assert witness == hyper_independent_reference(h, S)
        found[witness is None] += 1
    assert found[True] and found[False]


@pytest.mark.parametrize("q", [4, 8, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_girth_five_matches_edge_scan(q, seed):
    h = hg.build_hypergraph(q)
    assert (hg.sample_girth_five(h, samples=500, seed=seed)
            == sample_girth_five_reference(h, samples=500, seed=seed))


def test_build_rejects_non_linear_graph(monkeypatch):
    """One added edge a-b gives the edge a-c, c the pole of the line ab,
    a second common neighbour; the build pass must name that, not let the
    triangle count catch it or miss it."""
    real = hg.build_er_graph

    def with_extra_edge(plane):
        g = real(plane)
        pol = Polarity(plane)
        absolute = {plane.index[pt] for pt in pol.absolute_points()}
        vertices = [i for i in range(g.n) if i not in absolute]
        a = vertices[0]
        for b in vertices[1:]:
            common = g.adj[a] & g.adj[b]
            c = common.bit_length() - 1
            if not g.has_edge(a, b) and c in vertices:
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
        a = plane.index[Polarity(plane).absolute_points()[0]]
        b, c = g.neighbors(a)[:2]
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
    S = [plane.index[P] for P in tfs.points]
    assert len(S) == q * (q + 1) // 2
    assert hg.hyper_independent(h, S) is None


@pytest.mark.parametrize("q", [4, 8])
def test_sampled_girth_five_structure(q):
    h = hg.build_hypergraph(q)
    worst = hg.sample_girth_five(h, samples=10_000, seed=0)
    assert worst < 4


def test_mw_bound_report():
    r = hg.mw_bound_report(8)
    assert r["lower"] == 36
    assert abs(r["upper_leading"] - (32 + 8 ** 1.5)) < 1e-9
    assert hg.mw_bound_report(16)["lower"] == 136
    assert hg.mw_bound_report(64)["lower"] == 2080
    assert hg.mw_bound_report(16)["upper_leading"] == 128 + 64
    with pytest.raises(ValueError):
        hg.mw_bound_report(9)

