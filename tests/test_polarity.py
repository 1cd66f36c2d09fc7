from collections import Counter

import pytest

from erpg.field import field_for_order
from erpg.graphs import bits
from erpg.plane import ProjectivePlane
from erpg.polarity import (ABSOLUTE, EXTERNAL, INTERNAL, NONABSOLUTE,
                           Polarity, _translations, build_er_graph)

from reference import c4_pair, conjugate, dot, plane_points


def setup(q):
    pl = ProjectivePlane(field_for_order(q))
    return pl, Polarity(pl)


def test_kind_selection():
    assert setup(3)[1].kind == "orthogonal"
    assert setup(4)[1].kind == "pseudo"


def test_polar_formula_examples():
    pl, pol = setup(2)
    assert pol.polar_line((1, 0, 0)) == (1, 0, 0)  # pseudo: X1 = 0
    pl3, pol3 = setup(3)
    # U1 lies on the conic; its polar is the tangent X3 = 0
    assert pol3.polar_line((1, 0, 0)) == (0, 0, 1)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_polarity_is_involutory(q):
    # polar_line is a bijection onto the lines; the pole of a line, the
    # point it comes from, is the point conjugate to all of its points
    pl, pol = setup(q)
    points = plane_points(pl)
    poles = {pol.polar_line(P): P for P in points}
    assert sorted(poles) == points
    for line, P in poles.items():
        conjugates = [R for R in points if conjugate(pl.ctx, P, R)]
        assert conjugates == pl.line_points(line)


@pytest.mark.parametrize("q,counts", [
    (3, {ABSOLUTE: 4, EXTERNAL: 6, INTERNAL: 3}),
    (5, {ABSOLUTE: 6, EXTERNAL: 15, INTERNAL: 10}),
    (9, {ABSOLUTE: 10, EXTERNAL: 45, INTERNAL: 36}),
])
def test_classification_counts_odd(q, counts):
    pl, pol = setup(q)
    assert Counter(pol.classify(P) for P in plane_points(pl)) == counts


@pytest.mark.parametrize("q", [3, 5, 7, 8, 9, 25, 27, 49])
def test_point_classes_are_classify_by_index(q):
    pl, pol = setup(q)
    assert pol.point_classes() == [pol.classify(P) for P in plane_points(pl)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64,
                               128])
def test_polar_indices_are_polar_line_by_index(q):
    pl, pol = setup(q)
    assert pol.polar_indices() == [pl.index_of(pol.polar_line(P))
                                   for P in plane_points(pl)]


def test_classification_counts_even():
    pl, pol = setup(2)
    absolute = [P for P in plane_points(pl) if pol.classify(P) == ABSOLUTE]
    assert len(absolute) == 3
    assert all(dot(pl.ctx, P, (1, 0, 0)) == 0 for P in absolute)
    pl8, pol8 = setup(8)
    c = Counter(pol8.classify(P) for P in plane_points(pl8))
    assert c == {ABSOLUTE: 9, NONABSOLUTE: 64}


def test_absolute_points_match_classification():
    for q in (3, 4, 5, 8, 9):
        pl, pol = setup(q)
        via_class = {P for P in plane_points(pl)
                     if pol.classify(P) == ABSOLUTE}
        assert set(pol.absolute_points()) == via_class
        assert len(via_class) == q + 1
        for P in via_class:
            assert conjugate(pl.ctx, P, P)  # self-conjugacy defines absolute


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_conjugacy_symmetric(q):
    # Q on the polar line of P exactly when P is on that of Q, and exactly
    # when the bilinear form vanishes
    pl, pol = setup(q)
    points = plane_points(pl)
    on_polar = [set(pl.line_point_indices(pol.polar_line(P)))
                for P in points]
    for i, P in enumerate(points):
        for j, Q in enumerate(points):
            assert ((j in on_polar[i]) == (i in on_polar[j])
                    == conjugate(pl.ctx, P, Q) == conjugate(pl.ctx, Q, P))


def test_conjugate_direct_evaluation():
    pl, pol = setup(3)
    P, Q = (1, 0, 1), (1, 1, 1)
    # polar of P is [x3, -2 x2, x1] = [1, 0, 1]; at Q: 1 + 0 + 1 = 2 != 0
    assert pol.polar_line(P) == (1, 0, 1)
    assert not conjugate(pl.ctx, P, Q)
    assert Q not in pl.line_points(pol.polar_line(P))


@pytest.mark.parametrize("q", [3, 5, 9])
def test_polar_line_type_by_point_class(q):
    # internal -> external line (0 absolute points), external -> secant (2),
    # absolute -> tangent (1, the point itself)
    pl, pol = setup(q)
    for P in plane_points(pl):
        on_line = pl.line_points(pol.polar_line(P))
        absolutes = [R for R in on_line if pol.classify(R) == ABSOLUTE]
        cls = pol.classify(P)
        if cls == INTERNAL:
            assert absolutes == []
        elif cls == EXTERNAL:
            assert len(absolutes) == 2
        else:
            assert absolutes == [P]


def test_pseudo_absolute_point_on_own_polar():
    pl, pol = setup(8)
    for P in pol.absolute_points():
        assert dot(pl.ctx, P, pol.polar_line(P)) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_er_graph_shape(q):
    pl, pol = setup(q)
    g = build_er_graph(pl)
    assert g.n == q * q + q + 1
    assert g.num_edges() == q * (q + 1) ** 2 // 2
    degs = Counter(g.degree(v) for v in range(g.n))
    assert degs == {q: q + 1, q + 1: q * q}
    abs_idx = {pl.index_of(P) for P in pol.absolute_points()}
    assert {v for v in range(g.n) if g.degree(v) == q} == abs_idx


def test_er_graph_edges_are_conjugate_pairs():
    # every pair of points, by the bilinear form: the edges are exactly
    # the conjugate pairs
    for q in (3, 4, 5, 8, 9):
        pl, _ = setup(q)
        g = build_er_graph(pl)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert bool(g.adj[u] >> v & 1) == conjugate(
                    pl.ctx, pl.point(u), pl.point(v))


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_chart_translation_is_field_addition(q):
    # the masked move for p^i sends bit z of every q-bit block to
    # z + p^i in GF(q), whatever the block
    f = field_for_order(q)
    moves = _translations(f)
    assert [s for _, s, _, _ in moves] == [f.p ** i for i in range(f.n)]
    for up, s, down, t in moves:
        for y in range(q):
            for z in range(q):
                x = 1 << (q * y + z)
                moved = (x & up) << s | (x & down) >> t
                assert moved == 1 << (q * y + f.add(z, s))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 16, 27, 32, 64])
def test_er_graph_c4_free(q):
    pl, _ = setup(q)
    assert c4_pair(build_er_graph(pl)) is None


@pytest.mark.parametrize("q", [3, 4, 5])
def test_c4_pair_finds_an_added_edge(q):
    # joining a to a vertex c at distance 2 gives each other neighbour x
    # of a a second common neighbour with c: a, beside the pole of xc
    pl, _ = setup(q)
    g = build_er_graph(pl)
    a, b = 0, next(bits(g.adj[0]))
    c = next(c for c in bits(g.adj[b]) if c != a and not g.adj[a] >> c & 1)
    g.add_edge(a, c)
    pair = c4_pair(g)
    assert pair is not None
    u, x = pair
    assert u != x and (g.adj[u] & g.adj[x]).bit_count() >= 2


def test_er_small_edge_counts():
    pl, _ = setup(2)
    assert build_er_graph(pl).num_edges() == 9
    pl, _ = setup(3)
    assert build_er_graph(pl).num_edges() == 24
