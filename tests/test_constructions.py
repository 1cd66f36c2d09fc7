import itertools
import json
import random

import jsonschema
import pytest

from erpg import constructions as cons
from erpg.field import factor_prime_power, field_for_order
from erpg.graphs import Graph
from erpg import plane as plane_module
from erpg.plane import (ProjectivePlane, baer_stabilizer_matrices,
                        collineation, matrix_orbit, orbits)
from erpg.polarity import (ABSOLUTE, EXTERNAL, INTERNAL, Polarity,
                           build_er_graph)

from reference import (c4_pair, certificate_json_reference,
                       conic_polar_disjointness, conjugate,
                       cyclic_pencil_group, greedy_extend, induced,
                       listed_pair_reference, orbit, plane_points,
                       preserves_adjacency, triangles)


def setup(q):
    pl = ProjectivePlane(field_for_order(q))
    return pl, Polarity(pl)


def baer_stabilizer_perms(pl):
    """The collineations of baer_stabilizer_matrices(pl.ctx)."""
    return [collineation(pl, m) for m in baer_stabilizer_matrices(pl.ctx)]


def k_perms(pl):
    """The collineations of cons.k_matrices(pl.ctx)."""
    return [collineation(pl, m) for m in cons.k_matrices(pl.ctx)]


# -- orbit census ------------------------------------------------------------

def test_census_q9():
    census = cons.orbit_census_odd_square(9)
    assert census.entries == [
        ("conic", 6, 1),
        ("external", 12, 1),
        ("external-tangent", 24, 1),
        ("internal", 12, 3),
    ]
    assert census.matches_expected()
    # orbit sizes divide |PGL(2,3)| = 24
    assert all(24 % size == 0 for _, size, _ in census.entries)


def test_census_q25():
    census = cons.orbit_census_odd_square(25)
    assert census.entries == [
        ("conic", 20, 1),
        ("external", 60, 3),
        ("external-tangent", 120, 1),
        ("internal", 60, 5),
    ]
    assert census.matches_expected()


def test_census_rejects_a_spoiled_tangent_set(monkeypatch):
    # One later member of an external, non-tangent orbit is added to the
    # tangent set.  The orbit's first point still reads "external", so
    # only a check of every member's label sees it.
    q = 25
    plane, pol = setup(q)
    baer = plane.baer_points()
    baer_conic = [R for R in pol.absolute_points() if R in baer]
    first = next(i for i, pt in enumerate(plane_points(plane))
                 if pt not in baer and pol.classify(pt) == EXTERNAL
                 and not any(conjugate(plane.ctx, pt, R) for R in baer_conic))
    later = max(orbit(baer_stabilizer_perms(plane), first))
    real = ProjectivePlane.line_point_indices
    monkeypatch.setattr(ProjectivePlane, "line_point_indices",
                        lambda self, line: real(self, line) + [later])
    with pytest.raises(cons.VerificationError, match="census label"):
        cons.orbit_census_odd_square(q)


def test_census_rejects_an_orbit_that_enters_the_baer_subplane(monkeypatch):
    # An extra generator swaps (1, y, 0), y outside GF(3), with the Baer
    # point (0, 1, 0).  Both are external points on the tangent X3 = 0 to
    # the Baer conic, so the merged orbit keeps one label, and only the
    # total over the orbits sees the six Baer points it took in.  The swap
    # is no collineation: the census's generator list gets a marker, which
    # the collineation that orbits calls turns into the swap.
    real_matrices, real_collineation = (cons.baer_stabilizer_matrices,
                                        plane_module.collineation)
    swap_marker = object()

    def leaky(plane, m):
        if m is not swap_marker:
            return real_collineation(plane, m)
        baer = plane.baer_points()
        y = next(y for y in range(plane.q) if (1, y, 0) not in baer)
        i, j = plane.index_of((1, y, 0)), plane.index_of((0, 1, 0))
        swap = list(range(plane.size))
        swap[i], swap[j] = j, i
        return swap

    monkeypatch.setattr(cons, "baer_stabilizer_matrices",
                        lambda ctx: real_matrices(ctx) + [swap_marker])
    monkeypatch.setattr(plane_module, "collineation", leaky)
    with pytest.raises(cons.VerificationError, match="does not cover"):
        cons.orbit_census_odd_square(9)


def test_census_rejects_bad_q():
    with pytest.raises(ValueError):
        cons.orbit_census_odd_square(8)
    with pytest.raises(ValueError):
        cons.orbit_census_odd_square(5)


# -- odd square cocliques ----------------------------------------------------

@pytest.mark.parametrize("q,size", [(9, 22), (49, 218)])
def test_coclique_neg_sizes(q, size):
    cert = cons.coclique_odd_sq_neg(q)
    assert cert.size == size == cert.claimed_size
    assert cert.verified == {"independent": True, "size_matches": True}


def test_coclique_neg_is_conic_plus_internals():
    pl, pol = setup(9)
    cert = cons.coclique_odd_sq_neg(9)
    classes = [pol.classify(P) for P in cert.points]
    assert classes.count("absolute") == 10
    assert classes.count("internal") == 12


def test_coclique_neg_wrong_residue_and_parity():
    with pytest.raises(ValueError):
        cons.coclique_odd_sq_neg(25)  # sqrt = 5 = 1 mod 4
    with pytest.raises(ValueError):
        cons.coclique_odd_sq_neg(27)  # not a square


def test_all_good_internal_orbits_q9():
    # the (sqrt(q)+1)/2 = 2 orbits of internal points meeting X2 = 0 all
    # avoid their own polar lines
    pl, pol = setup(9)
    f = pl.ctx
    line_internals = [pl.index_of((1, 0, z)) for z in f.elements()
                      if pol.classify((1, 0, z)) == INTERNAL]
    found = list(orbits(pl, baer_stabilizer_matrices(f), line_internals))
    assert len(found) == 2
    for orb in found:
        assert len(orb) == 12
        assert cons.point_set_independent(
            pl, [pl.point(j) for j in orb]) is None


def test_transitivity_transfer_q9():
    # base-point check and full exhaustive check must agree on the orbit
    pl, pol = setup(9)
    cert = cons.coclique_odd_sq_neg(9)
    internals = [P for P in cert.points if pol.classify(P) == INTERNAL]
    base = internals[0]
    pts = set(internals)
    base_clean = all(R not in pts
                     for R in pl.line_points(pol.polar_line(base))
                     if R != base)
    full_clean = cons.point_set_independent(pl, internals) is None
    assert base_clean and full_clean


@pytest.mark.parametrize("q,size", [(25, 101)])
def test_coclique_pos_sizes(q, size):
    cert = cons.coclique_odd_sq_pos(q)
    assert cert.size == size == cert.claimed_size


def k_group_reference(pl):
    """K listed element by element: the conic stabilizers
    [[a^2, 2ac, c^2], [0, a, c], [0, 0, 1]] with a of norm 1."""
    f = pl.ctx
    r = f.sqrt_q()
    two = f.add(1, 1)
    return {tuple(collineation(pl, ((f.mul(a, a), f.mul(two, f.mul(a, c)),
                                     f.mul(c, c)),
                                    (0, a, c),
                                    (0, 0, 1))))
            for a in range(1, pl.q) if f.pow(a, r + 1) == 1
            for c in f.elements()}


def test_k_generators_and_orbit_split_q25():
    pl, pol = setup(25)
    gens = k_perms(pl)
    closure = {tuple(range(pl.size))}
    frontier = list(closure)
    while frontier:
        frontier = [x for x in {tuple(g[j] for j in h)
                                for h in frontier for g in gens}
                    if x not in closure]
        closure.update(frontier)
    assert len(closure) == 25 * 6
    assert closure == k_group_reference(pl)
    k_orbits = cons.internal_k_orbits(25)
    # sqrt(q)-1 = 4 orbits of size q(sqrt(q)+1)/2 = 75 covering all
    # q(q-1)/2 = 300 internal points
    assert len(k_orbits) == 4
    assert all(len(o) == 75 for o in k_orbits)
    assert sum(len(o) for o in k_orbits) == 300
    # every K-orbit of internal points is a coclique
    for orb in k_orbits:
        assert cons.point_set_independent(pl, orb) is None


def test_internal_k_orbits_q81():
    # sqrt(q)-1 = 8 k_orbits of size q(sqrt(q)+1)/2 = 405 covering all
    # q(q-1)/2 = 3,240 internal points, from the two generators of K
    k_orbits = cons.internal_k_orbits(81)
    assert len(k_orbits) == 8
    assert all(len(o) == 405 for o in k_orbits)
    pl, pol = setup(81)
    internal = {pt for pt in plane_points(pl)
                if pol.classify(pt) == INTERNAL}
    covered = [pt for o in k_orbits for pt in o]
    assert len(covered) == len(set(covered)) == 3240
    assert set(covered) == internal


GENERATORS_IN_USE = {
    "baer": baer_stabilizer_perms,
    "k": k_perms,
    "pencil": lambda pl: [cyclic_pencil_group(pl.q)],
}


@pytest.mark.parametrize("family,q", [("baer", 9), ("baer", 25), ("baer", 49),
                                      ("k", 25), ("pencil", 4),
                                      ("pencil", 8), ("pencil", 16)])
def test_generators_in_use_are_er_automorphisms(family, q):
    pl, _ = setup(q)
    g = build_er_graph(pl)
    for perm in GENERATORS_IN_USE[family](pl):
        assert preserves_adjacency(g, perm)


@pytest.mark.parametrize("q", [8, 9, 16])
def test_point_set_independent_witness_is_conjugate_pair(q):
    pl, pol = setup(q)
    cert = cons.build_coclique(q)
    neighbour = pl.line_points(pol.polar_line(cert.points[-1]))[0]
    for points in (plane_points(pl)[::-1], cert.points + [neighbour]):
        P, R = cons.point_set_independent(pl, points)
        assert P != R and conjugate(pl.ctx, P, R)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_point_set_independent_matches_the_row_oracles(q):
    # random lists, with absolute points and duplicates mixed in, against
    # rows over the list's positions; lists of distinct points in index
    # order against ER_q induced on them
    pl, pol = setup(q)
    g = build_er_graph(pl)
    absolute = pol.absolute_points()
    rng = random.Random(q)
    outcomes = set()
    for _ in range(300):
        points = rng.sample(plane_points(pl), rng.randint(0, 6))
        points += rng.sample(absolute, rng.randint(0, 2))
        for _ in range(rng.choice([0, 0, 1, 2])):
            if points:
                points.insert(rng.randrange(len(points) + 1),
                              rng.choice(points))
        rng.shuffle(points)
        got = cons.point_set_independent(pl, points)
        assert got == listed_pair_reference(pl.ctx, points), points
        outcomes.add(got is None)
        distinct = sorted(set(points), key=pl.index_of)
        witness = induced(g, list(map(pl.index_of, distinct))).is_independent(
            range(len(distinct)))
        assert cons.point_set_independent(pl, distinct) == (
            None if witness is None else tuple(distinct[v] for v in witness))
    assert outcomes == {True, False}


@pytest.mark.parametrize("q", [3, 4, 9])
def test_repeated_absolute_point_is_its_own_conjugate(q):
    pl, pol = setup(q)
    A = pol.absolute_points()[1]
    P = next(P for P in plane_points(pl) if not conjugate(pl.ctx, A, P)
             and pol.classify(P) != ABSOLUTE)
    assert cons.point_set_independent(pl, [A, P]) is None
    assert cons.point_set_independent(pl, [A, P, A]) == (A, A)
    assert cons.point_set_independent(pl, [P, P]) is None


@pytest.mark.parametrize("q", [5, 9, 25])
def test_conic_point_and_a_point_on_its_tangent_are_a_conjugate_pair(q):
    pl, pol = setup(q)
    R = pol.absolute_points()[2]
    T = next(P for P in pl.line_points(pol.polar_line(R)) if P != R)
    assert cons.point_set_independent(pl, [R, T]) == (R, T)
    assert cons.point_set_independent(pl, [T, R]) == (T, R)
    cert = cons.Certificate("odd_sq_neg", q, {}, [R, T], 2)
    with pytest.raises(cons.VerificationError) as err:
        cons._certify(cert, pl)
    assert str(err.value) == f"odd_sq_neg: conjugate pair {(R, T)}"


@pytest.mark.parametrize("family", ["baer", "k"])
@pytest.mark.parametrize("q", [9, 25, 49, 81, 121])
def test_matrix_orbit_is_the_permutation_orbit(family, q):
    # both families' generators, on the base point of the certificates
    pl, pol = setup(q)
    matrices = {"baer": baer_stabilizer_matrices, "k": cons.k_matrices}[family]
    base = pl.index_of((1, 0, pl.ctx.find_nonsquare()))
    perms = [collineation(pl, m) for m in matrices(pl.ctx)]
    assert matrix_orbit(pl, matrices(pl.ctx), base) == orbit(perms, base)


def test_odd_sq_neg_lists_the_orbit_in_bfs_order():
    pl, pol = setup(49)
    cert = cons.coclique_odd_sq_neg(49)
    base = pl.index_of((1, 0, pl.ctx.find_nonsquare()))
    orb = orbit(baer_stabilizer_perms(pl), base)
    assert cert.points[50:] == [pl.point(j) for j in orb]


def test_coclique_pos_wrong_residue():
    with pytest.raises(ValueError):
        cons.coclique_odd_sq_pos(9)


# -- trace-zero sets and Denniston arcs --------------------------------------

def test_trace_zero_set_sizes():
    assert cons.trace_zero_set(2) == [0]
    n8 = cons.trace_zero_set(8)
    assert len(n8) == 2 and n8[0] == 0
    n32 = cons.trace_zero_set(32)
    assert len(n32) == 4
    n128 = cons.trace_zero_set(128)
    assert len(n128) == 8


@pytest.mark.parametrize("q", [8, 32, 128])
def test_trace_zero_pairwise_products(q):
    ctx = field_for_order(q)
    N = cons.trace_zero_set(q)
    for x in N:
        for y in N:
            assert ctx.abs_trace(ctx.mul(x, y)) == 0


def test_trace_zero_even_degree_is_subfield():
    ctx = field_for_order(16)
    N = cons.trace_zero_set(16)
    assert N == sorted(ctx.embed_subfield(x) for x in ctx.subfield().elements())


@pytest.mark.parametrize("q,degree,size", [(8, 2, 10), (16, 4, 52), (32, 4, 100)])
def test_denniston_arc(q, degree, size):
    arc = cons.denniston_arc(q)
    assert arc.degree == degree
    assert len(arc.points) == size == (degree - 1) * q + degree


def test_arc_line_intersections_q8():
    pl, _ = setup(8)
    arc = cons.denniston_arc(8)
    pts = set(arc.points)
    hits = {sum(P in pts for P in pl.line_points(l))
            for l in plane_points(pl)}
    assert hits == {0, 2}


# -- line counts and the pencil scan -----------------------------------------

def direct_line_counts(pl, points):
    """Per line: the number of marked points among its q+1 points."""
    mask = bytearray(pl.size)
    for P in points:
        mask[pl.index_of(P)] = 1
    return [sum(mask[j] for j in pl.line_point_indices(line))
            for line in plane_points(pl)]


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_line_counts_match_direct_count(q):
    pl, pol = setup(q)
    ctx = pl.ctx
    rng = random.Random(q)
    alpha = ctx.find_trace_one()
    sets = [cons.denniston_arc(q).points,
            cons.pencil_conics(pl, alpha, [1])[0],
            pol.absolute_points(),
            []]
    sets += [rng.sample(plane_points(pl), k) for k in (1, q, pl.size // 3)]
    for points in sets:
        counts = cons._line_counts(pl, points)
        assert list(counts) == direct_line_counts(pl, points)


def test_line_counts_wide_counter_q256():
    pl, _ = setup(256)
    line = (1, 0, 0)
    counts = cons._line_counts(pl, pl.line_points(line))
    assert len(counts) == pl.size
    assert counts[pl.index_of(line)] == 257
    # every other line meets the full line in exactly one point
    assert sum(counts) == 257 * 257
    assert list(counts).count(1) == pl.size - 1


def conic_points_reference(pl, alpha, lam):
    """Evaluates X2^2 + X2*X3 + alpha*X3^2 + lam*X1^2 at every point."""
    f = pl.ctx
    return [(x1, x2, x3) for (x1, x2, x3) in plane_points(pl)
            if not f.add(f.add(f.mul(x2, x2), f.mul(x2, x3)),
                         f.add(f.mul(alpha, f.mul(x3, x3)),
                               f.mul(lam, f.mul(x1, x1))))]


@pytest.mark.parametrize("q", [8, 32, 128])
def test_pencil_scan_matches_per_parameter_conics(q):
    pl, _ = setup(q)
    ctx = pl.ctx
    alpha = ctx.find_trace_one()
    arc = cons.denniston_arc(q)
    lams = arc.subgroup + [x for x in (1, 2, q - 1) if x not in arc.subgroup]
    scanned = cons.pencil_conics(pl, alpha, lams)
    expected = [conic_points_reference(pl, alpha, lam) for lam in lams]
    assert scanned == expected
    assert sorted(sum(scanned[:arc.degree], []),
                  key=pl.index_of) == arc.points


@pytest.mark.parametrize("q", [4, 8, 9])
def test_pencil_scan_any_alpha(q):
    """With alpha of trace 0 the form X2^2 + X2*X3 + alpha*X3^2 has zeros
    on X1 = 0; those points lie on every conic of the pencil."""
    pl, _ = setup(q)
    lams = list(range(q))
    for alpha in range(q):
        expected = [conic_points_reference(pl, alpha, lam) for lam in lams]
        assert cons.pencil_conics(pl, alpha, lams) == expected
        assert cons.pencil_conics(pl, alpha, [1]) == [expected[1]]


@pytest.mark.parametrize("alpha,lams", [(99, [1]), (8, [1]), (-1, [1]),
                                        (1.0, [1]), (1, [99]), (1, [0, 8]),
                                        (1, [-1]), (1, ["1"])])
def test_pencil_parameter_outside_field_rejected(alpha, lams):
    # alpha = 99 ended in IndexError, and lam = 99 gave an empty conic
    pl, _ = setup(8)
    with pytest.raises(ValueError, match="not all in GF"):
        cons.pencil_conics(pl, alpha, lams)


# -- even cocliques ----------------------------------------------------------

@pytest.mark.parametrize("q,size,candidates", [(8, 10, 18), (32, 100, 132)])
def test_coclique_even(q, size, candidates):
    cert = cons.coclique_even(q)
    assert cert.size == size == cert.claimed_size
    assert cert.extension["candidate_count"] == candidates
    assert cert.extension["greedy_size"] >= size


def test_coclique_even_rejects_bad_q():
    with pytest.raises(ValueError):
        cons.coclique_even(16)  # even square
    with pytest.raises(ValueError):
        cons.coclique_even(2)   # n = 1
    with pytest.raises(ValueError):
        cons.coclique_even(9)


def test_even_square_arc_coclique_q16():
    cert = cons.even_square_arc_coclique(16)
    assert cert.size == 52  # q^{3/2} - q + sqrt(q)


@pytest.mark.parametrize("q", [8, 32])
def test_even_extension_matches_er_greedy(q):
    pl, _ = setup(q)
    g = build_er_graph(pl)
    cert = cons.coclique_even(q)
    arc = [pl.index_of(P) for P in cert.points]
    arc_mask = sum(1 << v for v in arc)
    candidates = [v for v in range(g.n)
                  if not arc_mask >> v & 1 and not g.adj[v] & arc_mask]
    extended = greedy_extend(g, arc, candidates)
    assert g.is_independent(extended) is None
    assert cert.extension["candidate_count"] == len(candidates)
    assert cert.extension["greedy_size"] == len(extended)


def test_certify_rejects_duplicate_points_before_independence():
    pl, pol = setup(9)
    conic = pol.absolute_points()
    cert = cons.Certificate(construction_id="odd_sq_neg", q=9, parameters={},
                            points=conic + conic[:1],
                            claimed_size=len(conic) + 1)
    with pytest.raises(cons.VerificationError, match="duplicate points"):
        cons._certify(cert, pl)


def test_greedy_extension_is_independent_and_larger():
    pl, pol = setup(8)
    cert = cons.coclique_even(8)
    assert cert.extension["greedy_size"] > cert.size


# -- pencil dichotomy and cyclic group ---------------------------------------

@pytest.mark.parametrize("q", [8, 32])
def test_pencil_conic_polar_dichotomy(q):
    ctx = field_for_order(q)
    for lam in ctx.elements():
        assert conic_polar_disjointness(q, lam) == (ctx.abs_trace(lam) == 0)


@pytest.mark.parametrize("q", [4, 8, 16])
def test_cyclic_pencil_group(q):
    pl, _ = setup(q)
    gen = cyclic_pencil_group(q)
    ident = list(range(pl.size))
    seen, acc = [], gen
    while acc != ident:
        seen.append(acc)
        acc = [acc[j] for j in gen]
    assert len(seen) + 1 == q + 1  # cyclic of order q+1
    # U1 is fixed; the absolute line X1 = 0 is stabilized setwise
    u1 = pl.index_of((1, 0, 0))
    assert gen[u1] == u1
    absolute = set(pl.line_point_indices((1, 0, 0)))
    assert {gen[j] for j in absolute} == absolute


def test_pencil_orbit_is_conic():
    q = 8
    pl, pol = setup(q)
    ctx = pl.ctx
    gen = cyclic_pencil_group(q)
    lam = next(x for x in range(1, q) if ctx.abs_trace(x) == 0)
    alpha = ctx.find_trace_one()
    expected = set(cons.pencil_conics(pl, alpha, [ctx.mul(lam, lam)])[0])
    orb = orbit([gen], pl.index_of((1, lam, 0)))
    assert {pl.point(j) for j in orb} == expected


# -- triangle-free sets ------------------------------------------------------

@pytest.mark.parametrize("q", [4, 8, 16])
def test_triangle_free_set(q):
    pl, pol = setup(q)
    tfs = cons.triangle_free_set(q)
    assert tfs.size == q * (q + 1) // 2
    assert all(pol.classify(P) != ABSOLUTE for P in tfs.points)
    sub = cons.induced_on_points(pl, tfs.points)
    assert sub.triangle_count() == 0
    assert sub.is_regular(q // 2)
    assert sub.girth() >= 5


def test_triangle_free_matches_er_induced():
    q = 8
    pl, pol = setup(q)
    tfs = cons.triangle_free_set(q)
    g = build_er_graph(pl)
    via_big = induced(g, [pl.index_of(P) for P in tfs.points])
    direct = cons.induced_on_points(pl, tfs.points)
    assert via_big.n == direct.n and via_big.adj == direct.adj


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32,
                               49, 64, 81])
def test_er_graph_is_induced_on_all_points(q):
    # the whole-plane builder against the point-list one
    pl, _ = setup(q)
    assert build_er_graph(pl).adj == cons.induced_on_points(
        pl, plane_points(pl)).adj


@pytest.mark.parametrize("bad", [(2, 0, 0), (1, 7, 0)])
def test_point_off_the_plane_raises_value_error(bad):
    pl, _ = setup(5)
    with pytest.raises(ValueError, match="not a normalized point"):
        cons.induced_on_points(pl, [bad])
    with pytest.raises(ValueError, match="not a normalized point"):
        cons.point_set_independent(pl, [(1, 0, 0), bad])


@pytest.mark.parametrize("q", [4, 5, 8, 9])
def test_repeated_point_in_induced_on_points_raises_value_error(q):
    # [A, A] gave the asymmetric Graph(2, [2, 0]) and [P, P] two isolated
    # vertices
    pl, pol = setup(q)
    A = pol.absolute_points()[1]
    P = next(P for P in plane_points(pl) if pol.classify(P) != ABSOLUTE)
    for points in ([A, A], [P, P], [A, P, A]):
        with pytest.raises(ValueError, match="is listed twice"):
            cons.induced_on_points(pl, points)


def test_triangle_free_invariant_under_pencil_group():
    q = 8
    pl, _ = setup(q)
    gen = cyclic_pencil_group(q)
    tfs = cons.triangle_free_set(q)
    pts = {pl.index_of(P) for P in tfs.points}
    assert {gen[j] for j in pts} == pts


def drop_one_direction(real):
    """induced_on_points with one edge kept in one row only."""
    def one_way(plane, points):
        sub = real(plane, points)
        sub.adj[0] &= sub.adj[0] - 1  # clears the lowest bit of row 0
        return sub
    return one_way


def test_triangle_free_certificate_rejects_asymmetric_rows(monkeypatch):
    monkeypatch.setattr(cons, "induced_on_points",
                        drop_one_direction(cons.induced_on_points))
    with pytest.raises(AssertionError, match="asymmetric edge"):
        cons.triangle_free_certificate(8)


def swap_two_edges(real, wanted):
    """induced_on_points with edges {a, b} and {c, d} replaced by {a, c}
    and {b, d}, for the first pair of edges whose result passes wanted.
    The rows stay symmetric and every degree stays the same."""
    def swapped(plane, points):
        sub = real(plane, points)
        for (a, b), (c, d) in itertools.combinations(sub.edges(), 2):
            if len({a, b, c, d}) < 4 or sub.adj[a] >> c & 1 \
                    or sub.adj[b] >> d & 1:
                continue
            adj = list(sub.adj)
            for u, v in ((a, b), (c, d), (a, c), (b, d)):
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            g = Graph(sub.n, adj)
            if wanted(g):
                return g
        raise AssertionError("no swap gives the wanted graph")
    return swapped


def has_triangle(g):
    return next(triangles(g), None) is not None


@pytest.mark.parametrize("q", [8, 32])
@pytest.mark.parametrize("wanted,girth", [
    (has_triangle, 3),
    (lambda g: not has_triangle(g) and c4_pair(g) is not None, 4),
])
def test_triangle_free_certificate_rejects_a_short_cycle(monkeypatch, wanted,
                                                         girth, q):
    # girth >= 5 is the one check that carries the triangle-free claim:
    # the swapped subgraph is still symmetric and q/2-regular
    swapped = swap_two_edges(cons.induced_on_points, wanted)
    tfs = cons.triangle_free_set(q)
    sub = swapped(tfs.plane, tfs.points)
    assert sub.is_regular(q // 2) and sub.girth() == girth
    monkeypatch.setattr(cons, "induced_on_points", swapped)
    with pytest.raises(cons.VerificationError,
                       match="triangle-free verification failed"):
        cons.triangle_free_certificate(q)


def test_triangle_free_rejects_bad_input():
    with pytest.raises(ValueError):
        cons.triangle_free_set(9)


# -- certificates and dispatch -----------------------------------------------

def test_certificate_json_matches_schema():
    import erpg
    from pathlib import Path
    schema_path = Path(erpg.__file__).parent / "schemas" / "certificate_v1.json"
    schema = json.loads(schema_path.read_text())
    for q in (9, 8, 16, 25):
        cert = cons.build_coclique(q)
        doc = json.loads(cert.to_json())
        jsonschema.validate(doc, schema)
        assert doc["version"] == "v1"
        assert doc["size"] == len(doc["points"])


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49])
def test_certificate_json_is_the_stdlib_writers(q):
    pl = ProjectivePlane(field_for_order(q))
    # every point of the plane uses every field element as a coordinate
    certs = [cons.Certificate("plane", q, {}, plane_points(pl), pl.size)]
    if cons.alpha_bounds(q)[2] == "":  # q has a coclique family
        certs.append(cons.build_coclique(q))
    for cert in certs:
        assert cert.to_json() == certificate_json_reference(cert)


def test_certificate_json_is_the_stdlib_writers_beyond_the_families():
    certs = [cons.triangle_free_certificate(q)[0] for q in (8, 16)]
    certs.append(cons.Certificate("empty", 9, {}, [], 0))
    # nested "points" keys must not be taken for the certificate's own
    certs.append(cons.Certificate(
        "extended", 5, {"points": None}, [(1, 0, 2), (0, 0, 1)], 2,
        verified={"independent": True},
        extension={"points": [], "greedy_size": 3}))
    for cert in certs:
        assert cert.to_json() == certificate_json_reference(cert)


@pytest.mark.parametrize("bad", [-1, 9, 1.0])
def test_certificate_json_rejects_a_coordinate_outside_the_field(bad):
    # -1 wrote the bytes of (1, 2, 8) and 9 ended in IndexError; 1.0 is
    # rejected even beside an int 1, which a set of values would merge
    # with it
    cert = cons.Certificate("x", 9, {}, [(1, 2, 1), (1, 2, bad)], 2)
    with pytest.raises(ValueError, match="not all in GF"):
        cert.to_json()
    cert.points[1] = (1, 2, 8)
    assert cert.to_json() == certificate_json_reference(cert)


def test_certificate_json_reads_field_of_its_own_q():
    doc = json.loads(cons.build_coclique(25).to_json())
    assert doc["q"] == 25 and doc["modulus"] == [2, 0, 1]


@pytest.mark.parametrize("q", [8, 16])
def test_denniston_arc_carries_trace_zero_set(q):
    assert cons.denniston_arc(q).trace_zero_set == cons.trace_zero_set(q)


def test_certificate_points_decode_back():
    q = 9
    ctx = field_for_order(q)
    cert = cons.build_coclique(q)
    doc = json.loads(cert.to_json())
    decoded = [tuple(ctx.from_coeffs(c) for c in pt) for pt in doc["points"]]
    assert decoded == cert.points


def test_alpha_bounds_exact_at_73():
    # the float formula gave 119: 120 * 73^{3/2} / 73^{3/2} is exactly 120
    assert cons.alpha_bounds(73) == (120, 633, "reported, not constructed")


@pytest.mark.parametrize("q", [-4, 0, 1, 6, 12, 100, 4.0, 9.0])
def test_alpha_bounds_rejects_non_prime_powers(q):
    with pytest.raises(ValueError, match="not a prime power"):
        cons.alpha_bounds(q)


def test_alpha_bounds_defining_inequalities():
    for q in range(2, 4097):
        try:
            p, n = factor_prime_power(q)
        except ValueError:
            continue
        lower, upper, note = cons.alpha_bounds(q)
        r = p ** (n // 2)
        if p == 2 and n % 2 == 0:  # maximal arc bound q^{3/2} - q + sqrt q + 1
            assert (lower, upper) == (r * q - q + r, r * q - q + r + 1)
            continue
        assert (upper - 1) ** 2 <= (q + 1) ** 2 * q < upper ** 2
        if p == 2:  # Denniston arc of degree sqrt(q/2) = r
            assert lower == r * q - q + r and 2 * r * r == q
        elif n % 2 == 0:
            assert r * r == q and lower == (
                (q * r - r) // 2 if r % 4 == 3 else (q * r + q) // 2) + q + 1
        else:
            assert note == "reported, not constructed"
            assert lower ** 2 * 73 ** 3 <= 14400 * q ** 3
            assert 14400 * q ** 3 < (lower + 1) ** 2 * 73 ** 3


def test_auto_dispatch():
    assert cons.auto_construction_id(9) == "odd_sq_neg"
    assert cons.auto_construction_id(25) == "odd_sq_pos"
    assert cons.auto_construction_id(8) == "even_arc"
    assert cons.auto_construction_id(16) == "even_sq_subfield_arc"
    with pytest.raises(ValueError):
        cons.auto_construction_id(7)  # odd non-square: nothing to build
    with pytest.raises(ValueError, match="not an odd power of 2"):
        cons.auto_construction_id(2)
    with pytest.raises(ValueError):
        cons.build_coclique(7)


def test_alpha_bounds_note_is_empty_exactly_where_a_construction_exists():
    # the CLI reads the note to decide whether q has a coclique to build
    for q in range(2, 1025):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        try:
            cons.auto_construction_id(q)
            constructed = True
        except ValueError:
            constructed = False
        assert (cons.alpha_bounds(q)[2] == "") == constructed, q


def test_build_deterministic():
    a = cons.build_coclique(9).to_json()
    b = cons.build_coclique(9).to_json()
    assert a == b


def test_q_is_checked_before_any_plane_is_built(monkeypatch):
    def no_plane(ctx):
        raise AssertionError(f"built PG(2,{ctx.q})")
    N = cons.trace_zero_set(8)
    monkeypatch.setattr(cons, "ProjectivePlane", no_plane)
    assert cons.trace_zero_set(8) == N
    for builder, q in [(cons.coclique_even, 509),
                       (cons.orbit_census_odd_square, 509),
                       (cons.triangle_free_set, 509)]:
        with pytest.raises(ValueError):
            builder(q)
    # a non-int q ended in TypeError
    for builder in (cons.build_coclique, cons.denniston_arc,
                    cons.triangle_free_set, cons.orbit_census_odd_square):
        for q in (4.0, 9.0):
            with pytest.raises(ValueError, match="not an int"):
                builder(q)
    # every coclique builder refuses each q that selects another family
    served = {cons.coclique_odd_sq_neg: 9, cons.coclique_odd_sq_pos: 25,
              cons.coclique_even: 8, cons.even_square_arc_coclique: 16}
    assert served == {cons.BUILDERS[cons.auto_construction_id(q)]: q
                      for q in served.values()}
    for builder, own in served.items():
        for q in {2, 7, 8, 9, 16, 25} - {own}:
            with pytest.raises(ValueError):
                builder(q)


def test_even_arc_reports_conjugate_pair_as_point_triples(monkeypatch):
    # An arc with an extra conjugate point fails on the shared subgraph
    # with the point triples of the pair, before the extension is used.
    real = cons.denniston_arc

    def spoiled(q):
        arc = real(q)
        P = arc.points[0]
        Q = next(pt for pt in plane_points(arc.plane)
                 if pt not in arc.points and conjugate(arc.plane.ctx, P, pt))
        arc.points = [Q] + arc.points
        return arc
    monkeypatch.setattr(cons, "denniston_arc", spoiled)
    with pytest.raises(cons.VerificationError,
                       match=r"even_arc: conjugate pair \(\(\d+, \d+, \d+\), "
                             r"\(\d+, \d+, \d+\)\)"):
        cons.coclique_even(8)


def conjugate_to_the_arc(arc):
    P = arc.points[0]
    return [next(pt for pt in plane_points(arc.plane)
                 if pt not in arc.points and conjugate(arc.plane.ctx, P, pt))]


def conjugate_candidates(arc):
    # two points off the arc whose polar lines miss it: the arc's counts
    # pass both, only a fresh count sees the pair
    pl, pol = arc.plane, Polarity(arc.plane)
    candidates = [pt for pt in plane_points(pl) if pt not in arc.points
                  and not arc.line_counts[pl.index_of(pol.polar_line(pt))]]
    return list(next(pair for pair in itertools.combinations(candidates, 2)
                     if conjugate(pl.ctx, *pair)))


@pytest.mark.parametrize("extra", [conjugate_to_the_arc,
                                   conjugate_candidates])
def test_even_arc_spoiled_in_place_is_counted_afresh(monkeypatch, extra):
    # The arc's own list gains points in place, so the certificate holds
    # the very list object the arc made; its counts were made before the
    # edit and must not be read.
    real = cons.denniston_arc

    def spoiled(q):
        arc = real(q)
        for Q in extra(arc):
            arc.points.insert(0, Q)
        return arc
    monkeypatch.setattr(cons, "denniston_arc", spoiled)
    with pytest.raises(cons.VerificationError,
                       match=r"even_arc: conjugate pair \(\(\d+, \d+, \d+\), "
                             r"\(\d+, \d+, \d+\)\)"):
        cons.coclique_even(8)


@pytest.mark.parametrize("build,q", [(cons.coclique_even, 8),
                                     (cons.coclique_even, 32),
                                     (cons.even_square_arc_coclique, 16),
                                     (cons.build_coclique, 9)])
def test_each_coclique_counts_its_lines_once(monkeypatch, build, q):
    calls = []
    real = cons._line_counts

    def counting(plane, points):
        calls.append(len(points))
        return real(plane, points)
    monkeypatch.setattr(cons, "_line_counts", counting)
    cert = build(q)
    assert calls == [cert.size]


def test_even_arc_reports_duplicate_points(monkeypatch):
    real = cons.denniston_arc

    def doubled(q):
        arc = real(q)
        arc.points = arc.points + arc.points[:1]
        return arc
    monkeypatch.setattr(cons, "denniston_arc", doubled)
    with pytest.raises(cons.VerificationError,
                       match="even_arc: duplicate points"):
        cons.coclique_even(8)
