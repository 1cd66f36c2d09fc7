import random

import pytest

from erpg.field import field_for_order
from erpg.plane import (ProjectivePlane, baer_stabilizer_generators,
                        baer_stabilizer_matrices, collineation,
                        conic_stabilizer_lift, matrix_orbit, orbit, orbits)
from erpg.polarity import EXTERNAL, Polarity, build_er_graph

from reference import dot, plane_points, preserves_adjacency


def plane_for(q):
    return ProjectivePlane(field_for_order(q))


@pytest.mark.parametrize("q,npts", [(2, 7), (3, 13), (4, 21), (9, 91)])
def test_point_counts(q, npts):
    pl = plane_for(q)
    assert pl.size == npts
    assert len({pl.point(i) for i in range(pl.size)}) == npts


@pytest.mark.parametrize(
    "q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81])
def test_point_and_index_of_match_the_stored_enumeration(q):
    pl = plane_for(q)
    points = plane_points(pl)
    assert pl.size == len(points)
    assert [pl.point(i) for i in range(pl.size)] == points
    assert [pl.index_of(pl.point(i)) for i in range(pl.size)] == list(
        range(pl.size))
    for i in (-1, pl.size, 1.0, "0", None):
        with pytest.raises(ValueError, match="not a point index"):
            pl.point(i)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_index_of_accepts_exactly_the_normalized_points(q):
    pl = plane_for(q)
    points = plane_points(pl)
    near = range(-1, q + 2)
    others = [(1, 0.5, 0), (1.5, 0, 0), [1, 0, 0], (1, 0), (1, 0, 0, 0),
              None, "abc"]
    for pt in [(x, y, z) for x in near for y in near for z in near] + others:
        if pt in points:
            assert pl.point(pl.index_of(pt)) == pt
        else:
            with pytest.raises(ValueError, match="not a normalized point"):
                pl.index_of(pt)


def test_enumeration_order_contract():
    pl = plane_for(3)
    assert pl.point(0) == (0, 0, 1)
    assert pl.point(1) == (0, 1, 0)
    assert pl.point(4) == (1, 0, 0)


def test_normalization_idempotent_and_bijective():
    pl = plane_for(4)
    f = pl.ctx
    for pt in plane_points(pl):
        assert pl.normalize(pt) == pt
        for s in range(1, 4):  # any scalar multiple renormalizes back
            scaled = tuple(f.mul(s, c) for c in pt)
            assert pl.normalize(scaled) == pt
    assert list(map(pl.index_of, plane_points(pl))) == list(range(pl.size))


def test_incident_examples():
    pl = plane_for(3)
    assert (1, 0, 0) in pl.line_points((0, 0, 1))
    assert dot(pl.ctx, (1, 1, 1), (1, 1, 1)) == 0  # 1+1+1 = 0 in GF(3)
    assert (1, 1, 1) in pl.line_points((1, 1, 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_every_line_has_q_plus_1_points(q):
    pl = plane_for(q)
    for line in plane_points(pl):
        pts = pl.line_points(line)
        assert len(pts) == q + 1
        assert all(dot(pl.ctx, P, line) == 0 for P in pts)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_line_point_indices_match_incidence(q):
    pl = plane_for(q)
    f = pl.ctx
    points = plane_points(pl)
    for line in points:
        expected = [j for j, P in enumerate(points) if dot(f, P, line) == 0]
        assert pl.line_point_indices(line) == expected
        for s in range(2, q):
            scaled = tuple(f.mul(s, c) for c in line)
            assert pl.line_point_indices(scaled) == expected


def test_zero_triple_is_not_a_line():
    # nor a point: classify, like polar_line, rejects it for odd and even q
    for q in (3, 8, 9):
        pl = plane_for(q)
        pol = Polarity(pl)
        for call in (pl.line_point_indices, pl.normalize, pol.polar_line,
                     pol.classify, pl.index_of):
            with pytest.raises(ValueError):
                call((0, 0, 0))


def test_line_through_two_points():
    pl = plane_for(5)
    rng = random.Random(1)
    for _ in range(50):
        P, Q = rng.sample(plane_points(pl), 2)
        line = pl.line_through(P, Q)
        assert dot(pl.ctx, P, line) == dot(pl.ctx, Q, line) == 0


def matrix_action(pl, m):
    """Index of the image of every point: m times the triple, normalized."""
    return [pl.index_of(pl.normalize(tuple(dot(pl.ctx, row, P) for row in m)))
            for P in plane_points(pl)]


def test_identity_and_scalar_equivalence():
    pl = plane_for(9)
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert collineation(pl, identity) == list(range(pl.size))
    f = pl.ctx
    m = ((1, 2, 0), (0, 1, 1), (1, 0, 2))
    c = 5
    scaled = tuple(tuple(f.mul(c, v) for v in row) for row in m)
    assert collineation(pl, m) == collineation(pl, scaled)


def test_singular_matrix_rejected():
    pl = plane_for(3)
    for m in [((1, 0, 0), (0, 1, 0), (1, 1, 0)),   # rank 2
              ((0, 0, 0),) * 3,                      # zero
              ((1, 2, 0), (2, 1, 0), (1, 2, 0))]:    # rank 1
        with pytest.raises(ValueError):
            collineation(pl, m)
    # exactly the |GL(3,2)| = 168 invertible matrices over GF(2) are kept
    pl = plane_for(2)
    kept = 0
    for bits9 in range(1 << 9):
        m = [[bits9 >> (3 * i + j) & 1 for j in range(3)] for i in range(3)]
        try:
            perm = collineation(pl, m)
        except ValueError:
            continue
        kept += 1
        assert perm == matrix_action(pl, m)
    assert kept == 168


def test_matrix_orbit_rejects_what_collineation_rejects():
    pl = plane_for(3)
    for m, message in [(((1, 0, 0), (0, 1, 0), (1, 1, 0)), "singular matrix"),
                       (((1, 0, 0), (0, 1, 0), (0, 0, 3)), "not all in GF")]:
        for call in (lambda: collineation(pl, m),
                     lambda: matrix_orbit(pl, [m], 0)):
            with pytest.raises(ValueError, match=message):
                call()


@pytest.mark.parametrize("entry", [5, 7, -1, 1.0, "1"])
def test_matrix_entry_outside_field_rejected(entry):
    # 5 and 7 lie past the ends of GF(3)'s tables, and -1 would wrap to 2
    pl = plane_for(3)
    with pytest.raises(ValueError, match="not all in GF"):
        collineation(pl, ((entry, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="not all in GF"):
        collineation(pl, ((1, 0, 0), (0, 1, 0), (0, 0, entry)))


@pytest.mark.parametrize("q,bad", [(5, 7), (5, -1), (5, 0.5), (5, "1"),
                                   (8, 10), (8, -1), (8, 0.5), (8, "1"),
                                   (9, 11), (9, -1), (9, 0.5), (9, "1")])
def test_coordinate_outside_field_rejected(q, bad):
    # q + 2 lies past the ends of GF(q)'s tables, -1 would wrap to another
    # element, and 0.5 and "1" are not field elements at all
    pl = plane_for(q)
    pol = Polarity(pl)
    calls = [
        lambda: pl.normalize((bad, 1, 1)),
        lambda: pl.normalize((1, bad, 1)),
        lambda: pl.line_point_indices((0, 0, bad)),
        lambda: pl.line_point_indices((1, bad, 0)),
        lambda: pl.line_points((0, 0, bad)),
        lambda: pl.line_through((1, 0, bad), (0, 1, 0)),
        lambda: pl.line_through((0, 1, 0), (1, 0, bad)),
        lambda: collineation(pl, ((1, 0, 0), (0, 1, 0), (0, 0, bad))),
        lambda: conic_stabilizer_lift(pl, bad, 0, 0, 1),
        lambda: conic_stabilizer_lift(pl, 1, 0, 0, bad),
        lambda: pol.polar_line((1, bad, 0)),
        lambda: pol.classify((1, bad, 0)),
        lambda: pol.classify((bad, 1, 0)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="not all in GF"):
            call()


def random_matrix(pl, rng):
    """A random invertible 3x3 matrix over the plane's field."""
    q = pl.q
    while True:
        m = tuple(tuple(rng.randrange(q) for _ in range(3)) for _ in range(3))
        try:
            collineation(pl, m)
        except ValueError:
            continue
        return m


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27])
def test_permutation_matches_matrix_action(q):
    pl = plane_for(q)
    rng = random.Random(q)
    for _ in range(30):
        m = random_matrix(pl, rng)
        assert collineation(pl, m) == matrix_action(pl, m)


def test_collineation_preserves_incidence():
    # the permutation maps the index set of every line onto that of a line
    pl = plane_for(9)
    lines = {frozenset(pl.line_point_indices(l)) for l in plane_points(pl)}
    rng = random.Random(7)
    for _ in range(5):
        perm = collineation(pl, random_matrix(pl, rng))
        assert sorted(perm) == list(range(pl.size))
        images = {frozenset(perm[j] for j in pts) for pts in lines}
        assert images == set(lines)


def test_compose_is_permutation_composition():
    rng = random.Random(3)
    for q in (8, 9):
        pl = plane_for(q)
        for _ in range(5):
            g, h = random_matrix(pl, rng), random_matrix(pl, rng)
            gh = [[dot(pl.ctx, row, col) for col in zip(*h)] for row in g]
            pg, ph = collineation(pl, g), collineation(pl, h)
            assert collineation(pl, gh) == [pg[j] for j in ph]


def conic_point_set(pl):
    f = pl.ctx
    pts = {pl.normalize((1, t, f.mul(t, t))) for t in f.elements()}
    pts.add((0, 0, 1))
    return pts


def test_lift_identity_and_composition():
    pl = plane_for(9)
    f = pl.ctx
    assert conic_stabilizer_lift(pl, 1, 0, 0, 1) == list(range(pl.size))
    sub = f.subfield()
    # composition homomorphism over all invertible 2x2 subfield matrices
    mats = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if sub.sub(sub.mul(a, d), sub.mul(b, c)) != 0:
                        mats.append((a, b, c, d))
    e = f.embed_subfield
    for A in mats[:12]:
        for B in mats[:12]:
            la = conic_stabilizer_lift(pl, *(e(x) for x in A))
            lb = conic_stabilizer_lift(pl, *(e(x) for x in B))
            prod2 = (sub.add(sub.mul(A[0], B[0]), sub.mul(A[1], B[2])),
                     sub.add(sub.mul(A[0], B[1]), sub.mul(A[1], B[3])),
                     sub.add(sub.mul(A[2], B[0]), sub.mul(A[3], B[2])),
                     sub.add(sub.mul(A[2], B[1]), sub.mul(A[3], B[3])))
            assert [la[j] for j in lb] == conic_stabilizer_lift(
                pl, *(e(x) for x in prod2))


def test_lift_preserves_conic():
    pl = plane_for(9)
    conic = conic_point_set(pl)
    rng = random.Random(11)
    count = 0
    while count < 100:
        a, b, c, d = (rng.randrange(9) for _ in range(4))
        try:
            col = conic_stabilizer_lift(pl, a, b, c, d)
        except ValueError:
            continue
        count += 1
        assert {pl.point(col[pl.index_of(P)]) for P in conic} == conic


@pytest.mark.parametrize("q", [2, 4, 8])
def test_even_lifts_are_er_automorphisms(q):
    pl = plane_for(q)
    g = build_er_graph(pl)
    count = 0
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    try:
                        col = conic_stabilizer_lift(pl, a, b, c, d)
                    except ValueError:
                        continue
                    count += 1
                    assert preserves_adjacency(g, col)
    assert count == (q * q - 1) * (q * q - q)  # |GL(2,q)|


def test_degenerate_lift_rejected():
    pl = plane_for(9)
    with pytest.raises(ValueError):
        conic_stabilizer_lift(pl, 1, 1, 1, 1)


def test_orbit_trivial_and_closure():
    pl = plane_for(9)
    f = pl.ctx
    P = pl.index_of((0, 1, 0))
    assert orbit([], P) == [P]
    # full conic stabilizer (entries from all of GF(9)): orbit of the
    # external point U2 is the whole external class, q(q+1)/2 points
    perms = [conic_stabilizer_lift(pl, *t)
             for t in [(1, 1, 0, 1), (f.generator, 0, 0, 1), (0, 1, 1, 0)]]
    orb = orbit(perms, P)
    pol = Polarity(pl)
    assert len(orb) == len(set(orb)) == 45
    assert all(pol.classify(pl.point(j)) == EXTERNAL for j in orb)
    # the subfield-entry subgroup keeps U2 inside the Baer subplane:
    # its orbit is the 6 points of B external to the Baer conic
    sub_orb = orbit(baer_stabilizer_generators(pl), P)
    assert len(sub_orb) == 6
    assert all(pl.point(j) in pl.baer_points() for j in sub_orb)


def test_orbit_start_off_the_plane_is_rejected():
    # -1 once walked a wrong orbit through the end of the permutations
    pl = plane_for(9)
    matrices = baer_stabilizer_matrices(pl.ctx)
    perms = [collineation(pl, m) for m in matrices]
    for start in (-1, len(perms[0])):
        with pytest.raises(ValueError):
            orbit(perms, start)
        with pytest.raises(ValueError):
            matrix_orbit(pl, matrices, start)


def test_orbit_is_breadth_first_in_generator_order():
    # two generators of the cyclic group of order 6 on six points
    step, back = [1, 2, 3, 4, 5, 0], [5, 0, 1, 2, 3, 4]
    assert orbit([step, back], 0) == [0, 1, 5, 2, 4, 3]
    assert orbit([back, step], 0) == [0, 5, 1, 4, 2, 3]
    assert orbit([[0, 2, 1, 3]], 3) == [3]


def test_orbits_yields_each_orbit_once_in_first_seen_order():
    # a 3-cycle (0 1 2) and a transposition (4 6) on eight points
    step = [1, 2, 0, 3, 4, 5, 6, 7]
    swap = [0, 1, 2, 3, 6, 5, 4, 7]
    # 6, 0 and 2 are skipped as seen, 7 is no start, so it has no orbit
    starts = [4, 1, 6, 3, 0, 2, 5]
    assert list(orbits([step, swap], starts)) == [[4, 6], [1, 2, 0], [3],
                                                  [5]]
    assert list(orbits([swap, step], [2, 2])) == [[2, 0, 1]]
    assert list(orbits([step], [])) == []


def test_orbit_sizes_divide_group_order():
    # |PGL(2, sqrt q)| = sqrt(q) (q - 1) = 3 * 8 = 24 at q = 9
    pl = plane_for(9)
    perms = baer_stabilizer_generators(pl)
    baer = {pl.index_of(P) for P in pl.baer_points()}
    seen = set()
    for i in range(pl.size):
        if i in seen or i in baer:
            continue
        orb = orbit(perms, i)
        seen.update(orb)
        assert 24 % len(orb) == 0
    assert len(seen) == pl.size - len(baer)


@pytest.mark.parametrize("q", [4, 9, 16, 25, 49, 64])
def test_baer_membership(q):
    pl = plane_for(q)
    f = pl.ctx
    baer = pl.baer_points()
    points = plane_points(pl)
    assert baer == {P for P in points if all(map(f.in_subfield, P))}
    assert (1, 0, 0) in baer
    r = f.sqrt_q()
    assert sum(P in baer for P in points) == r * r + r + 1
    g = next(a for a in f.elements() if not f.in_subfield(a))
    assert pl.normalize((1, g, 0)) not in baer
    with pytest.raises(ValueError):
        plane_for(3).baer_points()


def test_unique_secant_baer_line_through_outside_point():
    # every point off the Baer subplane lies on exactly one line meeting
    # the subplane in sqrt(q)+1 points
    pl = plane_for(9)
    baer = pl.baer_points()
    points = plane_points(pl)
    rich_lines = [l for l in points
                  if sum(P in baer for P in pl.line_points(l)) == 4]
    for P in points:
        if P in baer:
            continue
        through = sum(1 for l in rich_lines if dot(pl.ctx, P, l) == 0)
        assert through == 1
