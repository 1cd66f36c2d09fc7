import random

import pytest

from erpg.field import FieldCtx, field_for_order
from erpg.plane import (ProjectivePlane, _check_matrix,
                        baer_stabilizer_matrices, collineation,
                        conic_stabilizer_matrix, matrix_orbit, orbits)
from erpg.polarity import EXTERNAL, Polarity, build_er_graph

from reference import (collineation_reference, dot, matrix_orbit_reference,
                       orbit, plane_points, preserves_adjacency)


def plane_for(q):
    return ProjectivePlane(field_for_order(q))


def lift(pl, a, b, c, d):
    """The collineation of conic_stabilizer_matrix(pl.ctx, a, b, c, d)."""
    return collineation(pl, conic_stabilizer_matrix(pl.ctx, a, b, c, d))


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
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for m, message in [(((1, 0, 0), (0, 1, 0), (1, 1, 0)), "singular matrix"),
                       (((1, 0, 0), (0, 1, 0), (0, 0, 3)), "not all in GF"),
                       (5, "not a 3x3 matrix"), (None, "not a 3x3 matrix"),
                       (identity[:2], "not a 3x3 matrix"),
                       (identity + identity[:1], "not a 3x3 matrix"),
                       (((1, 0), (0, 1), (0, 0)), "not a 3x3 matrix"),
                       (((1, 0, 0, 0), (0, 1, 0), (0, 0, 1)),
                        "not a 3x3 matrix"),
                       ((1, 0, 0, 0, 1, 0, 0, 0, 1), "not a 3x3 matrix"),
                       ("abc", "not a 3x3 matrix")]:
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
        lambda: conic_stabilizer_matrix(pl.ctx, bad, 0, 0, 1),
        lambda: conic_stabilizer_matrix(pl.ctx, 1, 0, 0, bad),
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
            return _check_matrix(pl.ctx, m)
        except ValueError:
            continue


def chart_hitting_matrix(pl, rng):
    """A random invertible matrix that takes a chart point (1, y, z) to
    (0, 0, 1) and another one to a point (0, 1, z'), so the division by x
    and the one by y both meet a zero dividend and a zero divisor."""
    q = pl.q
    while True:
        m = random_matrix(pl, rng)
        images = collineation_reference(pl, m)[q + 1:]
        if 0 in images and any(1 <= j <= q for j in images):
            return m


@pytest.mark.parametrize(
    "q", [2, 3, 4, 5, 8, 9, 25, 27, 49, 81, 121, 128, 243, 256])
def test_collineation_and_matrix_orbit_match_the_references(q):
    pl = plane_for(q)
    rng = random.Random(q)
    matrices = [chart_hitting_matrix(pl, rng) for _ in range(3)]
    for m in matrices:
        assert collineation(pl, m) == collineation_reference(pl, m)
    # two random matrices: the orbit is the whole plane at every q here but
    # 9; the subgroup below has a short orbit
    for start in (0, 1, q + 1, pl.size - 1):
        assert matrix_orbit(pl, matrices[:2], start) == \
            matrix_orbit_reference(pl, matrices[:2], start)
        if q > 9:
            break
    subgroup = baer_stabilizer_matrices(pl.ctx) if pl.ctx.n % 2 == 0 else [
        ((1, 0, 0), (1, 1, 0), (0, 0, 1))]
    start = pl.index_of((1, 0, q - 1))
    assert matrix_orbit(pl, subgroup, start) == \
        matrix_orbit_reference(pl, subgroup, start)


def test_collineation_and_matrix_orbit_call_no_mul_or_inv(monkeypatch):
    # byte tables at q = 8 and 9, rotated lists at q = 257; the odd-q
    # polar table is a collineation too
    cases = []
    for q in (8, 9, 257):
        pl = plane_for(q)
        rng = random.Random(q)
        matrices = [random_matrix(pl, rng) for _ in range(2)]
        cases.append((pl, matrices, [collineation(pl, m) for m in matrices],
                      matrix_orbit(pl, matrices, 0)))
    polar = Polarity(plane_for(9)).polar_indices()

    def forbidden(*args):
        raise AssertionError("FieldCtx.mul or inv was called")

    monkeypatch.setattr(FieldCtx, "mul", forbidden)
    monkeypatch.setattr(FieldCtx, "inv", forbidden)
    for pl, matrices, perms, orb in cases:
        assert [collineation(pl, m) for m in matrices] == perms
        assert matrix_orbit(pl, matrices, 0) == orb
    assert Polarity(plane_for(9)).polar_indices() == polar


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
    assert lift(pl, 1, 0, 0, 1) == list(range(pl.size))
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
            la = lift(pl, *(e(x) for x in A))
            lb = lift(pl, *(e(x) for x in B))
            prod2 = (sub.add(sub.mul(A[0], B[0]), sub.mul(A[1], B[2])),
                     sub.add(sub.mul(A[0], B[1]), sub.mul(A[1], B[3])),
                     sub.add(sub.mul(A[2], B[0]), sub.mul(A[3], B[2])),
                     sub.add(sub.mul(A[2], B[1]), sub.mul(A[3], B[3])))
            assert [la[j] for j in lb] == lift(
                pl, *(e(x) for x in prod2))


def test_lift_preserves_conic():
    pl = plane_for(9)
    conic = conic_point_set(pl)
    rng = random.Random(11)
    count = 0
    while count < 100:
        a, b, c, d = (rng.randrange(9) for _ in range(4))
        try:
            col = lift(pl, a, b, c, d)
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
                        col = lift(pl, a, b, c, d)
                    except ValueError:
                        continue
                    count += 1
                    assert preserves_adjacency(g, col)
    assert count == (q * q - 1) * (q * q - q)  # |GL(2,q)|


def test_degenerate_lift_rejected():
    pl = plane_for(9)
    with pytest.raises(ValueError):
        lift(pl, 1, 1, 1, 1)


def test_orbit_trivial_and_closure():
    pl = plane_for(9)
    f = pl.ctx
    P = pl.index_of((0, 1, 0))
    # the trivial group: orbits yields [i] for each new start, and
    # matrix_orbit returns [start]; a non-index start is still rejected
    assert list(orbits(pl, [], [P, 0, P, 5])) == [[P], [0], [5]]
    assert matrix_orbit(pl, [], P) == [P]
    with pytest.raises(ValueError, match="not a point index"):
        list(orbits(pl, [], [pl.size]))
    with pytest.raises(ValueError, match="not a point index"):
        matrix_orbit(pl, [], -1)
    # full conic stabilizer (entries from all of GF(9)): orbit of the
    # external point U2 is the whole external class, q(q+1)/2 points
    matrices = [conic_stabilizer_matrix(f, *t)
                for t in [(1, 1, 0, 1), (f.generator, 0, 0, 1), (0, 1, 1, 0)]]
    orb = matrix_orbit(pl, matrices, P)
    pol = Polarity(pl)
    assert len(orb) == len(set(orb)) == 45
    assert all(pol.classify(pl.point(j)) == EXTERNAL for j in orb)
    # the subfield-entry subgroup keeps U2 inside the Baer subplane:
    # its orbit is the 6 points of B external to the Baer conic
    sub_orb = matrix_orbit(pl, baer_stabilizer_matrices(f), P)
    assert len(sub_orb) == 6
    assert all(pl.point(j) in pl.baer_points() for j in sub_orb)


def orbit_generators(pl):
    """Two lifted generators whose group has orbits of several sizes: a
    transvection and a diagonal matrix with a generating scalar."""
    f = pl.ctx
    return [conic_stabilizer_matrix(f, *t)
            for t in [(1, 1, 0, 1), (f.generator, 0, 0, 1)]]


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 25])
def test_orbits_match_the_reference_orbit(q):
    # orbits against the permutation walk of tests/reference.py, with
    # the generators in both orders, over starts that repeat, fall in an
    # earlier orbit or are none at all
    pl = plane_for(q)
    rng = random.Random(q)
    starts = rng.sample(range(pl.size), min(pl.size, 40))
    starts += starts[:5] + [starts[0], pl.size - 1, 0]
    for matrices in (orbit_generators(pl), orbit_generators(pl)[::-1]):
        perms = [collineation(pl, m) for m in matrices]
        expected, seen = [], set()
        for i in starts:
            if i not in seen:
                expected.append(orbit(perms, i))
                seen.update(expected[-1])
        got = list(orbits(pl, matrices, starts))
        assert got == expected
        assert sorted(j for orb in got for j in orb) == sorted(seen)
        assert list(orbits(pl, matrices, [])) == []
        assert [matrix_orbit(pl, matrices, orb[0]) for orb in got] == got
    # the same orbits, and from q = 4 on some orbit is walked in another
    # order when the generators swap
    walks = [list(orbits(pl, matrices, range(pl.size)))
             for matrices in (orbit_generators(pl),
                              orbit_generators(pl)[::-1])]
    assert [sorted(o) for o in walks[0]] == [sorted(o) for o in walks[1]]
    assert (walks[0] != walks[1]) == (q > 3)


@pytest.mark.parametrize("start", [91, -1, 100, 1.5, 1.0, "0", None])
def test_orbits_start_off_the_points_is_rejected(start):
    # PG(2,9) has 91 points: the permutation walk once ended in IndexError
    # at 91 and walked a wrong orbit from -1, and 1.0, which range(91)
    # holds, ended in TypeError
    pl = plane_for(9)
    matrices = baer_stabilizer_matrices(pl.ctx)
    with pytest.raises(ValueError, match="not a point index"):
        list(orbits(pl, matrices, [0, start]))
    with pytest.raises(ValueError, match="not a point index"):
        matrix_orbit(pl, matrices, start)


def test_orbit_sizes_divide_group_order():
    # |PGL(2, sqrt q)| = sqrt(q) (q - 1) = 3 * 8 = 24 at q = 9
    pl = plane_for(9)
    baer = {pl.index_of(P) for P in pl.baer_points()}
    off_baer = [i for i in range(pl.size) if i not in baer]
    found = list(orbits(pl, baer_stabilizer_matrices(pl.ctx), off_baer))
    assert all(24 % len(orb) == 0 for orb in found)
    assert sorted(j for orb in found for j in orb) == off_baer


@pytest.mark.parametrize("q", [4, 9, 16, 25, 49, 64])
def test_baer_membership(q):
    pl = plane_for(q)
    f = pl.ctx
    baer = pl.baer_points()
    points = plane_points(pl)
    subfield = {f.embed_subfield(a) for a in f.subfield().elements()}
    assert baer == {P for P in points if subfield.issuperset(P)}
    assert (1, 0, 0) in baer
    r = f.sqrt_q()
    assert sum(P in baer for P in points) == r * r + r + 1
    g = next(a for a in f.elements() if a not in subfield)
    with pytest.raises(ValueError, match="not in the embedded subfield"):
        f.to_subfield(g)
    assert [f.to_subfield(a) for a in sorted(subfield)] == sorted(
        range(r), key=f.embed_subfield)
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
