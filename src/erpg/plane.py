"""Points, lines and collineations of PG(2,q).

Points and lines are homogeneous triples of field elements, given as
plain 3-tuples of ints and normalized so the first nonzero coordinate
equals 1.  Enumeration order is fixed: (0,0,1), then (0,1,z), then
(1,y,z) with (y,z) in canonical field order, giving every point/line a
stable integer index: 0, 1 + z and 1 + q + q*y + z.  ``point`` and
``index_of`` compute this numbering both ways; the plane stores no point.

``line_point_indices`` solves a line's equation directly in these index
coordinates, so listing the points of a line needs no per-point
normalization.  A group is given by the 3x3 matrices that generate it.
``collineation`` turns a matrix into a permutation of the point indices
the same way; ``orbits`` walks the orbits of many starts through those
permutations breadth first, and ``matrix_orbit`` walks one orbit by
imaging its points only.
"""

from __future__ import annotations

from operator import add

from .field import FieldCtx


def _check_coordinates(q, v):
    """ValueError unless every entry of v is an int in range(q)."""
    for x in v:
        if not isinstance(x, int) or not 0 <= x < q:
            raise ValueError(f"coordinates {v!r} are not all in GF({q})")


class ProjectivePlane:
    """PG(2,q) over a fixed field context."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.q = ctx.q
        self.size = ctx.q * ctx.q + ctx.q + 1  # the number of points

    def point(self, i):
        """The normalized point of index i, an int in range(size)."""
        q = self.q
        if not isinstance(i, int) or not 0 <= i < self.size:
            raise ValueError(f"{i!r} is not a point index of PG(2,{q})")
        if i > q:
            return (1, *divmod(i - q - 1, q))
        return (0, 1, i - 1) if i else (0, 0, 1)

    def index_of(self, pt):
        """The i with point(i) == pt; the one normalized-point check."""
        q = self.q
        try:
            x, y, z = pt
            i = q + 1 + q * y + z if x else 1 + z if y else 0
            if self.point(i) == pt:
                return i
        except (TypeError, ValueError):
            pass
        raise ValueError(f"{pt!r} is not a normalized point of PG(2,{q})")

    def normalize(self, v):
        """Scale a nonzero triple so its first nonzero coordinate is 1."""
        f = self.ctx
        _check_coordinates(self.q, v)
        x, y, z = v
        if x:
            if x == 1:
                return (1, y, z)
            s = f.inv(x)
            return (1, f.mul(s, y), f.mul(s, z))
        if y:
            if y == 1:
                return (0, 1, z)
            return (0, 1, f.mul(f.inv(y), z))
        if z:
            return (0, 0, 1)
        raise ValueError("cannot normalize the zero triple")

    def line_point_indices(self, line):
        """Ascending indices of the q+1 points of a*x + b*y + c*z = 0.

        The line need not be normalized.  For c != 0 the points are
        (0, 1, -b/c) and, on the x = 1 chart, (1, y, u + v*y) for every y,
        with u = -a/c and v = -b/c; for c = 0 they form contiguous index
        blocks.
        """
        f, q = self.ctx, self.q
        _check_coordinates(q, line)
        a, b, c = line
        if c:
            ic = f.inv(c)
            u, v = f.neg(f.mul(a, ic)), f.neg(f.mul(b, ic))
            chart = range(q + 1, q * q + q + 1, q)  # index of (1, y, 0)
            return [1 + v, *map(add, chart, f.affine_values(u, v))]
        if b:  # (0, 0, 1) and the points (1, -a/b, z)
            start = q + 1 + q * f.neg(f.div(a, b))
            return [0, *range(start, start + q)]
        if a:  # x = 0: (0, 0, 1) and the points (0, 1, z)
            return list(range(q + 1))
        raise ValueError("the zero triple is not a line")

    def line_points(self, line):
        """The q+1 points of a line, in index order."""
        idx = self.line_point_indices(line)
        if len(set(idx)) != self.q + 1:
            raise AssertionError(f"line {line} does not have q+1 points")
        return list(map(self.point, idx))

    def line_through(self, P, Q):
        """The unique line through two distinct points (cross product)."""
        f = self.ctx
        _check_coordinates(self.q, P)
        _check_coordinates(self.q, Q)
        a = f.sub(f.mul(P[1], Q[2]), f.mul(P[2], Q[1]))
        b = f.sub(f.mul(P[2], Q[0]), f.mul(P[0], Q[2]))
        c = f.sub(f.mul(P[0], Q[1]), f.mul(P[1], Q[0]))
        return self.normalize((a, b, c))

    # -- Baer subplane -----------------------------------------------------

    def baer_points(self):
        """Points of the standard Baer subplane: the normalized points with
        every coordinate in GF(sqrt q), built from the embedded subfield."""
        f = self.ctx
        if f.n % 2:
            raise ValueError("Baer subplane needs a square field order")
        sub = [f.embed_subfield(a) for a in f.subfield().elements()]
        return frozenset([(0, 0, 1), *((0, 1, z) for z in sub),
                          *((1, y, z) for y in sub for z in sub)])


def _check_matrix(f, m):
    """m as a tuple of three row tuples; ValueError unless it is three rows
    of three GF(q) ints forming an invertible matrix.  The determinant is
    read from f.division_tables(), which a negative or too large entry
    would index silently, so the entries are checked first."""
    try:
        rows = tuple(map(tuple, m))
    except TypeError:
        rows = ()
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError(f"{m!r} is not a 3x3 matrix over GF({f.q})")
    for r in rows:
        _check_coordinates(f.q, r)
    L, D = f.division_tables()

    def product(x, y, z):
        return D[L[D[L[x] + L[y]]] + L[z]]

    (a, b, c), (d, e, g), (h, i, k) = rows
    plus = f.add(f.add(product(a, e, k), product(b, g, h)), product(c, d, i))
    minus = f.add(f.add(product(c, e, h), product(b, d, k)), product(a, g, i))
    if plus == minus:  # the determinant is plus - minus
        raise ValueError("singular matrix does not define a collineation")
    return rows


def _indexer(f):
    """A function from three coordinate lists to the index of the point
    (x, y, z) for each triple, which must be a nonzero vector over GF(q).
    With L, D = f.division_tables(), y/x is D[L[y] + n] for
    n = q - 1 - L[x], and row[k] is the index of (1, D[k], 0)."""
    q, m = f.q, f.q - 1
    L, D = f.division_tables()
    row = [q + 1 + q * d for d in D]

    def indices(xs, ys, zs):
        return [row[L[y] + (n := m - L[x])] + D[L[z] + n] if x
                else 1 + D[L[z] - L[y] + m] if y else 0
                for x, y, z in zip(xs, ys, zs)]
    return indices


def collineation(plane: ProjectivePlane, m) -> list:
    """The collineation of the 3x3 matrix m as a point permutation:
    perm[i] = index of m times point i (column vectors).  Along each
    enumeration block -- (0,0,1), then (0,1,z), then each row (1,y,z) --
    every image coordinate is affine in z, so affine_values lists it for
    the whole block; the index then divides by the first nonzero
    coordinate through the field's log/exp division tables, with no
    FieldCtx.mul or inv call.  A singular m, or anything that is not three
    rows of three GF(q) ints, raises ValueError before any table is read.
    """
    f, q = plane.ctx, plane.q
    m = _check_matrix(f, m)
    indices = _indexer(f)
    perm = indices(*([r[2]] for r in m))                          # (0, 0, 1)
    perm += indices(*(f.affine_values(r[1], r[2]) for r in m))    # (0, 1, z)
    starts = [f.affine_values(r[0], r[1]) for r in m]         # at (1, y, 0)
    for y in range(q):
        perm += indices(*(f.affine_values(s[y], r[2])
                          for s, r in zip(starts, m)))
    return perm


def conic_stabilizer_matrix(f: FieldCtx, a, b, c, d):
    """The 3x3 lift of an invertible 2x2 matrix into the conic/polarity
    stabilizer.  For odd q the lift stabilizes the conic X2^2 - X1*X3 = 0.
    For even q it is diag(sqrt(det), [[a, b], [c, d]]); then
    M^T A M = det * A for the pseudo polarity's matrix A, so the lift
    commutes with the polarity, and sqrt(det) = det^(q/2) keeps the map a
    homomorphism.
    """
    _check_coordinates(f.q, (a, b, c, d))
    det = f.sub(f.mul(a, d), f.mul(b, c))
    if det == 0:
        raise ValueError("degenerate 2x2 matrix")
    if f.p == 2:
        return ((f.pow(det, f.q // 2), 0, 0), (0, a, b), (0, c, d))
    two = f.add(1, 1)
    # symmetric square of [[a,b],[c,d]] in the basis (x^2, x*y, y^2);
    # a true homomorphism GL(2,q) -> GL(3,q) stabilizing X2^2 - X1*X3 = 0
    return ((f.mul(a, a), f.mul(two, f.mul(a, b)), f.mul(b, b)),
            (f.mul(a, c), f.add(f.mul(a, d), f.mul(b, c)), f.mul(b, d)),
            (f.mul(c, c), f.mul(two, f.mul(c, d)), f.mul(d, d)))


def orbits(plane: ProjectivePlane, matrices, starts):
    """Yield the orbit of each start that lies in no earlier orbit, in the
    order of starts, under the group the matrices generate.

    Each orbit is listed breadth first in first-seen order: its points are
    visited in that order and each one tries the matrices in turn.  The
    matrices become permutations through collineation, and one bytearray
    over the points marks those seen.  A start that is not a point index
    raises ValueError.
    """
    perms = [collineation(plane, m) for m in matrices]
    n = plane.size
    seen = bytearray(n)
    for i in starts:
        if not (isinstance(i, int) and 0 <= i < n):
            raise ValueError(f"start {i!r} is not a point index")
        if seen[i]:
            continue
        seen[i] = 1
        orb = [i]
        for j in orb:  # orb grows while it is read: a FIFO queue
            for perm in perms:
                k = perm[j]
                if not seen[k]:
                    seen[k] = 1
                    orb.append(k)
        yield orb


def matrix_orbit(plane: ProjectivePlane, matrices, start):
    """The orbit of start that orbits(plane, matrices, [start]) yields,
    imaging the orbit's points only.

    Point i is read as (row[i], z[i]): the chart point (1, y, z) as (y, z),
    (0, 1, z) as (q, z) and (0, 0, 1) as (q + 1, 1).  A matrix row
    (a, b, c) then takes it to first[row] + c*z, where first lists a + b*y
    for every y, then b, then 0; both lists come from affine_values, so an
    image needs two additions per coordinate and no FieldCtx.mul or inv
    call, and its index comes from the division tables as in collineation.
    """
    f, q = plane.ctx, plane.q
    matrices = [_check_matrix(f, m) for m in matrices]
    plane.point(start)  # ValueError unless start is a point index
    # for each image coordinate, one (first, times_c) pair per matrix
    maps = [[(f.affine_values(a, b) + [b, 0], f.affine_values(0, c))
             for a, b, c in (m[k] for m in matrices)] for k in range(3)]
    add, indices = f.add, _indexer(f)
    seen, order = {start}, [start]
    for i in order:  # order grows while it is read: a FIFO queue
        if i > q:
            row, z = divmod(i - q - 1, q)
        else:
            row, z = (q, i - 1) if i else (q + 1, 1)
        for j in indices(*[[add(first[row], times_c[z])
                            for first, times_c in coordinate]
                           for coordinate in maps]):
            if j not in seen:
                seen.add(j)
                order.append(j)
    return order


def baer_stabilizer_matrices(ctx: FieldCtx):
    """Lifted generators of PGL(2, sqrt q) acting with subfield entries,
    as 3x3 matrices: the lifts of GL(2, F)'s standard generating set, a
    transvection, a diagonal matrix with a generating scalar and the swap.
    """
    g, one = map(ctx.embed_subfield, (ctx.subfield().generator, 1))
    return [conic_stabilizer_matrix(ctx, *t) for t in
            [(one, one, 0, one), (g, 0, 0, one), (0, one, one, 0)]]
