"""Polarities of PG(2,q) and the polarity graph ER_q.

For odd q this is the orthogonal polarity of the conic X2^2 - X1*X3 = 0
(polar line of (x1,x2,x3) is [x3, -2*x2, x1]); for even q the pseudo
polarity whose absolute points form the line X1 = 0 (polar line
[x1, x3, x2]).  The polarity graph joins two distinct points whenever one
lies on the polar line of the other.

ER_q rows have two builders, which a test keeps equal.  `_plane_rows`
builds all q^2 + q + 1 rows a whole line at a time, moving the bitset of
one line to the next by field translations; `build_er_graph` (and so
export, solve and the hypergraph) uses it.  `_polar_rows(plane, points)`
builds the subgraph induced on a point list, one polar line per listed
point, which is cheaper when the list is a small part of the plane; the
triangle-free set's girth check uses it via `induced_on_points`.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .plane import ProjectivePlane, _check_coordinates, collineation
from .graphs import Graph

ABSOLUTE = "absolute"
EXTERNAL = "external"
INTERNAL = "internal"
NONABSOLUTE = "nonabsolute"


class Polarity:
    """Orthogonal (q odd) or pseudo (q even) polarity on a plane."""

    def __init__(self, plane: ProjectivePlane):
        self.plane = plane
        self.ctx = plane.ctx
        self.kind = "pseudo" if self.ctx.p == 2 else "orthogonal"

    def polar_line(self, point):
        _check_coordinates(self.plane.q, point)
        return self.plane.normalize(self._polar(point))

    def _polar(self, point):
        """polar_line(point) unnormalized, without a range check."""
        x1, x2, x3 = point
        if self.kind == "orthogonal":
            f = self.ctx
            return (x3, f.neg(f.add(x2, x2)), x1)
        return (x1, x3, x2)

    def classify(self, point) -> str:
        f = self.ctx
        x1, x2, x3 = self.plane.normalize(point)  # scaling keeps the class
        if self.kind == "pseudo":
            return ABSOLUTE if x1 == 0 else NONABSOLUTE
        d = f.sub(f.mul(x2, x2), f.mul(x1, x3))
        if d == 0:
            return ABSOLUTE
        return EXTERNAL if f.is_square(d) else INTERNAL

    def point_classes(self) -> list:
        """classify(point) for every point, by index.  On the chart row
        (1, y, *) the discriminant y^2 - z is affine_values(y^2, -1), so
        each row is one table map."""
        f, q = self.ctx, self.plane.q
        if self.kind == "pseudo":
            return [ABSOLUTE] * (q + 1) + [NONABSOLUTE] * (q * q)
        label = [ABSOLUTE] + [EXTERNAL if f.is_square(d) else INTERNAL
                              for d in range(1, q)]
        classes = [ABSOLUTE] + [EXTERNAL] * q
        for y in range(q):
            classes.extend(map(label.__getitem__,
                               f.affine_values(f.mul(y, y), f.neg(1))))
        return classes

    def polar_indices(self) -> list:
        """The index of polar_line(point) for every point, by index.  The
        pseudo polarity swaps x2 and x3: (0, 0, 1) and (0, 1, 0) trade
        places, (0, 1, z) goes to (0, 1, 1/z), and the chart is transposed,
        (1, y, z) to (1, z, y).  The orthogonal one is the collineation of
        the matrix that _polar multiplies out."""
        f, q, size = self.ctx, self.plane.q, self.plane.size
        if self.kind == "pseudo":
            return [1, 0, *(1 + f.inv(z) for z in range(1, q)),
                    *chain.from_iterable(range(q + 1 + y, size, q)
                                         for y in range(q))]
        m = ((0, 0, 1), (0, f.neg(f.add(1, 1)), 0), (1, 0, 0))
        return collineation(self.plane, m)

    def absolute_points(self):
        """The q+1 absolute points: the conic (q odd) or the line X1=0."""
        f = self.ctx
        if self.kind == "orthogonal":
            pts = [(1, t, f.mul(t, t)) for t in f.elements()]
            pts.append((0, 0, 1))
            return pts
        return self.plane.line_points((1, 0, 0))


def _polar_rows(plane: ProjectivePlane, points) -> list[int]:
    """Row i holds the positions of the listed points on the polar line of
    points[i], except i itself: ER_q induced on the list.

    A list over all point indices holds each listed point's (byte, bit) in
    a row and None off the list, so a polar line's points off the list are
    dropped by filter(None, ...) without a Python step each.  Each row is
    filled as a little-endian byte string and converted to an int once.
    plane.index_of rejects what is not a normalized point of the plane,
    and a point listed twice raises ValueError.
    """
    pol = Polarity(plane)
    slot = [None] * plane.size
    for i, pt in enumerate(points):
        j = plane.index_of(pt)
        if slot[j] is not None:
            raise ValueError(f"point {pt!r} is listed twice")
        slot[j] = (i >> 3, 1 << (i & 7))
    nbytes = (len(points) + 7) // 8
    rows = []
    for i, pt in enumerate(points):
        row = bytearray(nbytes)
        line = plane.line_point_indices(pol._polar(pt))
        for b, m in filter(None, itemgetter(*line)(slot)):
            row[b] |= m
        row[i >> 3] &= ~(1 << (i & 7))
        rows.append(int.from_bytes(row, "little"))
    return rows


def _translations(ctx):
    """(up, s, down, t) for each s = p^i < q: on a q-by-q bit chart whose
    rows are q-bit blocks indexed by z, the masked move
    (x & up) << s | (x & down) >> t maps bit z of every block to z + p^i
    in GF(q).  Field addition is digit-wise mod p, so the move shifts the
    bits whose digit i is below p - 1 up by s and those whose digit i is
    p - 1 down by t = (p - 1) * s.
    """
    p, q = ctx.p, ctx.q
    blocks = sum(1 << (q * y) for y in range(q))  # bit 0 of every block
    moves, s = [], 1
    while s < q:
        down = sum(1 << z for z in range(q) if z // s % p == p - 1)
        up = ((1 << q) - 1) ^ down
        moves.append((up * blocks, s, down * blocks, (p - 1) * s))
        s *= p
    return moves


def _plane_rows(plane: ProjectivePlane) -> list[int]:
    """ER_q over the whole plane: the rows _polar_rows gives on every point
    in index order, built a whole line at a time.

    Line [-u, -v, 1] holds (0, 1, v) and the points (1, y, u + v*y), one
    in each q-bit block (1, y, *) of the x = 1 chart.  The chart for u = 0
    comes from affine_values; stepping u to u + 1 in integer order changes
    digit i of u exactly when p^i divides u + 1, and adds p^i to every z
    for each such digit, one masked move of the whole chart each
    (`_translations`).  The q + 1 lines with c = 0 are contiguous index
    blocks, plus (0, 0, 1) for [a, 1, 0].  Each line is stored at its pole
    with the pole's own bit cleared, so each row costs O(log_p q) big-int
    operations instead of q + 1 Python steps.  The pole of line l is the
    p with polar_indices()[p] == l; [-u, -v, 1] is line [1, v/u, -1/u].
    """
    f, q, index_of = plane.ctx, plane.q, plane.index_of
    pole = [0] * plane.size
    for p, line in enumerate(Polarity(plane).polar_indices()):
        pole[line] = p
    rows = [0] * plane.size

    def place(line, row):
        j = pole[line]
        rows[j] = row & ~(1 << j)

    moves = _translations(f)
    neg_inv = [0, *(f.neg(f.inv(u)) for u in range(1, q))]  # -1/u
    for v in range(q):
        x = sum(1 << (q * y + z) for y, z in enumerate(f.affine_values(0, v)))
        times_neg_v = f.affine_values(0, f.neg(v))  # -v * y for every y
        lines = [q + 1 + q * times_neg_v[w] + w for w in neg_inv]
        lines[0] = index_of(plane.normalize((0, f.neg(v), 1)))  # u = 0
        for u in range(q):
            place(lines[u], x << (q + 1) | 2 << v)
            for up, s, down, t in moves:
                if (u + 1) % s:
                    break
                x = (x & up) << s | (x & down) >> t
    block = (1 << q) - 1
    for a in range(q):
        place(index_of(plane.normalize((a, 1, 0))),
              1 | block << (q + 1 + q * f.neg(a)))
    place(index_of((1, 0, 0)), (1 << (q + 1)) - 1)
    return rows


def build_er_graph(plane: ProjectivePlane) -> Graph:
    """The polarity graph ER_q as a dense bitset graph.

    Vertex i is plane.point(i).  Loops at absolute points are
    dropped (simple graph).  The rows come from the whole-plane builder
    `_plane_rows`; `check_symmetric` checks them.
    """
    g = Graph(plane.size, _plane_rows(plane))
    g.check_symmetric()
    return g
