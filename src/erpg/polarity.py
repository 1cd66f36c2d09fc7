"""Polarities of PG(2,q) and the polarity graph ER_q.

For odd q this is the orthogonal polarity of the conic X2^2 - X1*X3 = 0
(polar line of (x1,x2,x3) is [x3, -2*x2, x1]); for even q the pseudo
polarity whose absolute points form the line X1 = 0 (polar line
[x1, x3, x2]).  The polarity graph joins two distinct points whenever one
lies on the polar line of the other.
"""

from __future__ import annotations

from operator import itemgetter

from .plane import ProjectivePlane
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
        f, q = self.ctx, self.plane.q
        x1, x2, x3 = point
        if not (0 <= x1 < q and 0 <= x2 < q and 0 <= x3 < q):
            raise ValueError(f"coordinates {point!r} are not all in GF({q})")
        if self.kind == "orthogonal":
            return self.plane.normalize((x3, f.neg(f.add(x2, x2)), x1))
        return self.plane.normalize((x1, x3, x2))

    def is_absolute(self, point) -> bool:
        return self.classify(point) == ABSOLUTE

    def classify(self, point) -> str:
        f, q = self.ctx, self.plane.q
        x1, x2, x3 = point
        if not (0 <= x1 < q and 0 <= x2 < q and 0 <= x3 < q):
            raise ValueError(f"coordinates {point!r} are not all in GF({q})")
        if self.kind == "pseudo":
            return ABSOLUTE if x1 == 0 else NONABSOLUTE
        d = f.sub(f.mul(x2, x2), f.mul(x1, x3))
        if d == 0:
            return ABSOLUTE
        return EXTERNAL if f.is_square(d) else INTERNAL

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
    filled as a little-endian byte string and converted to an int once.  A
    point that is not a normalized point of the plane raises ValueError.
    """
    pol = Polarity(plane)
    slot = [None] * len(plane.points)
    for i, pt in enumerate(points):
        j = plane.index.get(pt)
        if j is None:
            raise ValueError(
                f"{pt!r} is not a normalized point of PG(2,{plane.q})")
        slot[j] = (i >> 3, 1 << (i & 7))
    nbytes = (len(points) + 7) // 8
    rows = []
    for i, pt in enumerate(points):
        row = bytearray(nbytes)
        line = plane.line_point_indices(pol.polar_line(pt))
        for b, m in filter(None, itemgetter(*line)(slot)):
            row[b] |= m
        row[i >> 3] &= ~(1 << (i & 7))
        rows.append(int.from_bytes(row, "little"))
    return rows


def build_er_graph(plane: ProjectivePlane) -> Graph:
    """The polarity graph ER_q as a dense bitset graph.

    Vertex i is the plane's i-th point.  Loops at absolute points are
    dropped (simple graph).
    """
    g = Graph(len(plane.points), _polar_rows(plane, plane.points))
    g.check_symmetric()
    return g
