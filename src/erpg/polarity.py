"""Polarities of PG(2,q) and the polarity graph ER_q.

For odd q this is the orthogonal polarity of the conic X2^2 - X1*X3 = 0
(polar line of (x1,x2,x3) is [x3, -2*x2, x1]); for even q the pseudo
polarity whose absolute points form the line X1 = 0 (polar line
[x1, x3, x2]).  The polarity graph joins two distinct points whenever one
lies on the polar line of the other.
"""

from __future__ import annotations

from .field import FieldCtx
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
        f = self.ctx
        x1, x2, x3 = point
        if self.kind == "orthogonal":
            return self.plane.normalize((x3, f.neg(f.add(x2, x2)), x1))
        return self.plane.normalize((x1, x3, x2))

    def is_absolute(self, point) -> bool:
        f = self.ctx
        x1, x2, x3 = point
        if self.kind == "orthogonal":
            return f.sub(f.mul(x2, x2), f.mul(x1, x3)) == 0
        return x1 == 0

    def classify(self, point) -> str:
        f = self.ctx
        x1, x2, x3 = point
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
            pts = [self.plane.normalize((1, t, f.mul(t, t))) for t in f.elements()]
            pts.append((0, 0, 1))
            return pts
        return self.plane.line_points((1, 0, 0))


def build_er_graph(plane: ProjectivePlane) -> Graph:
    """The polarity graph ER_q as a dense bitset graph.

    Vertex i is the plane's i-th point.
    Loops at absolute points are dropped (simple graph).  Each row is
    filled as a little-endian byte string from the polar line's point
    indices and converted to an int once.
    """
    pol = Polarity(plane)
    points = plane.points
    n = len(points)
    nbytes = (n + 7) // 8
    adj = []
    for i, pt in enumerate(points):
        row = bytearray(nbytes)
        for j in plane.line_point_indices(pol.polar_line(pt)):
            row[j >> 3] |= 1 << (j & 7)
        row[i >> 3] &= ~(1 << (i & 7))
        adj.append(int.from_bytes(row, "little"))
    g = Graph(n, adj)
    g.check_symmetric()
    return g
