"""Coclique and triangle-free constructions in the polarity graph ER_q.

Four families are built and certified:

* odd square q, sqrt(q) = -1 mod 4: conic plus one orbit of internal
  points under the lifted PGL(2, sqrt q); size (q^{3/2} - sqrt q)/2 + q + 1.
* odd square q, sqrt(q) = +1 mod 4: conic plus one orbit of internal
  points under the group K of order q(sqrt q + 1); size
  (q^{3/2} + q)/2 + q + 1.
* even q = 2^n, n odd: a Denniston maximal arc of degree sqrt(q/2) built
  from a pairwise-trace-zero set; size q^{3/2}/sqrt 2 - q + sqrt(q/2).
* even q: a set of q(q+1)/2 non-absolute points inducing a triangle-free
  q/2-regular subgraph of girth at least 5.

Every construction is verified against the graph-level predicates before
its certificate is returned; verification failure raises, it is never
reported as a warning.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .field import factor_prime_power, field_for_order
from .graphs import Graph
from .plane import (ProjectivePlane, _check_coordinates,
                    baer_stabilizer_matrices, conic_stabilizer_matrix,
                    matrix_orbit, orbits)
from .polarity import ABSOLUTE, EXTERNAL, INTERNAL, Polarity, _polar_rows

CERTIFICATE_VERSION = "v1"


class VerificationError(AssertionError):
    """A construction failed one of its own certifying checks."""


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _plane_context(ctx):
    plane = ProjectivePlane(ctx)
    return ctx, plane, Polarity(plane)


def _line_counts(plane, points):
    """counts[j] = number of the given points on the line with index j.

    Lines are enumerated like points and incidence is the symmetric dot
    product, so the q+1 lines through a point p are
    line_point_indices(p); one pass over the points counts every line at
    once.
    """
    counts = [0] * plane.size
    for pt in points:
        for j in plane.line_point_indices(pt):
            counts[j] += 1
    return counts


def induced_on_points(plane, points):
    """Induced ER_q subgraph on a point list, without the full graph.

    Vertex i is points[i]; its row holds the positions of the other listed
    points on its polar line; plane.index_of rejects a non-point, and a
    repeated point raises ValueError.
    """
    return Graph(len(points), _polar_rows(plane, points))


def point_set_independent(plane, points, counted=None):
    """None if the listed points form a coclique of ER_q, else a conjugate
    pair: P passes when its polar line's count in _line_counts(plane,
    points) is 1 if P is absolute, else 0.  The pair is the first P that
    fails and the point on its polar line whose last listing, other than
    P's own, comes first, so a repeated absolute point A gives (A, A).
    plane.index_of rejects what is not a normalized point of the plane.
    counted, if given, is (snapshot, _line_counts(plane, snapshot)); the
    counts are read only if the points are exactly the snapshot."""
    points = list(points)
    last = {plane.index_of(Q): k for k, Q in enumerate(points)}
    pol = Polarity(plane)
    if counted is not None and tuple(points) == counted[0]:
        counts = counted[1]
    else:
        counts = _line_counts(plane, points)
    for i, pt in enumerate(points):
        polar = pol.polar_line(pt)
        if counts[plane.index_of(polar)] != (pol.classify(pt) == ABSOLUTE):
            return pt, points[min(last[j] for j in plane.line_point_indices(
                polar) if last.get(j, i) != i)]
    return None


@dataclass
class Certificate:
    """A constructed point set (a coclique or a triangle-free set)
    together with its verification flags."""

    construction_id: str
    q: int
    parameters: dict
    points: list
    claimed_size: int
    verified: dict = field(default_factory=dict)
    extension: dict | None = None

    @property
    def size(self):
        return len(self.points)

    def to_json(self) -> str:
        """json.dumps(doc, indent=2, sort_keys=True), each point as three
        coefficient lists.  With an indent json.dumps runs its pure-Python
        encoder, so the points' text is joined from one block per field
        element instead and spliced in where doc holds None.  ValueError
        unless every coordinate is an int in range(q), checked once per
        distinct (value, type) pair."""
        ctx = field_for_order(self.q)
        coords = list(chain.from_iterable(self.points))
        for c, _ in set(zip(coords, map(type, coords))):
            _check_coordinates(self.q, (c,))
        doc = {
            "version": CERTIFICATE_VERSION,
            "construction": self.construction_id,
            "q": self.q,
            "modulus": list(ctx.modulus),
            "parameters": self.parameters,
            "size": self.size,
            "claimed_size": self.claimed_size,
            "points": None,
            "verified": self.verified,
        }
        if self.extension is not None:
            doc["extension"] = self.extension
        head, tail = json.dumps(doc, indent=2, sort_keys=True).split(
            '\n  "points": null,', 1)
        cell = ["[\n        " + ",\n        ".join(map(str, ctx.coeffs(c)))
                + "\n      ]" for c in range(ctx.q)]
        points = ",\n    ".join([
            f"[\n      {cell[x]},\n      {cell[y]},\n      {cell[z]}\n    ]"
            for x, y, z in self.points])
        points = f"[\n    {points}\n  ]" if points else "[]"
        return f'{head}\n  "points": {points},{tail}'


def _certify(cert, plane, counted=None):
    """Set cert.verified, or raise VerificationError: cert.points must
    have no duplicates (checked first: a repeated absolute point would read
    as a conjugate pair), pass point_set_independent (given counted) and
    number the claimed size."""
    if len(set(cert.points)) != len(cert.points):
        raise VerificationError(f"{cert.construction_id}: duplicate points")
    pair = point_set_independent(plane, cert.points, counted)
    if pair is not None:
        raise VerificationError(
            f"{cert.construction_id}: conjugate pair {pair}")
    if len(cert.points) != cert.claimed_size:
        raise VerificationError(
            f"{cert.construction_id}: built {len(cert.points)} points, "
            f"formula gives {cert.claimed_size}")
    cert.verified = {"independent": True, "size_matches": True}


# ---------------------------------------------------------------------------
# q odd square: orbit census and the two coclique families
# ---------------------------------------------------------------------------

CENSUS_CONIC = "conic"
CENSUS_EXTERNAL_TANGENT = "external-tangent"
CENSUS_EXTERNAL = "external"
CENSUS_INTERNAL = "internal"
# (point class, on a tangent to the Baer conic) -> census label; conic and
# internal points off the Baer subplane lie on no such tangent
_CENSUS_LABELS = {
    (ABSOLUTE, False): CENSUS_CONIC,
    (EXTERNAL, True): CENSUS_EXTERNAL_TANGENT,
    (EXTERNAL, False): CENSUS_EXTERNAL,
    (INTERNAL, False): CENSUS_INTERNAL,
}


@dataclass
class OrbitCensus:
    """Orbits of the Baer-conic stabilizer on points off the Baer subplane."""

    q: int
    entries: list  # (class label, orbit size, multiplicity), aggregated

    def expected(self):
        r = math.isqrt(self.q)
        half = (self.q * r - r) // 2
        return sorted([
            (CENSUS_CONIC, self.q - r, 1),
            (CENSUS_EXTERNAL_TANGENT, self.q * r - r, 1),
            (CENSUS_EXTERNAL, half, r - 2),
            (CENSUS_INTERNAL, half, r),
        ])

    def matches_expected(self):
        return sorted(self.entries) == self.expected()


def _odd_square_field(q):
    ctx = field_for_order(q)
    if ctx.p == 2 or ctx.n % 2:
        raise ValueError(f"q = {q} is not an odd square")
    return ctx


def orbit_census_odd_square(q) -> OrbitCensus:
    """Decompose PG(2,q) minus the Baer subplane under the lifted
    PGL(2, sqrt q) and label each orbit by the conic point class of its
    points and, for external points, by whether they lie on a tangent
    to the Baer conic.  VerificationError unless all members of an
    orbit have one label."""
    ctx, plane, pol = _plane_context(_odd_square_field(q))
    baer = set(map(plane.index_of, plane.baer_points()))
    # Tangent lines to the Baer conic: polars of the conic points inside B.
    tangent = set()
    for R in pol.absolute_points():
        if plane.index_of(R) in baer:
            tangent.update(plane.line_point_indices(pol.polar_line(R)))
    classes = pol.point_classes()
    counts = Counter()
    off_baer = (i for i in range(plane.size) if i not in baer)
    for orb in orbits(plane, baer_stabilizer_matrices(ctx), off_baer):
        # the members' census labels: one (class, on a tangent) pair
        kinds = {(classes[j], j in tangent) for j in orb}
        label = _CENSUS_LABELS.get(kinds.pop()) if len(kinds) == 1 else None
        if label is None:
            raise VerificationError(
                f"orbit of {plane.point(orb[0])} has no single census label")
        counts[label, len(orb)] += 1
    entries = [(label, size, mult) for (label, size), mult in counts.items()]
    total = sum(size * mult for _, size, mult in entries)
    if total != plane.size - len(baer):
        raise VerificationError("census does not cover PG(2,q) \\ B")
    return OrbitCensus(q, sorted(entries))


def _conic_plus_orbit(q, construction_id, matrices, arrange):
    """Certificate for the conic plus the orbit of the internal point
    (1, 0, w), w the first nonsquare, under the group generated by
    matrices(ctx); arrange puts the orbit's indices in order."""
    claimed = _claimed_size(q, construction_id)
    expected_orbit = claimed - q - 1
    ctx, plane, pol = _plane_context(field_for_order(q))
    w = ctx.find_nonsquare()
    base = (1, 0, w)
    if pol.classify(base) != INTERNAL:
        raise VerificationError("base point (1,0,w) must be internal")
    orb = arrange(matrix_orbit(plane, matrices(ctx), plane.index_of(base)))
    if len(orb) != expected_orbit:
        raise VerificationError(f"orbit size {len(orb)} != {expected_orbit}")
    cert = Certificate(
        construction_id=construction_id, q=ctx.q,
        parameters={"w": w},
        points=pol.absolute_points() + list(map(plane.point, orb)),
        claimed_size=claimed)
    _certify(cert, plane)
    return cert


def coclique_odd_sq_neg(q) -> Certificate:
    """Conic plus a stabilizer orbit of an internal point, in BFS order;
    needs sqrt(q) = -1 mod 4."""
    return _conic_plus_orbit(q, "odd_sq_neg", baer_stabilizer_matrices,
                             list)


def k_matrices(ctx) -> list:
    """Generators of the group K of order q(sqrt q + 1), as 3x3 matrices:
    the lifts of t -> a*t + c with a of norm 1, i.e. the conic stabilizers
    [[a^2, 2ac, c^2], [0, a, c], [0, 0, 1]].

    Two suffice: t -> zeta*t, zeta = g^(sqrt q - 1), and t -> t + 1.
    Conjugating the translation by the k-th power of the first gives
    t -> t + zeta^k, so K holds t -> t + c for every c in the additive
    span of the powers of zeta, which is GF(p)[zeta].  zeta has order
    sqrt q + 1, more than the p^d - 1 units of any proper subfield GF(p^d)
    (d <= n/2), so GF(p)[zeta] = GF(q) and every translation is in K.
    """
    zeta = ctx.pow(ctx.generator, ctx.sqrt_q() - 1)
    return [conic_stabilizer_matrix(ctx, a, c, 0, 1)
            for a, c in [(zeta, 0), (1, 1)]]


def coclique_odd_sq_pos(q) -> Certificate:
    """Conic plus a K-orbit of an internal point, in index order; needs
    sqrt(q) = 1 mod 4."""
    return _conic_plus_orbit(q, "odd_sq_pos", k_matrices, sorted)


def internal_k_orbits(q):
    """All K-orbits on internal points, as point lists in index order."""
    ctx, plane, pol = _plane_context(_odd_square_field(q))
    internal = (i for i, cls in enumerate(pol.point_classes())
                if cls == INTERNAL)
    return [list(map(plane.point, sorted(orb)))
            for orb in orbits(plane, k_matrices(ctx), internal)]


# ---------------------------------------------------------------------------
# q even: trace-zero sets, Denniston arcs, cocliques, triangle-free sets
# ---------------------------------------------------------------------------

def _even_field(q):
    ctx = field_for_order(q)
    if ctx.p != 2:
        raise ValueError(f"q = {q} is not even")
    return ctx


def trace_zero_set(q) -> list:
    """A GF(2)-subspace N of GF(q) with Tr(x*y) = 0 for all x, y in N.

    For q = 2^n with n odd, N has size 2^((n-1)/2) and is built by greedy
    basis extension inside the trace-zero hyperplane, totally isotropic
    for the bilinear form (x, y) -> Tr(x*y).  For n even the embedded
    subfield GF(sqrt q) is returned (its pairwise products lie in the
    subfield, where the trace vanishes).
    """
    ctx = _even_field(q)
    n = ctx.n
    if n % 2 == 0:
        return sorted(ctx.embed_subfield(x) for x in ctx.subfield().elements())
    dim = (n - 1) // 2
    basis = []
    span = {0}
    for x in range(1, q):
        if len(basis) == dim:
            break
        if x in span or ctx.abs_trace(x):
            continue
        if any(ctx.abs_trace(ctx.mul(x, b)) for b in basis):
            continue
        if ctx.abs_trace(ctx.mul(x, x)):
            continue
        basis.append(x)
        span |= {s ^ x for s in span}
    if len(basis) != dim:
        raise VerificationError("isotropic basis extension fell short")
    N = sorted(span)
    for x in N:
        for y in N:
            if ctx.abs_trace(ctx.mul(x, y)):
                raise VerificationError("pairwise trace-zero property failed")
    return N


def pencil_conics(plane, alpha, lams):
    """Points of the pencil conics X2^2 + X2*X3 + alpha*X3^2 + lam*X1^2 = 0,
    one list in index order per lam in lams, from one scan of the plane.

    A point (1, y, z) lies on exactly one conic of the pencil, the one with
    lam = -(y^2 + y*z + alpha*z^2); a point with x1 = 0 lies on all of them
    or on none.  Row y of the chart is y^2 + y*z plus alpha*z^2 over all z.
    An alpha or a lam outside GF(q) raises ValueError.
    """
    f, q = plane.ctx, plane.q
    lams = list(lams)
    _check_coordinates(q, (alpha, *lams))
    found = {f.neg(lam): [] for lam in lams}  # -lam -> points of conic lam
    common = [(0, 0, 1)] if not alpha else []  # the form is alpha there
    squares = [f.mul(y, y) for y in range(q)]
    alpha_squares = [f.mul(alpha, s) for s in squares]
    for y in range(q):
        form = list(map(f.add, f.affine_values(squares[y], y), alpha_squares))
        if y == 1:  # the form at (0, 1, z) is the form at (1, 1, z)
            common += [(0, 1, z) for z, v in enumerate(form) if not v]
        for z, v in enumerate(form):
            conic = found.get(v)
            if conic is not None:
                conic.append((1, y, z))
    return [common + found[f.neg(lam)] for lam in lams]


@dataclass
class MaximalArc:
    degree: int
    points: list
    subgroup: list  # the additive subgroup of pencil parameters
    alpha: int
    trace_zero_set: list  # N, the pencil parameters are {x^2 : x in N}
    plane: ProjectivePlane = field(repr=False)
    line_counts: list = field(repr=False)  # _line_counts(plane, counted)
    counted: tuple = field(repr=False)  # the points as counted


def denniston_arc(q) -> MaximalArc:
    """Union of pencil conics over the group {x^2 : x in trace_zero_set(q)}.

    Verifies both the point count (degree-1)*q + degree and the defining
    line-intersection property (every line meets the arc in 0 or degree
    points).
    """
    ctx = _even_field(q)
    N = trace_zero_set(q)
    A = sorted({ctx.mul(x, x) for x in N})
    for a in A:
        for b in A:
            if (a ^ b) not in A:  # char-2 addition is xor on encodings
                raise VerificationError("pencil parameter set is not a group")
    alpha = ctx.find_trace_one()
    plane = ProjectivePlane(ctx)
    # normalized triples sort in index order
    pts = sorted([pt for conic in pencil_conics(plane, alpha, A)
                  for pt in conic])
    if len(set(pts)) != len(pts):
        raise VerificationError("pencil conics are not disjoint")
    degree = len(A)
    if len(pts) != (degree - 1) * q + degree:
        raise VerificationError(
            f"arc has {len(pts)} points, expected {(degree - 1) * q + degree}")
    counts = _line_counts(plane, pts)
    if not set(counts) <= {0, degree}:
        j = next(j for j, hits in enumerate(counts) if hits not in (0, degree))
        raise VerificationError(
            f"line {plane.point(j)} meets arc in {counts[j]} points")
    return MaximalArc(degree=degree, points=pts, subgroup=A, alpha=alpha,
                      trace_zero_set=N, plane=plane, line_counts=counts,
                      counted=tuple(pts))


def coclique_even(q) -> Certificate:
    """Denniston-arc coclique for q = 2^n, n odd, plus an extension report.

    The extension report counts the points off the arc whose polar line
    misses it (exactly sqrt(q/2)*(q+1) of them), none adjacent to the arc,
    and adds them greedily in index order: each one not yet marked is
    taken and marks its polar line, its neighbours, in a bytearray.
    """
    claimed = _claimed_size(q, "even_arc")
    arc = denniston_arc(q)
    plane, pol = arc.plane, Polarity(arc.plane)
    half = arc.degree  # sqrt(q/2)
    cert = Certificate(
        construction_id="even_arc", q=q,
        parameters={"trace_zero_set": arc.trace_zero_set,
                    "pencil_subgroup": arc.subgroup, "alpha": arc.alpha},
        points=arc.points, claimed_size=claimed)
    _certify(cert, plane, (arc.counted, arc.line_counts))
    polar = pol.polar_indices()
    marked = bytearray(len(polar))  # the arc, then the taken's neighbours
    for pt in arc.points:
        marked[plane.index_of(pt)] = 1
    candidates = [i for i, j in enumerate(polar)
                  if not marked[i] and not arc.line_counts[j]]
    taken = 0
    for i in candidates:
        if not marked[i]:
            taken += 1
            for j in plane.line_point_indices(plane.point(polar[i])):
                marked[j] = 1
    cert.extension = {
        "candidate_count": len(candidates),
        "expected_candidates": half * (q + 1),
        "greedy_size": len(arc.points) + taken,
    }
    if len(candidates) != half * (q + 1):
        raise VerificationError(
            f"extension candidates {len(candidates)} != {half * (q + 1)}")
    return cert


def even_square_arc_coclique(q) -> Certificate:
    """Degree-sqrt(q) subfield Denniston arc coclique for even square q."""
    claimed = _claimed_size(q, "even_sq_subfield_arc")
    arc = denniston_arc(q)  # over the embedded subfield
    cert = Certificate(
        construction_id="even_sq_subfield_arc", q=q,
        parameters={"pencil_subgroup": arc.subgroup, "alpha": arc.alpha},
        points=arc.points, claimed_size=claimed)
    _certify(cert, arc.plane, (arc.counted, arc.line_counts))
    return cert


@dataclass
class TriangleFreeSet:
    q: int
    lam: int
    points: list
    plane: ProjectivePlane = field(repr=False)

    @property
    def size(self):
        return len(self.points)


def triangle_free_set(q) -> TriangleFreeSet:
    """The q(q+1)/2 points off the absolute line whose polar line is secant
    to the pencil conic of lam^2, lam the least nonzero trace-zero element."""
    ctx = _even_field(q)
    lam = next((x for x in range(1, q) if ctx.abs_trace(x) == 0), None)
    if lam is None:
        raise ValueError("no nonzero trace-zero element (q = 2)")
    _, plane, pol = _plane_context(ctx)
    alpha = ctx.find_trace_one()
    conic = pencil_conics(plane, alpha, [ctx.mul(lam, lam)])[0]
    counts = _line_counts(plane, conic)
    classes, polar = pol.point_classes(), pol.polar_indices()
    pts = [plane.point(i) for i in range(plane.size)
           if classes[i] != ABSOLUTE and counts[polar[i]] == 2]
    if len(pts) != q * (q + 1) // 2:
        raise VerificationError(
            f"triangle-free set has {len(pts)} points, "
            f"expected {q * (q + 1) // 2}")
    return TriangleFreeSet(q=q, lam=lam, points=pts, plane=plane)


def triangle_free_certificate(q):
    """(certificate, girth) for triangle_free_set(q).

    The induced subgraph must be symmetric (AssertionError otherwise), and
    q/2-regular and of girth at least 5 (VerificationError otherwise).
    Girth at least 5 carries the triangle-free claim: a triangle is a
    cycle of length 3, so no triangle count is made besides.
    """
    tfs = triangle_free_set(q)
    sub = induced_on_points(tfs.plane, tfs.points)
    sub.check_symmetric()
    girth = sub.girth()
    if not sub.is_regular(q // 2) or girth < 5:
        raise VerificationError("triangle-free verification failed")
    cert = Certificate(
        construction_id="triangle_free", q=q,
        parameters={"lambda": tfs.lam}, points=tfs.points,
        claimed_size=q * (q + 1) // 2,
        verified={"triangle_free": True, "regular": True,
                  "girth_at_least_5": True, "size_matches": True})
    return cert, girth


def _family(q):
    """(construction id, lower, upper, note) of alpha_bounds, from the one
    place where q's parity, squareness and sqrt(q) mod 4 pick the
    coclique family.  The id is None where the note is not empty."""
    p, n = factor_prime_power(q)
    r = math.isqrt(q)
    upper = math.isqrt((q + 1) ** 2 * q) + 1
    if q == 2:  # Denniston's formula gives 1; there is no arc
        return None, 1, upper, "trivial, not constructed"
    if p == 2 and n % 2:
        h = math.isqrt(q // 2)  # q / 2 is an even power of 2
        return "even_arc", h * q - q + h, upper, ""
    if p == 2:  # a maximal arc of degree sqrt q, within 1 of the bound
        return "even_sq_subfield_arc", r * q - q + r, r * q - q + r + 1, ""
    if n % 2:
        lower = math.isqrt(14400 * q ** 3 // 73 ** 3)
        return None, lower, upper, "reported, not constructed"
    if r % 4 == 3:
        return "odd_sq_neg", (q * r - r) // 2 + q + 1, upper, ""
    return "odd_sq_pos", (q * r + q) // 2 + q + 1, upper, ""


def alpha_bounds(q):
    """Known (lower, upper, note) bounds on alpha(ER_q), in integers.

    upper is floor(q^{3/2} + q^{1/2}) + 1, or q^{3/2} - q + sqrt(q) + 1 for
    even square q; lower is the construction size, or the reported
    floor(120 q^{3/2} / 73^{3/2}) for odd non-square q.  note is empty
    where lower is constructed, and says why where it is not: odd
    non-square q, and q = 2.  ValueError if q is not a prime power.
    """
    return _family(q)[1:]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_NOT_BUILT = {  # alpha_bounds note -> why auto_construction_id has no id
    "trivial, not constructed": "q = {} is not an odd power of 2 with n >= 3",
    "reported, not constructed":
        "q = {}: no coclique construction here for odd non-square q",
}


def auto_construction_id(q):
    """Construction selected for q by _family.

    ValueError for the q without a coclique construction: odd non-square
    q, and q = 2.
    """
    construction_id, _, _, note = _family(q)
    if construction_id is None:
        raise ValueError(_NOT_BUILT[note].format(q))
    return construction_id


def _claimed_size(q, construction_id):
    """Size construction_id claims at q; ValueError if q selects another."""
    selected = auto_construction_id(q)
    if selected != construction_id:
        raise ValueError(f"q = {q} selects {selected}, not {construction_id}")
    return _family(q)[1]


BUILDERS = {
    "odd_sq_neg": coclique_odd_sq_neg,
    "odd_sq_pos": coclique_odd_sq_pos,
    "even_arc": coclique_even,
    "even_sq_subfield_arc": even_square_arc_coclique,
}


def build_coclique(q) -> Certificate:
    """The certified coclique of the family that q selects."""
    return BUILDERS[auto_construction_id(q)](q)
