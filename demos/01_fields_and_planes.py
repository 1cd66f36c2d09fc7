"""Finite fields and the projective plane PG(2,q).

Field elements are plain ints in [0, q): the base-p digits of the int are
the polynomial coefficients, low degree first.  The plane's points are
normalized homogeneous triples of such ints.
"""

from erpg.field import field_for_order
from erpg.plane import ProjectivePlane

f = field_for_order(9)
print(f"GF(9) = GF(3^2), modulus coefficients {f.modulus}")
print(f"  3 * 5 = {f.mul(3, 5)},  inv(7) = {f.inv(7)},  7^8 = {f.pow(7, 8)}")
print(f"  squares: {[a for a in f.elements() if f.is_square(a)]}")

sub = f.subfield()
embedded = sorted(f.embed_subfield(x) for x in sub.elements())
print(f"  GF(3) embeds as {embedded}")
print(f"  norm of 5 down to GF(3): {f.norm_to_subfield(5)}")

plane = ProjectivePlane(f)
print(f"\nPG(2,9): {plane.size} points, {plane.size} lines")
print(f"  first five points: {[plane.point(i) for i in range(5)]}")
line = plane.line_through((1, 0, 0), (0, 1, 0))
print(f"  line through (1,0,0) and (0,1,0): {line}, "
      f"{len(plane.line_points(line))} points on it")
print(f"  Baer subplane of order 3 has "
      f"{len(plane.baer_points())} points")
