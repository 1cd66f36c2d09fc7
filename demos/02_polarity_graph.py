"""The polarity graph ER_q.

Vertices are the points of PG(2,q); two distinct points are adjacent when
one lies on the polar line of the other.  The graph has q(q+1)^2/2 edges
and q(q^2-1)/6 triangles, is C4-free, and the q+1 absolute points are
exactly the vertices of degree q.
"""

from collections import Counter

from erpg import graphs as gr
from erpg.field import field_for_order
from erpg.plane import ProjectivePlane
from erpg.polarity import Polarity, build_er_graph

for q in (3, 4, 9):
    plane = ProjectivePlane(field_for_order(q))
    pol = Polarity(plane)
    g = build_er_graph(plane)
    degs = Counter(g.degree(v) for v in range(g.n))
    print(f"q={q:>2} ({pol.kind:>10} polarity): n={g.n}, m={g.num_edges()}, "
          f"degrees {dict(degs)}, "
          f"triangles {g.triangle_count()} (= q(q^2-1)/6)")

plane = ProjectivePlane(field_for_order(3))
g = build_er_graph(plane)
print(f"\nER_3 as graph6: {gr.to_graph6(g).decode()}")
print("ER_3 as DIMACS, first lines:")
for row in gr.to_dimacs(g).decode().splitlines()[:4]:
    print(f"  {row}")

pol = Polarity(plane)
print(f"\nclassification of the 13 points of PG(2,3): "
      f"{Counter(map(pol.classify, map(plane.point, range(plane.size))))}")
