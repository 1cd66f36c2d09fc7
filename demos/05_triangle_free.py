"""Triangle-free induced subgraphs and the triangle hypergraph, q even.

Taking the points off the absolute line whose polar line is secant to a
fixed trace-zero conic gives q(q+1)/2 vertices inducing a q/2-regular
subgraph of ER_q with girth at least 5.
"""

from erpg import constructions as cons
from erpg import hypergraph as hg

for q in (4, 8, 16):
    cert, girth = cons.triangle_free_certificate(q)
    print(f"q={q:>2}: {cert.size} vertices, "
          f"{cert.size * (q // 2) // 2} edges ({q // 2}-regular), "
          f"girth {girth}, verified {cert.verified}")

q = 8
h = hg.build_hypergraph(q)
print(f"\ntriangle hypergraph H_{q}: {len(h.vertices)} vertices, "
      f"{h.num_edges()} edges (= q(q^2-1)/6)")
print("linear (no two edges share two vertices): checked exactly by "
      "build_hypergraph")
print("a set of non-absolute points holds no edge exactly when it induces "
      "a triangle-free subgraph, so the sets above are independent in H_q")
r = hg.mw_bound_report(q)
print(f"independence bounds for H_{q}: "
      f"lower {r['lower']}, upper ~ {r['upper_leading']:.0f} + O(q)")
