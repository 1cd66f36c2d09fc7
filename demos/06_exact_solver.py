"""Exact maximum independent sets by branch and bound.

For small q the solver certifies alpha(ER_q) outright; for larger q it is
seeded with a constructed coclique and reports how far the search got
within its node budget.
"""

from erpg import constructions as cons
from erpg import graphs as gr
from erpg.constructions import alpha_bounds
from erpg.field import field_for_order
from erpg.plane import ProjectivePlane
from erpg.polarity import build_er_graph

for q in (2, 3, 4, 5):
    g = build_er_graph(ProjectivePlane(field_for_order(q)))
    res = gr.max_independent_set(g)
    lower, upper, _ = alpha_bounds(q)
    print(f"q={q}: alpha(ER_{q}) = {res.size} ({res.status}, "
          f"{res.nodes} nodes), bounds [{lower}, {upper}]")

q = 9
plane = ProjectivePlane(field_for_order(q))
g = build_er_graph(plane)
seed = [plane.index_of(P) for P in cons.build_coclique(q).points]
res = gr.max_independent_set(g, gr.SolveBudget(max_nodes=20_000),
                             initial=seed)
print(f"\nq={q}, budget 20k nodes, seeded with the size-{len(seed)} "
      f"construction: best {res.size} ({res.status})")
res = gr.max_independent_set(g, gr.SolveBudget(max_nodes=5_000_000),
                             initial=seed)
print(f"q={q}, budget 5M nodes: best {res.size} ({res.status})")
