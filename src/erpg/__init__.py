"""Polarity graphs of finite projective planes.

Construction and certification of large independent sets and
triangle-free induced subgraphs of the polarity graph ER_q of PG(2,q),
with exact finite-field arithmetic, a bitset graph core, an exact
branch-and-bound independence solver, and graph6/DIMACS/CSV export.
"""

from .field import FieldCtx, field_for_order, make_field
from .plane import ProjectivePlane, conic_stabilizer_lift, orbit
from .polarity import Polarity, build_er_graph
from .graphs import (Graph, MISResult, SolveBudget, export, from_dimacs,
                     from_edgelist_csv, from_graph6, greedy_extend,
                     max_independent_set, to_dimacs, to_edgelist_csv,
                     to_graph6)
from .constructions import (Certificate, MaximalArc, OrbitCensus,
                            TriangleFreeSet, alpha_bounds, build_coclique,
                            coclique_even, coclique_odd_sq_neg,
                            coclique_odd_sq_pos, denniston_arc,
                            even_square_arc_coclique, induced_on_points,
                            orbit_census_odd_square, trace_zero_set,
                            triangle_free_certificate, triangle_free_set)
from .hypergraph import (TriangleHypergraph, build_hypergraph,
                         hyper_independent, mw_bound_report)

__version__ = "0.1.0"
