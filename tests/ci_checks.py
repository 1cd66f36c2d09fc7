"""Checks the CI workflow runs outside pytest, under python and python -O.

    erpg graph --q 27 --format FMT --out er27.FMT  # FMT: graph6, dimacs, csv
    python tests/ci_checks.py round-trip
    python tests/ci_checks.py builder-oracle
    python tests/ci_checks.py certificate-json
    python tests/ci_checks.py even-extension
    python tests/ci_checks.py solver-tree
    python tests/ci_checks.py girth
    python tests/ci_checks.py polar-table
    python tests/ci_checks.py field-maps

A failed check raises SystemExit, not an assert, so each one also holds
under python -O.  The file name does not match test_*.py, so pytest does
not collect it.
"""

import random
import sys

from erpg import graphs as gr
from erpg.constructions import (build_coclique, coclique_even, denniston_arc,
                                 induced_on_points, triangle_free_set)
from erpg.field import field_for_order
from erpg.hypergraph import build_hypergraph
from erpg.plane import ProjectivePlane, _check_matrix, collineation
from erpg.polarity import Polarity, _plane_rows, _polar_rows, build_er_graph

from reference import (affine_values_reference, certificate_json_reference,
                       collineation_reference, field_op_cases, field_ops,
                       field_ops_reference, girth_reference, greedy_extend,
                       max_independent_set_reference, plane_points,
                       random_graph)


def round_trip():
    """Each er27.* file in the working directory must decode to ER_27 and
    encode again to the same bytes.  Copies of the DIMACS and CSV files
    with CRLF line ends, or with a comment or blank line put in halfway,
    must decode to ER_27 too: their blocks are read by the line loop, not
    in one step."""
    g = build_er_graph(ProjectivePlane(field_for_order(27)))
    for fmt, read in (("graph6", gr.from_graph6), ("dimacs", gr.from_dimacs),
                      ("csv", lambda d: gr.from_edgelist_csv(d, n=g.n))):
        with open(f"er27.{fmt}", "rb") as fh:
            data = fh.read()
        if read(data) != g or gr.export(g, fmt) != data:
            raise SystemExit(f"er27.{fmt} does not round-trip")
        if fmt != "graph6":
            half = data.index(b"\n", len(data) // 2) + 1
            extra = b"c put in\n" if fmt == "dimacs" else b"\n"
            for copy in (data.replace(b"\n", b"\r\n"),
                         data[:half] + extra + data[half:]):
                if read(copy) != g:
                    raise SystemExit(f"a rewritten er27.{fmt} reads wrong")


def builder_oracle():
    """The whole-plane builder of ER_q rows against the point-list builder
    at q too large for Tier-1 (the point-list one takes seconds at
    q = 256)."""
    for q in (125, 128, 243, 256):
        pl = ProjectivePlane(field_for_order(q))
        if _plane_rows(pl) != _polar_rows(pl, plane_points(pl)):
            raise SystemExit(f"the two ER_{q} row builders differ")


def certificate_json():
    """Certificate.to_json against the stdlib json writer at q beyond
    Tier-1."""
    for q in (169, 256):
        cert = build_coclique(q)
        if cert.to_json() != certificate_json_reference(cert):
            raise SystemExit(f"the q = {q} certificate JSON differs")


def even_extension():
    """coclique_even's extension report, from its walk that marks polar
    lines, against the greedy extension on the rows induced on the arc
    and its candidates, at q beyond Tier-1.  The rows also show that the
    arc is independent and that no candidate is adjacent to it."""
    for q in (128, 512):
        arc = denniston_arc(q)
        plane, pol, k = arc.plane, Polarity(arc.plane), len(arc.points)
        on_arc = set(arc.points)
        candidates = [pt for pt in plane_points(plane) if pt not in on_arc
                      and not arc.line_counts[plane.index_of(
                          pol.polar_line(pt))]]
        sub = induced_on_points(plane, arc.points + candidates)
        if any(row & ((1 << k) - 1) for row in sub.adj):
            raise SystemExit(f"the q = {q} arc has a neighbour in the rows")
        extended = greedy_extend(sub, range(k), range(k, sub.n))
        expected = {"candidate_count": len(candidates),
                    "expected_candidates": arc.degree * (q + 1),
                    "greedy_size": len(extended)}
        if coclique_even(q).extension != expected:
            raise SystemExit(f"the q = {q} extension differs from the rows'")


def solver_tree():
    """The solver, which closes most cliques of its cover with one `&` from
    a pair table, against the reference, which grows every clique vertex
    by vertex, node for node on graphs larger than Tier-1's: unseeded ER_11
    and ER_13, and three draws of G(150, 0.05)."""
    cases = [(f"ER_{q}", build_er_graph(ProjectivePlane(field_for_order(q))),
              (1000, 200_000)) for q in (11, 13)]
    rng = random.Random(150)
    cases += [(f"G(150, 0.05) draw {i}", random_graph(150, 0.05, rng),
               (50_000,)) for i in range(3)]
    for name, g, budgets in cases:
        for max_nodes in budgets:
            budget = gr.SolveBudget(max_nodes)
            res = gr.max_independent_set(g, budget)
            ref = max_independent_set_reference(g, budget)
            if (res.size, res.vertices, res.status, res.nodes) != (
                    ref.size, ref.vertices, ref.status, ref.nodes):
                raise SystemExit(f"the solver's tree on {name} differs from "
                                 f"the reference's at {max_nodes} nodes")


def girth():
    """Graph.girth, which looks for 3- and 4-cycles by a local pass before
    its BFS, against the reference BFS at sizes beyond Tier-1: the q = 64
    triangle-free subgraph (girth 5, the BFS stops at its first 5-cycle)
    and the vertex-edge incidence graph of the triangle hypergraph H_16
    (girth 10, so the BFS searches on past length 5)."""
    tfs = triangle_free_set(64)
    h = build_hypergraph(16)
    n = 16 * 16 + 16 + 1  # vertices are point indices of PG(2, 16)
    cases = [("the q = 64 triangle-free subgraph",
              induced_on_points(tfs.plane, tfs.points), 5),
             ("the H_16 incidence graph", gr.Graph.from_edges(
                 n + h.num_edges(),
                 [(v, n + i) for i, e in enumerate(h.edges) for v in e]), 10)]
    for name, g, expected in cases:
        if not g.girth() == girth_reference(g) == expected:
            raise SystemExit(f"the girth of {name} differs from the "
                             f"reference's or from {expected}")


def polar_table():
    """The pseudo polarity's polar_indices(), made by index arithmetic,
    against the collineation of its matrix at q beyond Tier-1."""
    for q in (256, 1024):
        pl = ProjectivePlane(field_for_order(q))
        swap = collineation(pl, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))
        if Polarity(pl).polar_indices() != swap:
            raise SystemExit(f"the q = {q} polar table differs from the "
                             "collineation's")


def field_maps():
    """affine_values, from byte tables up to q = 256 and from list windows
    beyond, against digit-wise addition at q = 256, 257 and 512;
    collineations, which divide through the field's log/exp tables,
    against per-point mul and inv at q = 243 and 256; and the scalar
    operations against polynomial products and digit sums at the largest
    fields, q = 2^16 and 3^10."""
    for q in (256, 257, 512):
        f = field_for_order(q)
        rng = random.Random(q)
        pairs = [(u, v) for u in (0, 1, q - 1) for v in (0, 1, q - 1)]
        pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(200)]
        for u, v in pairs:
            if f.affine_values(u, v) != affine_values_reference(f, u, v):
                raise SystemExit(f"affine_values({u}, {v}) differs at q = {q}")
    for q in (243, 256):
        pl = ProjectivePlane(field_for_order(q))
        rng = random.Random(q)
        done = 0
        while done < 4:
            m = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
            try:
                _check_matrix(pl.ctx, m)
            except ValueError:  # singular
                continue
            if collineation(pl, m) != collineation_reference(pl, m):
                raise SystemExit(f"the collineation of {m} differs from "
                                 f"the reference's at q = {q}")
            done += 1
    for q in (2 ** 16, 3 ** 10):
        f = field_for_order(q)
        for a, b, e in field_op_cases(q, 100):
            if field_ops(f, a, b, e) != field_ops_reference(f, a, b, e):
                raise SystemExit(f"the field operations on {(a, b, e)} "
                                 f"differ from the reference's at q = {q}")


CHECKS = {"round-trip": round_trip, "builder-oracle": builder_oracle,
          "certificate-json": certificate_json,
          "even-extension": even_extension, "solver-tree": solver_tree,
          "girth": girth, "polar-table": polar_table,
          "field-maps": field_maps}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CHECKS:
        raise SystemExit(f"usage: ci_checks.py {{{','.join(CHECKS)}}}")
    CHECKS[sys.argv[1]]()
