"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and records a single
PASS/FAIL line, echoed both inline and in the terminal summary so the
lines always appear in the run log.  Values are exact; no tolerances.
"""

import random
import time

from conftest import ACCEPTANCE_LINES

from erpg import constructions as cons
from erpg import graphs as gr
from erpg import hypergraph as hg
from erpg.field import field_for_order
from erpg.plane import ProjectivePlane
from erpg.polarity import ABSOLUTE, Polarity, build_er_graph

from reference import (alpha_exact, alpha_subset_scan, c4_pair,
                       conic_polar_disjointness, random_graph)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {criterion}: {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_odd_neg_cocliques():
    t0 = time.monotonic()
    expected = {9: 22, 49: 218, 121: 782}
    got = {}
    for q in (9, 49, 121):
        cert = cons.coclique_odd_sq_neg(q)
        assert cert.verified["independent"]
        got[q] = cert.size
    elapsed = time.monotonic() - t0
    ok = got == expected and elapsed < 10
    report(1, ok, f"odd sq, sqrt(q) = 3 mod 4: sizes {got} "
                  f"({elapsed:.1f}s)")


def test_criterion_2_odd_pos_cocliques():
    t0 = time.monotonic()
    expected = {25: 101, 81: 487}
    got = {}
    for q in (25, 81):
        cert = cons.coclique_odd_sq_pos(q)
        assert cert.verified["independent"]
        got[q] = cert.size
    elapsed = time.monotonic() - t0
    ok = got == expected and elapsed < 10
    report(2, ok, f"odd sq, sqrt(q) = 1 mod 4: sizes {got} "
                  f"({elapsed:.1f}s)")


def test_criterion_3_even_arcs():
    t0 = time.monotonic()
    expected = {8: (2, 10), 32: (4, 100), 128: (8, 904)}
    got = {}
    for q in (8, 32, 128):
        # denniston_arc checks the 0-or-degree line intersection property
        # over every line of the plane before returning
        arc = cons.denniston_arc(q)
        cert = cons.coclique_even(q)
        assert cert.verified["independent"]
        got[q] = (arc.degree, cert.size)
    elapsed = time.monotonic() - t0
    ok = got == expected and elapsed < 60
    report(3, ok, f"even arcs (degree, size) {got} ({elapsed:.1f}s)")


def test_criterion_4_extension_candidates():
    got = {q: cons.coclique_even(q).extension["candidate_count"]
           for q in (8, 32)}
    ok = got == {8: 18, 32: 132}
    report(4, ok, f"disjoint-polar-line candidate counts {got}")


def test_criterion_5_orbit_census():
    c9 = cons.orbit_census_odd_square(9)
    c25 = cons.orbit_census_odd_square(25)
    ok = (c9.matches_expected() and c25.matches_expected()
          and c9.entries == [("conic", 6, 1), ("external", 12, 1),
                             ("external-tangent", 24, 1), ("internal", 12, 3)]
          and c25.entries == [("conic", 20, 1), ("external", 60, 3),
                              ("external-tangent", 120, 1),
                              ("internal", 60, 5)])
    report(5, ok, f"census q=9 {c9.entries}; q=25 {c25.entries}")


def test_criterion_6_triangle_free():
    t0 = time.monotonic()
    ok = True
    sizes = {}
    for q in (4, 8, 16, 32, 64):
        plane = ProjectivePlane(field_for_order(q))
        pol = Polarity(plane)
        tfs = cons.triangle_free_set(q)
        sub = cons.induced_on_points(plane, tfs.points)
        sizes[q] = tfs.size
        ok &= tfs.size == q * (q + 1) // 2
        ok &= all(pol.classify(P) != ABSOLUTE for P in tfs.points)
        ok &= sub.triangle_count() == 0
        ok &= sub.is_regular(q // 2)
        if q <= 16:
            ok &= sub.girth() >= 5
        else:
            # no triangles plus no common-neighbor pairs rules out all
            # cycles of length < 5
            ok &= c4_pair(sub) is None
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120
    report(6, ok, f"triangle-free sets, sizes {sizes}, girth >= 5 "
                  f"({elapsed:.1f}s)")


def test_criterion_7_hypergraph_edge_counts():
    got = {q: hg.build_hypergraph(q).num_edges() for q in (3, 4, 5, 7, 8)}
    expected = {q: q * (q * q - 1) // 6 for q in (3, 4, 5, 7, 8)}
    report(7, got == expected, f"hypergraph edge counts {got}")


def test_criterion_8_algebraic_property_suites():
    counterexamples = 0
    # squares upstairs are exactly the elements whose subfield norm is square
    for q in (9, 25, 49, 81):
        f = field_for_order(q)
        sub = f.subfield()
        counterexamples += sum(
            sub.is_square(f.norm_to_subfield(a)) != f.is_square(a)
            for a in f.elements())
    # norm-one elements a (sqrt(q) = 1 mod 4) have a^2 + 1 square
    for q in (25, 81):
        f = field_for_order(q)
        r = f.sqrt_q()
        norm_one = [a for a in range(1, q) if f.pow(a, r + 1) == 1]
        counterexamples += (len(norm_one) != r + 1)
        counterexamples += sum(
            not f.is_square(f.add(f.mul(a, a), 1)) for a in norm_one)
    # pencil conic / polar-line dichotomy holds exactly when Tr(lambda) = 0
    for q in (8, 32):
        f = field_for_order(q)
        counterexamples += sum(
            conic_polar_disjointness(q, lam) != (f.abs_trace(lam) == 0)
            for lam in f.elements())
    report(8, counterexamples == 0,
           f"exhaustive algebraic checks, {counterexamples} counterexamples")


def test_criterion_9_solver_oracle():
    alphas = {}
    ok = True
    for q in (2, 3, 4, 5):
        plane = ProjectivePlane(field_for_order(q))
        g = build_er_graph(plane)
        res = gr.max_independent_set(g)
        ok &= res.status == "optimal"
        ok &= g.is_independent(res.vertices) is None
        from erpg.constructions import alpha_bounds
        lower, upper, note = alpha_bounds(q)
        ok &= res.size <= upper
        if not note:
            ok &= res.size >= lower
        alphas[q] = res.size
    rng = random.Random(424242)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(4, 24)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5]), rng)
        res = gr.max_independent_set(g)
        mismatches += (res.status != "optimal" or res.size != alpha_exact(g)
                       or n <= 16 and res.size != alpha_subset_scan(g))
    ok = ok and mismatches == 0
    report(9, ok, f"alpha(ER_q) {alphas} within bounds; "
                  f"{mismatches}/200 random-graph mismatches")


def test_criterion_10_format_fidelity():
    rng = random.Random(31337)
    ok = all(
        gr.from_graph6(gr.to_graph6(g)) == g
        for g in (random_graph(rng.randint(1, 40), rng.random(), rng)
                  for _ in range(100)))
    g12 = random_graph(12, 0.4, rng)
    header = gr.to_dimacs(g12).decode().splitlines()[0].split()
    ok &= int(header[3]) == g12.num_edges()
    edge_counts = {}
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        plane = ProjectivePlane(field_for_order(q))
        m = build_er_graph(plane).num_edges()
        edge_counts[q] = m
        ok &= m == q * (q + 1) ** 2 // 2
    report(10, ok, f"graph6/DIMACS round-trips; ER edge counts {edge_counts}")
