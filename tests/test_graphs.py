import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from erpg import constructions as cons
from erpg import graphs as gr
from erpg.field import field_for_order
from erpg.graphs import Graph, SolveBudget, max_independent_set
from erpg.plane import ProjectivePlane
from erpg.polarity import build_er_graph

from reference import (alpha_exact, alpha_subset_scan, c4_pair,
                       check_symmetric_reference, girth_reference,
                       greedy_cover_count, greedy_extend, induced,
                       max_independent_set_reference, random_graph, triangles)


# -- predicates --------------------------------------------------------------

def test_is_independent():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.is_independent([]) is None
    assert g.is_independent([2]) is None
    assert g.is_independent([0, 2, 3]) is None
    assert g.is_independent([0, 1]) == (0, 1)
    with pytest.raises(ValueError):
        g.is_independent([7])


def test_no_self_loops():
    g = Graph(3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1)


def test_induced():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    h = induced(g, [1, 2, 4])
    assert h.n == 3
    assert sorted(h.edges()) == [(0, 1)]
    assert induced(g, range(5)) == g
    assert induced(g, []).n == 0


def test_is_regular():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4.is_regular(2)
    assert not c4.is_regular(3)


# -- triangles and girth -----------------------------------------------------

def test_triangle_count_matches_naive():
    rng = random.Random(5)
    for n in (6, 10, 16, 24):
        for _ in range(8):
            g = random_graph(n, 0.4, rng)
            naive = sum(
                1
                for u in range(n)
                for v in range(u + 1, n)
                for w in range(v + 1, n)
                if g.adj[u] >> v & g.adj[v] >> w & g.adj[u] >> w & 1)
            assert g.triangle_count() == naive
            assert len(list(triangles(g))) == naive


def test_triangle_count_empty():
    assert Graph(5).triangle_count() == 0


def test_girth_cases():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert c5.girth() == 5
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert k3.girth() == 3
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4.girth() == 4
    tree = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert tree.girth() == math.inf
    # two cycles of different lengths: girth is the shorter one
    g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                             (5, 6), (6, 7), (7, 8), (8, 5)])
    assert g.girth() == 4
    # a 4-cycle on the low vertices, a triangle on the high ones: the local
    # pass meets the 4-cycle first and must still answer 3
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0),
                             (4, 5), (5, 6), (6, 4)])
    assert g.girth() == 3


def test_girth_matches_bruteforce_on_random_graphs():
    import networkx as nx
    rng = random.Random(9)
    for _ in range(25):
        g = random_graph(10, 0.25, rng)
        nxg = nx.Graph(list(g.edges()))
        nxg.add_nodes_from(range(g.n))
        cycles = [len(c) for c in nx.simple_cycles(nxg)]
        expected = min(cycles) if cycles else math.inf
        assert g.girth() == expected


def petersen():
    return Graph.from_edges(10, [e for i in range(5) for e in (
        (i, (i + 1) % 5), (i, i + 5), (i + 5, 5 + (i + 2) % 5))])


def heawood():
    """Point-line incidence graph of the Fano plane {i, i+1, i+3 mod 7}."""
    return Graph.from_edges(14, [(p % 7, 7 + i) for i in range(7)
                                 for p in (i, i + 1, i + 3)])


def test_girth_named_graphs():
    k33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    for g, girth in ((petersen(), 5), (k33, 4), (heawood(), 6)):
        assert g.girth() == girth_reference(g) == girth


def incidence_graph(q):
    """Point-line incidence graph of PG(2, q): point i is vertex i, the
    line with coordinates plane.point(j) is vertex size + j."""
    plane = ProjectivePlane(field_for_order(q))
    n = plane.size
    return Graph.from_edges(2 * n, [
        (p, n + j) for j in range(n)
        for p in plane.line_point_indices(plane.point(j))])


@pytest.mark.parametrize("q", [8, 16, 32])
def test_girth_of_triangle_free_subgraphs_matches_reference(q):
    tfs = cons.triangle_free_set(q)
    sub = cons.induced_on_points(tfs.plane, tfs.points)
    assert sub.girth() == girth_reference(sub) == 5


@pytest.mark.parametrize("q", [2, 3, 4])
def test_girth_of_plane_incidence_graphs_matches_reference(q):
    # no 3- or 4-cycle: the local pass finds nothing, and the BFS must
    # search on past length 5
    g = incidence_graph(q)
    assert g.girth() == girth_reference(g) == 6


@st.composite
def random_graphs(draw, max_n=14):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@st.composite
def forests(draw, max_n=20):
    """Each vertex joins one earlier vertex or none: no cycle."""
    n = draw(st.integers(0, max_n))
    edges = []
    for v in range(1, n):
        parent = draw(st.none() | st.integers(0, v - 1))
        if parent is not None:
            edges.append((parent, v))
    return Graph.from_edges(n, edges)


@st.composite
def one_cycle_graphs(draw):
    """A k-cycle on shuffled vertices with trees hung on it: girth k."""
    k = draw(st.integers(3, 12))
    n = k + draw(st.integers(0, 8))
    order = draw(st.permutations(range(n)))
    edges = [(order[i], order[(i + 1) % k]) for i in range(k)]
    for i in range(k, n):
        edges.append((order[draw(st.integers(0, i - 1))], order[i]))
    return Graph.from_edges(n, edges), k


def disjoint_union(g, h):
    return Graph(g.n + h.n, g.adj + [row << g.n for row in h.adj])


@settings(max_examples=300, deadline=None)
@given(random_graphs())
def test_girth_matches_reference_on_random_graphs(g):
    assert g.girth() == girth_reference(g)


@settings(max_examples=100, deadline=None)
@given(forests())
def test_girth_of_forest_is_infinite(g):
    assert g.girth() == girth_reference(g) == math.inf


@settings(max_examples=200, deadline=None)
@given(one_cycle_graphs(), random_graphs(max_n=8), st.booleans())
def test_girth_odd_even_and_disconnected(cycle, other, cycle_first):
    g, k = cycle
    assert g.girth() == girth_reference(g) == k
    # the girth of a disjoint union is the least girth of its parts
    union = disjoint_union(g, other) if cycle_first else disjoint_union(other, g)
    expected = min(k, girth_reference(other))
    assert union.girth() == girth_reference(union) == expected


# -- solver ------------------------------------------------------------------

def test_solver_trivial_cases():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    res = max_independent_set(c5)
    assert res.size == 2 and res.status == "optimal"
    assert c5.is_independent(res.vertices) is None
    empty = Graph(7)
    res = max_independent_set(empty)
    assert res.size == 7 and sorted(res.vertices) == list(range(7))


def test_solver_matches_subset_scan_on_200_random_graphs():
    rng = random.Random(2024)
    cases = [(rng.randint(4, 18), rng.choice([0.15, 0.3, 0.5]))
             for _ in range(180)]
    cases += [(rng.randint(19, 24), rng.choice([0.2, 0.4]))
              for _ in range(20)]
    assert len(cases) == 200
    for n, p in cases:
        g = random_graph(n, p, rng)
        res = max_independent_set(g)
        assert res.status == "optimal"
        assert g.is_independent(res.vertices) is None
        assert len(res.vertices) == res.size
        assert res.size == alpha_exact(g)
        if n <= 16:
            assert res.size == alpha_subset_scan(g)


def test_solver_budget_exhaustion():
    rng = random.Random(1)
    g = random_graph(40, 0.2, rng)
    res = max_independent_set(g, SolveBudget(max_nodes=5))
    assert res.status == "budget_exhausted"
    assert g.is_independent(res.vertices) is None


def test_solver_budget_results_pinned():
    """The search tree and the node count under a budget are unchanged:
    max_nodes = k reports k + 1 nodes."""
    g = random_graph(40, 0.2, random.Random(1))
    res = max_independent_set(g, SolveBudget(max_nodes=1))
    assert (res.size, res.vertices, res.status, res.nodes) == (
        0, [], "budget_exhausted", 2)
    res = max_independent_set(g, SolveBudget(max_nodes=5))
    assert (res.size, res.vertices, res.status, res.nodes) == (
        0, [], "budget_exhausted", 6)
    res = max_independent_set(g, SolveBudget(max_nodes=50))
    assert (res.size, res.vertices, res.status, res.nodes) == (
        11, [0, 3, 16, 17, 19, 23, 25, 28, 31, 32, 37], "budget_exhausted", 51)
    res = max_independent_set(g)
    assert (res.size, res.status, res.nodes) == (13, "optimal", 205)
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    res = max_independent_set(c5, SolveBudget(max_nodes=1), initial=[0, 2])
    assert (res.size, res.vertices, res.status, res.nodes) == (
        2, [0, 2], "budget_exhausted", 2)


def test_solver_has_no_recursion_limit():
    res = max_independent_set(Graph(2000))
    assert res.status == "optimal"
    assert res.size == 2000 and res.vertices == list(range(2000))


def test_solver_initial_seed():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    res = max_independent_set(c5, SolveBudget(max_nodes=1), initial=[0, 2])
    assert res.size >= 2
    with pytest.raises(ValueError):
        max_independent_set(c5, initial=[0, 1])


def test_solver_reads_a_one_shot_initial_iterator_once():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    res = max_independent_set(c5, SolveBudget(max_nodes=1),
                              initial=iter([0, 2]))
    assert (res.size, res.vertices, res.status, res.nodes) == (
        2, [0, 2], "budget_exhausted", 2)


def test_solver_deterministic():
    rng = random.Random(8)
    g = random_graph(20, 0.3, rng)
    r1 = max_independent_set(g)
    r2 = max_independent_set(g)
    assert (r1.size, r1.vertices, r1.nodes) == (r2.size, r2.vertices, r2.nodes)


@pytest.mark.parametrize("rows,message", [
    ([0b0011, 0b0001, 0, 0], "loop at vertex 0"),
    ([0b101100, 0b100, 0b10, 0b110, 0b1, 0b1], r"asymmetric edge \(0,2\)"),
    ([0b10000, 0, 0, 0], "neighbour out of range"),
    ([0.5, 0, 0], "row 0 is 0.5, not a non-negative int"),
    ([-2, 1], "row 0 is -2, not a non-negative int"),
], ids=["loop", "asymmetric", "out-of-range", "float", "negative"])
def test_solver_rejects_rows_that_are_not_a_simple_graph(rows, message):
    # unchecked, these returned [0, 2, 3] with the looped vertex 0 and the
    # dependent set [0, 1, 4]; the float row ended in AttributeError, and
    # the negative one passed the check and failed in _mirror
    with pytest.raises(ValueError, match=message):
        max_independent_set(Graph(len(rows), rows))


@pytest.mark.parametrize("max_nodes,message", [
    (0, "budget must be positive"), (-1, "budget must be positive"),
    (2.5, "budget 2.5 is not an int"), ("5", "budget '5' is not an int"),
    (None, "budget None is not an int"),
])
def test_invalid_budget(max_nodes, message):
    # 2.5 ran and reported 3 nodes; "5" and None ended in TypeError
    with pytest.raises(ValueError, match=message):
        SolveBudget(max_nodes=max_nodes)


TREE_BUDGETS = [None, 1, 2, 5, 17, 60]


def assert_same_tree(g, initial, budgets=TREE_BUDGETS):
    """The solver and the reference visit the same nodes in the same order:
    same size, vertices, status and node count, under every budget."""
    for max_nodes in budgets:
        budget = SolveBudget(max_nodes) if max_nodes else None
        res = max_independent_set(g, budget, initial)
        ref = max_independent_set_reference(g, budget, initial)
        assert (res.size, res.vertices, res.status, res.nodes) == (
            ref.size, ref.vertices, ref.status, ref.nodes), (max_nodes, initial)


def random_tree_cases():
    """200 random graphs, each with a greedy independent set to seed it."""
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 45)
        g = random_graph(n, rng.choice([0.05, 0.1, 0.2, 0.3, 0.5, 0.7]), rng)
        greedy = greedy_extend(g, [], rng.sample(range(n), n))
        yield g, greedy[:rng.randint(0, len(greedy))]


def test_solver_tree_matches_reference_on_random_graphs():
    for g, initial in random_tree_cases():
        assert_same_tree(g, None)
        assert_same_tree(g, initial)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_solver_tree_matches_reference_on_er(q):
    plane = ProjectivePlane(field_for_order(q))
    g = build_er_graph(plane)
    assert_same_tree(g, None)
    try:
        cert = cons.build_coclique(q)
    except ValueError:
        return  # no construction for this q
    assert_same_tree(g, [plane.index_of(pt) for pt in cert.points])


def star(m, center):
    return Graph.from_edges(m + 1, [(center, v) for v in range(m + 1)
                                    if v != center])


@pytest.mark.parametrize("m", [1, 3, 4, 5, 7, 8, 9, 15, 16, 17])
def test_solver_tree_matches_reference_on_stars(m):
    # the centre's degree m needs m.bit_length() counter slices, one more
    # than m - 1 needs when m is a power of two
    for center in (0, m // 2, m):
        assert_same_tree(star(m, center), None)
        assert_same_tree(star(m, center), [v for v in range(m + 1)
                                           if v != center][:1])


@pytest.mark.parametrize("n", range(10))
def test_solver_tree_matches_reference_on_complete_graphs(n):
    g = Graph.from_edges(n, [(u, v) for u in range(n)
                             for v in range(u + 1, n)])
    assert_same_tree(g, None)
    assert_same_tree(g, [n - 1] if n else None)


def test_solver_tree_matches_reference_on_matching_and_empty_graph():
    matching = Graph.from_edges(12, [(2 * i, 2 * i + 1) for i in range(6)])
    assert_same_tree(matching, None)
    assert_same_tree(matching, [1, 2, 5])
    assert_same_tree(Graph(0), None)


def petersen():
    return Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def friendship(k):
    """k triangles through vertex 0."""
    return Graph.from_edges(2 * k + 1, [e for i in range(k) for e in (
        (0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))])


def er7_plus_edge():
    """ER_7 with the edge (1, 17) added.  1 and 17 had one common
    neighbour z, and the ends of (1, z) and of (17, z) now share two."""
    g = build_er_graph(ProjectivePlane(field_for_order(7)))
    g.add_edge(1, 17)
    return g


# Graphs whose cover takes each kind of `_pair_table` entry: only masks
# (Petersen: girth 5; F_5: the shared neighbour is in every triangle; K_2,3:
# a C4, but no edge inside it), or masks and None mixed (ER_7 plus an edge,
# K_4 minus an edge).
TABLE_GRAPHS = {
    "petersen": petersen,
    "friendship-5": lambda: friendship(5),
    "er7-plus-edge": er7_plus_edge,
    "k4-minus-edge": lambda: Graph.from_edges(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "k2,3": lambda: Graph.from_edges(
        5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]),
}


@pytest.mark.parametrize("name", TABLE_GRAPHS)
def test_solver_tree_matches_reference_on_pair_table_graphs(name):
    g = TABLE_GRAPHS[name]()
    assert_same_tree(g, None)
    assert_same_tree(g, greedy_extend(g, [], range(g.n))[:2])


def assert_pair_table(g):
    """Each edge's entry is None iff its ends share two or more neighbours,
    counted from g.adj, and otherwise all vertices but the two ends and the
    shared one; column 0 leaves out one vertex; every other entry is None.
    Returns the number of edge entries that are None."""
    n, full = g.n, (1 << g.n) - 1
    rows, masks = gr._mirrored_rows(g.adj)
    pairs = gr._pair_table(rows, masks)
    assert len(pairs) == n + 1 and all(len(row) == n + 1 for row in pairs)
    nones = 0
    for u in range(n):
        assert pairs[n - u][0] == full ^ gr._mirror(1 << u, n)
        for v in range(n):
            entry = pairs[n - u][n - v]
            shared = g.adj[u] & g.adj[v]
            if not g.adj[u] >> v & 1:
                assert entry is None
            elif shared.bit_count() >= 2:
                assert entry is None
                nones += 1
            else:
                assert entry == full ^ gr._mirror(
                    1 << u | 1 << v | shared, n)
    return nones


def test_pair_table_entries_on_random_graphs():
    assert sum(assert_pair_table(g) for g, _ in random_tree_cases())


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_pair_table_has_a_mask_on_every_edge_of_er(q):
    """ER_q has no C4 (`c4_pair`), so no edge's ends share two neighbours."""
    g = build_er_graph(ProjectivePlane(field_for_order(q)))
    assert c4_pair(g) is None
    assert assert_pair_table(g) == 0


@pytest.mark.parametrize("name,nones", [
    ("petersen", 0), ("friendship-5", 0), ("k2,3", 0),
    ("er7-plus-edge", 4), ("k4-minus-edge", 2)])
def test_pair_table_graphs_take_masks_and_nones(name, nones):
    """The entries that are None, two per edge."""
    assert assert_pair_table(TABLE_GRAPHS[name]()) == nones


def test_pair_table_over_its_size_is_shared_nones():
    n = 12
    g = random_graph(n, 0.5, random.Random(3))
    rows, masks = gr._mirrored_rows(g.adj)
    with mock.patch.object(gr, "_PAIR_TABLE_BYTES", 8 * (n + 1) ** 2):
        pairs = gr._pair_table(rows, masks)
        assert_same_tree(g, None)
    assert len(pairs) == n + 1
    assert all(row is pairs[0] for row in pairs)
    assert pairs[0] == [None] * (n + 1)


@pytest.mark.parametrize("q", [8, 9])
def test_solver_budget_tree_matches_reference_on_seeded_er(q):
    """Dives cut by the budget on the pinned ER_8 and ER_9 searches, seeded
    by the construction as `erpg solve` seeds them."""
    plane = ProjectivePlane(field_for_order(q))
    g = build_er_graph(plane)
    cert = cons.build_coclique(q)
    assert_same_tree(g, [plane.index_of(pt) for pt in cert.points],
                     budgets=[1, 2, 5, 17, 60, 5000])


@st.composite
def graphs_and_candidates(draw):
    g = draw(random_graphs(max_n=20))
    return g, draw(st.integers(0, (1 << g.n) - 1))


@settings(max_examples=300, deadline=None)
@given(graphs_and_candidates())
def test_cover_exceeds_matches_greedy_cover_count(case):
    g, cand = case
    count = greedy_cover_count(g.adj, cand)
    rows, masks = gr._mirrored_rows(g.adj)
    mirrored = gr._mirror(cand, g.n)
    nones = [None] * (g.n + 1)  # the shared row of a table over its size
    for pairs in (gr._pair_table(rows, masks), [nones] * (g.n + 1)):
        for limit in range(-1, cand.bit_count() + 2):
            assert gr._cover_exceeds(rows, masks, pairs, mirrored, limit) == (
                count > limit)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 63, 64, 65, 91, 130])
def test_mirrored_rows_match_bit_by_bit_reversal(n):
    def reverse(x):
        return sum(1 << (n - 1 - v) for v in range(n) if x >> v & 1)

    rng = random.Random(n)
    g = random_graph(n, 0.3, rng)
    for x in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
        assert gr._mirror(x, n) == reverse(x)
    rows, masks = gr._mirrored_rows(g.adj)
    assert rows[0] == masks[0] == 0
    for v in range(n):
        assert rows[n - v] == reverse(g.adj[v])
        assert masks[n - v] == reverse(1 << v)
        assert masks[n - v].bit_length() == n - v


# -- greedy extension --------------------------------------------------------

def test_greedy_extend():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert greedy_extend(g, [0], []) == [0]
    empty = Graph(4)
    assert greedy_extend(empty, [], range(4)) == [0, 1, 2, 3]
    got = greedy_extend(g, [0], [1, 2, 3, 4])
    assert g.is_independent(got) is None and len(got) == 2
    with pytest.raises(ValueError):
        greedy_extend(g, [0, 1], [])
    with pytest.raises(ValueError, match="out of range"):
        greedy_extend(Graph(3), [0], [5])


# -- formats -----------------------------------------------------------------

def test_graph6_known_encodings():
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert gr.to_graph6(k3) == b"Bw"
    assert gr.to_graph6(Graph(1)) == b"@"
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert gr.from_graph6(gr.to_graph6(p4)) == p4


def test_graph6_roundtrip_100_random():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(1, 40)
        g = random_graph(n, rng.random(), rng)
        assert gr.from_graph6(gr.to_graph6(g)) == g


def test_graph6_large_n_header():
    g = Graph(100)
    g.add_edge(0, 99)
    back = gr.from_graph6(gr.to_graph6(g))
    assert back.n == 100 and back.adj[0] >> 99 & 1


def test_dimacs_roundtrip_and_counts():
    rng = random.Random(13)
    g = random_graph(12, 0.4, rng)
    data = gr.to_dimacs(g)
    header = data.decode().splitlines()[0].split()
    assert int(header[3]) == g.num_edges()
    assert gr.from_dimacs(data) == g


def test_csv_roundtrip():
    rng = random.Random(14)
    g = random_graph(9, 0.5, rng)
    assert gr.from_edgelist_csv(gr.to_edgelist_csv(g), n=9) == g


def test_export_dispatch():
    g = Graph(2)
    assert gr.export(g, "graph6") == gr.to_graph6(g)
    assert gr.export(g, "csv") == gr.to_edgelist_csv(g)
    with pytest.raises(ValueError):
        gr.export(g, "gml")


def to_graph6_bitwise(g):
    """Reference encoder: the graph6 body one bit at a time."""
    n = g.n
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, (n >> 12) + 63, (n >> 6 & 63) + 63,
                         (n & 63) + 63])
    acc, nb = 0, 0
    for v in range(1, n):
        for u in range(v):
            acc = acc << 1 | g.adj[u] >> v & 1
            nb += 1
            if nb == 6:
                out.append(acc + 63)
                acc, nb = 0, 0
    if nb:
        out.append((acc << (6 - nb)) + 63)
    return bytes(out)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 7, 62, 63, 64, 100])
def test_graph6_matches_bitwise_reference(n):
    rng = random.Random(n)
    for p in (0.0, 0.3, 1.0):
        g = random_graph(n, p, rng)
        data = gr.to_graph6(g)
        assert data == to_graph6_bitwise(g)
        assert gr.from_graph6(data) == g


def test_graph6_empty_input_raises_value_error():
    with pytest.raises(ValueError):
        gr.from_graph6(b"")


def test_graph6_missing_body_raises_value_error():
    with pytest.raises(ValueError):
        gr.from_graph6(b"D")


def test_graph6_truncated_body_raises_value_error():
    data = gr.to_graph6(random_graph(30, 0.5, random.Random(3)))
    with pytest.raises(ValueError):
        gr.from_graph6(data[:-1])


def test_graph6_overlong_body_raises_value_error():
    data = gr.to_graph6(random_graph(30, 0.5, random.Random(4)))
    with pytest.raises(ValueError):
        gr.from_graph6(data + b"?")


def test_graph6_truncated_size_field_raises_value_error():
    with pytest.raises(ValueError):
        gr.from_graph6(b"~?A")


def test_graph6_bad_byte_and_padding_raise_value_error():
    with pytest.raises(ValueError):
        gr.from_graph6(b"B\x7f")
    with pytest.raises(ValueError):
        gr.from_graph6(b"Bx")  # K3 is "Bw"; the last bit is padding


def test_dimacs_edge_before_problem_line_raises_value_error():
    with pytest.raises(ValueError) as err:
        gr.from_dimacs(b"e 1 2\np edge 2 1\n")
    assert str(err.value) == "DIMACS edge line before the problem line"


def test_dimacs_endpoint_out_of_range_raises_value_error():
    with pytest.raises(ValueError):
        gr.from_dimacs(b"p edge 3 1\ne 1 4\n")
    with pytest.raises(ValueError):
        gr.from_dimacs(b"p edge 3 1\ne 0 2\n")


def test_csv_endpoint_out_of_range_raises_value_error():
    with pytest.raises(ValueError):
        gr.from_edgelist_csv(b"u,v\n0,5\n", n=3)


def test_csv_negative_endpoint_raises_value_error():
    with pytest.raises(ValueError):
        gr.from_edgelist_csv(b"u,v\n-1,2\n", n=3)
    with pytest.raises(ValueError):
        gr.from_edgelist_csv(b"u,v\n-1,2\n")


def test_csv_row_without_two_fields_raises_value_error():
    for row in (b"1", b"0,1,2"):
        with pytest.raises(ValueError):
            gr.from_edgelist_csv(b"u,v\n" + row + b"\n", n=3)


def test_check_symmetric_rejects_loops_and_asymmetric_pairs():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    g.check_symmetric()
    loop = Graph(3, [0b001, 0, 0])
    with pytest.raises(AssertionError):
        loop.check_symmetric()
    for u, v in ((0, 2), (2, 0), (4, 1)):
        one_way = Graph(5, g.adj)
        one_way.adj[u] |= 1 << v
        with pytest.raises(AssertionError,
                           match=rf"asymmetric edge \({u},{v}\)"):
            one_way.check_symmetric()
    for row in (1 << 5, 1 << 3):  # beyond the padded size, and inside it
        out_of_range = Graph(3, [row, 0, 0])
        with pytest.raises(AssertionError, match="out of range"):
            out_of_range.check_symmetric()
    # a negative row ended in IndexError
    for rows in ([-2, 1, 1], [0, 1.0, 0]):
        with pytest.raises(ValueError, match="not a non-negative int"):
            Graph(3, rows).check_symmetric()


def check_outcome(check, g):
    """None, or the message of the AssertionError that check(g) raises."""
    try:
        check(g)
    except AssertionError as e:
        return str(e)
    return None


def planted(n, kind, rng):
    """A random simple graph on n vertices with asymmetric pairs, a loop
    or a neighbour out of range planted in its rows."""
    g = random_graph(n, rng.random(), rng)
    if kind == "pairs" and n > 1:
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(range(n), 2)
            g.adj[u] ^= 1 << v
    elif kind == "loop" and n:
        u = rng.randrange(n)
        g.adj[u] |= 1 << u
    elif kind == "out of range" and n:
        g.adj[rng.randrange(n)] |= 1 << (n + rng.randrange(3))
    return g


@pytest.mark.parametrize("tile", [8, 16])
@pytest.mark.parametrize("kind", ["none", "pairs", "loop", "out of range"])
def test_tiled_check_symmetric_matches_whole_transpose(tile, kind):
    """Many tiles and a narrow last band, whose tiles are transposed side
    by side (8 * tile + 3 vertices: 4 bands of twice the tile and 3
    vertices): the same message as comparing with the transpose of the
    whole matrix, down to the pair it names."""
    rng = random.Random(f"{tile} {kind}")
    with mock.patch.object(gr, "_TILE", tile):
        for n in (tile - 1, tile, tile + 1, 2 * tile + 3, 8 * tile + 3):
            for _ in range(25):
                g = planted(n, kind, rng)
                expected = check_outcome(check_symmetric_reference, g)
                assert check_outcome(Graph.check_symmetric, g) == expected
                assert (expected is None) == (kind == "none")


@pytest.mark.parametrize("flips", [[(9, 20), (9, 12)], [(20, 9), (12, 9)],
                                   [(13, 2), (2, 20)], [(10, 12), (2, 20)],
                                   [(3, 17), (17, 3), (4, 18)]])
def test_tiled_check_symmetric_names_the_least_pair_across_bands(flips):
    """Asymmetric pairs in several tiles (tile 8, 21 vertices): the least
    vertex of any pair is named, and its least partner, even where a tile
    read earlier holds a pair of larger vertices."""
    g = Graph(21)
    for u, v in flips:
        g.adj[u] ^= 1 << v
    with mock.patch.object(gr, "_TILE", 8):
        assert check_outcome(Graph.check_symmetric, g) == check_outcome(
            check_symmetric_reference, g)


def test_tile_width_grows_to_a_third_of_the_vertices():
    assert [gr._tile_width(n) for n in (1, 91, 1024, 6143, 6144, 65793)] \
        == [1, 128, 1024, 1024, 2048, 16384]


def transpose_bitwise(rows):
    """Reference transpose: one bit at a time."""
    n = len(rows)
    return [sum((rows[v] >> u & 1) << v for v in range(n)) for u in range(n)]


@pytest.mark.parametrize("n", [*range(41), 63, 64, 65])
def test_transpose_matches_bitwise_reference(n):
    rng = random.Random(n)
    for _ in range(3):
        rows = [rng.getrandbits(n) for _ in range(n)]
        assert gr.transpose(rows) == transpose_bitwise(rows)


@pytest.mark.parametrize("line", [b"e 1", b"e 1 x", b"e 1 4", b"e 4 1",
                                  b"e 0 2", b"e 2 2"])
def test_dimacs_bad_edge_line_is_named(line):
    # a missing or non-integer endpoint, vertex n + 1 or 0, a loop
    with pytest.raises(ValueError) as err:
        gr.from_dimacs(b"p edge 3 1\n" + line + b"\n")
    assert str(err.value) == (f"bad DIMACS edge line {line.decode()!r} "
                              "for n = 3")


@pytest.mark.parametrize("data,message", [
    (b"p edge 2 0\np edge 2 0\n", "bad DIMACS problem line 'p edge 2 0'"),
    (b"c only\n", "missing DIMACS problem line"),
])
def test_dimacs_problem_line_errors(data, message):
    with pytest.raises(ValueError) as err:
        gr.from_dimacs(data)
    assert str(err.value) == message


def test_vertex_out_of_range_raises_value_error():
    g = Graph(3)
    # Python lists read a negative index from the end: vertex -1 must not
    # answer for vertex 2
    for call in (lambda: g.add_edge(0, 3), lambda: g.add_edge(-1, 0),
                 lambda: g.degree(-1), lambda: g.degree(3)):
        with pytest.raises(ValueError, match="out of range"):
            call()
    # these ended in TypeError from `1 << v` or from a comparison
    for call in (lambda: g.add_edge(0.5, 1), lambda: g.add_edge(0, "1"),
                 lambda: g.degree(0.5), lambda: g.is_independent([None]),
                 lambda: max_independent_set(g, initial=[0.5]),
                 lambda: max_independent_set(g, initial=["1"])):
        with pytest.raises(ValueError, match="is not an int"):
            call()


def test_bad_vertex_count_raises_value_error():
    for n, rows in ((3, [0, 0]), (2, [0, 0, 0])):
        with pytest.raises(ValueError, match="rows for"):
            Graph(n, rows)
    # 2.5 and "3" ended in TypeError from `[0] * n`
    for n in (2.5, "3", -1, None):
        with pytest.raises(ValueError, match="is not a non-negative int"):
            Graph(n)
    for n in (2.5, "3", -1):  # n=None takes the count from the edges
        with pytest.raises(ValueError, match="is not a non-negative int"):
            gr.from_edgelist_csv(b"u,v\n0,1\n", n=n)
