"""Memory bounds of the export path and the solver.

ER_q is checked and written in little more memory than its rows, and the
text decoders refuse a vertex count they could not hold before they
allocate rows for it.  The solver builds no pair table that would not fit
its size limit.  The subprocess checks run under an address-space
limit (RLIMIT_AS), so that a regression fails with MemoryError instead of
taking the memory of the whole machine.
"""

import hashlib
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import erpg
from erpg.field import field_for_order
from erpg.graphs import SolveBudget, max_independent_set
from erpg.plane import ProjectivePlane
from erpg.polarity import build_er_graph


def run_limited(args, kilobytes, **kw):
    """Run python with args in a process whose address space is limited
    to `kilobytes` KB (as `ulimit -v` counts them)."""
    src = str(Path(erpg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (kilobytes << 10,) * 2)

    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, preexec_fn=limit, timeout=300, **kw)


def test_graph6_of_er128_is_written_in_90_mb(tmp_path):
    """`erpg graph --q 128 --format graph6 --out` passes at 70,000 KB and
    fails at 60,000 KB; with a whole transposed copy in check_symmetric
    and the file joined in memory it failed at 110,000 KB."""
    out = tmp_path / "er128.g6"
    proc = run_limited(["-m", "erpg.cli", "graph", "--q", "128", "--format",
                        "graph6", "--out", str(out)], 90_000)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1c0b7cdff47c2720619899f2a30b8094bdcbbe016822410b9db1ecc327ac8f7a")


HUGE_COUNTS = """
from erpg import graphs as gr
for decode, data, kw in (
        (gr.from_dimacs, b"p edge 1000000000 0\\n", {}),
        (gr.from_edgelist_csv, b"u,v\\n0,1000000000\\n", {}),
        (gr.from_edgelist_csv, b"u,v\\n0,1\\n", {"n": 10 ** 9})):
    try:
        decode(data, **kw)
    except ValueError as e:
        print(e)
"""


def test_text_decoders_refuse_a_billion_vertices_before_allocating():
    """Ten bytes that name 10^9 vertices raise ValueError; rows for them
    would take 8 GB, far beyond the 300 MB the process may map."""
    proc = run_limited(["-c", HUGE_COUNTS], 300_000)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines() == [
        "1000000000 vertices, more than the limit of 2097152",
        "1000000001 vertices, more than the limit of 2097152",
        "1000000000 vertices, more than the limit of 2097152"]


def test_the_plane_holds_no_enumeration():
    """ProjectivePlane(field_for_order(1024)) holds under 1 MB: it computes
    points and indices, where a stored point list and point dict took
    172 MB under tracemalloc."""
    ctx = field_for_order(1024)
    tracemalloc.start()
    try:
        plane = ProjectivePlane(ctx)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert plane.q == 1024 and held < 1 << 20, held


def test_check_symmetric_peak_is_a_quarter_of_the_rows():
    """At ER_64 the tiles that check_symmetric holds at once take at most a
    quarter of the rows' memory; the whole transposed copy took 1.3 times
    the rows."""
    g = build_er_graph(ProjectivePlane(field_for_order(64)))
    rows = sum(sys.getsizeof(row) for row in g.adj)
    tracemalloc.start()
    try:
        g.check_symmetric()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows / 4, peak / rows


def test_solver_on_er64_builds_no_pair_table():
    """A 50-node search of ER_64 peaks under 16 MB: the solver's pair table
    (`graphs._pair_table`) would take about 150 MB there, over its size
    limit, so every row of it is one shared list of None."""
    g = build_er_graph(ProjectivePlane(field_for_order(64)))
    tracemalloc.start()
    try:
        res = max_independent_set(g, SolveBudget(50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.nodes == 51 and peak < 16 << 20, peak
