"""Workload definitions: which erpg jobs a pass runs, and in what order.

A job is a dict with a unique ``key`` (also its key in ``pins.json``) and a
``kind``:

* ``cli``    -- ``erpg.cli.main(argv)``; ``files`` lists the files it writes
* ``decode`` -- parse a file written earlier in the pass with ``fmt``
* ``hyper``  -- ``erpg.hypergraph.build_hypergraph(q)``
* ``random`` -- ``erpg.graphs.max_independent_set`` on a seed-drawn G(n, p)

Jobs are grouped into units that run back to back (an export and the decode
of the file it wrote).  ER_q inputs depend on q alone.  The seed and the
pass index shuffle the units and draw the random graphs, so each pass of a
run has its own job order and its own graphs, and the median over passes
evens out how both move the time and the peak memory of a pass.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0


def _cli(argv, files=()):
    return {"key": " ".join(argv), "kind": "cli", "argv": list(argv),
            "files": list(files)}


def _build(q):
    out = f"cert-{q}.json"
    return [_cli(["build", "--q", str(q), "--json", "--out", out], [out])]


def _export(q, fmt):
    out = f"er{q}.{fmt}"
    return [_cli(["graph", "--q", str(q), "--format", fmt, "--out", out],
                 [out]),
            {"key": f"decode {out}", "kind": "decode", "fmt": fmt,
             "path": out}]


def _hyper(q):
    return [{"key": f"hypergraph {q}", "kind": "hyper", "q": q}]


def _certify_units(build_qs, tf_q, orbit_qs):
    units = [_build(q) for q in build_qs]
    units.append([_cli(["build", "--q", str(tf_q),
                        "--construction", "triangle-free"])])
    units.extend([_cli(["orbits", "--q", str(q)])] for q in orbit_qs)
    return units


WORKLOADS = {
    # Point-level geometry on small subsets (odd q) beside whole-plane line
    # scans (even q); build --q 128 is most of the time.
    "certify": {
        "qs": [49, 81, 121, 32, 64, 128],
        "units": _certify_units([49, 81, 121, 32, 64, 128], 64, [81, 121]),
        "random": None,
    },
    # Full ER_q bitsets over odd q (digit-loop add) and even q (xor add),
    # encoders beside the decoders that read their files back.
    "export": {
        "qs": [64, 81],
        "units": [_export(64, "graph6"), _export(81, "dimacs"),
                  _export(64, "csv"), _hyper(64)],
        "random": None,
    },
    # The branch and bound does nearly all the work; random graphs have no
    # automorphisms, ER_q graphs have many.
    "solve": {
        "qs": [7, 8, 9],
        "units": [[_cli(["solve", "--q", str(q)])] for q in (7, 8, 9)],
        "random": {"n": 100, "p": 0.1, "count": 1},
    },
    # Every job kind at q <= 9, for the self-test; not a benchmark workload.
    "smoke": {
        "qs": [4, 5, 7, 8, 9],
        "units": (_certify_units([9, 8, 4], 8, [9])
                  + [_export(5, "graph6"), _export(7, "dimacs"),
                     _export(4, "csv"), _hyper(4),
                     [_cli(["solve", "--q", "4"])]]),
        "random": {"n": 30, "p": 0.2, "count": 1},
    },
}


def random_graph_job(spec, seed, pass_index, i):
    n, p = spec["n"], spec["p"]
    return {"key": f"random G({n},{p}) seed={seed} pass={pass_index} #{i}",
            "kind": "random", "n": n, "p": p,
            "draw": f"{seed}:{pass_index}:{i}"}


def draw_edges(job):
    """Edges of the job's G(n, p), a pure function of its draw string."""
    rng = random.Random(job["draw"])
    n, p = job["n"], job["p"]
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


def pass_jobs(name, seed, pass_index):
    """The jobs of one pass, in the order the seed gives them."""
    wl = WORKLOADS[name]
    units = [list(u) for u in wl["units"]]
    spec = wl["random"]
    if spec:
        units.extend([random_graph_job(spec, seed, pass_index, i)]
                     for i in range(spec["count"]))
    random.Random(f"{seed}:{pass_index}").shuffle(units)
    return [job for unit in units for job in unit]
