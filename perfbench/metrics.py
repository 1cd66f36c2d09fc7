"""The benchmark's metrics: names, units, directions, layers, and how the
per-layer values are computed from a traced pass.

``BENCHMARK.json`` at the repository root lists the same names, units and
directions; the self-test keeps the two in step.  ``moves`` records which
end-to-end metric a per-layer metric should move, and on which workload.
"""

from __future__ import annotations

from collections import defaultdict

# name, unit, better, bound, what it measures
END_TO_END = [
    ("wall_ref_s", "s", "lower", 0.2,
     "median wall time of one pass over the workload's jobs, after set-up, "
     "in reference seconds (see worker.speed_probe)"),
    ("setup_s", "s", "lower", 0.25,
     "median time from interpreter start through import erpg to GF(q) "
     "and PG(2,q) built for every q of the workload, in reference seconds"),
    ("peak_rss_mb", "MB", "lower", 0.2,
     "median peak resident memory (ru_maxrss) of a pass process"),
    ("jobs_ok_ratio", "ratio", "higher", 0.01,
     "1 - jobs_failed_ratio: jobs that exited as pinned, did not raise "
     "and matched every pinned digest, over jobs attempted"),
]

_CE = "wall_s on certify, export"
_EXPORT = "wall_s on export"
_CERTIFY = "wall_s on certify"
_SOLVE = "wall_s on solve"
_COCLIQUE = "wall_s on certify; on solve through the q = 8, 9 seeding"

# name, unit, better, layer, moves
PER_LAYER = [
    ("field.mul.calls", "count", "lower", "field", _CE),
    ("field.add.calls", "count", "lower", "field", _CE),
    ("field.inv.calls", "count", "lower", "field", _CE),
    ("field.make_field_s", "s", "lower", "field", _CE + "; setup_s"),
    ("plane.line_points.calls", "count", "lower", "plane", _CE),
    ("plane.line_points_s", "s", "lower", "plane", _CE),
    ("plane.normalize.calls", "count", "lower", "plane", _CE),
    ("plane.init_s", "s", "lower", "plane", _CE + "; setup_s"),
    ("polarity.polar_line.calls", "count", "lower", "polarity", _EXPORT),
    ("polarity.build_er_graph_s", "s", "lower", "polarity",
     _EXPORT + "; peak_rss_mb on export"),
    ("polarity.build_er_graph.vertices_per_s", "1/s", "higher", "polarity",
     _EXPORT),
    ("graphs.check_symmetric_s", "s", "lower", "graphs", _EXPORT),
    ("graphs.triangle_count_s", "s", "lower", "graphs", _CERTIFY),
    ("graphs.girth_s", "s", "lower", "graphs", _CERTIFY),
    ("graphs.is_independent_s", "s", "lower", "graphs", _SOLVE),
    ("graphs.encode.graph6_s", "s", "lower", "graphs", _EXPORT),
    ("graphs.encode.graph6.mb_per_s", "MB/s", "higher", "graphs", _EXPORT),
    ("graphs.encode.dimacs_s", "s", "lower", "graphs", _EXPORT),
    ("graphs.encode.dimacs.mb_per_s", "MB/s", "higher", "graphs", _EXPORT),
    ("graphs.encode.csv_s", "s", "lower", "graphs", _EXPORT),
    ("graphs.encode.csv.mb_per_s", "MB/s", "higher", "graphs", _EXPORT),
    ("graphs.decode.graph6_s", "s", "lower", "graphs", _EXPORT),
    ("graphs.decode.graph6.mb_per_s", "MB/s", "higher", "graphs", _EXPORT),
    ("graphs.decode.dimacs_s", "s", "lower", "graphs", _EXPORT),
    ("graphs.decode.dimacs.mb_per_s", "MB/s", "higher", "graphs", _EXPORT),
    ("graphs.decode.csv_s", "s", "lower", "graphs", _EXPORT),
    ("graphs.decode.csv.mb_per_s", "MB/s", "higher", "graphs", _EXPORT),
    ("graphs.solve_s", "s", "lower", "graphs", _SOLVE),
    ("graphs.solve.nodes.er", "count", "lower", "graphs", _SOLVE),
    ("graphs.solve.nodes.random", "count", "lower", "graphs", _SOLVE),
    ("graphs.solve.nodes_per_s", "1/s", "higher", "graphs", _SOLVE),
    ("constructions.build_coclique.odd_sq_neg_s", "s", "lower",
     "constructions", _COCLIQUE),
    ("constructions.build_coclique.odd_sq_pos_s", "s", "lower",
     "constructions", _CERTIFY),
    ("constructions.build_coclique.even_arc_s", "s", "lower",
     "constructions", _COCLIQUE),
    ("constructions.build_coclique.even_sq_subfield_arc_s", "s", "lower",
     "constructions", _CERTIFY),
    ("constructions.denniston_arc_s", "s", "lower", "constructions",
     _COCLIQUE),
    ("constructions.trace_zero_set_s", "s", "lower", "constructions",
     _COCLIQUE),
    ("constructions.point_set_independent_s", "s", "lower", "constructions",
     _COCLIQUE),
    ("constructions.triangle_free_set_s", "s", "lower", "constructions",
     _CERTIFY),
    ("constructions.induced_on_points_s", "s", "lower", "constructions",
     _CERTIFY),
    ("constructions.orbit_census_s", "s", "lower", "constructions", _CERTIFY),
    ("hypergraph.build_s", "s", "lower", "hypergraph", _EXPORT),
    ("hypergraph.edges", "count", "higher", "hypergraph", _EXPORT),
    ("cli.build_s", "s", "lower", "cli", _CERTIFY),
    ("cli.graph_s", "s", "lower", "cli", _EXPORT),
    ("cli.solve_s", "s", "lower", "cli", _SOLVE),
    ("cli.orbits_s", "s", "lower", "cli", _CERTIFY),
    ("cli.self_s", "s", "lower", "cli", _CERTIFY),
    ("trace.overhead_s", "s", "lower", "trace",
     "none: traced wall_s minus untraced wall_s of the same pass"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def span_totals(spans):
    """Per span name: total time, calls, and self time.

    Total time leaves out spans nested in a span of the same name.  Self
    time is a span's duration minus the time its child spans cover.
    """
    total, calls, self_time = defaultdict(float), defaultdict(int), defaultdict(float)
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        self_time[name] += duration - covered[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += duration
    return total, calls, self_time


def layer_values(spans, counts):
    """Every per-layer metric but trace.overhead_s, from one traced pass."""
    total, calls, self_time = span_totals(spans)

    def rate(amount, span):
        return amount / total[span] if total[span] else 0.0

    values = {}
    for name, *_ in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name == "cli.self_s":
            v = sum(t for n, t in self_time.items() if n.startswith("cli."))
        elif name == "graphs.solve.nodes_per_s":
            v = rate(counts.get("graphs.solve.nodes.er", 0)
                     + counts.get("graphs.solve.nodes.random", 0),
                     "graphs.solve")
        elif name.endswith(".mb_per_s"):
            span = name[:-len(".mb_per_s")]
            v = rate(counts.get(span + ".bytes", 0) / 1e6, span)
        elif name.endswith(".vertices_per_s"):
            span = name[:-len(".vertices_per_s")]
            v = rate(counts.get(span + ".vertices", 0), span)
        elif name.endswith("_s"):
            v = total[name[:-2]]
        elif name.endswith(".calls"):
            v = counts.get(name[:-6], calls[name[:-6]])
        else:
            v = counts.get(name, 0)
        values[name] = v
    return values
