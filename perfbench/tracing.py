"""Spans and counters recorded from outside the erpg package.

``Tracer.install`` replaces the public functions of each erpg module with wrappers.
A function imported by name into another module (``erpg.cli.build_er_graph``
is a separate binding from ``erpg.polarity.build_er_graph``), or stored in a
dict such as ``constructions.BUILDERS``, is replaced there too.

Hot field, plane and polarity primitives are only counted, and only when
asked, since counting them slows them several times over.  Everything else
records a span ``[name, start, end, parent]`` in memory, written out when
the pass ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

_clock = time.perf_counter


class Tracer:
    """Records spans; with count_calls, also counts calls of the hot field
    and plane primitives, which slows them several times over."""

    def __init__(self, count_calls=False):
        self.count_calls = count_calls
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()  # tallies added by span wrappers
        self.calls = {}          # name -> [calls] of counted functions
        self.stack = []
        self.tag = None          # input kind of the current job ("er", ...)

    def all_counts(self):
        return {**self.counts, **{n: c[0] for n, c in self.calls.items()}}

    def counted(self, name, fn, arity):
        """Count calls of fn, a method taking arity - 1 arguments.

        The fixed signature keeps the wrapper's cost near one extra call.
        """
        cell = self.calls.setdefault(name, [0])
        if arity == 2:
            def wrapper(obj, a):
                cell[0] += 1
                return fn(obj, a)
        elif arity == 3:
            def wrapper(obj, a, b):
                cell[0] += 1
                return fn(obj, a, b)
        else:
            raise ValueError(f"unsupported arity {arity}")
        return wrapper

    def spanned(self, name, fn, tally=None):
        """Wrap fn in a span; tally(tracer, args, result) returns a
        (counter, amount) pair added to counts after each call."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
            if tally is not None:
                counter, amount = tally(self, args, result)
                self.counts[counter] += amount
            return result
        return wrapper

    def install(self):
        """Wrap the erpg public functions named by the per-layer metrics."""
        from erpg import cli, constructions, field, graphs, hypergraph, plane, polarity

        def method(cls, attr, name, tally=None):
            setattr(cls, attr, self.spanned(name, getattr(cls, attr), tally))

        def counted(cls, attr, name, arity):
            if self.count_calls:
                setattr(cls, attr, self.counted(name, getattr(cls, attr), arity))

        def function(mod, attr, name, tally=None):
            orig = getattr(mod, attr)
            _rebind(orig, self.spanned(name, orig, tally))

        counted(field.FieldCtx, "mul", "field.mul", 3)
        counted(field.FieldCtx, "add", "field.add", 3)
        counted(field.FieldCtx, "inv", "field.inv", 2)
        function(field, "make_field", "field.make_field")

        method(plane.ProjectivePlane, "__init__", "plane.init")
        method(plane.ProjectivePlane, "line_points", "plane.line_points")
        counted(plane.ProjectivePlane, "normalize", "plane.normalize", 2)

        counted(polarity.Polarity, "polar_line", "polarity.polar_line", 2)
        function(polarity, "build_er_graph", "polarity.build_er_graph",
                 lambda t, args, g: ("polarity.build_er_graph.vertices", g.n))

        for attr in ("check_symmetric", "triangle_count", "girth",
                     "is_independent"):
            method(graphs.Graph, attr, f"graphs.{attr}")
        for fmt, enc, dec in (("graph6", "to_graph6", "from_graph6"),
                              ("dimacs", "to_dimacs", "from_dimacs"),
                              ("csv", "to_edgelist_csv", "from_edgelist_csv")):
            function(graphs, enc, f"graphs.encode.{fmt}",
                     lambda t, args, data, f=fmt: (f"graphs.encode.{f}.bytes",
                                                   len(data)))
            function(graphs, dec, f"graphs.decode.{fmt}",
                     lambda t, args, g, f=fmt: (f"graphs.decode.{f}.bytes",
                                                len(args[0])))
        function(graphs, "max_independent_set", "graphs.solve",
                 lambda t, args, res: (f"graphs.solve.nodes.{t.tag}", res.nodes))

        for family, builder in list(constructions.BUILDERS.items()):
            _rebind(builder, self.spanned(
                f"constructions.build_coclique.{family}", builder))
        for attr, name in (("denniston_arc", "denniston_arc"),
                           ("trace_zero_set", "trace_zero_set"),
                           ("point_set_independent", "point_set_independent"),
                           ("triangle_free_set", "triangle_free_set"),
                           ("induced_on_points", "induced_on_points"),
                           ("orbit_census_odd_square", "orbit_census")):
            function(constructions, attr, f"constructions.{name}")

        function(hypergraph, "build_hypergraph", "hypergraph.build",
                 lambda t, args, h: ("hypergraph.edges", h.num_edges()))

        for command in ("build", "graph", "solve", "orbits"):
            function(cli, f"cmd_{command}", f"cli.{command}")


def _rebind(orig, wrapper):
    """Replace every binding of orig in the erpg modules by wrapper."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "erpg" or modname.startswith("erpg.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapper

