"""One pass of a workload in a fresh process (started by run.py).

The process imports erpg from the checkout's ``src``, builds the field and
the plane for every q of the workload (the set-up), runs the pass's jobs one
after another, checks each output against ``pins.json`` and writes its
result as JSON to ``--result``.  With ``--trace`` it wraps the erpg modules
first (see tracing.py) and writes the spans next to the result.

Usage: worker.py --workload NAME --seed N --pass I --result PATH
                 [--trace none|spans|counts] [--setup-only]

``--trace spans`` records spans; ``--trace counts`` also counts the calls
of the hot primitives, which distorts the span times.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS_PATH = os.path.join(HERE, "pins.json")

import workloads  # noqa: E402  (sibling module; HERE is sys.path[0])

# setup_s runs from process start to the end of setup(), so only what set-up
# needs is imported above; the rest is imported where it is used.

_clock = time.perf_counter

PROBE_LOOPS = 7_500
REFERENCE_PROBE_S = 0.002  # probe time at the reference CPU speed
SAMPLE_EVERY_S = 0.05      # probe interval inside a job
M_MMAP_THRESHOLD = -3      # mallopt parameter, from glibc's malloc.h


def speed_probe():
    """Seconds taken by a fixed pure-Python loop of integer and dict work.

    The CPU speed of a shared host can swing twofold within seconds.  Scaling
    a time by REFERENCE_PROBE_S / (mean probe time around and during it)
    gives it in reference seconds, which cancels most of that swing.
    """
    t = _clock()
    table, s = {}, 0
    for i in range(PROBE_LOOPS):
        table[i & 1023] = s
        s = (s * 31 + i) & 0xFFFFF
        s ^= table.get((i * 7) & 1023, 0)
    return _clock() - t


class Stopwatch:
    """Times a job; with sample, also runs speed_probe every SAMPLE_EVERY_S
    from a SIGALRM handler and leaves the probes' time out of the job's."""

    def __init__(self, sample):
        self.sample = sample
        self.probes = []
        self.seconds = 0.0
        self._paused = 0.0

    def _probe(self, signum, frame):
        t = _clock()
        self.probes.append(speed_probe())
        self._paused += _clock() - t

    def __enter__(self):
        if self.sample:
            import signal
            signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = _clock()
        return self

    def __exit__(self, *exc):
        if self.sample:
            import signal
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = _clock() - self._start - self._paused


class JobError(Exception):
    """A job's output failed a check that does not need a pin."""


def sha256(data: bytes) -> str:
    import hashlib
    return hashlib.sha256(data).hexdigest()


def graph_digest(g) -> str:
    import hashlib
    width = (g.n + 7) // 8
    h = hashlib.sha256(str(g.n).encode())
    for row in g.adj:
        h.update(row.to_bytes(width, "little"))
    return h.hexdigest()


def _mis_problem(edges, n, vertices):
    """Why vertices is not a maximal independent set of G, or None."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    chosen = 0
    for v in vertices:
        chosen |= 1 << v
    if len(vertices) != bin(chosen).count("1"):
        return "repeated vertices"
    for v in vertices:
        if adj[v] & chosen:
            return f"vertex {v} has a neighbour in the set"
    for v in range(n):
        if not chosen >> v & 1 and not adj[v] & chosen:
            return f"vertex {v} could be added"
    return None


def run_job(job, watch):
    """Run one job timed by watch; return the outputs compared to the pin."""
    import contextlib
    import io
    from erpg import cli, graphs, hypergraph
    kind = job["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with watch, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(job["argv"])
        files = {}
        for name in job["files"]:
            with open(name, "rb") as fh:
                files[name] = sha256(fh.read())
        return {"exit": code, "stdout": sha256(out.getvalue().encode()),
                "files": files}
    if kind == "decode":
        decode = {"graph6": graphs.from_graph6, "dimacs": graphs.from_dimacs,
                  "csv": graphs.from_edgelist_csv}[job["fmt"]]
        with watch, open(job["path"], "rb") as fh:
            g = decode(fh.read())
        return {"graph": graph_digest(g)}
    if kind == "hyper":
        with watch:
            h = hypergraph.build_hypergraph(job["q"])
        return {"edges": h.num_edges(),
                "digest": sha256(repr((h.vertices, h.edges)).encode())}
    if kind == "random":
        edges = workloads.draw_edges(job)
        g = graphs.Graph.from_edges(job["n"], edges)
        with watch:
            res = graphs.max_independent_set(g)
        if res.status != "optimal":
            raise JobError(f"solver status {res.status}")
        if len(res.vertices) != res.size:
            raise JobError("size disagrees with the vertex list")
        problem = _mis_problem(edges, job["n"], res.vertices)
        if problem:
            raise JobError(problem)
        return {"alpha": res.size}
    raise ValueError(f"unknown job kind {kind!r}")


def check(job, observed, pins):
    """None if observed matches the pinned reference, else the reason."""
    want = pins.get(job["key"])
    if want is None:
        # Random graphs are pinned for the default seed only; off it the
        # optimality and independence checks in run_job stand alone.
        return None if job["kind"] == "random" else "no pinned reference"
    if observed != want:
        diff = sorted(k for k in set(want) | set(observed)
                      if want.get(k) != observed.get(k))
        return f"differs from the pin in {', '.join(diff)}"
    return None


def run_pass(jobs, pins, tracer=None):
    """Run jobs in order; returns per-job records (key, kind, seconds,
    probe_s, error), probe_s being the mean speed probe around and, when
    not tracing, during the job."""
    records = []
    trim = heap_trimmer()
    probe = speed_probe()
    for job in jobs:
        if tracer is not None:
            tracer.tag = "random" if job["kind"] == "random" else "er"
        watch, error = Stopwatch(sample=tracer is None), None
        try:
            error = check(job, run_job(job, watch), pins)
        except Exception as e:  # a failing job is counted, not fatal
            error = f"{type(e).__name__}: {e}"
        after = speed_probe()
        probes = [probe, *watch.probes, after]
        records.append({"key": job["key"], "kind": job["kind"],
                        "seconds": watch.seconds,
                        "probe_s": sum(probes) / len(probes), "error": error})
        trim()
        probe = speed_probe()
    return records


def heap_trimmer():
    """A function that hands the heap's free memory back to the OS.

    It also fixes glibc's mmap threshold at its default, which glibc would
    otherwise raise after the first large free.  Run between jobs, both keep
    the memory an earlier job leaves behind out of a later job's peak, so
    a pass's peak does not depend on its job order.  Off glibc it does
    nothing.
    """
    import ctypes
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "malloc_trim"):
        return lambda: None
    libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024)

    def trim():
        import gc
        gc.collect()
        libc.malloc_trim(0)
    return trim


def setup(qs, tracer=None):
    """Import erpg and build GF(q) and PG(2,q) for every q."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import erpg  # noqa: F401
    from erpg.field import field_for_order
    from erpg.plane import ProjectivePlane
    if tracer is not None:
        tracer.install()
    for q in qs:
        ProjectivePlane(field_for_order(q))


def parse_args(argv):
    """The options of the usage line above.  argparse is not used because
    its import would count toward setup_s."""
    opts = {"trace": "none", "setup-only": False}
    args = iter(argv)
    for arg in args:
        if arg == "--setup-only":
            opts["setup-only"] = True
        elif arg[2:] in ("workload", "seed", "pass", "trace", "result"):
            opts[arg[2:]] = next(args, None)
        else:
            sys.exit(f"worker.py: unknown option {arg!r}")
    missing = [k for k in ("workload", "seed", "pass", "result")
               if opts.get(k) is None]
    if missing:
        sys.exit(f"worker.py: missing --{', --'.join(missing)}")
    if opts["workload"] not in workloads.WORKLOADS:
        sys.exit(f"worker.py: unknown workload {opts['workload']!r}")
    if opts["trace"] not in ("none", "spans", "counts"):
        sys.exit(f"worker.py: unknown trace mode {opts['trace']!r}")
    return opts


def main(argv=None):
    opts = parse_args(sys.argv[1:] if argv is None else argv)
    tracer = None
    if opts["trace"] != "none":
        import tracing
        tracer = tracing.Tracer(count_calls=opts["trace"] == "counts")
    setup(workloads.WORKLOADS[opts["workload"]]["qs"], tracer)
    result = {"setup_end": time.monotonic()}

    import json
    import resource
    import statistics
    result["setup_probe_s"] = statistics.median(speed_probe()
                                                for _ in range(3))
    if not opts["setup-only"]:
        with open(PINS_PATH) as fh:
            pins = json.load(fh)
        jobs = workloads.pass_jobs(opts["workload"], int(opts["seed"]),
                                   int(opts["pass"]))
        workdir = os.path.splitext(opts["result"])[0]
        os.mkdir(workdir)
        os.chdir(workdir)
        result["jobs"] = run_pass(jobs, pins, tracer)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["counts"] = tracer.all_counts()
            result["spans_path"] = opts["result"] + ".spans"
            with open(result["spans_path"], "w") as fh:
                json.dump(tracer.spans, fh)
    with open(opts["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
