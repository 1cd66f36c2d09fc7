"""Command-line front end.

Subcommands:

* ``build``  -- construct and certify a coclique or triangle-free set
* ``graph``  -- export ER_q in graph6 / DIMACS / CSV
* ``solve``  -- exact maximum-independent-set on ER_q
* ``orbits`` -- orbit census for odd square q
* ``table``  -- bound table with constructed sizes

Exit codes, the same for every command: 0 success, 2 invalid arguments (any
ValueError, an --out that cannot be opened too), 3 verification failure (any
AssertionError, such as a VerificationError), 4 bound violation (3 and 4
indicate an implementation bug), 141 stdout closed by its reader (as in
``erpg graph ... | head``), with nothing printed to stderr.
Identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import os
import sys
import time

from . import constructions as cons
from . import graphs as gr
from .constructions import VerificationError, alpha_bounds
from .field import field_for_order
from .plane import ProjectivePlane
from .polarity import build_er_graph

EXIT_USAGE = 2
EXIT_VERIFICATION = 3
EXIT_BOUND = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports it

class BoundViolation(Exception):
    """A solved value contradicts the known bounds on alpha(ER_q)."""


def _report(args, parameters, summary, outputs=()):
    if args.json:
        doc = {"command": args.command, "parameters": parameters,
               "result": summary, "output_paths": list(outputs)}
        if args.timings:
            doc["wall_time_s"] = time.monotonic() - args.t0
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for k, v in summary.items():
            print(f"{k}: {v}")
        for p in outputs:
            print(f"wrote {p}")


def _open_out(path, mode, **kwargs):
    try:
        return open(path, mode, **kwargs)
    except OSError as e:
        raise ValueError(f"cannot open --out {path!r}: {e.strerror}") from e


def _check_out_dir(path):
    """Raise the error of `_open_out` for an --out whose directory is
    missing (or is a file) before any field or row is built.  The file
    itself is opened after the build, so a build that fails verification
    leaves no file."""
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        raise ValueError(f"cannot open --out {path!r}: {os.strerror(code)}")


# ---------------------------------------------------------------------------

def cmd_build(args):
    q = args.q
    triangle_free = args.construction == "triangle-free"
    if triangle_free:
        cert, girth = cons.triangle_free_certificate(q)
    else:
        cert = cons.build_coclique(q)
    if not cert.verified or not all(cert.verified.values()):
        raise VerificationError("certificate verification failed")
    summary = {"construction": cert.construction_id, "q": q, "size": cert.size}
    if triangle_free:
        summary.update(regular=q // 2, girth=girth)
    else:
        summary.update(claimed_size=cert.claimed_size, verified=cert.verified)
    if cert.extension:
        summary["extension_candidates"] = cert.extension["candidate_count"]
        summary["greedy_extended_size"] = cert.extension["greedy_size"]
    outputs = []
    if args.out:
        with _open_out(args.out, "w") as fh:
            fh.write(cert.to_json() + "\n")
        outputs.append(args.out)
    _report(args, {"q": q, "construction": args.construction},
            summary, outputs)


def cmd_graph(args):
    """Export ER_q to --out, or to stdout with a final newline added to
    graph6, the one format without one.  The encoder's pieces are written
    as they come, so the whole file is never held in memory."""
    q = args.q
    plane = ProjectivePlane(field_for_order(q))
    g = build_er_graph(plane)
    m = g.num_edges()
    if m != q * (q + 1) ** 2 // 2:
        raise VerificationError(
            f"ER_{q} has {m} edges, expected {q * (q + 1) ** 2 // 2}")
    pieces = gr.export_pieces(g, args.format)
    if args.out:
        # DIMACS and CSV pieces are a row each, a few hundred bytes: a
        # 64 KiB buffer makes one system call per 64 KiB, not per 8 KiB.
        sink = _open_out(args.out, "wb", buffering=1 << 16)
    else:
        sink = contextlib.nullcontext(sys.stdout.buffer)
        if args.format == "graph6":
            pieces = itertools.chain(pieces, [b"\n"])
    with sink as fh:
        fh.writelines(pieces)
    _report(args, {"q": q, "format": args.format},
            {"n": g.n, "m": m}, [args.out] if args.out else [])


def cmd_solve(args):
    q = args.q
    budget = gr.SolveBudget(max_nodes=args.budget)
    plane = ProjectivePlane(field_for_order(q))
    g = build_er_graph(plane)
    lower, upper, note = alpha_bounds(q)
    initial = None
    if not note:  # q has a coclique construction
        initial = [plane.index_of(pt) for pt in cons.build_coclique(q).points]
    res = gr.max_independent_set(g, budget, initial=initial)
    violation = None
    if res.size > upper:
        violation = f"value {res.size} exceeds upper bound {upper}"
    if res.status == "optimal" and not note and res.size < lower:
        violation = f"optimal value {res.size} below lower bound {lower}"
    summary = {"q": q, "alpha": res.size, "status": res.status,
               "nodes": res.nodes, "lower_bound": lower,
               "upper_bound": upper}
    _report(args, {"q": q, "budget": args.budget}, summary)
    if violation:
        raise BoundViolation(f"bound violation: {violation}")


def cmd_orbits(args):
    q = args.q
    census = cons.orbit_census_odd_square(q)
    ok = census.matches_expected()
    summary = {
        "q": q,
        "census": [{"class": c, "orbit_size": s, "multiplicity": m}
                   for c, s, m in census.entries],
        "status": "PASS" if ok else "FAIL",
    }
    _report(args, {"q": q}, summary)
    if not ok:
        raise VerificationError("orbit census mismatch")


TABLE_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 81, 121, 128]


def cmd_table(args):
    rows = []
    for q in TABLE_Q:
        lower, upper, note = alpha_bounds(q)
        built = "" if note else cons.build_coclique(q).size
        rows.append({"q": q, "lower": lower, "upper": upper,
                     "constructed": built, "note": note})
    if args.json:
        print(json.dumps({"command": "table", "rows": rows}, indent=2,
                         sort_keys=True))
    else:
        print(f"{'q':>5} {'lower':>8} {'constructed':>12} {'upper':>8}  note")
        for r in rows:
            print(f"{r['q']:>5} {r['lower']:>8} {str(r['constructed']):>12} "
                  f"{r['upper']:>8}  {r['note']}")


# ---------------------------------------------------------------------------

def make_parser():
    p = argparse.ArgumentParser(
        prog="erpg",
        description="Polarity graphs of PG(2,q): constructions, "
                    "verification, exact solving")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct and certify a point set")
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--construction", choices=["auto", "triangle-free"],
                   default="auto")
    b.add_argument("--out")
    b.add_argument("--json", action="store_true")
    b.add_argument("--timings", action="store_true")
    b.set_defaults(func=cmd_build)

    g = sub.add_parser("graph", help="export ER_q")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--format", choices=["graph6", "dimacs", "csv"],
                   required=True)
    g.add_argument("--out")
    g.add_argument("--json", action="store_true")
    g.add_argument("--timings", action="store_true")
    g.set_defaults(func=cmd_graph)

    s = sub.add_parser("solve", help="exact alpha(ER_q)")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--budget", type=int, default=gr.SolveBudget.max_nodes)
    s.add_argument("--json", action="store_true")
    s.add_argument("--timings", action="store_true")
    s.set_defaults(func=cmd_solve)

    o = sub.add_parser("orbits", help="orbit census, odd square q")
    o.add_argument("--q", type=int, required=True)
    o.add_argument("--json", action="store_true")
    o.add_argument("--timings", action="store_true")
    o.set_defaults(func=cmd_orbits)

    t = sub.add_parser("table", help="bound table")
    t.add_argument("--json", action="store_true")
    t.set_defaults(func=cmd_table)
    return p


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    args.t0 = time.monotonic()
    try:
        if getattr(args, "out", None):
            _check_out_dir(args.out)
        if hasattr(args, "q"):
            field_for_order(args.q)
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so that the flush
        # at exit cannot fail again (see the SIGPIPE note in Python's
        # `signal` docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except BoundViolation as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BOUND
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as e:  # VerificationError and every self-check
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFICATION
    return 0


if __name__ == "__main__":
    sys.exit(main())
