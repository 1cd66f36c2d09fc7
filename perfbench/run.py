"""Benchmark of the erpg pipeline: certify, export and solve workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Each pass of a workload runs in a fresh single-threaded process (worker.py)
that calls ``erpg.cli.main`` in-process for every CLI job, one job after
another, and checks every output against ``perfbench/pins.json``.  Passes
repeat until ``--seconds`` would be exceeded.

``--trace 0`` prints the end-to-end metrics: the medians over passes of the
pass wall time, and of set-up time over several extra set-up-only
processes, both in reference seconds (see worker.speed_probe).
``--trace 1`` prints the per-layer metrics (see metrics.py) from passes of
the same inputs: one untraced, one counting calls of the hot primitives
(counts are taken from it), then passes recording spans only (times are
their medians).  A run ends within HARD_LIMIT_S: if a span pass would not
end well before it, none runs and the times come from the counting pass.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

import metrics    # noqa: E402  (sibling modules; HERE is sys.path[0])
import workloads  # noqa: E402
from worker import REFERENCE_PROBE_S  # noqa: E402

SETUP_SAMPLES = 11  # set-up-only processes per untraced run
HARD_LIMIT_S = 170  # no run may take longer than this, whatever --seconds
DEADLINE_MARGIN_S = 10  # an optional pass must end this long before it
SPANS_SLOWDOWN = 1.5    # a span pass's time over an untraced pass's, at most


def start_worker(tmp, tag, args, hard_deadline):
    """Run worker.py to completion and return its result.

    ``setup_s`` is the time from just before the process starts to the end
    of its set-up; CLOCK_MONOTONIC is shared by all processes on Linux.
    """
    result = os.path.join(tmp, f"{tag}.json")
    env = dict(os.environ)
    env.pop("ERPG_BUDGET_NODES", None)  # keep the solver's default budget
    t0 = time.monotonic()
    subprocess.run([sys.executable, WORKER, *args, "--result", result],
                   env=env, stdout=subprocess.DEVNULL, check=True,
                   timeout=max(1.0, hard_deadline - t0))
    with open(result) as fh:
        res = json.load(fh)
    res["setup_s"] = res["setup_end"] - t0
    return res


def run_passes(tmp, common, trace, deadline, hard_deadline, vary_inputs,
               expected=None):
    """Passes while the next one is expected to end by ``deadline``.

    The first pass runs whatever ``deadline`` says, unless it is expected
    to take ``expected`` seconds and would then end less than
    DEADLINE_MARGIN_S before ``hard_deadline``.  With vary_inputs, pass i
    uses pass index i (its own job order and random graphs); otherwise
    every pass repeats pass 0's inputs.
    """
    passes, durations = [], []
    if (expected is not None and
            time.monotonic() + expected > hard_deadline - DEADLINE_MARGIN_S):
        return passes
    while True:
        i = len(passes)
        t = time.monotonic()
        passes.append(start_worker(
            tmp, f"pass-{trace}-{i}",
            common + ["--pass", str(i if vary_inputs else 0),
                      "--trace", trace], hard_deadline))
        durations.append(time.monotonic() - t)
        if time.monotonic() + statistics.median(durations) > deadline:
            return passes


def pass_wall(p):
    return sum(j["seconds"] for j in p["jobs"])


def pass_wall_ref(p):
    """Pass wall time in reference seconds, job by job (see speed_probe)."""
    return sum(j["seconds"] * REFERENCE_PROBE_S / j["probe_s"]
               for j in p["jobs"])


def setup_ref(res):
    return res["setup_s"] * REFERENCE_PROBE_S / res["setup_probe_s"]


def measure(args, tmp, hard_deadline):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [start_worker(tmp, f"setup-{i}",
                           common + ["--pass", "0", "--setup-only"],
                           hard_deadline)
              for i in range(SETUP_SAMPLES)]
    passes = run_passes(tmp, common, "none", time.monotonic() + args.seconds,
                        hard_deadline, True)
    setups += passes
    values = {
        "wall_ref_s": statistics.median(pass_wall_ref(p) for p in passes),
        "setup_s": statistics.median(setup_ref(p) for p in setups),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024
                                         for p in passes),
    }
    raw = {"raw wall_s": statistics.median(pass_wall(p) for p in passes),
           "raw setup_s": statistics.median(p["setup_s"] for p in setups)}
    walls = ", ".join(f"{pass_wall(p):.3f}" for p in passes)
    peaks = ", ".join(f"{p['maxrss_kb'] / 1024:.1f}" for p in passes)
    return (values, passes,
            f"{len(setups)} set-ups, {len(passes)} passes of wall_s {walls}"
            f" and peak MB {peaks}; "
            + ", ".join(f"{k} {v!r} s" for k, v in raw.items()))


def measure_traced(args, tmp, hard_deadline):
    """Per-layer values from passes of one input: an untraced pass, a
    counting pass, then span passes while the next is expected to end
    within --seconds.  The first span pass is skipped only if it would end
    near the hard deadline; times are then the counting pass's."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.monotonic()
    untraced = run_passes(tmp, common, "none", 0, hard_deadline, False)[0]
    untraced_s = time.monotonic() - t0
    counting = run_passes(tmp, common, "counts", 0, hard_deadline, False)[0]
    timing = run_passes(tmp, common, "spans", t0 + args.seconds,
                        hard_deadline, False,
                        expected=SPANS_SLOWDOWN * untraced_s)
    per_pass = []
    for p in [counting] + timing:
        with open(p["spans_path"]) as fh:
            spans = json.load(fh)
        os.remove(p["spans_path"])
        v = metrics.layer_values(spans, p["counts"])
        v["trace.overhead_s"] = pass_wall(p) - pass_wall(untraced)
        per_pass.append(v)
    counts, timed = per_pass[0], per_pass[1:] or per_pass[:1]
    values = {name: counts[name] if unit == "count"
              else statistics.median(v[name] for v in timed)
              for name, unit, *_ in metrics.PER_LAYER}
    return (values, [untraced, counting] + timing,
            f"1 counting and {len(timing)} timing passes"
            + ("" if timing else " (times from the counting pass)"))


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "commit": git_commit(),
            "seed": seed}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "erpg", "__init__.py")):
        print(f"error: no erpg sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            values, passes, samples = (measure_traced if args.trace
                                       else measure)(args, tmp, hard_deadline)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1

    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if j["error"]]
    for j in failed:
        print(f"FAIL {j['key']}: {j['error']}")
    if not args.trace:
        values["jobs_ok_ratio"] = 1 - len(failed) / len(jobs)
        print(f"{args.workload} jobs_failed_ratio {len(failed) / len(jobs)!r} "
              f"({len(failed)} of {len(jobs)} jobs)")
    for name, value in values.items():
        print(f"{args.workload} {name} {value!r} {metrics.UNITS[name]}")
    print(f"{args.workload} samples: {samples}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(json.dumps({
        "correct": not failed, "attempted": len(jobs), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
