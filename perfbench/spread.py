"""Run the benchmark once per seed on each workload and report, for every
end-to-end metric, the median and the quartile spread: (Q3 - Q1) / median,
with the quartiles of ``statistics.quantiles(values, n=4)``.  A benchmark
is steady when each spread but that of setup_s is below a third of the
metric's bound.

It runs seeds 1 to RUNS on every workload of ``BENCHMARK.json``, each for
its ``run_seconds``.  Run from the root of a checkout:

    python3 perfbench/spread.py --out perfbench/baseline.json

``--out`` writes the environment (with the CPU model), every value, the
medians and the spreads as JSON; ``baseline.json`` holds them for the
commit that defined the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import metrics
from run import HERE, ROOT, environment

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
RUNS = 10


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the report as JSON to this file")
    args = ap.parse_args()

    bounds = {name: bound for name, _, _, bound, _ in metrics.END_TO_END}
    seconds = bench["run_seconds"]
    report = {"environment": {**environment(1), "cpu": cpu_model(),
                              "runs": RUNS, "seconds": seconds},
              "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
            res = json.loads(proc.stdout.splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        summary = {}
        for name, vals in values.items():
            s = spread(vals)
            summary[name] = {"median": statistics.median(vals), "spread": s,
                             "bound": bounds[name], "values": vals}
            print(f"  {workload:8} {name:14} median {statistics.median(vals):.6g}"
                  f" {metrics.UNITS[name]:5} spread {s:.4f}"
                  f" ({s / bounds[name]:.2f} of bound {bounds[name]})",
                  flush=True)
        report["workloads"][workload] = summary
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
