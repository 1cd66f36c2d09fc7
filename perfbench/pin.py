"""Write pins.json: the reference output of every benchmark job.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/pin.py

A CLI job is pinned by its exit code (which must be 0) and the sha256 of its
stdout and of every file it writes; a round trip by the digest of the decoded
graph; the hypergraph by its edge count and digest; a random graph by its
independence number, for the default seed and the first PINNED_PASSES passes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import worker
import workloads

PINNED_PASSES = 10


def main():
    worker.setup([])
    pins = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=worker.ROOT) as tmp:
        os.chdir(tmp)
        for name in workloads.WORKLOADS:
            for i in range(PINNED_PASSES):
                for job in workloads.pass_jobs(name, workloads.DEFAULT_SEED, i):
                    if i and job["kind"] != "random":
                        continue
                    observed = worker.run_job(job, worker.Stopwatch(False))
                    if observed.get("exit", 0) != 0:
                        sys.exit(f"{job['key']}: exit code {observed['exit']}")
                    if pins.setdefault(job["key"], observed) != observed:
                        sys.exit(f"{job['key']}: output differs between runs")
                    print(job["key"], flush=True)
        os.chdir(worker.ROOT)
    with open(worker.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} jobs in {worker.PINS_PATH}")


if __name__ == "__main__":
    main()
