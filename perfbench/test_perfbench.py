"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

It uses the ``smoke`` workload (every job kind at q <= 9), which takes
seconds.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics    # noqa: E402
import workloads  # noqa: E402


def run(root, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", "smoke", "--seconds", "0", *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def copy_checkout(dst, with_sources=True):
    shutil.copytree(HERE, os.path.join(dst, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return str(dst)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _ in metrics.END_TO_END]
    assert bench["per_layer"] == [
        {"name": n, "unit": u, "better": b}
        for n, u, b, _, _ in metrics.PER_LAYER]
    named = [w["name"] for w in bench["workloads"]]
    assert set(named) == set(workloads.WORKLOADS) - {"smoke"}


@pytest.mark.parametrize("trace, table", [("0", metrics.END_TO_END),
                                          ("1", metrics.PER_LAYER)])
def test_smoke_run_emits_every_metric(trace, table):
    res = result(run(ROOT, "--seed", "5", "--trace", trace))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert list(res["metrics"]) == [name for name, *_ in table]
    for name, unit, *_ in table:
        assert res["metrics"][name]["unit"] == unit
    if trace == "0":
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        res = result(run(ROOT, "--seed", "2", "--trace", "1"))
        counts.append({name: m["value"] for name, m in res["metrics"].items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["graphs.solve.nodes.er"] > 0
    assert counts[0]["graphs.solve.nodes.random"] > 0


def test_corrupted_pin_counts_as_failed_job(tmp_path):
    root = copy_checkout(tmp_path)
    pins_path = os.path.join(root, "perfbench", "pins.json")
    with open(pins_path) as fh:
        pins = json.load(fh)
    pins["orbits --q 9"]["stdout"] = "0" * 64
    with open(pins_path, "w") as fh:
        json.dump(pins, fh)
    proc = run(root, "--trace", "0")
    res = result(proc)
    assert not res["correct"] and res["failed"] > 0
    assert res["metrics"]["jobs_ok_ratio"]["value"] < 1
    assert "FAIL orbits --q 9: differs from the pin in stdout" in proc.stdout
    assert not glob.glob(os.path.join(root, ".perfbench-*"))


def test_refuses_to_run_without_the_sources(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    proc = run(root, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    spans = [["cli.build", 0.0, 10.0, -1],
             ["plane.line_points", 1.0, 3.0, 0],
             ["plane.line_points", 4.0, 5.0, 0],
             ["cli.build", 6.0, 8.0, 0]]
    total, calls, self_time = metrics.span_totals(spans)
    assert total["cli.build"] == 10.0          # the nested call is inside
    assert calls["cli.build"] == 2
    assert total["plane.line_points"] == 3.0
    assert self_time["cli.build"] == (10.0 - 5.0) + 2.0
