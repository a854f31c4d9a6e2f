"""Self-tests of the benchmark, at tiny size.

    python3 perfbench/selftest.py

1. BENCHMARK.json keeps to its format.
2. A tiny run of each workload (tables, oracle, cli) exits 0, checks
   every item correct and prints exactly the end-to-end metrics.
3. A second run on the same seed, under another hash seed, gives the
   same aggregate digest.
4. A tiny traced run prints exactly the per-layer metrics, and its span
   self times plus the time between items, as the loop measured it, add
   up to its wall time, to within the cost of the per-item wrappers.
5. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark fails without printing a result.

Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run(args, cwd=ROOT, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    return proc


def result(proc, what):
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (what, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload, trace):
    path = os.path.join(ROOT, ".perfbench_out",
                        "run-%s-seed%d-trace%d.json" % (workload, SEED, trace))
    with open(path) as fh:
        return json.load(fh)[workload]


def check_format(bench):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != keys:
        fail("BENCHMARK.json keys %s" % sorted(bench))
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    if len(names) != len(set(names)) or not all(NAME.match(n) for n in names):
        fail("metric or workload names")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail("unit or direction of %s" % m["name"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if not all(0 < b <= 0.25 for b in bounds.values()):
        fail("bounds must lie in (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values()):
        fail("setup_s must have the largest bound")
    if not 1 <= bench["run_seconds"] <= 60:
        fail("run_seconds")
    print("ok   BENCHMARK.json format")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check_format(bench)
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if sorted(workloads) != ["cli", "oracle", "tables"]:
        fail("BENCHMARK.json workloads %s" % workloads)

    for wl in workloads:
        base = ["--workload", wl, "--seed", str(SEED), "--seconds", "1",
                "--tiny"]
        out = result(run(base + ["--trace", "0"]), "tiny %s" % wl)
        if not out["correct"] or out["failed"] or out["attempted"] < 1:
            fail("tiny %s: %d of %d items failed"
                 % (wl, out["failed"], out["attempted"]))
        if set(out["metrics"]) != e2e:
            fail("tiny %s metrics %s" % (wl, sorted(out["metrics"])))
        first = record(wl, 0)["digest"]
        result(run(base + ["--trace", "0"], hashseed="1"), "repeat %s" % wl)
        if record(wl, 0)["digest"] != first:
            fail("%s: same seed gave another aggregate digest" % wl)
        print("ok   %s: tiny run correct, digest %s repeats" % (wl, first))

        out = result(run(base + ["--trace", "1"]), "traced %s" % wl)
        if not out["correct"]:
            fail("traced %s: items failed" % wl)
        if set(out["metrics"]) != per_layer:
            fail("traced %s metrics differ: %s" % (
                wl, sorted(set(out["metrics"]) ^ per_layer)))
        m = out["metrics"]
        # the per-item root wrappers cost microseconds each
        err = m["trace.self_sum_error_s"]["value"]
        if err > 1e-3 * m["trace.traced_s"]["value"]:
            fail("traced %s: self times do not add up to the wall time "
                 "(off by %.3g s)" % (wl, err))
        check_spans(record(wl, 1)["spans_file"])
        print("ok   %s: traced run, overhead %.3f s"
              % (wl, m["trace.overhead_s"]["value"]))

    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", workloads[0], "--seed", "1",
                    "--seconds", "1"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("without sources the benchmark must fail and print nothing")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   fails without sources")
    print("all self-tests passed")


def check_spans(path):
    """Every span lies inside its parent, and carries its item id."""
    spans = []
    with open(os.path.join(ROOT, path)) as fh:
        for line in fh:
            spans.append(json.loads(line))
    if not spans:
        fail("no spans in %s" % path)
    for s in spans:
        if s["end"] is None or s["end"] < s["start"] or s["item"] is None:
            fail("malformed span %s" % s)
        if s["parent"] is not None:
            p = spans[s["parent"]]
            if not (p["start"] <= s["start"] and s["end"] <= p["end"]):
                fail("span %s outside its parent" % s["id"])
            if p["item"] != s["item"]:
                fail("span %s has another item than its parent" % s["id"])


if __name__ == "__main__":
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    main()
