"""chevmc benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Each workload runs in a child process (perfbench/worker.py), a closed
loop with one caller and no pool.  The report lists every metric by
name with its unit and sample count; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  --workload all runs the three
workloads in turn and prefixes each metric with its workload.  --tiny
runs one short round, for smoke tests.

Run files (the run record and, for traced runs, the spans) are written
under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("tables", "oracle", "cli")
CHILD_TIMEOUT_S = 170


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_child(workload, args, out_path):
    """Run one workload in a child; returns (summary, peak RSS in MB)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ)
    env.pop("CHEVMC_CACHE_DIR", None)
    env["PYTHONPATH"] = SRC
    env.setdefault("PYTHONHASHSEED", "0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError("workload %s exited with %d"
                           % (workload, proc.returncode))
    with open(out_path) as fh:
        summary = json.load(fh)
    os.unlink(out_path)
    return summary, usage.ru_maxrss / 1024.0


def end_to_end(summary, rss_mb):
    """{name: (value, unit, sample note)} of the end-to-end metrics.
    Times are scaled to the reference machine speed (perfbench/speed.py);
    the notes give the raw figures and the speed of the run."""
    done = summary["executions"]
    runs = "n=%d executions in %d rounds" % (done, summary["rounds"])
    raw = "raw %%.4g %%s at speed %.3f" % summary["speed"]
    setups, raw_setups = summary["setup_s"], summary["raw_setup_s"]
    return {
        "items_per_s": (done / summary["busy_s"], "1/s", "%s; %s" % (
            runs, raw % (done / summary["raw_busy_s"], "1/s"))),
        "item_p50_ms": (1000 * summary["p50_s"], "ms", "%s; %s" % (
            runs, raw % (1000 * summary["raw_p50_s"], "ms"))),
        "item_tail_ms": (1000 * summary["tail_s"], "ms", "p%g, %s; %s" % (
            summary["tail_pct"], runs,
            raw % (1000 * summary["raw_tail_s"], "ms"))),
        "setup_s": (statistics.median(setups), "s",
                    "median of n=%d set-ups; raw %.4g s" % (
                        len(setups), statistics.median(raw_setups))),
        "peak_rss_mb": (rss_mb, "MB", "n=1 process"),
        "fail_ratio": (summary["failed"] / max(done, 1), "ratio",
                       "n=%d executions, %d failed" % (done, summary["failed"])),
    }


# fail_ratio is 0 on correct code, so it is carried by `failed` and
# `attempted` in the JSON line rather than as a metric
REPORT_ONLY = ("fail_ratio",)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="chevmc benchmark",
        epilog="workloads: tables, oracle, cli (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one short round per workload (smoke test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chevmc", "__init__.py")):
        print("error: no chevmc sources under %s" % SRC, file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    nproc = os.cpu_count() or 1
    record = {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu_model(),
        "commit": git_commit(),
        "loadavg_start": loadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            out_path = os.path.join(out_dir, "child-%s-%d.json"
                                    % (name, os.getpid()))
            results[name] = run_child(name, args, out_path)
    except (RuntimeError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    record["loadavg_end"] = loadavg()
    loads = [x[0] for x in (record["loadavg_start"], record["loadavg_end"]) if x]
    record["overloaded"] = any(x > nproc for x in loads)

    lines = [
        "chevmc benchmark: seed %d, %gs, trace %d%s"
        % (args.seed, args.seconds, args.trace, ", tiny" if args.tiny else ""),
        "run: python %s, nproc %d, cpu %s, commit %s, loadavg %s -> %s%s"
        % (record["python"], nproc, record["cpu"], record["commit"][:12],
           record["loadavg_start"], record["loadavg_end"],
           "  WARNING: load above nproc" if record["overloaded"] else ""),
    ]
    metrics = {}
    attempted = failed = 0
    for name, (summary, rss) in results.items():
        prefix = "" if len(names) == 1 else name + "."
        attempted += summary["executions"]
        failed += summary["failed"]
        lines.append("workload %s: %d executions, digest %s, %d with a "
                     "reference digest" % (name, summary["executions"],
                                           summary["digest"],
                                           summary["covered"]))
        if args.trace:
            rows = {k: (v, u, "") for k, (v, u) in summary["per_layer"].items()}
            lines.append("  spans written to %s" % summary["spans_file"])
        else:
            rows = end_to_end(summary, rss)
        for key, (value, unit, note) in rows.items():
            lines.append("  %-34s %14.6g %-6s %s" % (key, value, unit, note))
            if key not in REPORT_ONLY:
                metrics[prefix + key] = {"value": value, "unit": unit}
        for err in summary["errors"]:
            lines.append("  FAIL %s" % err)
        record[name] = summary
    with open(os.path.join(out_dir, "run-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
