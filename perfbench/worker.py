"""One workload run, in its own process so that its peak RSS is its own.

Started by run.py; writes a JSON summary to --out.  Untraced runs set up
several times (fresh imports each time; see SETUP_REPEATS), then run as
many rounds, drawn one after another from the seed, as --seconds holds
rounds of the workload's nominal length.  Latency metrics take every
execution, each scaled to the reference machine speed (speed.py).  Traced runs set up
once with every layer wrapped, run the timed pass the same way, then set
up again untraced and replay exactly the same rounds, so that the
difference of the two is the tracing overhead.

Each item's result is digested right after the item, with the clock
stopped; checks that call the library again run after the pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import pkgutil
import random
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from speed import Speed  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = (5, 25)   # set-ups per run: at least, at most
SETUP_MIN_S = 1.0         # and until they add up to this much
TAIL_LADDER = (99.9, 99.5, 99, 95, 90, 75, 50)
TINY_ITEMS = 40
REFERENCE = os.path.join(HERE, "reference.json")
clock = time.perf_counter


def fresh_import():
    """Import every module of the package anew, so that each set-up pays
    for its imports."""
    for name in [n for n in sys.modules
                 if n == "chevmc" or n.startswith("chevmc.")]:
        del sys.modules[name]
    pkg = importlib.import_module("chevmc")
    return {
        info.name: importlib.import_module("chevmc." + info.name)
        for info in pkgutil.iter_modules(pkg.__path__)
        if not info.name.startswith("_")
    }


def round_count(wl, seconds, tiny=False, traced=False):
    """As many rounds as `seconds` holds rounds of the workload's nominal
    length, at least one; one when tiny, and half as many when traced,
    since the traced pass is replayed untraced.  A fixed count rather
    than a deadline keeps the item count, and so the tail percentile,
    the same on a slow machine."""
    if tiny:
        return 1
    n = max(1, int(seconds / wl.ROUND_S + 0.5))
    return max(1, n // 2) if traced else n


def set_up(wl, seed, n_rounds, tracer=None, tiny=False):
    """(seconds, seconds after the imports, ctx, rounds, patches) of one
    set-up; the rounds are drawn one after another from the seed, the
    first cut to TINY_ITEMS items when tiny."""
    start = clock()
    mods = fresh_import()
    built = clock()
    patches = None
    if tracer is not None:
        patches = Patches(mods.values())
        layers.install(tracer, patches, mods)

    def build():
        ctx = wl.setup(mods)
        rng = random.Random(seed)
        rounds = [wl.plan(ctx, rng) for _ in range(n_rounds)]
        if tiny:
            rounds[0] = rounds[0][:TINY_ITEMS]
        wl.prepare(ctx, rounds[0])
        return ctx, rounds

    if tracer is None:
        ctx, rounds = build()
    else:
        ctx, rounds = tracer.run_span("bench.setup", "bench", "setup", build)
    end = clock()
    return end - start, end - built, ctx, rounds, patches


def timed_pass(wl, ctx, rounds, speed, tracer=None):
    """Run the rounds in turn; returns the records, the time in items, the
    wall time and the time between items."""
    records = []
    wall0 = clock()
    busy = outside = 0.0
    for specs in rounds:
        b, o = run_items(wl, ctx, specs, records, speed, tracer)
        busy += b
        outside += o
    mark = clock()
    speed.sample()
    outside += clock() - mark
    return records, busy, clock() - wall0, outside


def run_items(wl, ctx, specs, records, speed, tracer=None):
    """Run one round; returns the time spent in items and the
    time spent between them (digests, speed samples, the loop), each
    measured piece by piece."""
    busy = outside = 0.0
    mark = clock()
    wl.new_round(ctx)
    for spec in specs:
        item = len(records)
        errors = []
        before = speed.last()
        start = clock()
        outside += start - mark
        try:
            if tracer is None:
                result = wl.run(ctx, spec)
            else:
                result = tracer.run_span("bench.item", "bench", item,
                                         wl.run, ctx, spec)
        except Exception as exc:  # a failed item is counted, not fatal
            result = None
            errors.append("%s: %s" % (type(exc).__name__, exc))
        end = clock()
        latency = end - start
        busy += latency
        dig = None
        if not errors:
            try:
                dig = wl.digest(ctx, spec, result)
            except Exception as exc:
                errors.append("%s: %s" % (type(exc).__name__, exc))
        del result
        records.append({"spec": spec, "latency": latency, "sample": before,
                        "digest": dig, "errors": errors})
        speed.ran(latency)
        mark = clock()
        outside += mark - end
    return busy, outside + clock() - mark


def with_scratch(ctx, fn, *args):
    """Give a pass a scratch directory of its own, inside the checkout
    (the cli workload keeps its caches there)."""
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    ctx.scratch = tempfile.mkdtemp(dir=base)
    try:
        return fn(*args)
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)
        ctx.scratch = None


def check(wl, ctx, records):
    """Cross-checks, reference digests and the aggregate digest."""
    wl.check(ctx, records)
    with open(REFERENCE) as fh:
        ref = json.load(fh).get(wl.name, {})
    agg = hashlib.sha256()
    covered = 0
    for rec in records:
        group, pos = wl.group(rec["spec"])
        entry = ref.get(group)
        if rec["digest"] is not None:
            if entry is None:
                rec["errors"].append("no reference digest for %s" % group)
            else:
                covered += 1
                want = entry if pos is None else entry[8 * pos:8 * pos + 8]
                if rec["digest"] != want:
                    rec["errors"].append("digest differs from the reference")
        agg.update(("%s|%s|%s\n" % (group, pos, rec["digest"])).encode())
    return agg.hexdigest()[:16], covered


def percentile(xs, p):
    xs = sorted(xs)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest percentile of the ladder with at least ten items
    beyond it."""
    for p in TAIL_LADDER:
        if n * (100 - p) / 100.0 >= 10:
            return p
    return 50


def summary(wl, records, busy, wall, rounds, ctx, speed):
    """Latency metrics over every execution of every round, each scaled
    to the reference speed by the speed samples around it."""
    agg, covered = check(wl, ctx, records)
    lat = [r["latency"] * speed.scale(r["sample"]) for r in records]
    raw = [r["latency"] for r in records]
    failed = [r for r in records if r["errors"]]
    tail_p = tail_percentile(len(lat))
    return {
        "executions": len(records),
        "rounds": rounds,
        "busy_s": sum(lat),
        "p50_s": percentile(lat, 50),
        "tail_pct": tail_p,
        "tail_s": percentile(lat, tail_p),
        "speed": speed.speed(),
        "speed_samples": len(speed.samples),
        "raw_busy_s": busy,
        "raw_p50_s": percentile(raw, 50),
        "raw_tail_s": percentile(raw, tail_p),
        "wall_s": wall,
        "failed": len(failed),
        "errors": ["%s: %s" % (wl.group(r["spec"]), "; ".join(r["errors"]))
                   for r in failed[:10]],
        "digest": agg,
        "covered": covered,
    }


def untraced(wl, args):
    setups, raw_setups = [], []
    speed = Speed()
    n_rounds = round_count(wl, args.seconds, args.tiny)
    least, most = SETUP_REPEATS
    while len(setups) < most and (len(setups) < least
                                  or sum(raw_setups) < SETUP_MIN_S):
        ctx = None
        gc.collect()
        before = speed.sample()
        secs, _, ctx, rounds, _ = set_up(wl, args.seed, n_rounds,
                                         tiny=args.tiny)
        speed.sample()
        raw_setups.append(secs)
        setups.append(secs * speed.scale(before))
    speed = Speed()
    records, busy, wall, _ = with_scratch(
        ctx, timed_pass, wl, ctx, rounds, speed)
    out = summary(wl, records, busy, wall, n_rounds, ctx, speed)
    out["setup_s"] = setups
    out["raw_setup_s"] = raw_setups
    return out


def traced(wl, args):
    tracer = Tracer()
    speed = Speed()
    n_rounds = round_count(wl, args.seconds, args.tiny, traced=True)
    _, _, ctx, rounds, patches = set_up(wl, args.seed, n_rounds, tracer,
                                        args.tiny)
    try:
        records, busy, wall, outside = with_scratch(
            ctx, timed_pass, wl, ctx, rounds, speed, tracer)
    finally:
        patches.restore()
    traced_wall = _setup_span(tracer) + wall
    del ctx
    gc.collect()

    # the same items, untraced, on fresh state
    _, u_setup, u_ctx, _, _ = set_up(wl, args.seed, n_rounds, tiny=args.tiny)
    u_speed = Speed()
    replay, _, _, _ = with_scratch(u_ctx, timed_pass, wl, u_ctx, rounds,
                                   u_speed)
    for rec, again in zip(records, replay):
        if rec["digest"] != again["digest"] or again["errors"]:
            rec["errors"].append("replay differs from the traced run")

    out = summary(wl, records, busy, wall, n_rounds, u_ctx, speed)
    # both sides scaled to the reference speed, so that a change of machine
    # speed between them does not show as overhead
    traced_s = _setup_span(tracer) * speed.speed() + _scaled(records, speed)
    untraced_s = u_setup * u_speed.speed() + _scaled(replay, u_speed)
    # self times from the tracer's frames, plus the time between items
    # as the loop measured it, against the wall time of the traced part;
    # what is left is the cost of the root spans' own wrappers
    self_sum = tracer.self_total()
    per_layer = layers.metrics(tracer)
    per_layer.update({
        "trace.traced_s": (traced_s, "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_ratio": ((traced_s - untraced_s) / untraced_s
                                 if untraced_s else 0.0, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.self_sum_error_s": (abs(self_sum + outside - traced_wall), "s"),
    })
    per_layer.update(layers.source_lines(os.path.dirname(
        u_ctx.mods["cli"].__file__)))
    out["per_layer"] = {k: list(v) for k, v in per_layer.items()}
    out["spans_file"] = write_spans(tracer, wl.name, args.seed)
    return out


def _scaled(records, speed):
    return sum(r["latency"] * speed.scale(r["sample"]) for r in records)


def _setup_span(tracer):
    return sum(s[2] - s[1] for s in tracer.spans
               if s[0] == "bench.setup" and s[2] is not None)


def write_spans(tracer, name, seed):
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (name, seed))
    with open(path, "w") as fh:
        tracer.dump(fh)
    return os.path.relpath(path, ROOT)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]()
    result = traced(wl, args) if args.trace else untraced(wl, args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
