"""Rebuild perfbench/reference.json, the reference digests of every item
the workloads' pools can draw, from the current code.

    python3 perfbench/make_reference.py [--workload NAME ...]

A group's entry is the concatenation of 8-hex-digit digests of its items
in canonical element order (cli: one 16-digit digest per argv).  Only
rebuild it from code whose results are known to be right: a benchmark run
counts every item whose digest differs from this file as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from worker import REFERENCE, fresh_import  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    # the cli items must compute their tables, not read a cache
    os.environ.pop("CHEVMC_CACHE_DIR", None)
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]()
        ctx = wl.setup(fresh_import())
        start = time.perf_counter()
        ref[name] = {
            key: wl.reference_group(ctx, group)
            for key, group in wl.universe(ctx)
        }
        print("%s: %d groups in %.1f s" % (name, len(ref[name]),
                                           time.perf_counter() - start))
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
