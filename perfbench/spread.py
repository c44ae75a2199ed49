#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--first-seed 1]

Runs ``perfbench/run.py --trace 0`` ten times per workload, each time with
the next seed, for ``run_seconds`` from ``BENCHMARK.json``. For every
end-to-end metric it prints the median, the quartiles (from
``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound. The raw values go to ``perfbench/out/spread.json``. Exits 1 if a
run reports failed operations or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run

RUNS = 10
OUT = run.OUT_DIR / "spread.json"


def main():
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bad = 0
    raw = {}
    for name in [w["name"] for w in config["workloads"]]:
        values = {m["name"]: [] for m in config["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            result = run.invoke(name, seed, config["run_seconds"], 0)
            if result["failed"] or not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed ops")
                bad += 1
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
        raw[name] = values
        for m in config["end_to_end"]:
            vals = values[m["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            over = spread > m["bound"]
            bad += over
            print(f"{name:16s} {m['name']:12s} median {median:12.6g} {m['unit']:4s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.3f} "
                  f"bound {m['bound']:.2f}{'  OVER' if over else ''}", flush=True)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(raw, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
