#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts.

    python3 scripts/pairs.py PARENT CHANGE [--pairs 10] [--first-seed 41]

PARENT and CHANGE are the roots of two source checkouts, for example a
`git archive` of the parent commit and the working tree. For every
workload in BENCHMARK.json and every pair k, both checkouts run
``perfbench/run.py --trace 0`` at seed first_seed + k for the
benchmark's ``run_seconds``; the checkout that runs first alternates from
pair to pair. Both trees' ``src/`` and ``perfbench/`` are byte-compiled
first, as in ``scripts/bench.py``, so that no timed run compiles sources.
The script refuses to run if the two copies of BENCHMARK.json differ.

For each workload and end-to-end metric it prints each side's median and
quartiles (``statistics.quantiles(values, n=4)``), the pairs the change
wins by the metric's ``better`` (ties count for neither side), whether
the gap between the medians exceeds the parent's interquartile distance,
and the failed operations of each side. Each metric then gets a verdict
against its ``bound`` in BENCHMARK.json:

* ``worse beyond bound``: the change's median is worse than the parent's
  by more than ``bound`` (relative to the parent's median);
* ``unresolved``: otherwise, if either side's interquartile distance,
  relative to its median, is wider than ``bound`` and the two sides'
  ranges of values overlap, so the runs cannot tell;
* ``within bound``: otherwise.

Exits 1 if any operation failed or any metric is worse beyond its bound
or unresolved.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def invoke(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode:
        sys.stderr.write(done.stderr[-2000:])
        sys.exit(f"{root}: {' '.join(cmd[1:])} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def relative(x, ref):
    """(x - ref) / ref, read as 0 or an infinity when ref is 0."""
    if ref:
        return (x - ref) / ref
    return 0.0 if x == ref else math.copysign(math.inf, x - ref)


def summary(values):
    """(q1, median, q3, min, max) of one side's values, the quartiles by
    ``statistics.quantiles(values, n=4)``."""
    return (*statistics.quantiles(values, n=4), min(values), max(values))


def verdict(metric, p, c):
    """One metric's verdict on the summaries p of the parent's values and
    c of the change's."""
    pq1, pmed, pq3, pmin, pmax = p
    cq1, cmed, cq3, cmin, cmax = c
    sign = 1 if metric["better"] == "higher" else -1
    if sign * relative(cmed, pmed) < -metric["bound"]:
        return "worse beyond bound"
    # each side's interquartile distance relative to its median
    spread = max(relative(pmed + pq3 - pq1, pmed), relative(cmed + cq3 - cq1, cmed))
    if spread > metric["bound"] and max(pmin, cmin) <= min(pmax, cmax):
        return "unresolved"
    return "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=41)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    specs = {side: (root / "BENCHMARK.json").read_text() for side, root in roots.items()}
    if specs["parent"] != specs["change"]:
        sys.exit("the two checkouts' BENCHMARK.json differ; pairs compare one benchmark")
    spec = json.loads(specs["change"])
    for root in roots.values():
        for tree in ("src", "perfbench"):
            if not compileall.compile_dir(root / tree, quiet=1):
                sys.exit(f"could not byte-compile {root / tree}")

    failed = 0
    verdicts = []
    for workload in (w["name"] for w in spec["workloads"]):
        values = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in roots}
        fails = dict.fromkeys(roots, 0)
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                result = invoke(roots[side], workload, seed, spec["run_seconds"])
                fails[side] += result["failed"]
                for name, vals in values[side].items():
                    vals.append(result["metrics"][name]["value"])
            print(f"{workload} pair {k + 1}/{args.pairs} (seed {seed}, {order[0]} first) done",
                  file=sys.stderr, flush=True)
        failed += sum(fails.values())
        print(f"{workload}: failed ops parent {fails['parent']}, change {fails['change']}")
        for m in spec["end_to_end"]:
            p, c = values["parent"][m["name"]], values["change"][m["name"]]
            ps, cs = summary(p), summary(c)
            (pq1, pmed, pq3, _, _), (cq1, cmed, cq3, _, _) = ps, cs
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
            losses = sum(sign * (y - x) < 0 for x, y in zip(p, c))
            beyond = abs(cmed - pmed) > pq3 - pq1
            verdicts.append(verdict(m, ps, cs))
            print(f"  {m['name']:18s} parent {pmed:11.5g} [{pq1:.5g}, {pq3:.5g}]  "
                  f"change {cmed:11.5g} [{cq1:.5g}, {cq3:.5g}]  "
                  f"ratio {cmed / pmed if pmed else float('nan'):6.3f}  "
                  f"change wins {wins}/{len(p)} (loses {losses})  "
                  f"gap beyond parent IQR: {'yes' if beyond else 'no'}  "
                  f"bound {m['bound']:g}: {verdicts[-1]}", flush=True)
    return 1 if failed or any(v != "within bound" for v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
