#!/usr/bin/env python3
"""Snapshot the benchmark into the next free BENCH_<k>.json.

    python3 scripts/bench.py

Runs perfbench/run.py at seed 1 on every workload that BENCHMARK.json
lists, once untraced for its run_seconds and once traced, and writes the
final JSON line of each run, together with the commit it measured and the
host it ran on, to BENCH_<k>.json at the root of the checkout, for the
smallest k >= 1 whose file does not exist yet.

It byte-compiles ``src/`` and ``perfbench/`` first, so that no timed run
compiles sources: a run that does reads ``peak_rss_mb`` higher. This
writes only ``__pycache__`` directories.
"""

import compileall
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def run(workload, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    print(" ".join(cmd[1:]), flush=True)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for tree in ("src", "perfbench"):
        if not compileall.compile_dir(ROOT / tree, quiet=1):
            sys.exit(f"could not byte-compile {tree}/")
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    runs = [{"workload": w["name"], "trace": trace, "seconds": spec["run_seconds"],
             "result": run(w["name"], spec["run_seconds"], trace)}
            for w in spec["workloads"] for trace in (0, 1)]
    k = 1
    while (ROOT / f"BENCH_{k}.json").exists():
        k += 1
    path = ROOT / f"BENCH_{k}.json"
    path.write_text(json.dumps({
        "commit": commit,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "seed": SEED,
        "runs": runs,
    }, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
