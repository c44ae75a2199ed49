#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/checks.py

* fault injection: with ``--inject-fault`` every workload must report
  failed operations (a corrupted commutator entry for verify-symbolic,
  one flipped output atom for the others);
* determinism: two traced runs at seed 1 give exactly the same counts,
  and a run at seed 2 gives different ones, except on
  verify-symbolic, whose symbolic inputs do not depend on the seed;
* wrapper coverage: on one call of each workload, the tracer's call count
  of every wrapped function equals the ``cProfile`` count of the same
  call, so no call escapes the wrappers;
* time bound: an operation that never returns is cut at the bound,
  counts as failed, and the run goes on;
* metric names: each run reports exactly the metrics ``BENCHMARK.json``
  lists for its mode.

Prints one line per check and exits 1 if any fails. Takes a few minutes.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import random
import signal
import sys
from time import perf_counter

import run
from tracing import Tracer
from workloads import WORKLOADS

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED, OTHER_SEED = 1, 2

# the call checked for coverage: a costly stratum of each input cycle, on
# normality-z15 one that also dilates
COVERAGE_CALL = {"decompose-qt": 17, "verify-symbolic": 0,
                 "normality-z15": 4}
DETERMINISTIC = ("rings.mul", "rings.add", "rings.dot", "rings.normalize", "matrices.mul",
                 "rewrite.steps", "atoms_out_per_in")
# symbolic bindings do not use the seed, and the traced prefix covers
# every n, so these counts must not move with the seed
SEED_FREE = {"verify-symbolic"}


def bench(workload, seed, trace, *extra):
    result = run.invoke(workload, seed, 1, trace, *extra)
    listed = {m["name"] for m in CONFIG["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != listed:
        raise AssertionError(f"{workload}: metrics differ from BENCHMARK.json: "
                             f"{sorted(set(result['metrics']) ^ listed)}")
    return result


def check_fault_injection(name):
    result = bench(name, SEED, 0, "--inject-fault")
    ok = result["failed"] > 0 and not result["correct"]
    return ok, f"{result['failed']}/{result['attempted']} ops failed"


def check_determinism(name):
    runs = [bench(name, s, 1)["metrics"] for s in (SEED, SEED, OTHER_SEED)]
    values = [{k: m[k]["value"] for k in DETERMINISTIC} for m in runs]
    same = values[0] == values[1]
    moved = [k for k in DETERMINISTIC if values[0][k] != values[2][k]]
    detail = "repeat exactly" if same else f"differ at one seed: {values[0]} vs {values[1]}"
    return (same and bool(moved) != (name in SEED_FREE),
            f"{detail}; moved by seed {OTHER_SEED}: {', '.join(moved) or 'none'}")


class HangingCall:
    """An operation that never returns: it spins until the time bound
    interrupts it."""

    prefix_calls = cycle = 1

    def inputs(self, lib, state, rng):
        while True:
            yield None

    def call(self, lib, state, inp, clock):
        clock.start()
        while True:
            pass


def check_time_bound(limit_s=2.0):
    t0 = perf_counter()
    ops, _, _ = run.run_pass(HangingCall(), None, None, 0, run.OpClock(limit_s), 0)
    elapsed = perf_counter() - t0
    (op,) = ops
    timed_out = op.seconds >= limit_s
    ok = elapsed < limit_s + 5 and timed_out and not op.ok
    return ok, (f"call ended after {elapsed:.1f} s, "
                f"{'timed out and ' if timed_out else ''}counted {'ok' if op.ok else 'failed'}")


class ProfileClock(run.OpClock):
    """An OpClock that profiles exactly the timed part of each call."""

    def __init__(self, profiler):
        super().__init__()
        self.profiler = profiler

    def start(self):
        super().start()
        self.profiler.enable()

    def stop(self):
        self.profiler.disable()
        return super().stop()


def check_coverage(name):
    workload = WORKLOADS[name]
    lib = run.import_library()

    def one_call(clock):
        state = workload.setup(lib)  # fresh rings, so both runs start cold
        inputs = workload.inputs(lib, state, random.Random(SEED))
        for _ in range(COVERAGE_CALL[name]):
            next(inputs)
        workload.call(lib, state, next(inputs), clock)

    profiler = cProfile.Profile()
    one_call(ProfileClock(profiler))
    profiled = pstats.Stats(profiler).stats
    tracer = Tracer()
    tracer.install()
    try:
        one_call(run.OpClock(tracer=tracer))
    finally:
        tracer.uninstall()
    traced = tracer.call_counts()
    missed = {key: (traced[key], profiled[key][1] if key in profiled else 0)
              for key in traced if traced[key] != (profiled[key][1] if key in profiled else 0)}
    called = sum(1 for c in traced.values() if c)
    detail = f"{called} wrapped functions called, {sum(traced.values())} calls"
    if missed:
        detail += "; traced vs cProfile: " + ", ".join(
            f"{key[2]}@{key[1]} {t} vs {p}" for key, (t, p) in sorted(missed.items()))
    return not missed and called > 0, detail


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    signal.signal(signal.SIGALRM, run.on_alarm)

    ok, detail = check_time_bound()
    failures = not ok
    print(f"{'PASS' if ok else 'FAIL'} time-bound: {detail}", flush=True)
    for name in WORKLOADS:
        for check, result in (
                ("fault-injection", lambda: check_fault_injection(name)),
                ("coverage", lambda: check_coverage(name)),
                ("determinism", lambda: check_determinism(name))):
            ok, detail = result()
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {check} {name}: {detail}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
