#!/usr/bin/env python3
"""sympelem benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. One process, one thread, closed loop: the next operation starts
only after the previous one returned. Inputs come from ``--seed`` alone.
Every output is checked, every operation is bounded by ``OP_TIMEOUT_S``
(an operation that times out or raises counts as failed), and the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` measures whole input cycles for about ``--seconds`` and
reports the end-to-end metrics. Every cycle repeats the same operations
with other parameter values (see ``workloads.py``), and an operation's
time is the median of its times over the run's cycles. A slow stretch
of the host that lasts less than half the run, or a parameter value that
makes a few instances much cheaper, then does not move it. The times
are then scaled by a reference import timed between the same calls
(``reference_sample``), so that the host's speed, which drifts over
minutes on a shared host, largely drops out of the reported metrics.

``--trace 1`` runs the workload's fixed prefix of calls twice, untraced
and then traced (fresh rings each time, so caches start empty both
times), runs each CLI subcommand once on ``docs/examples/``, and reports
the per-layer metrics; spans go to ``perfbench/out/``.

``--inject-fault`` is the control for the benchmark's own checks: the
decompose and normality workloads flip one atom of one output, and
verify-symbolic runs with a corrupted commutator entry. The run must then
report failed operations.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import SPAN_LAYERS, STAGE_OUTPUT, RING_OPS, Tracer
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
LAYERS = ("rings", "matrices", "symplectic", "words", "identities", "rewrite",
          "localglobal", "verify", "cli")

# The run must end within 180 s: no operation starts after HARD_STOP_S,
# and the CLI subprocesses of a traced run end by CLI_STOP_S.
OP_TIMEOUT_S = 30.0     # per operation
HARD_STOP_S = 100.0     # seconds since start
CLI_TIMEOUT_S = 20.0    # per subprocess
CLI_STOP_S = 150.0      # seconds since start
SETUP_SHARE = 0.1       # share of the wall time spent on timed set-ups
REFERENCE_SHARE = 0.05  # share of the wall time spent on reference imports
SAMPLES_MIN = 7         # set-ups and reference imports timed at least
# pure-Python standard modules that neither sympelem nor the benchmark
# uses, imported afresh as the reference computation
REFERENCE_MODULES = ("_pydecimal", "difflib", "ipaddress", "calendar", "configparser",
                     "textwrap")
# the reference import time the ``*_at_ref`` metrics are scaled to
REFERENCE_NOMINAL_S = 0.008
P90_MIN_OPS = 100       # ten samples beyond the 90th percentile
T_START = perf_counter()


class OpTimeout(Exception):
    pass


def on_alarm(signum, frame):
    raise OpTimeout("operation exceeded its time bound")


class OpClock:
    """Times operations and bounds each one with an interval timer. With
    a tracer, spans and counters are recorded only while an operation
    runs, so the benchmark's own checks stay out of the trace."""

    def __init__(self, limit_s=OP_TIMEOUT_S, tracer=None):
        self.limit_s = limit_s
        self.tracer = tracer
        self.t0 = None

    def start(self):
        if self.tracer:
            self.tracer.begin_op()
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        self.t0 = perf_counter()

    def lap(self):
        """Close the running operation and start the next one."""
        now = perf_counter()
        seconds, self.t0 = now - self.t0, now
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        if self.tracer:
            self.tracer.op_id += 1
        return seconds

    def stop(self):
        now = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self.tracer:
            self.tracer.pause()
        seconds, self.t0 = now - self.t0, None
        return seconds


def import_library():
    """Import every sympelem module afresh and return them by layer."""
    for name in [m for m in sys.modules if m == "sympelem" or m.startswith("sympelem.")]:
        del sys.modules[name]
    importlib.import_module("sympelem.cli")
    return SimpleNamespace(**{layer: sys.modules[f"sympelem.{layer}"] for layer in LAYERS})


def timed_setup(workload):
    """One set-up with the garbage collector paused, so that collections
    of the heap the workload has built are not billed to it."""
    gc.disable()
    try:
        t0 = perf_counter()
        lib = import_library()
        state = workload.setup(lib)
        return perf_counter() - t0, lib, state
    finally:
        gc.enable()


def _own_modules():
    return {name: m for name, m in sys.modules.items()
            if name == "sympelem" or name.startswith("sympelem.")}


def setup_sample(workload):
    """One timed set-up, after which the modules the operations use are
    put back in ``sys.modules``."""
    saved = _own_modules()
    try:
        return timed_setup(workload)[0]
    finally:
        for name in _own_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def reference_sample():
    """One fresh import of ``REFERENCE_MODULES`` with the garbage
    collector paused; the modules in use are put back afterwards. It is
    work of the same kind as a set-up (unmarshalling bytecode, running
    module bodies, building classes) that no sympelem code takes part in,
    so its time follows the host's speed alone."""
    saved = {name: sys.modules.pop(name) for name in REFERENCE_MODULES if name in sys.modules}
    gc.disable()
    try:
        t0 = perf_counter()
        for name in REFERENCE_MODULES:
            importlib.import_module(name)
        return perf_counter() - t0
    finally:
        gc.enable()
        sys.modules.update(saved)


class Sampler:
    """Times ``measure()`` between the calls that follow the prefix, for
    ``share`` of the wall time, so that it is sampled over the same
    stretch of the run as the operations."""

    def __init__(self, measure, share, times=()):
        self.measure, self.share = measure, share
        self.times = list(times)
        self.spent = 0.0
        self.t0 = None

    def sample(self):
        seconds = self.measure()
        self.times.append(seconds)
        self.spent += seconds

    def __call__(self):
        if self.t0 is None:
            self.t0 = perf_counter()
        while self.spent < self.share * (perf_counter() - self.t0):
            self.sample()

    def finish(self):
        while len(self.times) < SAMPLES_MIN:
            self.sample()
        return self.times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, lib, state, seed, clock, seconds, between=None):
    """Whole input cycles, at least the workload's prefix of calls, ending
    at the cycle boundary nearest to ``seconds`` (judged by the length of
    the last cycle). ``between`` is called after each call past the prefix.
    Returns all ops, the prefix ops and the peak RSS after the prefix."""
    inputs = workload.inputs(lib, state, random.Random(seed))
    ops, prefix, rss = [], None, None
    t_start = cycle_start = perf_counter()
    calls = 0
    while True:
        if calls and calls % workload.cycle == 0:
            now = perf_counter()
            last_cycle, cycle_start = now - cycle_start, now
            if calls >= workload.prefix_calls and now - t_start + last_cycle / 2 >= seconds:
                break
        if perf_counter() - T_START >= HARD_STOP_S:
            print(f"hard stop after {calls} calls", file=sys.stderr)
            break
        inp = next(inputs)
        try:
            got = workload.call(lib, state, inp, clock)
        except Exception as exc:  # a raised or timed-out op is a failed op
            spent = clock.stop() if clock.t0 is not None else 0.0
            got = [Op(spent, False)]
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        for j, op in enumerate(got):
            op.key = (calls % workload.cycle, j)
        ops.extend(got)
        calls += 1
        if calls == workload.prefix_calls:
            prefix, rss = list(ops), peak_rss_mb()
        if between and calls >= workload.prefix_calls:
            between()
    return ops, prefix or list(ops), rss or peak_rss_mb()


def atoms_ratio(ops):
    atoms_in = sum(op.atoms_in for op in ops)
    return sum(op.atoms_out for op in ops) / atoms_in if atoms_in else 0.0


def latencies_s(ops):
    """Op latencies; a failed op counts as at least the timeout, so it
    misses any latency limit."""
    return [op.seconds if op.ok else max(op.seconds, OP_TIMEOUT_S) for op in ops]


def throughput(ops):
    busy = sum(op.seconds for op in ops)
    return sum(op.ok for op in ops) / busy if busy else 0.0


def cycle_latencies_s(ops):
    """For each place in the input cycle, the median of its latencies
    over the cycles run."""
    by_key = {}
    for op, seconds in zip(ops, latencies_s(ops)):
        by_key.setdefault(op.key, []).append(seconds)
    return [statistics.median(times) for times in by_key.values()]


def end_to_end(setup_times, reference_times, ops, prefix, rss):
    """Operation times are scaled by REFERENCE_NOMINAL_S over the median
    reference import time of the run: the time the operations would take
    on a host that imports the reference modules in REFERENCE_NOMINAL_S."""
    lat = cycle_latencies_s(ops)
    done = sum(seconds < OP_TIMEOUT_S for seconds in lat)
    reference_s = statistics.median(reference_times)
    scale = REFERENCE_NOMINAL_S / reference_s
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s_at_ref": (done / (scale * sum(lat)), "1/s"),
        "op_p50_ms_at_ref": (1000.0 * scale * statistics.median(lat), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    failed = sum(not op.ok for op in ops)
    shown = {
        "ops_per_s": (done / sum(lat), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "reference_ms": (1000.0 * reference_s, "ms"),
        "failed_frac": (failed / len(ops), "1"),
        "atoms_out_per_in": (atoms_ratio(prefix), "1"),
    }
    if len(lat) >= P90_MIN_OPS:
        shown["op_p90_ms_at_ref"] = (1000.0 * scale * statistics.quantiles(lat, n=10)[8], "ms")
    else:
        print(f"op_p90_ms_at_ref: n/a, {len(lat)} ops per cycle < {P90_MIN_OPS}")
    shown["cycles"] = (len(ops) / len(lat), "count")
    shown["setup.samples"] = (float(len(setup_times)), "count")
    shown["reference.samples"] = (float(len(reference_times)), "count")
    return metrics, shown


def _in_spans_under(tracer, root_name, name):
    """Spans called ``name`` that run inside a span called ``root_name``."""
    inside = [False] * len(tracer.spans)
    count = 0
    for i, span in enumerate(tracer.spans):
        if span is None:
            continue
        span_name, _, _, parent, _ = span
        inside[i] = span_name == root_name or (parent >= 0 and inside[parent])
        if inside[i] and span_name == name:
            count += 1
    return count


def per_layer(tracer, n_ops, overhead, prefix_ops, cli):
    per_op = lambda v: v / n_ops
    calls, self_s, incl_s, res = tracer.calls, tracer.self_s, tracer.incl_s, tracer.results
    m = {}
    for op in RING_OPS:
        total = sum(c for key, c in tracer.counts.items() if key.endswith("." + op))
        m[f"rings.{op}"] = (per_op(total), "count/op")
    m["matrices.mul"] = (per_op(calls["matrices.Matrix.mul"]), "count/op")
    m["matrices.mul_s"] = (per_op(incl_s["matrices.Matrix.mul"]), "s/op")
    m["words.eval"] = (per_op(calls["words.Word.eval"]), "count/op")
    m["words.eval_atoms"] = (per_op(calls["words.eval_atoms"]), "count/op")
    m["words.eval_s"] = (per_op(incl_s["words.Word.eval"] + incl_s["words.eval_atoms"]), "s/op")
    for layer in SPAN_LAYERS:
        total = sum(v for name, v in self_s.items() if name.startswith(layer + "."))
        m[f"{layer}.self_s"] = (per_op(total), "s/op")
    steps = res["rewrite.steps"]
    m["rewrite.steps"] = (per_op(steps), "count/op")
    matmul_in_decompose = _in_spans_under(tracer, "rewrite.decompose_full", "matrices.Matrix.mul")
    m["rewrite.matmul_per_step"] = (matmul_in_decompose / steps if steps else 0.0, "ratio")
    for stage in STAGE_OUTPUT:
        m[f"{stage}_s"] = (per_op(self_s[stage]), "s/op")
        m[f"{stage}.atoms_out"] = (per_op(res[stage + ".atoms_out"]), "count/op")
    dilates, attempts = calls["localglobal.dilate"], res["localglobal.dilate_attempts"]
    conj = tracer.counts["localglobal._conj_decompose_ctx"]
    m["localglobal.conj_decompose"] = (per_op(conj), "count/op")
    m["localglobal.dilate_s"] = (per_op(incl_s["localglobal.dilate"]), "s/op")
    m["localglobal.dilate_attempts"] = (per_op(attempts), "count/op")
    m["localglobal.dilate_yield"] = (dilates / attempts if attempts else 0.0, "ratio")
    m["localglobal.patch_s"] = (per_op(incl_s["localglobal.patch"]), "s/op")
    m["localglobal.normality_demo_s"] = (per_op(incl_s["localglobal.normality_demo"]), "s/op")
    m["identities.instances"] = (per_op(calls["identities.IdentityInstance.holds"]), "count/op")
    m["identities.holds_s"] = (per_op(incl_s["identities.IdentityInstance.holds"]), "s/op")
    m["verify.items"] = (float(calls["verify.RunReport.add"]), "count")
    m["verify.items_failed"] = (float(res["verify.items_failed"]), "count")
    m["symplectic.symp_inverse"] = (per_op(calls["symplectic.symp_inverse"]), "count/op")
    m["atoms_out_per_in"] = (atoms_ratio(prefix_ops), "1")
    m["trace.overhead"] = (overhead, "ratio")
    m.update(cli)
    return m


def cli_commands():
    ex = "docs/examples/"
    report = "perfbench/out/report.jsonl"
    return {
        "verify-tables": ["verify-tables", "--ring", "poly:q:x,y", "--n", "2..3", "--out", report],
        "report": ["report", "--in", report],
        "decompose": ["decompose", "--ring", "zmod:15", "--n", "2", "--in", ex + "word_z15.txt",
                      "--out", "perfbench/out/word_out.txt"],
        "conj": ["conj", "--ring", "poly:q:t", "--s", "t", "--n", "3", "--xshape", "A", "--i", "2",
                 "--a", "3", "--k", "1", "--yshape", "D", "--j", "2", "--m", "4", "--x", "1+t"],
        "dilate": ["dilate", "--ring", "poly:q:t", "--s", "t", "--n", "2",
                   "--in", ex + "homotopy_qt.txt"],
        "patch": ["patch", "--ring", "zmod:15", "--n", "2", "--cover", ex + "cover_z15.txt",
                  "--alpha", ex + "alpha_z15.txt",
                  "--locals", ex + "local1_z15.txt", ex + "local2_z15.txt"],
        "normality-demo": ["normality-demo", "--ring", "zmod:15", "--n", "2",
                           "--gamma", ex + "gamma_z15.txt", "--h", ex + "h_z15.txt",
                           "--cover", ex + "cover_z15.txt"],
    }


def run_cli():
    """One subprocess run of each subcommand: wall seconds and exit code
    (124 when it was killed or, past CLI_STOP_S, not started)."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    m = {}
    for sub, argv in cli_commands().items():
        t0 = perf_counter()
        timeout = min(CLI_TIMEOUT_S, CLI_STOP_S - (t0 - T_START))
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired(sub, 0)
            done = subprocess.run([sys.executable, "-m", "sympelem.cli", *argv], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=timeout)
            code = done.returncode
            if code:
                print(f"cli {sub} exited {code}: {done.stderr.decode(errors='replace')[-300:]}",
                      file=sys.stderr)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            code = 124
        m[f"cli.{sub}_s"] = (perf_counter() - t0, "s")
        m[f"cli.{sub}_exit"] = (float(code), "code")
    return m


def invoke(workload, seed, seconds, trace, *extra):
    """Run this benchmark in a subprocess and return its JSON result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sympelem" / "__init__.py").is_file():
        print(f"error: no sympelem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # set-up is timed on bytecode cached by the first import, as an
    # installed package would be, whatever PYTHONDONTWRITEBYTECODE says
    sys.dont_write_bytecode = False
    signal.signal(signal.SIGALRM, on_alarm)
    workload = WORKLOADS[args.workload]
    workload.inject = args.inject_fault

    setup_s, lib, state = timed_setup(workload)

    if args.trace == 0:
        setups = Sampler(lambda: setup_sample(workload), SETUP_SHARE, [setup_s])
        # the first reference import also loads the modules' own imports;
        # the median passes over it
        references = Sampler(reference_sample, REFERENCE_SHARE)

        def between():
            setups()
            references()

        ops, prefix, rss = run_pass(workload, lib, state, args.seed, OpClock(), args.seconds,
                                    between=between)
        metrics, shown = end_to_end(setups.finish(), references.finish(), ops, prefix, rss)
    else:
        OUT_DIR.mkdir(exist_ok=True)
        plain, _, _ = run_pass(workload, lib, state, args.seed, OpClock(), 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _, _ = run_pass(workload, lib, workload.setup(lib), args.seed,
                                    OpClock(tracer=tracer), 0)
        finally:
            tracer.uninstall()
        tracer.write_spans(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv.gz")
        overhead = throughput(traced) / throughput(plain) if throughput(plain) else 0.0
        metrics = per_layer(tracer, len(traced), overhead, traced, run_cli())
        shown = {"trace.ops": (float(len(traced)), "count")}
        ops = plain + traced

    failed = sum(not op.ok for op in ops)
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} ops, {failed} failed")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
