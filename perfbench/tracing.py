"""Layer tracing for the benchmark's traced run.

``Tracer.install`` wraps, from outside the package, every public function
and public method of the span layers (``SPAN_LAYERS``) and counts the ring
operations in ``RING_OPS`` and the private functions in ``COUNTED``. A
span is (name, start, end, parent span, op id), kept in memory and
written out by ``write_spans``. Rings get counters only: a span per ring
operation would swamp the work.

Modules import functions by name (``from .words import eval_atoms``), so
a wrapper replaces the original in the namespace of every ``sympelem``
module that binds it, not only in the module that defines it.
``perfbench/checks.py`` compares the wrapped call counts with ``cProfile``.

A span's self time is its duration minus the durations of its child
spans. Ring work has no span, so it counts toward the self time of the
span that called it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from collections import Counter
from time import perf_counter

SPAN_LAYERS = ("matrices", "symplectic", "words", "identities", "rewrite",
               "localglobal", "verify")
RING_OPS = ("mul", "add", "dot", "normalize")
# private functions that get a counter: ``dilate`` reaches the conjugation
# decomposition through ``_conj_decompose_ctx``, not the public wrapper
COUNTED = ("localglobal._conj_decompose_ctx",)

# rewrite stages whose output atoms are counted, and how to count them
STAGE_OUTPUT = {
    "rewrite.reduce_to_row12": lambda r: len(r),
    "rewrite.decompose_initial": lambda r: len(r[0].word) + len(r[1]),
    "rewrite.corner_to_abcd": lambda r: len(r[0]),
    "rewrite.eliminate_units_inplace": lambda r: len(r[0]),
    "rewrite.simplify_shape_word": lambda r: len(r[0]),
}


def _record_result(tracer, name, args, result):
    size = STAGE_OUTPUT.get(name)
    if size is not None:
        tracer.results[name + ".atoms_out"] += size(result)
    elif name == "rewrite.decompose_full":
        tracer.results["rewrite.steps"] += len(result.trace)
    elif name == "localglobal.dilate":
        # dilate tries m = 0, 1, ... and returns the first that works
        tracer.results["localglobal.dilate_attempts"] += result[0] + 1
    elif name == "verify.RunReport.add" and args[1].status != "PASS":
        tracer.results["verify.items_failed"] += 1


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = 0
        self.spans = []            # (name, start, end, parent index, op id)
        self.stack = []            # [span index, child seconds] per open span
        self.depth = Counter()     # open spans per name, for inclusive time
        self.calls = Counter()     # span name -> calls
        self.self_s = Counter()    # span name -> self seconds
        self.incl_s = Counter()    # span name -> seconds in outermost calls
        self.counts = Counter()    # "Class.op" or COUNTED name -> calls
        self.results = Counter()   # counts read off return values
        self.code = {}             # counter or span name -> code of the original
        self._undo = []

    # -- switching ------------------------------------------------------------
    def begin_op(self):
        self.op_id += 1
        self.stack.clear()
        self.depth.clear()
        self.active = True

    def pause(self):
        self.active = False

    # -- wrappers -------------------------------------------------------------
    def _span(self, name, fn):
        tracer = self
        self.code[name] = fn.__code__

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, depth = tracer.stack, tracer.depth
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if stack and stack[-1] is frame:
                    stack.pop()
                duration = end - start
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                depth[name] -= 1
                if depth[name] == 0:
                    tracer.incl_s[name] += duration
            _record_result(tracer, name, args, result)
            return result

        return wrapped

    def _counter(self, key, fn):
        tracer, counts = self, self.counts
        self.code[key] = fn.__code__

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- patching -------------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "sympelem" or name.startswith("sympelem.")]
        for layer in SPAN_LAYERS:
            mod = sys.modules[f"sympelem.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue  # its body runs on resumption, inside the caller's span
                if inspect.isfunction(obj):
                    wrapped = self._span(f"{layer}.{attr}", obj)
                    for m in modules:
                        for bound, value in list(vars(m).items()):
                            if value is obj:
                                self._set(m, bound, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        rings = sys.modules["sympelem.rings"]
        for obj in list(vars(rings).values()):
            if inspect.isclass(obj) and issubclass(obj, rings.Ring):
                for op in RING_OPS:
                    fn = obj.__dict__.get(op)
                    if inspect.isfunction(fn):
                        self._set(obj, op, self._counter(f"{obj.__name__}.{op}", fn))
        for key in COUNTED:
            layer, attr = key.split(".")
            mod = sys.modules[f"sympelem.{layer}"]
            self._set(mod, attr, self._counter(key, getattr(mod, attr)))

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._span(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._span(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._span(name, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------
    def call_counts(self):
        """Calls per wrapped function, keyed like ``pstats``:
        (file name, first line, function name) of the original code."""
        counts = {**self.calls, **self.counts}
        return {(code.co_filename, code.co_firstlineno, code.co_name): counts.get(name, 0)
                for name, code in self.code.items()}

    def write_spans(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{op}\n")
