"""Batch verification of every identity family, with reporting.

Each item produces an IdentityInstance; polynomial rings get fully
symbolic bindings (each family builds the symbol ring it needs over Q,
whatever the given coefficient ring, and its records name that ring),
other rings get seeded random bindings. The report is line-oriented on
stdout plus an optional JSONL file.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .matrices import Matrix
from .rings import PolyRing, Rationals
from . import identities as idn


@dataclass
class Record:
    name: str
    ring: str
    n: int
    status: str
    seconds: float
    bindings: str = ""

    def line(self):
        out = f"{'PASS' if self.status == 'PASS' else 'FAIL'} {self.name} ring={self.ring} n={self.n} [{self.seconds*1000:.0f}ms]"
        if self.bindings and self.status != "PASS":
            out += f" bindings: {self.bindings}"
        return out


@dataclass
class RunReport:
    command: str
    ring: str
    records: list = field(default_factory=list)

    @property
    def ok(self):
        return all(r.status == "PASS" for r in self.records)

    def add(self, rec):
        self.records.append(rec)

    def to_jsonl(self):
        return "\n".join(json.dumps({
            "command": self.command, "name": r.name, "ring": r.ring,
            "n": r.n, "status": r.status, "seconds": round(r.seconds, 6),
            "bindings": r.bindings,
        }) for r in self.records) + "\n"

    def summary(self):
        npass = sum(1 for r in self.records if r.status == "PASS")
        return f"{npass}/{len(self.records)} items passed"


def _det1_witness(ring, t, u):
    one, zero = ring.one, ring.zero
    return Matrix(ring, [(one, zero), (t, one)]).mul(Matrix(ring, [(one, u), (zero, one)]))


def _symbol_ring(base_names):
    return PolyRing(Rationals(), tuple(base_names))


def iter_table_items(ring, n_values, rng, trials=3, corrupt=None):
    """Yield (name, n, callable -> IdentityInstance) over every family."""
    symbolic = isinstance(ring, PolyRing)

    def binds(names, sring):
        if symbolic:
            return [sring.var(v) for v in names]
        return [ring.sample(rng) for _ in names]

    reps = 1 if symbolic else trials

    for n in n_values:
        for _ in range(reps):
            # corner conjugation
            sring = _symbol_ring(("lam", "x", "y")) if symbolic else ring
            lam, x, y = binds(("lam", "x", "y"), sring)
            yield ("corner-conjugation", n,
                   lambda s=sring, a=lam, b=x, c=y, nn=n: idn.corner_conjugation(s, nn, a, b, c))
            # elementary criterion and det-1 conjugations
            sring = _symbol_ring(("t", "u", "x", "y")) if symbolic else ring
            t, u, x, y = binds(("t", "u", "x", "y"), sring)
            eps = _det1_witness(sring, t, u)
            yield ("elementary-criterion", n,
                   lambda s=sring, e=eps, a=x, b=y, nn=n: idn.elementary_criterion(s, nn, nn, e, a, b))
            for shape in "ABCD":
                for i in range(2, n + 1):
                    yield (f"det1-conjugation:{shape}@{i}", n,
                           lambda s=sring, e=eps, sh=shape, ii=i, a=x, nn=n:
                           idn.det1_conjugation(s, nn, e, sh, ii, a))
            # row conjugation
            names = ("t", "u") + tuple(f"y{i}" for i in range(3, 2 * n + 1))
            sring = _symbol_ring(names) if symbolic else ring
            vals = binds(names, sring)
            delta = _det1_witness(sring, vals[0], vals[1])
            yield ("row-conjugation", n,
                   lambda s=sring, d=delta, ys=vals[2:], nn=n: idn.row_conjugation(s, nn, d, ys))
            # graded split and the two form splits
            sring = _symbol_ring(("lam", "mu", "x", "y")) if symbolic else ring
            lam, mu, x, y = binds(("lam", "mu", "x", "y"), sring)
            for k in range(2, n + 1):
                yield (f"graded-split@{k}", n,
                       lambda s=sring, a=lam, b=mu, c=x, d=y, kk=k, nn=n:
                       idn.graded_split(s, nn, kk, a, b, c, d))
                yield (f"a-form-split@{k}", n,
                       lambda s=sring, a=lam, b=mu, c=x, kk=k, nn=n:
                       idn.a_form_split(s, nn, kk, a, b, c))
                yield (f"b-form-split@{k}", n,
                       lambda s=sring, a=lam, b=mu, c=x, kk=k, nn=n:
                       idn.b_form_split(s, nn, kk, a, b, c))
            # block conjugation
            sring = _symbol_ring(("t", "u", "lam", "mu", "x", "y")) if symbolic else ring
            t, u, lam, mu, x, y = binds(("t", "u", "lam", "mu", "x", "y"), sring)
            delta = _det1_witness(sring, t, u)
            yield ("block-conjugation", n,
                   lambda s=sring, d=delta, a=lam, b=mu, c=x, e=y, nn=n:
                   idn.block_conjugation(s, nn, 2, d, a, b, c, e))
            # commutator table
            sring = _symbol_ring(("x", "y")) if symbolic else ring
            x, y = binds(("x", "y"), sring)
            for X in "ABCD":
                for Y in "ABCD":
                    for i in range(2, n + 1):
                        for j in range(2, n + 1):
                            yield (f"commutator:{X}{i},{Y}{j}", n,
                                   lambda s=sring, a=X, ii=i, b=Y, jj=j, c=x, d=y, nn=n:
                                   idn.commutator_instance(s, nn, a, ii, c, b, jj, d, corrupt=corrupt))
            # unit commutator table
            for X in "ABCD":
                for Y in "BC":
                    for i in range(2, n + 1):
                        for j in range(1, n + 1):
                            yield (f"unit-commutator:{X}{i},{Y}@{j}", n,
                                   lambda s=sring, a=X, ii=i, b=Y, jj=j, c=x, d=y, nn=n:
                                   idn.unit_commutator_instance(s, nn, a, ii, c, b, jj, d, corrupt=corrupt))
            # composite identities
            sring = _symbol_ring(("x", "y", "z")) if symbolic else ring
            x, y, z = binds(("x", "y", "z"), sring)
            for (X, Y) in (("A", "D"), ("B", "C"), ("D", "A"), ("C", "B")):
                for i in range(2, n + 1):
                    yield (f"composite:{X}{Y}@{i}", n,
                           lambda s=sring, a=X, b=Y, ii=i, c=x, d=y, e=z, nn=n:
                           idn.composite_instance(s, nn, a, b, ii, c, d, e))


def run_verify_tables(ring, n_values, seed=0, trials=3, corrupt=None, out_stream=None):
    rng = random.Random(seed)
    report = RunReport("verify-tables", ring.descriptor())
    for name, n, build in iter_table_items(ring, n_values, rng, trials=trials, corrupt=corrupt):
        t0 = time.perf_counter()
        checked_over = ring  # the ring the instance was built over, once built
        try:
            inst = build()
            checked_over = inst.ring
            ok = inst.holds()
            bindings = inst.bindings_str()
        except Exception as exc:  # verification harness must not die mid-sweep
            ok = False
            bindings = f"error: {exc}"
        rec = Record(name, checked_over.descriptor(), n, "PASS" if ok else "FAIL",
                     time.perf_counter() - t0, bindings)
        report.add(rec)
        if out_stream is not None:
            print(rec.line(), file=out_stream)
    return report
