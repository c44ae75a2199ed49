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
from .symplectic import SHAPES, corner_embed, gen_abcd, gen_corner, gen_s, gen_small, pi_swap
from .words import ABCDAtom, CornerAtom, CornerMatrixAtom, SAtom, UnitAtom, Word
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
    """E21(t) E12(u) = [[1, u], [t, 1 + t u]]."""
    return Matrix(ring, [(ring.one, u), (t, ring.add(ring.one, ring.mul(t, u)))])


# atom kind -> every atom of that kind at n, at each index, shape and
# position, paired with its dense definition; d is a det-1 corner
ATOM_KINDS = {
    "S": lambda r, n, x, d: [(SAtom(i, j, x), gen_s(r, n, i, j, x))
                             for i in range(1, 2 * n + 1) for j in range(1, 2 * n + 1)
                             if j not in (i, pi_swap(i))],
    "E12/E21": lambda r, n, x, d: [(CornerAtom(k, x), gen_corner(r, n, k, x))
                                   for k in ("E12", "E21")],
    "A-D": lambda r, n, x, d: [(ABCDAtom(sh, p, x), gen_abcd(r, n, sh, p, x))
                               for sh in SHAPES for p in range(2, n + 1)],
    "UB/UC": lambda r, n, x, d: [(UnitAtom(sh, p, x), gen_small(r, n, sh, p, x))
                                 for sh in "BC" for p in range(1, n + 1)],
    "CORNER": lambda r, n, x, d: [(CornerMatrixAtom(d.rows), corner_embed(d, n))],
}


def atom_terms_instance(ring, n, kind, x, t, u):
    """Each atom of ``kind`` at n, evaluated alone by the word evaluator,
    against its dense definition. The commutator families compare words,
    so a sign slip in an atom's ``_terms`` would otherwise go unseen."""
    pairs = ATOM_KINDS[kind](ring, n, x, _det1_witness(ring, t, u))
    return idn.IdentityInstance(ring, n,
                                tuple(Word(ring, n, [a]).eval() for a, _ in pairs),
                                tuple(m for _, m in pairs), {"x": x, "t": t, "u": u})


def iter_table_items(ring, n_values, rng, trials=3, corrupt=None):
    """Yield (name, n, builder, args) over every family; builder(*args)
    is the item's IdentityInstance."""
    symbolic = isinstance(ring, PolyRing)

    def binds(*names):
        """The ring an item is built over and its bindings for ``names``."""
        if symbolic:
            sring = PolyRing(Rationals(), names)
            return sring, [sring.var(v) for v in names]
        return ring, [ring.sample(rng) for _ in names]

    reps = 1 if symbolic else trials

    for n in n_values:
        for _ in range(reps):
            sring, (x, t, u) = binds("x", "t", "u")
            for kind in ATOM_KINDS:
                yield f"atom-terms:{kind}", n, atom_terms_instance, (sring, n, kind, x, t, u)
            sring, (lam, x, y) = binds("lam", "x", "y")
            yield "corner-conjugation", n, idn.corner_conjugation, (sring, n, lam, x, y)
            # elementary criterion and det-1 conjugations
            sring, (t, u, x, y) = binds("t", "u", "x", "y")
            eps = _det1_witness(sring, t, u)
            yield "elementary-criterion", n, idn.elementary_criterion, (sring, n, n, eps, x, y)
            for shape in "ABCD":
                for i in range(2, n + 1):
                    yield (f"det1-conjugation:{shape}@{i}", n, idn.det1_conjugation,
                           (sring, n, eps, shape, i, x))
            sring, (t, u, *ys) = binds("t", "u", *(f"y{i}" for i in range(3, 2 * n + 1)))
            yield ("row-conjugation", n, idn.row_conjugation,
                   (sring, n, _det1_witness(sring, t, u), ys))
            # graded split and the two form splits
            sring, (lam, mu, x, y) = binds("lam", "mu", "x", "y")
            for k in range(2, n + 1):
                yield f"graded-split@{k}", n, idn.graded_split, (sring, n, k, lam, mu, x, y)
                for kind in "AB":
                    yield (f"{kind.lower()}-form-split@{k}", n, idn.form_split,
                           (sring, n, k, kind, lam, mu, x))
            sring, (t, u, lam, mu, x, y) = binds("t", "u", "lam", "mu", "x", "y")
            yield ("block-conjugation", n, idn.block_conjugation,
                   (sring, n, 2, _det1_witness(sring, t, u), lam, mu, x, y))
            # the two commutator tables
            sring, (x, y) = binds("x", "y")
            for X in "ABCD":
                for Y in "ABCD":
                    for i in range(2, n + 1):
                        for j in range(2, n + 1):
                            yield (f"commutator:{X}{i},{Y}{j}", n, idn.commutator_instance,
                                   (sring, n, X, i, x, Y, j, y, corrupt))
            for X in "ABCD":
                for Y in "BC":
                    for i in range(2, n + 1):
                        for j in range(1, n + 1):
                            yield (f"unit-commutator:{X}{i},{Y}@{j}", n,
                                   idn.unit_commutator_instance,
                                   (sring, n, X, i, x, Y, j, y, corrupt))
            sring, (y, z) = binds("y", "z")
            for X, Y in idn.CROSSING_PAIRS:
                for i in range(2, n + 1):
                    yield (f"composite:{X}{Y}@{i}", n, idn.composite_instance,
                           (sring, n, X, Y, i, y, z))


def run_verify_tables(ring, n_values, seed=0, trials=3, corrupt=None, out_stream=None):
    rng = random.Random(seed)
    report = RunReport("verify-tables", ring.descriptor())
    for name, n, builder, args in iter_table_items(ring, n_values, rng, trials=trials,
                                                   corrupt=corrupt):
        t0 = time.perf_counter()
        checked_over = ring  # the ring the instance was built over, once built
        try:
            inst = builder(*args)
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
