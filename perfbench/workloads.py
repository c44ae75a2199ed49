"""The benchmark's workloads: seeded inputs, the operation under test, and
the benchmark's own check of every output.

A workload object holds no library state. ``setup`` builds the rings (and
loads the rule files) from a namespace of freshly imported sympelem
modules and returns them; ``inputs`` turns a seeded ``random.Random`` into
an endless stream of call inputs; ``call`` runs one call under an
``OpClock`` and returns one ``Op`` per operation it performed.

Inputs are stratified so that every run, whatever its seed, has the same
cost mix. The properties that set an operation's cost (word length, n,
ring, which atoms are corners, their indices, which parameters are zero or
carry a t term) cycle in a fixed order of ``cycle`` calls. They are drawn
from a ``shape`` stream that restarts at every cycle from ``SHAPE_SEED``,
which no argument changes, so every cycle repeats the same structures. The
parameter values are drawn from the ``--seed`` stream, fresh in every
cycle. Structural rates follow the acceptance suite's criterion-5
distribution: 3 corner atoms in 10, a zero parameter one time in 5 over
Q[t] (``randint(-2, 2)``) and one time in 15 over Z/15 (``randrange(15)``),
a +-t term one time in 4. Runs stop at the end of a cycle, and each
operation is keyed by its place in the cycle, so ``run.py`` can compare
the same operation across cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SHAPE_SEED = 5


def cycles(cycle):
    """The ``shape`` stream of each call: restarted every ``cycle`` calls,
    so call k and call k + cycle get the same structure."""
    while True:
        shape = random.Random(SHAPE_SEED)
        for _ in range(cycle):
            yield shape


@dataclass
class Op:
    seconds: float
    ok: bool
    atoms_in: int = 0
    atoms_out: int = 0
    key: tuple = ()  # place in the input cycle, set by run.py


class WordMaker:
    """Criterion-5-style generator words: corner atoms at rate 3 in 10, the
    rest transvections S_ij with j not in {i, pi(i)}. Which atoms are
    corners, their kinds and indices come from the ``shape`` stream;
    ``sample(ring, shape)`` gives a parameter."""

    def __init__(self, lib, sample):
        self.lib, self.sample = lib, sample

    def word(self, ring, n, length, shape):
        words = self.lib.words
        atoms = []
        for _ in range(length):
            if shape.random() < 0.3:
                kind = shape.choice(("E12", "E21"))
                atoms.append(words.CornerAtom(kind, self.sample(ring, shape)))
                continue
            while True:
                i, j = shape.randint(1, 2 * n), shape.randint(1, 2 * n)
                if i != j and j != self.lib.symplectic.pi_swap(i):
                    break
            atoms.append(words.SAtom(i, j, self.sample(ring, shape)))
        return words.Word(ring, n, atoms)


def zmod_sample(rng):
    """``randrange(m)``, with whether it is 0 drawn from ``shape``."""
    return lambda ring, shape: 0 if shape.random() < 1 / ring.m else rng.randrange(1, ring.m)


def flip_one_atom(lib, word):
    """The word with the parameter of its first atom replaced by
    parameter + 1: the fault the checks must catch."""
    ring, first = word.ring, word.atoms[0]
    flipped = lib.words.ABCDAtom(first.shape, first.pos, ring.add(first.e, ring.one))
    return lib.words.Word(ring, word.n, (flipped,) + word.atoms[1:])


def _shape_only(lib, word):
    return all(isinstance(a, lib.words.ABCDAtom) for a in word.atoms)


class DecomposeQt:
    """``decompose_full`` plus the CLI's round-trip ``eval`` check, on
    seeded words of 0-8 atoms over Q[t] with n alternating 2/3."""

    LENGTHS = range(9)

    def __init__(self, name, why, cycles_in_prefix):
        self.name = name
        self.why = why
        self.cycle = 2 * len(self.LENGTHS)
        self.prefix_calls = cycles_in_prefix * self.cycle
        self.inject = False

    def setup(self, lib):
        ring = lib.rings.ring_from_descriptor("poly:q:t")
        # the n = 3 reduction rules are read from the packaged rule file
        # on first use; one row-3 transvection loads them here
        probe = lib.words.Word(ring, 3, [lib.words.SAtom(3, 5, ring.one)])
        lib.rewrite.reduce_to_row12(probe)
        return ring

    @staticmethod
    def sample(rng):
        """``randint(-2, 2)``, plus a +-t term one time in four. Whether the
        integer is 0 and whether there is a t term come from ``shape``."""
        def draw(ring, shape):
            q = ring.base
            c = 0 if shape.random() < 0.2 else rng.choice((-2, -1, 1, 2))
            p = ring.const(q.from_int(c))
            if shape.random() < 0.25:
                tx = ring.mul(ring.const(q.from_int(rng.choice((-1, 1)))), ring.var("t"))
                p = ring.add(p, tx)
            return p
        return draw

    def inputs(self, lib, ring, rng):
        """Call k: n = 2 + k % 2, length (k // 2) % 9."""
        maker = WordMaker(lib, self.sample(rng))
        for k, shape in enumerate(cycles(self.cycle)):
            yield maker.word(ring, 2 + k % 2, self.LENGTHS[(k // 2) % len(self.LENGTHS)], shape)

    def call(self, lib, ring, word, clock):
        clock.start()
        cert = lib.rewrite.decompose_full(word)
        out = cert.output_word
        if self.inject and out.atoms:
            out = flip_one_atom(lib, out)
            self.inject = False
        round_trip = out.eval() == word.eval()
        seconds = clock.stop()
        ok = round_trip and cert.verified and _shape_only(lib, out)
        return [Op(seconds, ok, len(word), len(out))]


class _ItemClock:
    """Output stream for ``run_verify_tables``: the report prints one line
    per identity item, so each line closes one timed operation and opens
    the next."""

    def __init__(self, clock):
        self.clock = clock
        self.seconds = []

    def write(self, text):
        if text.strip():
            self.seconds.append(self.clock.lap())

    def flush(self):
        pass


class VerifySymbolic:
    """``run_verify_tables`` over poly:q:x,y, one call per n, each identity
    item one operation. Symbolic bindings do not depend on the seed, so
    the seed sets the order of the n sweeps, the same in every cycle."""

    N_VALUES = (2, 3, 4, 5)
    CORRUPT_KEY = "commutator:AB:eq"

    def __init__(self, name, why, cycles_in_prefix):
        self.name = name
        self.why = why
        self.cycle = len(self.N_VALUES)
        self.prefix_calls = cycles_in_prefix * self.cycle
        self.inject = False

    def setup(self, lib):
        return lib.rings.ring_from_descriptor("poly:q:x,y")

    def inputs(self, lib, ring, rng):
        order = list(self.N_VALUES)
        rng.shuffle(order)
        while True:
            yield from order

    def call(self, lib, ring, n, clock):
        stream = _ItemClock(clock)
        corrupt = self.CORRUPT_KEY if self.inject else None
        clock.start()
        report = lib.verify.run_verify_tables(ring, [n], corrupt=corrupt, out_stream=stream)
        clock.stop()
        if len(stream.seconds) != len(report.records):
            raise RuntimeError("item clock lost track of the report records")
        ops = [Op(s, rec.status == "PASS") for s, rec in zip(stream.seconds, report.records)]
        if not report.ok and all(op.ok for op in ops):
            raise RuntimeError("report.ok disagrees with its records")
        return ops


class Normality:
    """``normality_demo`` over Z/15 with the criterion-9 cover, gamma a
    seeded generator word of 1-3 atoms and h 1-2 shape atoms at n = 2.
    The output is checked against gamma h gamma^-1 built here.

    The cover's s = 2 and 4 are units of Z/15, and every non-unit of Z/15
    is a zero divisor, so nothing there reaches the conjugation path of
    ``dilate``. Every other call therefore also dilates a homotopy word
    over Q[t] localized at t, as in criterion 8: E_X(a/t^k) E_Y(x X)
    E_X(-a/t^k) at n = 2, with k cycling through 0, 1, 2. For k > 0 the
    denominators send ``dilate`` through the conjugation decomposition and
    make it try several exponents m. Its output is checked as criterion 8
    checks it: embedded, it equals the input at X -> t^m X."""

    COVER = [(2, 1, 2, 1), (4, 11, 4, 1)]

    def __init__(self, name, why, cycles_in_prefix):
        self.name = name
        self.why = why
        self.cycle = 6
        self.prefix_calls = cycles_in_prefix * self.cycle
        self.inject = False

    def setup(self, lib):
        rings = lib.rings
        ring = rings.Zmod(15)
        cover = lib.localglobal.CoverData(list(self.COVER))
        cover.validate(ring)
        qt = rings.ring_from_descriptor("poly:q:t")
        loc = rings.Localized(qt, qt.var("t"))
        return ring, cover, qt, loc, rings.PolyRing(loc, ("X",))

    def homotopy(self, lib, state, rng, shape, k):
        """E_X(a/t^k) E_Y(x X) E_X(-a/t^k), x = (c or c + t) / t^k2, with
        a and c nonzero integers in -2..2 so that no atom is trivial. The
        shapes, the t term and k2 come from ``shape``."""
        _, _, qt, loc, rsx = state
        words = lib.words
        nonzero = lambda: qt.from_int(rng.choice((-2, -1, 1, 2)))
        xshape, yshape = shape.choice("ABCD"), shape.choice("ABCD")
        a = rsx.const(loc.frac(nonzero(), k))
        c = nonzero()
        if shape.random() < 0.5:
            c = qt.add(c, qt.var("t"))
        x = rsx.mul(rsx.var("X"), rsx.const(loc.frac(c, shape.randint(0, 2))))
        return words.Word(rsx, 2, [words.ABCDAtom(xshape, 2, a), words.ABCDAtom(yshape, 2, x),
                                   words.ABCDAtom(xshape, 2, rsx.neg(a))])

    def inputs(self, lib, state, rng):
        """Call k: gamma has 1 + k % 3 atoms, h has 1 + (k // 3) % 2; even
        calls also dilate a homotopy word with k = (k // 2) % 3."""
        ring = state[0]
        words = lib.words
        sample = zmod_sample(rng)
        maker = WordMaker(lib, sample)
        for k, shape in enumerate(cycles(self.cycle)):
            gamma = maker.word(ring, 2, 1 + k % 3, shape)
            h = words.Word(ring, 2, [words.ABCDAtom(shape.choice("ABCD"), 2, sample(ring, shape))
                                     for _ in range(1 + (k // 3) % 2)])
            homotopy = (self.homotopy(lib, state, rng, shape, (k // 2) % 3)
                        if k % 2 == 0 else None)
            yield gamma, h, homotopy

    def call(self, lib, state, inp, clock):
        ring, cover, qt, loc, rsx = state
        gamma, h, homotopy = inp
        clock.start()
        out = lib.localglobal.normality_demo(ring, 2, gamma, h, cover)
        seconds = clock.stop()
        if self.inject and out.atoms:
            out = flip_one_atom(lib, out)
            self.inject = False
        g = gamma.eval()
        expected = g.mul(h.eval()).mul(lib.symplectic.symp_inverse(g))
        ok = out.eval() == expected and _shape_only(lib, out)
        ops = [Op(seconds, ok, len(gamma) + len(h), len(out))]
        if homotopy is None:
            return ops

        t = qt.var("t")
        clock.start()
        m, out = lib.localglobal.dilate(qt, t, 2, homotopy)
        seconds = clock.stop()
        embedded = out.map_params(lambda p: tuple((e, loc.embed(c)) for e, c in p), rsx)
        tmx = rsx.mul(rsx.const(loc.embed(qt.pow_int(t, m))), rsx.var("X"))
        target = homotopy.map_params(lambda p: rsx.subst(p, {"X": tmx}), rsx)
        ok = out.ring.base is qt and _shape_only(lib, out) and embedded.eval() == target.eval()
        ops.append(Op(seconds, ok))
        return ops


WORKLOADS = {w.name: w for w in (
    DecomposeQt(
        "decompose-qt",
        "criterion-5 words of 0-8 atoms over Q[t]: rewrite stages, dense Matrix.mul checks "
        "and Fraction-coefficient polynomial ops; a ring-layer gain must show here",
        cycles_in_prefix=1),
    VerifySymbolic(
        "verify-symbolic",
        "every identity item over poly:q:x,y at n=2..5: dense symbolic products with no "
        "rewriting; guards dense Matrix.mul/Ring.dot",
        cycles_in_prefix=1),
    Normality(
        "normality-z15",
        "normality_demo over Z/15 with the criterion-9 cover, where dilate, patch and "
        "Word.eval over (Z/15[Y])_s[X] towers dominate, plus dilate over Q[t] localized at t",
        cycles_in_prefix=1),
)}
