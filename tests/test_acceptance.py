"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured time and asserting the stated budget."""

import itertools
import random
import time

import pytest

from sympelem import identities as idn
from sympelem import localglobal as lg
from sympelem import rewrite as rw
from sympelem.errors import EvenModulus
from sympelem.matrices import Matrix
from sympelem.rings import Localized, PolyRing, Rationals, Zmod
from sympelem.symplectic import block2_make, block2_mul, gen_abcd, pi_swap, shape_matrix, symp_inverse
from sympelem.verify import run_verify_tables
from sympelem.words import ABCDAtom, CornerAtom, SAtom, Word

Q = Rationals()
PXY = PolyRing(Q, ("x", "y"))
SX, SY = PXY.var("x"), PXY.var("y")
Z15 = Zmod(15)
Z105 = Zmod(105)


class Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({dt:.2f}s, budget {self.limit}s)")
        if exc_type is None:
            assert dt < self.limit, f"{self.label} exceeded {self.limit}s ({dt:.2f}s)"
        return False


def test_criterion_01_block_product_table():
    with Budget("1 block-product table", 1.0):
        for s1, s2 in itertools.product("ABCD", repeat=2):
            got = block2_mul(PXY, block2_make(s1, SX), block2_make(s2, SY))
            want = shape_matrix(PXY, s1, SX).mul(shape_matrix(PXY, s2, SY))
            assert got.matrix(PXY) == want, (s1, s2)


def test_criterion_02_commutator_table_symbolic():
    with Budget("2 commutator table n=2..4", 60.0):
        for n in (2, 3, 4):
            for Xs, Ys in itertools.product("ABCD", repeat=2):
                for i in range(2, n + 1):
                    for j in range(2, n + 1):
                        inst = idn.commutator_instance(PXY, n, Xs, i, SX, Ys, j, SY)
                        assert inst.holds(), (n, Xs, i, Ys, j)
        # the four dense closed forms appear at every same-position pair
        for n in (2, 3, 4):
            for (Xs, Ys) in (("A", "D"), ("B", "C"), ("C", "B"), ("D", "A")):
                for i in range(2, n + 1):
                    m = idn.crossing_commutator_matrix(PXY, n, Xs, i, SX, Ys, SY)
                    g, h = gen_abcd(PXY, n, Xs, i, SX), gen_abcd(PXY, n, Ys, i, SY)
                    lhs = g.mul(h).mul(symp_inverse(g)).mul(symp_inverse(h))
                    assert m == lhs


def test_criterion_03_named_identities_symbolic():
    with Budget("3 named identities n=2..3", 60.0):
        r1 = PolyRing(Q, ("lam", "x", "y"))
        lam, x, y = (r1.var(v) for v in ("lam", "x", "y"))
        for n in (2, 3):
            assert idn.corner_conjugation(r1, n, lam, x, y).holds()
        r2 = PolyRing(Q, ("t", "u", "x", "y"))
        t, u, x, y = (r2.var(v) for v in ("t", "u", "x", "y"))
        one, zero = r2.one, r2.zero
        eps = Matrix(r2, [(one, zero), (t, one)]).mul(Matrix(r2, [(one, u), (zero, one)]))
        for n in (2, 3):
            for k in range(2, n + 1):
                assert idn.elementary_criterion(r2, n, k, eps, x, y).holds()
            for sh in "ABCD":
                for i in range(2, n + 1):
                    assert idn.det1_conjugation(r2, n, eps, sh, i, x).holds()
        for n in (2, 3):
            names = ("t", "u") + tuple(f"y{i}" for i in range(3, 2 * n + 1))
            r3 = PolyRing(Q, names)
            tv, uv = r3.var("t"), r3.var("u")
            one, zero = r3.one, r3.zero
            delta = Matrix(r3, [(one, zero), (tv, one)]).mul(Matrix(r3, [(one, uv), (zero, one)]))
            ys = [r3.var(f"y{i}") for i in range(3, 2 * n + 1)]
            assert idn.row_conjugation(r3, n, delta, ys).holds()
        r4 = PolyRing(Q, ("lam", "mu", "x", "y"))
        lam, mu, x, y = (r4.var(v) for v in ("lam", "mu", "x", "y"))
        for n in (2, 3):
            for k in range(2, n + 1):
                assert idn.graded_split(r4, n, k, lam, mu, x, y).holds()
                assert idn.form_split(r4, n, k, "A", lam, mu, x).holds()
                assert idn.form_split(r4, n, k, "B", lam, mu, x).holds()
        r5 = PolyRing(Q, ("t", "u", "lam", "mu", "x", "y"))
        t, u, lam, mu, x, y = (r5.var(v) for v in ("t", "u", "lam", "mu", "x", "y"))
        one, zero = r5.one, r5.zero
        delta = Matrix(r5, [(one, zero), (t, one)]).mul(Matrix(r5, [(one, u), (zero, one)]))
        for n in (2, 3):
            for k in range(2, n + 1):
                assert idn.block_conjugation(r5, n, k, delta, lam, mu, x, y).holds()


def test_criterion_04_unit_and_composite_tables():
    with Budget("4 unit commutators and composites", 120.0):
        # symbolic, which is feasible here
        for n in (2, 3):
            for Xs in "ABCD":
                for Ys in "BC":
                    for i in range(2, n + 1):
                        for j in range(1, n + 1):
                            assert idn.unit_commutator_instance(
                                PXY, n, Xs, i, SX, Ys, j, SY).holds(), (n, Xs, i, Ys, j)
        pz = PolyRing(Q, ("y", "z"))
        ys, zs = pz.var("y"), pz.var("z")
        for n in (2, 3):
            for i in range(2, n + 1):
                assert idn.composite_instance(pz, n, "A", "D", i, ys, zs).holds()
                assert idn.composite_instance(pz, n, "B", "C", i, ys, zs).holds()
        # randomized sweeps over both residue rings, >= 1000 bindings each
        for ring in (Z15, Z105):
            rng = random.Random(105)
            checked = 0
            while checked < 1000:
                n = rng.choice((2, 3))
                Xs = rng.choice("ABCD")
                i = rng.randint(2, n)
                x = ring.sample(rng)
                y = ring.sample(rng)
                if checked % 2 == 0:
                    Ys = rng.choice("BC")
                    j = rng.randint(1, n)
                    name = f"unit-commutator:{Xs}{i},{Ys}@{j}"
                    inst = idn.unit_commutator_instance(ring, n, Xs, i, x, Ys, j, y)
                else:
                    z = ring.sample(rng)
                    pair = rng.choice((("A", "D"), ("B", "C"), ("D", "A"), ("C", "B")))
                    name = f"composite:{pair[0]}{pair[1]}@{i}"
                    inst = idn.composite_instance(ring, n, pair[0], pair[1], i, y, z)
                assert inst.holds(), (ring.descriptor(), name, inst.bindings_str())
                checked += 1


def _qt_sampler(rng):
    qt = PolyRing(Q, ("t",))

    def sample(ring):
        p = ring.const(Q.from_int(rng.randint(-2, 2)))
        if rng.random() < 0.25:
            p = ring.add(p, ring.mul(ring.const(Q.from_int(rng.choice((-1, 1)))), ring.var("t")))
        return p

    return qt, sample


def _random_word(ring, n, length, rng, sampler):
    atoms = []
    for _ in range(length):
        if rng.random() < 0.3:
            atoms.append(CornerAtom(rng.choice(("E12", "E21")), sampler(ring)))
        else:
            while True:
                i, j = rng.randint(1, 2 * n), rng.randint(1, 2 * n)
                if i != j and j != pi_swap(i):
                    break
            atoms.append(SAtom(i, j, sampler(ring)))
    return Word(ring, n, atoms)


def test_criterion_05_decomposition_round_trip():
    with Budget("5 decomposition round trip", 120.0):
        rng = random.Random(2026)
        qt, qt_sample = _qt_sampler(rng)
        plans = [
            (Z15, lambda ring: ring.sample(rng)),
            (Z105, lambda ring: ring.sample(rng)),
            (qt, qt_sample),
        ]
        for ring, sampler in plans:
            passed = 0
            for trial in range(200):
                n = 2 if trial % 2 == 0 else 3
                w = _random_word(ring, n, rng.randint(0, 8), rng, sampler)
                cert = rw.decompose_full(w)
                assert all(isinstance(a, ABCDAtom) for a in cert.output_word.atoms)
                assert cert.output_word.eval() == w.eval()
                passed += 1
            assert passed == 200, ring.descriptor()


def test_criterion_06_corner_absorption():
    with Budget("6 corner absorption", 10.0):
        rng = random.Random(52)
        for _ in range(50):
            c = Z15.sample(rng)
            for kind in ("E21", "E12"):
                w = Word(Z15, 2, [CornerAtom(kind, c)])
                cert = rw.decompose_full(w)
                assert all(isinstance(a, ABCDAtom) for a in cert.output_word.atoms)
                assert cert.output_word.eval() == w.eval()


def test_criterion_07_conjugation_decomposition_sweep():
    with Budget("7 conjugation decomposition sweep", 120.0):
        qt = PolyRing(Q, ("t",))
        t = qt.var("t")
        loc = Localized(qt, t)
        a = qt.from_int(3)
        x = qt.add(qt.from_int(2), t)
        mins = {}
        for Xs, Ys in itertools.product("ABCD", repeat=2):
            for i, j in itertools.product((2, 3), repeat=2):
                for (k, m) in ((1, 2), (1, 3), (2, 4)):
                    word, graded = lg.conj_decompose(loc, 3, Xs, i, a, k, Ys, j, m, x)
                    assert len(word) <= 45
                    mins.setdefault((Xs, Ys, i, j, k), []).append(
                        (m, min((g.e[0] for g in graded), default=None)))
        for key, series in mins.items():
            series.sort()
            vals = [v for _, v in series if v is not None]
            assert all(u <= v for u, v in zip(vals, vals[1:])), (key, series)


def test_criterion_08_dilation_documented_example():
    with Budget("8 dilation example", 30.0):
        qt = PolyRing(Q, ("t",))
        t = qt.var("t")
        loc = Localized(qt, t)
        rsx = PolyRing(loc, ("X",))
        param = rsx.mul(rsx.var("X"), rsx.const(loc.frac(qt.from_int(3), 1)))
        w = Word(rsx, 2, [ABCDAtom("A", 2, param)])
        m, out = lg.dilate(qt, t, 2, w)
        assert m <= 3
        # exactness: embedded output equals the input at X -> s^m X
        embed_out = out.map_params(lambda p: tuple((e, loc.embed(c)) for e, c in p), rsx)
        smx = rsx.mul(rsx.const(loc.embed(qt.pow_int(t, m))), rsx.var("X"))
        target = w.map_params(lambda p: rsx.subst(p, {"X": smx}), rsx)
        assert embed_out.eval() == target.eval()


def test_criterion_09_patch_and_normality():
    with Budget("9 patch and normality over Z/15", 120.0):
        rng = random.Random(53)
        cover = lg.CoverData([(2, 1, 2, 1), (4, 11, 4, 1)])
        cover.validate(Z15)
        rx = PolyRing(Z15, ("X",))
        for trial in range(10):
            atoms = [ABCDAtom(rng.choice("ABCD"), 2,
                              rx.mul(rx.const(Z15.sample(rng)), rx.var("X")))
                     for _ in range(rng.randint(1, 2))]
            aw = Word(rx, 2, atoms)
            locs = []
            for (s, c, b, N) in cover.entries:
                lring = Localized(Z15, s)
                lrx = PolyRing(lring, ("X",))
                locs.append(aw.map_params(
                    lambda p: tuple((e, lring.embed(cc)) for e, cc in p), lrx))
            out = lg.patch(Z15, 2, aw, cover, locs)
            assert out.eval() == aw.eval()
        count = 0
        while count < 20:
            gamma = _random_word(Z15, 2, rng.randint(1, 3), rng, lambda r: r.sample(rng))
            h = Word(Z15, 2, [ABCDAtom(rng.choice("ABCD"), 2, Z15.sample(rng))
                              for _ in range(rng.randint(1, 2))])
            out = lg.normality_demo(Z15, 2, gamma, h, cover)
            g = gamma.eval()
            assert out.eval() == g.mul(h.eval()).mul(symp_inverse(g))
            assert all(isinstance(a, ABCDAtom) for a in out.atoms)
            count += 1


def test_criterion_10_negative_controls():
    with Budget("10 negative controls", 30.0):
        with pytest.raises(EvenModulus):
            Zmod(4)
        with pytest.raises(EvenModulus):
            from sympelem.rings import ring_from_descriptor
            ring_from_descriptor("zmod:4")
        report = run_verify_tables(Z15, [2], seed=9, trials=2,
                                   corrupt="commutator:AB:eq")
        assert not report.ok
        bad = [r for r in report.records if r.status == "FAIL"]
        assert bad and all(r.bindings for r in bad)
        clean = run_verify_tables(Z15, [2], seed=9, trials=1)
        assert clean.ok
