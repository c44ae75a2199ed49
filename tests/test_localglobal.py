import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympelem import identities as idn
from sympelem import localglobal as lg
from sympelem import words
from sympelem.errors import (
    AlphabetViolation,
    CoverNotComaximal,
    ExponentTooSmall,
    LocalWordMismatch,
    NotHomotopy,
    ParseError,
    StepVerificationFailed,
)
from sympelem.matrices import Matrix
from sympelem.rings import Localized, PolyRing, Rationals, Zmod
from sympelem.symplectic import symp_inverse
from sympelem.verify import run_verify_tables
from sympelem.words import ABCDAtom, CornerAtom, CornerMatrixAtom, SAtom, Word, word_from_text

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

Q = Rationals()
QT = PolyRing(Q, ("t",))
T = QT.var("t")
RT = Localized(QT, T)
Z15 = Zmod(15)


def embed_word_params(word, loc, target):
    return word.map_params(lambda p: tuple((e, loc.embed(c)) for e, c in p), target)


def assert_reduced(word):
    """No zero parameter, and no two adjacent atoms of one shape at one
    position: nothing is left for ``simplify_shape_word`` to merge."""
    assert not any(word.ring.is_zero(a.e) for a in word.atoms)
    assert not any((a.shape, a.pos) == (b.shape, b.pos)
                   for a, b in zip(word.atoms, word.atoms[1:]))


def test_conj_decompose_case1():
    w, graded = lg.conj_decompose(RT, 3, "A", 2, QT.from_int(3), 1, "A", 3, 3, QT.one)
    assert len(w) == 1
    assert graded[0] == ABCDAtom("A", 3, (3, QT.one))


def test_conj_decompose_case2():
    a = QT.from_int(3)
    x = QT.add(QT.from_int(2), T)
    w, graded = lg.conj_decompose(RT, 3, "A", 2, a, 1, "B", 2, 3, x)
    assert len(w) == 5
    exps = [g.e[0] for g in graded]
    assert all(e >= 1 for e in exps)
    # distance case for a free pair is a single atom
    w, tr = lg.conj_decompose(RT, 3, "A", 2, a, 1, "B", 3, 3, x)
    assert len(w) == 1


def test_crossing_conjugation_reads_the_checked_unit_table(monkeypatch):
    # (A, D) at one position brackets A_2 with the corner unit y_g through
    # the row (A, C, j1); negating its x^2 y coefficient must fail both the
    # table check and the conjugation's own check
    key = ("A", "C", "j1")
    ush, utag, uc, esh, ec = idn._UNIT_COMMUTATOR[key]
    monkeypatch.setitem(idn._UNIT_COMMUTATOR, key, (ush, utag, -uc, esh, ec))
    report = run_verify_tables(PolyRing(Q, ("x", "y")), [2])
    assert {r.name for r in report.records if r.status == "FAIL"} == {"unit-commutator:A2,C@1"}
    with pytest.raises(StepVerificationFailed):
        lg.conj_decompose(RT, 3, "A", 2, QT.from_int(3), 1, "D", 2, 3, QT.one)


def _slip_unit_commutator(monkeypatch):
    """Negate the unit of unit_commutator_word's row (A, C, j1), the
    bracket of A_i with the corner unit y_g of the crossing pair (A, D)."""
    real = idn.unit_commutator_word

    def slipped(ring, n, X, i, x, Y, j, y):
        word = real(ring, n, X, i, x, Y, j, y)
        if (X, Y, idn.unit_rel(i, j)) != ("A", "C", "j1"):
            return word
        unit, shape = word.atoms
        return Word(ring, n, [unit._inverse(ring), shape])

    monkeypatch.setattr(idn, "unit_commutator_word", slipped)
    return {"unit-commutator:A2,C@1"}


def _slip_composite(monkeypatch):
    """Negate the unit w_g of composite_pieces' row (A, D)."""
    real = idn.composite_pieces

    def slipped(ring, n, X, Y, i, y, z):
        yg, zg, wg = real(ring, n, X, Y, i, y, z)
        return (yg, zg, wg._inverse(ring) if (X, Y) == ("A", "D") else wg)

    monkeypatch.setattr(idn, "composite_pieces", slipped)
    return {"composite:AD@2"}


@pytest.mark.parametrize("slip", [_slip_unit_commutator, _slip_composite])
def test_a_builder_slip_fails_its_items_and_the_conjugations(slip, monkeypatch):
    # conj and dilate build the crossing conjugation through the builders
    # verify-tables checks, so a slip in one fails exactly that row's
    # items, conj_decompose's named check and dilate's check
    failing = slip(monkeypatch)
    report = run_verify_tables(PolyRing(Q, ("x", "y")), [2])
    assert {r.name for r in report.records if r.status == "FAIL"} == failing
    with pytest.raises(StepVerificationFailed) as exc:
        lg.conj_decompose(RT, 3, "A", 2, QT.from_int(3), 1, "D", 2, 3, QT.one)
    assert str(exc.value).startswith(
        "rule 'conj' changed the evaluation over loc:poly:q:t:s=t at n=3\n"
        "before:\nA 2 3/t\nD 2 t^3\nA 2 (-3)/t\nafter:\n")
    homotopy = word_from_text(_rsx(), 2, "A 2 3/t\nD 2 X\nA 2 -3/t")
    with pytest.raises(StepVerificationFailed) as exc:
        lg.dilate(QT, T, 2, homotopy)
    assert str(exc.value).startswith(
        "rule 'dilate' changed the evaluation over poly:loc:poly:q:t:s=t:X at n=2\n"
        "before:\nA 2 3/t\nD 2 (t^3)*X\nA 2 ((-3)/t)\nafter:\n")


def test_conj_decompose_exponent_guard():
    with pytest.raises(ExponentTooSmall):
        lg.conj_decompose(RT, 3, "A", 2, QT.one, 2, "B", 2, 2, QT.one)


@pytest.mark.parametrize("k, m, error, words", [(1, 1, ExponentTooSmall, "--m 1 must be greater"),
                                                (1, 1600, ValueError, "must lie in -64..64"),
                                                (-65, 4, ValueError, "must lie in -64..64")])
def test_conj_decompose_bounds_its_exponents(k, m, error, words):
    # the library refuses what the conj command refuses, before any work:
    # an unbounded m - k expands s^(m - k) for minutes
    start = time.perf_counter()
    with pytest.raises(error, match=words):
        lg.conj_decompose(RT, 3, "A", 2, QT.one, k, "D", 2, m, QT.one)
    assert time.perf_counter() - start < 2


_UNIT_AT_1_PAIRS = {("A", "B"), ("B", "A"), ("C", "D"), ("D", "C")}
_CROSSING_PAIRS = {("A", "D"), ("D", "A"), ("B", "C"), ("C", "B")}


def test_conj_decompose_full_sweep():
    a = QT.from_int(3)
    x = QT.add(QT.from_int(2), T)
    for X, Y in itertools.product("ABCD", repeat=2):
        for i, j in itertools.product((2, 3), repeat=2):
            for (k, m) in ((1, 2), (1, 3), (2, 4)):
                w, tr = lg.conj_decompose(RT, 3, X, i, a, k, Y, j, m, x)
                assert len(w) <= 45
                if X == Y or (i != j and (X, Y) in _UNIT_AT_1_PAIRS):
                    assert len(w) == 1, (X, Y, i, j)
                elif (X, Y) in _CROSSING_PAIRS and i == j:
                    assert len(w) == 37, (X, Y, i, j)
                else:
                    assert len(w) <= 5, (X, Y, i, j)


def test_conj_decompose_valuation_growth():
    # minimum recorded exponent is non-decreasing in m and eventually large
    for (X, Y) in (("A", "D"), ("B", "C")):
        mins = []
        for m in range(2, 19):
            w, graded = lg.conj_decompose(RT, 3, X, 2, QT.from_int(3), 1, Y, 2, m, QT.one)
            mins.append(min(g.e[0] for g in graded))
        assert all(a <= b for a, b in zip(mins, mins[1:]))
        assert mins[-1] >= 2
    # plain commutator cases have positive exponents once m - k >= 2
    for m in range(3, 9):
        w, graded = lg.conj_decompose(RT, 3, "A", 2, QT.from_int(3), 1, "C", 2, m, QT.one)
        assert min(g.e[0] for g in graded) >= 1


def _rsx():
    return PolyRing(RT, ("X",))


def linear_scan_valuation(RsX, c, cap):
    """The valuation search ``_param_valuation`` replaced, kept as its
    reference: the first e from cap down to -cap with c s^-e in R[X]."""
    Rs = RsX.base
    if RsX.is_zero(c):
        return 0, RsX.zero
    for e in range(cap, -cap - 1, -1):
        scaled = [(ee, Rs.s_power_mul(v, -e)) for ee, v in c]
        if all(k == 0 for _, (_, k) in scaled):
            return e, tuple((ee, x) for ee, (x, _) in scaled)
    return None


def _valuation_towers():
    """Q[t]_t[X], where coefficients get valuations -3..3, and the
    (Z/15[Y])_2[X] tower of ``patch``, where s = 2 is a unit and the
    valuation stops at the cap."""
    qt_num = st.builds(lambda j, c0, c1: QT.mul(QT.pow_int(T, j), QT.add(QT.from_int(c0),
                                                                        QT.scale_int(c1, T))),
                       st.integers(0, 3), st.integers(-2, 2), st.integers(-2, 2))
    ry = PolyRing(Z15, ("Y",))
    rys = Localized(ry, ry.const(2))
    ry_num = st.dictionaries(st.tuples(st.integers(0, 2)), st.integers(0, 14),
                             max_size=3).map(ry.freeze)
    return [(PolyRing(RT, ("X",)), qt_num), (PolyRing(rys, ("X",)), ry_num)]


@pytest.mark.parametrize("tower", _valuation_towers(), ids=["qt-t", "z15y-2"])
def test_param_valuation_matches_linear_scan(tower):
    rsx, nums = tower
    rs = rsx.base
    coeffs = st.builds(rs.frac, nums, st.integers(0, 3))
    polys = st.dictionaries(st.tuples(st.integers(0, 3)), coeffs, max_size=3).map(rsx.freeze)

    @settings(max_examples=300, deadline=None)
    @given(polys, st.integers(0, 6))
    def check(c, cap):
        assert lg._param_valuation(rs, c, cap) == linear_scan_valuation(rsx, c, cap)

    check()


def test_dilate_documented_example():
    rsx = _rsx()
    param = rsx.mul(rsx.var("X"), rsx.const(RT.frac(QT.from_int(3), 1)))
    w = Word(rsx, 2, [ABCDAtom("A", 2, param)])
    m, out = lg.dilate(QT, T, 2, w)
    assert m <= 3
    # output lives over R[X] and embeds back to the dilated input
    assert out.ring.descriptor() == "poly:poly:q:t:X"


def test_dilate_trivial_cases():
    rsx = _rsx()
    m, out = lg.dilate(QT, T, 2, Word(rsx, 2, []))
    assert m == 0 and len(out) == 0
    param = rsx.mul(rsx.var("X"), rsx.const(RT.embed(QT.from_int(2))))
    m, out = lg.dilate(QT, T, 2, Word(rsx, 2, [ABCDAtom("B", 2, param)]))
    assert m == 0


def test_dilate_rejects_non_homotopy():
    rsx = _rsx()
    w = Word(rsx, 2, [ABCDAtom("A", 2, rsx.const(RT.embed(QT.one)))])
    with pytest.raises(NotHomotopy):
        lg.dilate(QT, T, 2, w)


def test_dilate_with_constant_prefix():
    rsx = _rsx()
    u = RT.frac(QT.from_int(5), 1)
    vv = RT.frac(QT.from_int(2), 1)
    w = Word(rsx, 2, [
        ABCDAtom("A", 2, rsx.mul(rsx.var("X"), rsx.const(u))),
        ABCDAtom("C", 2, rsx.add(rsx.const(vv), rsx.var("X"))),
        ABCDAtom("C", 2, rsx.const(RT.neg(vv))),
    ])
    m, out = lg.dilate(QT, T, 2, w)
    assert m >= 1
    assert_reduced(out)
    # exactness was verified inside; double-check the embedding here
    rs = RT
    embed_out = out.map_params(lambda p: tuple((e, rs.embed(c)) for e, c in p), rsx)
    smx = rsx.mul(rsx.const(rs.embed(QT.pow_int(T, m))), rsx.var("X"))
    target = w.map_params(lambda p: rsx.subst(p, {"X": smx}), rsx)
    assert embed_out.eval() == target.eval()


@pytest.mark.parametrize("text, m, atoms", [
    ("A 2 1\nC 2 2/t\nD 2 X\nC 2 -2/t\nA 2 -1", 2, 6),
    ("B 2 3\nA 2 1/t\nD 2 X\nA 2 -1/t\nB 2 -3", 3, 36),
], ids=["A-then-C", "B-then-A"])
def test_dilate_wraps_the_denominator_free_start_of_a_prefix(text, m, atoms):
    # the prefix starts without denominators and then meets one: only the
    # rest is conjugated through, which needs a smaller m and far fewer
    # atoms than conjugating through the whole prefix (3 and 121, 9 and 497)
    rsx = _rsx()
    w = word_from_text(rsx, 2, text)
    got_m, out = lg.dilate(QT, T, 2, w)
    assert (got_m, len(out)) == (m, atoms)
    assert_reduced(out)
    embedded = embed_word_params(out, RT, rsx)
    tmx = rsx.mul(rsx.const(RT.embed(QT.pow_int(T, m))), rsx.var("X"))
    assert embedded.eval() == w.map_params(lambda p: rsx.subst(p, {"X": tmx})).eval()


def test_dilate_needs_no_exponent_to_pass_a_commuting_prefix():
    # at n = 3, A at position 2 commutes with B at position 3: conjugating
    # B(X) by A(1/t) leaves it as it is, so no denominator is cleared
    w = word_from_text(_rsx(), 3, "A 2 1/t\nB 3 X\nA 2 -1/t")
    assert idn.commutes("A", 2, "B", 3)
    m, out = lg.dilate(QT, T, 3, w)
    assert (m, out.to_text()) == (0, "B 3 X\n")


def test_dilate_starts_at_the_exponent_the_parameters_need(monkeypatch):
    # X^2/t^5 needs m >= ceil(5/2) = 3, so m = 0, 1, 2 are never tried
    tried = []
    valuation = lg._param_valuation

    def counted(rs, c, cap):
        tried.append(cap)
        return valuation(rs, c, cap)

    monkeypatch.setattr(lg, "_param_valuation", counted)
    w = word_from_text(_rsx(), 2, "A 2 X^2/t^5")
    assert lg.dilate(QT, T, 2, w)[0] == 3
    assert tried == [3 + 5 + 4]
    with pytest.raises(ExponentTooSmall, match="dilation needs m >= 65"):
        lg.dilate(QT, T, 2, word_from_text(_rsx(), 2, "A 2 X^2/(t^60)/(t^60)/(t^9)"))


def _conjugated_homotopy():
    """C(2/t) A(5X) C(-2/t) over Q[t]_t[X]: the prefix C(2/t) has a
    denominator, so dilate conjugates A(5X) through it with
    ``_conj_decompose_ctx``."""
    rsx = _rsx()
    vv = rsx.const(RT.frac(QT.from_int(2), 1))
    return Word(rsx, 2, [ABCDAtom("C", 2, vv), ABCDAtom("A", 2, rsx.scale_int(5, rsx.var("X"))),
                         ABCDAtom("C", 2, rsx.neg(vv))])


def _negate_first_conj_entry(monkeypatch):
    """Make every conjugation decomposition dilate builds wrong in one
    coefficient; returns the list the corrupted calls are counted in."""
    ctx = lg._conj_decompose_ctx
    calls = []

    def corrupted(num, *args):
        calls.append(args)
        first, *rest = ctx(num, *args)
        return [first._map(lambda p: (p[0], num.neg(p[1])))] + rest

    monkeypatch.setattr(lg, "_conj_decompose_ctx", corrupted)
    return calls


def test_dilate_catches_a_wrong_conjugation(monkeypatch):
    w = _conjugated_homotopy()
    lg.dilate(QT, T, 2, w)
    calls = _negate_first_conj_entry(monkeypatch)
    with pytest.raises(StepVerificationFailed):
        lg.dilate(QT, T, 2, w)
    assert calls


def test_dilate_reads_x_at_zero_off_its_merged_prefix(monkeypatch):
    # on the Q[t] example cover each beta(0, Y) = w(Y) w(Y)^-1 cancels as
    # dilate merges its prefix, one or two atoms a check, so no word over
    # (R[Y])_s is evaluated whole
    cover = lg.CoverData.from_text(QT, (EXAMPLES / "cover_qt.txt").read_text())
    gamma = word_from_text(QT, 2, (EXAMPLES / "gamma_qt.txt").read_text())
    h = word_from_text(QT, 2, (EXAMPLES / "h_qt.txt").read_text())
    sizes = []
    _count_evaluations(monkeypatch, lambda ring, atoms: sizes.append(
        (ring.descriptor().startswith("loc:poly:poly:q:t:Y:"), len(atoms))))
    out = lg.normality_demo(QT, 2, gamma, h, cover)
    assert (out.digest(), len(out)) == ("9a593ddfbf422932", 43)
    over_rys = [size for over, size in sizes if over]
    assert over_rys and max(over_rys) <= 2


@pytest.mark.parametrize("a, accepted", [(2, True), (3, False)])
def test_dilate_evaluates_a_prefix_that_merging_leaves(a, accepted):
    # [A(1), B(2)] [A(2), B(1)]^-1 is I, as both brackets are the same
    # unit, yet no two of its atoms merge: the merged prefix is evaluated
    text = f"A 2 1\nB 2 2\nA 2 -1\nB 2 -2\nB 2 1\nA 2 {a}\nB 2 -1\nA 2 {-a}\nC 2 X/t\n"
    w = word_from_text(_rsx(), 2, text)
    if accepted:
        m, out = lg.dilate(QT, T, 2, w)
        assert (m, len(out)) == (1, 15)
    else:
        with pytest.raises(NotHomotopy):
            lg.dilate(QT, T, 2, w)


def test_dilate_checks_each_merge_of_its_prefix(monkeypatch):
    # A(1/t) A(1/t) merges to A(2/t) in the prefix B(X) is conjugated
    # through; a merge that slips to A(-2/t) fails its check
    w = word_from_text(_rsx(), 3, "A 2 1/t\nA 2 1/t\nB 3 X\nA 2 -2/t")
    assert lg.dilate(QT, T, 3, w)[1].to_text() == "B 3 X\n"
    real = ABCDAtom._map

    def slipped(self, f):
        out = real(self, f)
        return real(out, RT.neg) if "_push_shape" in f.__qualname__ else out

    monkeypatch.setattr(ABCDAtom, "_map", slipped)
    with pytest.raises(StepVerificationFailed, match="rule 'merge-adjacent'"):
        lg.dilate(QT, T, 3, w)


def _z15_cover():
    return lg.CoverData([(2, 1, 2, 1), (4, 11, 4, 1)])


def _qt_cover():
    one_m_t = QT.sub(QT.one, T)
    return lg.CoverData([(T, QT.one, T, 1), (one_m_t, QT.one, one_m_t, 1)])


def test_cover_validation():
    cov = _z15_cover()
    cov.validate(Z15)
    bad = lg.CoverData([(2, 1, 2, 1), (4, 1, 4, 1)])  # 2 + 4 = 6 != 1
    with pytest.raises(CoverNotComaximal):
        bad.validate(Z15)
    # b not in (s^N)
    one_m_t = QT.sub(QT.one, T)
    bad = lg.CoverData([(T, QT.one, QT.one, 1), (one_m_t, QT.one, T, 1)])
    with pytest.raises(CoverNotComaximal):
        bad.validate(QT)
    # N outside 0..DEFAULT_FUEL is refused before any division: at a unit s
    # every division succeeds, so N = 10^8 divided for minutes
    for N in (-3, lg.DEFAULT_FUEL + 1, 10 ** 8):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"N={N} must lie in 0..{lg.DEFAULT_FUEL}"):
            lg.CoverData([(2, 1, 2, N), (4, 11, 4, 1)]).validate(Z15)
        assert time.perf_counter() - start < 2


def test_cover_from_text():
    text = "# comment\n\ns=2 c=1 b=2 N=1\nN=1 b=4 c=-4 s=4\n"
    assert lg.CoverData.from_text(Z15, text).entries == _z15_cover().entries
    back = lg.CoverData.from_text(QT, "s=t c=1 b=t N=1\nN=1 b=1-t c=1 s=1-t\n")
    one_m_t = QT.sub(QT.one, T)
    assert back.entries == [(T, QT.one, T, 1), (one_m_t, QT.one, one_m_t, 1)]
    for N in ("100000000", "-3", "65"):
        with pytest.raises(ParseError, match=f"line 2: N={N} must lie in 0..64"):
            lg.CoverData.from_text(Z15, f"s=2 c=1 b=2 N=1\ns=4 c=11 b=4 N={N}\n")


def test_patch_trivial_cover():
    cov = lg.CoverData([(Z15.one, Z15.one, Z15.one, 0)])
    cov.validate(Z15)
    rx = PolyRing(Z15, ("X",))
    aw = Word(rx, 2, [ABCDAtom("A", 2, rx.mul(rx.const(7), rx.var("X")))])
    loc = Localized(Z15, Z15.one)
    lw = embed_word_params(aw, loc, PolyRing(loc, ("X",)))
    out = lg.patch(Z15, 2, aw, cov, [lw])
    assert out.eval() == aw.eval()


def test_patch_z15_random_homotopies():
    rng = random.Random(42)
    cov = _z15_cover()
    cov.validate(Z15)
    rx = PolyRing(Z15, ("X",))
    for trial in range(10):
        atoms = [ABCDAtom(rng.choice("ABCD"), 2,
                          rx.mul(rx.const(Z15.sample(rng)), rx.var("X")))
                 for _ in range(rng.randint(1, 2))]
        aw = Word(rx, 2, atoms)
        locs = []
        for (s, c, b, N) in cov.entries:
            loc = Localized(Z15, s)
            locs.append(embed_word_params(aw, loc, PolyRing(loc, ("X",))))
        out = lg.patch(Z15, 2, aw, cov, locs)
        assert out.eval() == aw.eval()
        assert_reduced(out)
        assert rx.eval_at_zero  # output evaluates to I at X = 0 via alpha(0) = I
        at0 = out.map_params(rx.eval_at_zero, Z15)
        assert at0.eval() == Matrix.identity(Z15, 4)


def test_patch_qt_cover():
    one_m_t = QT.sub(QT.one, T)
    c1 = QT.sub(QT.from_int(3), QT.scale_int(2, T))
    c2 = QT.add(QT.one, QT.scale_int(2, T))
    cov = lg.CoverData([(T, c1, QT.mul(T, T), 2),
                        (one_m_t, c2, QT.mul(one_m_t, one_m_t), 2)])
    cov.validate(QT)
    rx = PolyRing(QT, ("X",))
    aw = Word(rx, 2, [ABCDAtom("A", 2, rx.mul(rx.const(QT.from_int(2)), rx.var("X")))])
    locs = []
    for (s, c, b, N) in cov.entries:
        loc = Localized(QT, s)
        locs.append(embed_word_params(aw, loc, PolyRing(loc, ("X",))))
    out = lg.patch(QT, 2, aw, cov, locs)
    assert out.eval() == aw.eval()
    assert_reduced(out)


def test_patch_catches_a_wrong_conjugation(monkeypatch):
    # local words A(1/s) A(X) A(-1/s) evaluate to alpha = A(X), and their
    # constant prefix 1/s sends dilate through the conjugation decomposition
    cov = _qt_cover()
    rx = PolyRing(QT, ("X",))
    alpha = Word(rx, 2, [ABCDAtom("A", 2, rx.var("X"))])
    locs = []
    for (s, c, b, N) in cov.entries:
        loc = Localized(QT, s)
        rsx = PolyRing(loc, ("X",))
        a = rsx.const(loc.frac(QT.one, 1))
        locs.append(Word(rsx, 2, [ABCDAtom("A", 2, a), ABCDAtom("A", 2, rsx.var("X")),
                                  ABCDAtom("A", 2, rsx.neg(a))]))
    assert lg.patch(QT, 2, alpha, cov, locs).eval() == alpha.eval()
    calls = _negate_first_conj_entry(monkeypatch)
    with pytest.raises(StepVerificationFailed):
        lg.patch(QT, 2, alpha, cov, locs)
    assert calls


def _mixed_qt_cover(order):
    """t is no unit of Q[t], 2 is: 1*t + 1*(1 - t) = 1 and 1 - t is in (2)."""
    one_m_t = QT.sub(QT.one, T)
    entries = [(T, QT.one, T, 1), (QT.from_int(2), QT.one, one_m_t, 1)]
    return lg.CoverData([entries[i] for i in order])


def _local_words(cover, word):
    """``word`` over R[X] embedded into each R_s[X] of the cover."""
    locs = []
    for (s, _, _, _) in cover.entries:
        loc = Localized(word.ring.base, s)
        locs.append(embed_word_params(word, loc, PolyRing(loc, ("X",))))
    return locs


def _qt_homotopy():
    rx = PolyRing(QT, ("X",))
    return word_from_text(rx, 2, "A 2 2*X\nC 2 (1+t)*X^2\nA 2 3\nB 2 t*X\nA 2 -3\n")


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["t-then-2", "2-then-t"])
def test_patch_returns_the_word_at_a_unit_s_without_dilating(order, monkeypatch):
    calls = []
    monkeypatch.setattr(lg, "dilate", lambda *args, **kwargs: calls.append(args))
    cover = _mixed_qt_cover(order)
    cover.validate(QT)
    aw = _qt_homotopy()
    out = lg.patch(QT, 2, aw, cover, _local_words(cover, aw))
    assert out.eval() == aw.eval()
    assert_reduced(out)
    assert not calls


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["t-then-2", "2-then-t"])
@pytest.mark.parametrize("wrong", [0, 1])
def test_patch_checks_every_local_word_of_a_mixed_cover(order, wrong):
    # the unit entry is returned without dilating, but the local word at
    # every entry, before or after it, is still compared with alpha
    cover = _mixed_qt_cover(order)
    aw = _qt_homotopy()
    locs = _local_words(cover, aw)
    off = aw.concat(Word(aw.ring, 2, [ABCDAtom("D", 2, aw.ring.var("X"))]))
    locs[wrong] = _local_words(cover, off)[wrong]
    with pytest.raises(LocalWordMismatch, match=f"local word {wrong} does not evaluate"):
        lg.patch(QT, 2, aw, cover, locs)


def test_patch_refuses_a_local_word_outside_the_shape_alphabet():
    # dilate refuses such a word; at a unit s nothing is dilated, so patch
    # must refuse it itself rather than return it
    cover = _z15_cover()
    rx = PolyRing(Z15, ("X",))
    aw = Word(rx, 2, [SAtom(1, 3, rx.mul(rx.const(7), rx.var("X")))])
    with pytest.raises(AlphabetViolation, match="local word 0 must be a shape word; atom 1 is"):
        lg.patch(Z15, 2, aw, cover, _local_words(cover, aw))


def _count_evaluations(monkeypatch, record):
    """Call ``record(ring, atoms)`` on every evaluation of a word."""
    real = words._eval_cols
    monkeypatch.setattr(words, "_eval_cols",
                        lambda ring, n, atoms: record(ring, atoms) or real(ring, n, atoms))


def test_patch_evaluates_an_equal_pulled_back_word_once(monkeypatch):
    # on the example cover of Z/15 both s are units and both local words
    # pull back to A(7X) over Z/15[X]; equal words have equal values, so
    # the second is not evaluated again
    rx = PolyRing(Z15, ("X",))
    alpha = word_from_text(rx, 2, (EXAMPLES / "alpha_z15.txt").read_text())
    cover = lg.CoverData.from_text(Z15, (EXAMPLES / "cover_z15.txt").read_text())
    locs = [word_from_text(PolyRing(Localized(Z15, s), ("X",)), 2,
                           (EXAMPLES / f"local{idx}_z15.txt").read_text())
            for idx, (s, _, _, _) in enumerate(cover.entries, start=1)]
    events = []
    real_simplify = lg.simplify_shape_word
    _count_evaluations(monkeypatch, lambda ring, atoms: events.append(ring.descriptor()))
    monkeypatch.setattr(lg, "simplify_shape_word",
                        lambda word: events.append("simplify") or real_simplify(word))
    out = lg.patch(Z15, 2, alpha, cover, locs)
    # alpha(0) = A(0) merges away, so nothing is evaluated over Z/15;
    # then alpha and the first pulled-back word over Z/15[X]; the merged
    # word is that word again
    assert events == ["poly:zmod:15:X"] * 2 + ["simplify"]
    assert out.to_text() == "A 2 7*X\n"


def _plus_one_first(word):
    """``word`` with its first parameter p replaced by p + 1."""
    first, ring = word.atoms[0], word.ring
    return Word(ring, word.n, [ABCDAtom(first.shape, first.pos, ring.add(first.e, ring.one))]
                + list(word.atoms[1:]))


@pytest.mark.parametrize("wrong", [0, 1])
def test_patch_compares_a_word_over_r_x_at_a_unit_s(wrong):
    # both s of the Z/15 cover are units: a local word over alpha's own ring
    # R[X] is its own pull-back, accepted as it is, and still compared
    cover = _z15_cover()
    rx = PolyRing(Z15, ("X",))
    aw = word_from_text(rx, 2, "A 2 7*X\nC 2 3*X\n")
    assert lg.patch(Z15, 2, aw, cover, [aw, aw]).to_text() == aw.to_text()
    locs = [aw, aw]
    locs[wrong] = _plus_one_first(aw)
    with pytest.raises(LocalWordMismatch, match=f"local word {wrong} does not evaluate"):
        lg.patch(Z15, 2, aw, cover, locs)


def test_a_wrong_patched_word_names_the_rule_patch(monkeypatch):
    # the patched word is compared with alpha through rewrite._same: a
    # failure names the rule, the ring and n, and lists both words
    rx = PolyRing(Z15, ("X",))
    aw = word_from_text(rx, 2, "A 2 7*X\n")
    real = lg.simplify_shape_word
    monkeypatch.setattr(lg, "simplify_shape_word", lambda word: (_plus_one_first(real(word)[0]), []))
    with pytest.raises(StepVerificationFailed) as exc:
        lg.patch(Z15, 2, aw, _z15_cover(), [aw, aw])
    assert str(exc.value) == ("rule 'patch' changed the evaluation over poly:zmod:15:X at n=2\n"
                              "before:\nA 2 7*X\nafter:\nA 2 7*X+1\n")


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["t-then-2", "2-then-t"])
def test_patch_refuses_a_word_over_r_x_at_a_non_unit_s(order):
    # R[X] is not R_t[X]: at t, on the (t, 1 - t) cover and on the mixed
    # (t, 2) cover, an R[X] local word is refused by its ring
    aw = _qt_homotopy()
    for cover in (_qt_cover(), _mixed_qt_cover(order)):
        idx = next(i for i, (s, _, _, _) in enumerate(cover.entries) if s == T)
        locs = _local_words(cover, aw)
        locs[idx] = aw
        with pytest.raises(LocalWordMismatch, match=f"local word {idx} is over poly:poly:q:t:X"):
            lg.patch(QT, 2, aw, cover, locs)


def test_normality_demo_evaluates_its_word_once_over_r_t(monkeypatch):
    # both s of the Z/15 example cover are units, where R_s[T] = R[T]: the
    # conjugate word over R[T] is itself every local word, embedded into no
    # R_s[T], and evaluated once, by patch's local check
    cover = lg.CoverData.from_text(Z15, (EXAMPLES / "cover_z15.txt").read_text())
    gamma = word_from_text(Z15, 2, (EXAMPLES / "gamma_z15.txt").read_text())
    h = word_from_text(Z15, 2, (EXAMPLES / "h_z15.txt").read_text())
    embeds, evals, seen = [], [], []
    real_embed, real_patch = lg._embed_poly, lg.patch
    monkeypatch.setattr(lg, "_embed_poly", lambda rsx, p: embeds.append(p) or real_embed(rsx, p))
    _count_evaluations(monkeypatch, lambda ring, atoms: evals.append((ring, tuple(atoms))))
    monkeypatch.setattr(lg, "patch", lambda *args: seen.append(args[4]) or real_patch(*args))
    out = lg.normality_demo(Z15, 2, gamma, h, cover)
    g = gamma.eval()
    assert out.eval() == g.mul(h.eval()).mul(symp_inverse(g))
    assert not embeds
    (local_words,) = seen
    conj = local_words[0]
    assert conj.ring.descriptor() == "poly:zmod:15:T"
    assert all(w is conj for w in local_words)
    assert sum(ring is conj.ring and atoms == conj.atoms for ring, atoms in evals) == 1


def test_normality_demo_merges_the_conjugate_word_before_patch(monkeypatch):
    # the decomposed gamma and h meet at shape atoms that merge; merged
    # before patch, the word patch checks against alpha is the word it
    # returns, so from patch on R[T] sees two evaluations: alpha and the
    # local word, in patch's local check
    gamma = word_from_text(Z15, 2, "S 1 3 1")
    h = word_from_text(Z15, 2, "B 2 1")
    evals, patch_starts = [], []
    real_patch = lg.patch
    _count_evaluations(monkeypatch, lambda ring, atoms: evals.append(ring.descriptor()))
    monkeypatch.setattr(lg, "patch", lambda *args: patch_starts.append(len(evals)) or real_patch(*args))
    out = lg.normality_demo(Z15, 2, gamma, h, _z15_cover())
    assert (out.digest(), len(out)) == ("ae088bbc977b7c52", 43)
    assert evals[patch_starts[0]:].count("poly:zmod:15:T") == 2


def test_patch_detects_bad_local_word():
    cov = _z15_cover()
    rx = PolyRing(Z15, ("X",))
    aw = Word(rx, 2, [ABCDAtom("A", 2, rx.mul(rx.const(7), rx.var("X")))])
    locs = []
    for (s, c, b, N) in cov.entries:
        loc = Localized(Z15, s)
        wrong = Word(rx, 2, [ABCDAtom("A", 2, rx.mul(rx.const(8), rx.var("X")))])
        locs.append(embed_word_params(wrong, loc, PolyRing(loc, ("X",))))
    with pytest.raises(LocalWordMismatch):
        lg.patch(Z15, 2, aw, cov, locs)


def test_normality_demo_identity_gamma():
    cov = _z15_cover()
    h = Word(Z15, 2, [ABCDAtom("A", 2, 3)])
    gamma = Word(Z15, 2, [])
    out = lg.normality_demo(Z15, 2, gamma, h, cov)
    assert out.eval() == h.eval()
    assert_reduced(out)


def test_normality_demo_generator_gamma():
    cov = _z15_cover()
    h = Word(Z15, 2, [ABCDAtom("A", 2, 3), ABCDAtom("C", 2, 7)])
    gamma = Word(Z15, 2, [SAtom(1, 3, 4), CornerAtom("E21", 2)])
    out = lg.normality_demo(Z15, 2, gamma, h, cov)
    g = gamma.eval()
    assert out.eval() == g.mul(h.eval()).mul(symp_inverse(g))
    assert all(isinstance(a, ABCDAtom) for a in out.atoms)
    assert_reduced(out)


def test_normality_demo_corner_gamma():
    cov = _z15_cover()
    h = Word(Z15, 2, [ABCDAtom("B", 2, 5)])
    gamma = Word(Z15, 2, [CornerMatrixAtom(((7, 3), (2, 1)))])  # det 1 mod 15
    out = lg.normality_demo(Z15, 2, gamma, h, cov)
    g = gamma.eval()
    assert out.eval() == g.mul(h.eval()).mul(symp_inverse(g))
    assert_reduced(out)


def test_corner_normality_reads_the_checked_det1_table(monkeypatch):
    # a CORNER gamma conjugates h by conj_abcd_atom, the right side of the
    # det1-conjugation items; swapping the A- and B-form of every row must
    # fail exactly those items and normality_demo's own check
    for sh, (c1, c2, kind, ush, cu) in list(idn._DET1_CONJ.items()):
        monkeypatch.setitem(idn._DET1_CONJ, sh, (c1, c2, "B" if kind == "A" else "A", ush, cu))
    report = run_verify_tables(PolyRing(Q, ("x", "y")), [2])
    assert {r.name for r in report.records if r.status == "FAIL"} == \
        {f"det1-conjugation:{sh}@2" for sh in "ABCD"}
    gamma = Word(Z15, 2, [CornerMatrixAtom(((7, 3), (2, 1)))])
    with pytest.raises(StepVerificationFailed):
        lg.normality_demo(Z15, 2, gamma, Word(Z15, 2, [ABCDAtom("B", 2, 5)]), _z15_cover())


def test_normality_demo_names_a_non_shape_atom_of_h():
    h = Word(Z15, 2, [ABCDAtom("A", 2, 3), SAtom(1, 3, 2)])
    with pytest.raises(AlphabetViolation, match=r"atom 2 is 'S 1 3 2'"):
        lg.normality_demo(Z15, 2, Word(Z15, 2, []), h, _z15_cover())


def test_no_caches_hang_off_ring_objects():
    import gc

    from sympelem.rewrite import decompose_full
    from sympelem.rings import Ring

    before = {id(r): set(vars(r)) for r in (QT, Z15)}
    cert = decompose_full(Word(QT, 3, [SAtom(3, 5, T), CornerAtom("E21", QT.one), SAtom(1, 4, T)]))
    assert cert.output_word.eval() == cert.input_word.eval()
    h = Word(Z15, 2, [ABCDAtom("A", 2, 3)])
    lg.normality_demo(Z15, 2, Word(Z15, 2, [SAtom(1, 3, 4)]), h, _z15_cover())
    assert {id(r): set(vars(r)) for r in (QT, Z15)} == before
    assert not [r for r in gc.get_objects() if isinstance(r, Ring) and hasattr(r, "_atom_cache")]
