import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympelem import rings
from sympelem.errors import EvenModulus, ParseError, ZeroDivisorS
from sympelem.matrices import Matrix
from sympelem.rings import (
    Localized,
    PolyRing,
    Rationals,
    Zmod,
    key_exponents,
    monomial_key,
    parse_element,
    ring_from_descriptor,
)


def all_test_rings():
    q = Rationals()
    qt = PolyRing(q, ("t",))
    return [
        Zmod(15),
        Zmod(105),
        q,
        PolyRing(q, ("x", "y")),
        Localized(qt, qt.var("t")),
    ]


def test_zmod_construction():
    r = Zmod(15)
    assert r.inv2 == 8
    assert r.mul(2, 8) == 1
    with pytest.raises(EvenModulus):
        Zmod(4)
    with pytest.raises(ValueError):
        Zmod(1)


def test_half_examples():
    z15 = Zmod(15)
    assert z15.half(z15.one) == 8
    assert z15.half(z15.zero) == 0
    pxy = PolyRing(Rationals(), ("x", "y"))
    s = pxy.add(pxy.var("x"), pxy.var("y"))
    h = pxy.half(s)
    assert pxy.add(h, h) == s
    assert pxy.show(h) == "1/2*x + 1/2*y"


# any rational, and the dyadic values with denominators up to 2^11 that
# the halvings of the rewrite produce
_FRACTIONS = st.one_of(st.fractions(),
                       st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                                 st.sampled_from([2 ** k for k in range(12)])))


def _assert_canonical_pair(a):
    n, d = a
    assert type(n) is int and type(d) is int and d > 0 and math.gcd(n, d) == 1, a


@settings(max_examples=500, deadline=None)
@given(_FRACTIONS, _FRACTIONS, st.lists(st.tuples(_FRACTIONS, _FRACTIONS), min_size=1, max_size=4))
def test_rationals_pairs_agree_with_fraction(x, y, pairs):
    # "dot" is the 1x1 product of a 1xk row by a kx1 column (a matrix has
    # at least one row, so k >= 1)
    q = Rationals()

    def pair(f):
        return (f.numerator, f.denominator)

    a, b = pair(x), pair(y)
    row = Matrix(q, [[pair(u) for u, _ in pairs]])
    column = Matrix(q, [[pair(v)] for _, v in pairs])
    results = {"add": (q.add(a, b), x + y), "sub": (q.sub(a, b), x - y),
               "mul": (q.mul(a, b), x * y), "neg": (q.neg(a), -x),
               "addmul": (q.addmul(a, b, pair(pairs[0][0])), x + y * pairs[0][0]),
               "half": (q.half(a), x / 2),
               "dot": (row.mul(column).rows[0][0], sum((u * v for u, v in pairs), Fraction(0)))}
    if x:
        results["try_invert"] = (q.try_invert(a), 1 / x)
    else:
        assert q.try_invert(a) is None and q.is_zero(a)
    if y:
        results["try_exact_div"] = (q.try_exact_div(a, b), x / y)
    else:
        assert q.try_exact_div(a, b) is None
    for op, (got, want) in results.items():
        _assert_canonical_pair(got)
        assert got == pair(want), (op, x, y)
    assert q.show(a) == str(x)
    assert q.is_zero(a) == (x == 0)


def test_every_rational_operation_reduces_once(monkeypatch):
    # Q reduces in one place, addmul, so a sum or product costs at most
    # one gcd, and none when every operand is an integer
    calls = []

    def gcd(*args):
        calls.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(rings, "math", SimpleNamespace(**{**vars(math), "gcd": gcd}))
    q = Rationals()
    ops = {"add": q.add, "sub": q.sub, "mul": q.mul, "addmul": lambda a, b: q.addmul(a, b, a)}

    @settings(max_examples=300, deadline=None)
    @given(_FRACTIONS, _FRACTIONS)
    def check(x, y):
        a, b = (x.numerator, x.denominator), (y.numerator, y.denominator)
        integers = a[1] == b[1] == 1
        for name, op in ops.items():
            calls.clear()
            op(a, b)
            assert len(calls) <= (0 if integers else 1), (name, a, b, calls)

    check()
    calls.clear()
    assert q.mul((2, 3), (9, 4)) == (3, 2) and len(calls) == 1


@pytest.mark.parametrize("ring", all_test_rings(), ids=lambda r: r.descriptor())
def test_ring_axioms_randomized(ring):
    rng = random.Random(20240811)
    for _ in range(1000):
        a = ring.sample(rng, small=True)
        b = ring.sample(rng, small=True)
        c = ring.sample(rng, small=True)
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.mul(ring.one, a) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        # 2 * half(a) == a
        assert ring.add(ring.half(a), ring.half(a)) == a
        # canonical-form soundness: a - b == 0 iff reps identical
        assert (ring.sub(a, b) == ring.zero) == (a == b)


def test_localize_zmod_unit():
    z15 = Zmod(15)
    loc = Localized(z15, 2)
    # 2 is already a unit, so denominators normalize away
    assert loc.frac(1, 1) == (8, 0)
    assert loc.embed(7) == (7, 0)
    assert loc.mul(loc.embed(2), loc.frac(1, 1)) == loc.one


def test_localized_try_invert_terminates():
    # a unit s divides everything; the inverse comes from the numerator
    z15 = Zmod(15)
    u = Localized(z15, 2)
    assert u.try_invert(u.embed(7)) == u.embed(13)
    assert u.try_invert(u.embed(3)) is None
    assert u.try_invert(u.zero) is None
    # a non-unit s is divided out of the numerator first
    q = Rationals()
    qx = PolyRing(q, ("x",))
    x = qx.var("x")
    loc = Localized(qx, x)
    third = q.try_invert(q.from_int(3))
    assert loc.try_invert(loc.embed(qx.scale_int(3, x))) == loc.frac(qx.const(third), 1)
    assert loc.try_invert(loc.embed(qx.add(x, qx.one))) is None
    assert loc.try_invert(loc.zero) is None
    with pytest.raises(ParseError):
        parse_element(loc, "1/0")


def test_localize_rejects_zero_divisor_and_nilpotent():
    z15 = Zmod(15)
    with pytest.raises(ZeroDivisorS):
        Localized(z15, 3)
    # a nilpotent s is a zero divisor: 3 * 9 = 0 in Z/27
    z27 = Zmod(27)
    with pytest.raises(ZeroDivisorS):
        Localized(z27, 3)
    with pytest.raises(ZeroDivisorS):
        Localized(z27, 0)
    # 3 is nilpotent in Z/27, so also in (Z/27)_2
    with pytest.raises(ZeroDivisorS):
        ring_from_descriptor("loc:loc:zmod:27:s=2:s=3")


def test_localize_polynomial():
    q = Rationals()
    qx = PolyRing(q, ("x",))
    x = qx.var("x")
    loc = Localized(qx, x)
    f = loc.frac(qx.one, 2)
    assert f == (qx.one, 2)
    assert loc.mul(loc.embed(x), f) == (qx.one, 1)
    assert loc.mul(loc.embed(x), loc.frac(qx.one, 1)) == loc.one
    # embed is injective on samples
    rng = random.Random(5)
    for _ in range(200):
        a = qx.sample(rng)
        b = qx.sample(rng)
        assert (loc.embed(a) == loc.embed(b)) == (a == b)


def test_localized_equality_by_cross_multiplication():
    q = Rationals()
    qx = PolyRing(q, ("x",))
    x = qx.var("x")
    loc = Localized(qx, x)
    # x^2/x^1 must equal x/1 after canonicalization
    a = loc.frac(qx.mul(x, x), 1)
    assert a == loc.embed(x)


def test_poly_exact_div_with_a_long_quotient():
    # (x^n-1)(y^n-1) / (x-1)(y-1) has n^2 terms, so the division takes n^2
    # steps on a dividend of four terms
    loc = ring_from_descriptor("loc:poly:q:x,y:s=(x-1)*(y-1)")
    pxy = loc.base
    for n in range(3, 13):
        a = parse_element(pxy, f"(x^{n}-1)*(y^{n}-1)")
        q = pxy.try_exact_div(a, loc.s)
        assert q is not None and len(q) == n * n and pxy.mul(q, loc.s) == a, n
        assert parse_element(loc, f"(x^{n}-1)*(y^{n}-1)/s") == (q, 0), n


def test_poly_eval_hom():
    q = Rationals()
    qx = PolyRing(q, ("x",))
    rng = random.Random(6)
    for _ in range(300):
        p = qx.sample(rng)
        r = qx.sample(rng)
        pt = q.sample(rng)
        lhs = qx.eval_at(qx.mul(p, r), pt)
        rhs = q.mul(qx.eval_at(p, pt), qx.eval_at(r, pt))
        assert lhs == rhs
    three_plus_5x = qx.add(qx.from_int(3), qx.scale_int(5, qx.var("x")))
    assert qx.eval_at_zero(three_plus_5x) == q.from_int(3)
    z15 = Zmod(15)
    zx = PolyRing(z15, ("x",))
    assert zx.eval_at(zx.mul(zx.var("x"), zx.var("x")), 2) == 4


def test_poly_substitution_is_hom():
    q = Rationals()
    qx = PolyRing(q, ("x",))
    x = qx.var("x")
    bx = qx.scale_int(3, x)  # x -> 3x
    rng = random.Random(7)
    for _ in range(200):
        p = qx.sample(rng)
        r = qx.sample(rng)
        lhs = qx.subst(qx.mul(p, r), {"x": bx})
        rhs = qx.mul(qx.subst(p, {"x": bx}), qx.subst(r, {"x": bx}))
        assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50))
def test_poly_canonical_form_hypothesis(c0, c1, d0, d1):
    q = Rationals()
    qx = PolyRing(q, ("x",))
    x = qx.var("x")
    p = qx.add(qx.from_int(c0), qx.scale_int(c1, x))
    r = qx.add(qx.from_int(d0), qx.scale_int(d1, x))
    assert (p == r) == (c0 == d0 and c1 == d1)
    assert qx.mul(p, r) == qx.mul(r, p)


def test_descriptor_round_trip():
    for text in ("zmod:15", "q", "poly:q:x,y", "loc:zmod:15:s=2", "loc:poly:q:t:s=t",
                 "poly:loc:poly:q:t:s=t:X"):
        ring = ring_from_descriptor(text)
        assert ring_from_descriptor(ring.descriptor()).descriptor() == ring.descriptor()
    with pytest.raises(ParseError):
        ring_from_descriptor("weird:3")


def test_element_parsing():
    q = Rationals()
    assert parse_element(q, "3/4") == q.mul(q.from_int(3), q.try_invert(q.from_int(4)))
    pxy = PolyRing(q, ("x", "y"))
    e = parse_element(pxy, "2*x^2*y - (x + 1)")
    shown = pxy.show(e)
    assert parse_element(pxy, shown.replace(" ", "")) == e
    loc = ring_from_descriptor("loc:poly:q:t:s=t")
    e = parse_element(loc, "(1+t)/t^2")
    assert e == loc.frac(loc.base.add(loc.base.one, loc.base.var("t")), 2)
    with pytest.raises(ParseError):
        parse_element(q, "3 +")
    with pytest.raises(ParseError):
        parse_element(q, "nosuchvar")


def test_power_size_bound():
    # exponent times the operand's number of terms is bounded, through
    # towers too: 1 + t has two terms in Q[t], in Q[t]_t and in Q[t][X]
    for text in ("poly:q:t", "loc:poly:q:t:s=t", "poly:poly:q:t:X"):
        ring = ring_from_descriptor(text)
        assert parse_element(ring, "(1+t)^32") == ring.pow_int(parse_element(ring, "1+t"), 32)
        with pytest.raises(ParseError, match="size bound"):
            parse_element(ring, "(1+t)^33")
    q = Rationals()
    assert parse_element(q, "2^64") == q.from_int(2 ** 64)
    with pytest.raises(ParseError, match="size bound"):
        parse_element(q, "2^65")


def test_pow_int_squares_no_more_than_needed(monkeypatch):
    qt = PolyRing(Rationals(), ("t",))
    calls = []
    monkeypatch.setattr(qt, "mul", lambda a, b: calls.append(1) or PolyRing.mul(qt, a, b))
    qt.pow_int(qt.var("t"), 16)
    assert len(calls) == 5  # four squarings and one product into the accumulator


def test_zmod_even_modulus_in_descriptor():
    with pytest.raises(EvenModulus):
        ring_from_descriptor("zmod:4")


def test_valuation_floor():
    q = Rationals()
    qx = PolyRing(q, ("x",))
    x = qx.var("x")
    loc = Localized(qx, x)
    assert loc.valuation_floor(loc.embed(qx.mul(x, x)), cap=16) == 2
    assert loc.valuation_floor(loc.embed(qx.mul(x, x)), cap=1) == 1
    assert loc.valuation_floor(loc.frac(qx.one, 3), cap=16) == -3
    assert loc.valuation_floor(loc.zero, cap=16) is None
    # unit s: the search is capped instead of divergent
    z15 = Zmod(15)
    u = Localized(z15, 2)
    assert u.valuation_floor(u.embed(7), cap=16) == 16


def test_zmod_exact_div_matches_brute_force():
    for m in (3, 9, 15, 21, 25, 27, 45, 105):
        ring = Zmod(m)
        for d in range(m):
            least = {}
            for q in range(m - 1, -1, -1):
                least[q * d % m] = q
            for a in range(m):
                assert ring.try_exact_div(a, d) == least.get(a), (m, a, d)
    # beyond the old scan's 10^5 cutoff: 6q = 3 (mod 300009) is solvable
    big = Zmod(300009)
    q = big.try_exact_div(3, 6)
    assert q is not None and q * 6 % big.m == 3
    assert not any(r * 6 % big.m == 3 for r in range(q))
    assert big.try_exact_div(4, 6) is None


@pytest.mark.parametrize("text", ["loc:poly:zmod:200001:t:s=3*t",
                                  "loc:poly:poly:zmod:15:y:x:s=3",
                                  "loc:loc:zmod:15:s=2:s=3",
                                  # no zero divisor, but a leading coefficient
                                  # is one, at the top level or one below
                                  "loc:poly:zmod:15:t:s=1+3*t",
                                  "loc:poly:poly:zmod:15:y:x:s=(1+3*y)*x+1"])
def test_localize_rejects_zero_divisor_in_towers(text):
    with pytest.raises(ZeroDivisorS):
        ring_from_descriptor(text)


def test_localize_accepts_non_zero_divisor_in_towers():
    # t + 3 and t are monic
    for text in ("loc:poly:zmod:15:t:s=3+t", "loc:poly:zmod:200001:t:s=t",
                 "loc:poly:poly:zmod:15:y:x:s=x+3*y", "loc:poly:q:t:s=t"):
        ring_from_descriptor(text)


def _annihilated(ring, f, candidates):
    return any(not ring.is_zero(g) and ring.is_zero(ring.mul(f, g)) for g in candidates)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 9, 15, 21, 25, 27]), st.data())
def test_mccoy_matches_annihilator_search(m, data):
    """The gcd test agrees with a search for a nonzero annihilator of degree
    <= 1 over Z/m[x], Z/m[y][x] and (Z/m[y])_y[x]."""
    zm = Zmod(m)
    coeffs = st.lists(st.sampled_from(range(m)), min_size=1, max_size=3)

    zx = PolyRing(zm, ("x",))
    f = zx.freeze({(e,): c for e, c in enumerate(data.draw(coeffs))})
    lin = [zx.freeze({(0,): c0, (1,): c1}) for c0 in range(m) for c1 in range(m)]
    assert zx.is_zero_divisor_elem(f) == _annihilated(zx, f, lin)

    zy = PolyRing(zm, ("y",))
    zyx = PolyRing(zy, ("x",))
    inner = [zy.freeze({(e,): c for e, c in enumerate(data.draw(coeffs))})
             for _ in range(data.draw(st.integers(1, 2)))]
    g = zyx.freeze({(e,): c for e, c in enumerate(inner)})
    lin = [zyx.freeze({(0,): zy.freeze({(0,): c0, (1,): c1})})
           for c0 in range(m) for c1 in range(m)]
    lin += [zyx.freeze({(0,): zy.const(c0), (1,): zy.const(c1)})
            for c0 in range(m) for c1 in range(m)]
    assert zyx.is_zero_divisor_elem(g) == _annihilated(zyx, g, lin)

    loc = Localized(zy, zy.var("y"))
    lx = PolyRing(loc, ("x",))
    k = data.draw(st.integers(0, 2))
    h = lx.freeze({(e,): loc.frac(c, k) for e, c in enumerate(inner)})
    lin = [lx.freeze({(0,): loc.embed(zy.const(c0)), (1,): loc.embed(zy.const(c1))})
           for c0 in range(m) for c1 in range(m)]
    assert lx.is_zero_divisor_elem(h) == _annihilated(lx, h, lin)


# -- monomial keys: (total degree, e_1, ..., e_{v-1}) --

@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda v: st.lists(
    st.tuples(*[st.integers(0, 5)] * v), min_size=2, max_size=2)))
def test_monomial_key_round_trips_and_orders_as_grlex(pair):
    e, f = pair
    assert key_exponents(monomial_key(e)) == e
    assert (monomial_key(e) < monomial_key(f)) == ((sum(e), e) < (sum(f), f))
    assert monomial_key(tuple(map(sum, zip(e, f)))) == \
        tuple(map(sum, zip(monomial_key(e), monomial_key(f))))
    assert monomial_key(e[:1]) == e[:1]


def test_show_orders_three_variable_terms_by_grlex():
    r = ring_from_descriptor("poly:q:x,y,z")
    a = parse_element(r, "x*y*z + x^3 - 2*z^2 + y + 1/2*x*z - 3 + y^2*z - x*y")
    assert r.show(a) == "x^3 + x*y*z + y^2*z - x*y + 1/2*x*z - 2*z^2 + y - 3"
    assert parse_element(r, r.show(a)) == a


# -- the polynomial kernels against the dict-and-sort arithmetic they replace --

class DictSortPolyRing(PolyRing):
    """Reference arithmetic: collect the terms in a dict, drop the zero
    coefficients and sort the rest, on every operation."""

    def _freeze(self, d):
        items = [(e, c) for e, c in d.items() if not self.base.is_zero(c)]
        items.sort(key=lambda kv: kv[0], reverse=True)
        return tuple(items)

    def add(self, a, b):
        d = dict(a)
        for e, c in b:
            d[e] = self.base.add(d[e], c) if e in d else c
        return self._freeze(d)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        d = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = tuple(map(sum, zip(e1, e2)))
                c = self.base.mul(c1, c2)
                d[e] = self.base.add(d[e], c) if e in d else c
        return self._freeze(d)


def _assert_canonical(ring, p):
    keys = [e for e, _ in p]
    assert all(x > y for x, y in zip(keys, keys[1:])), p
    assert not any(ring.base.is_zero(c) for _, c in p), p


def test_monomial_mul_drops_vanishing_products():
    # 3 * 5 = 0 in Z/15, with the single term on either side
    zxy = PolyRing(Zmod(15), ("x", "y"))
    x, y = zxy.var("x"), zxy.var("y")
    three_x = zxy.scale_int(3, x)
    five_y_plus_x = zxy.add(zxy.scale_int(5, y), x)
    assert zxy.mul(three_x, five_y_plus_x) == zxy.mul(five_y_plus_x, three_x) \
        == zxy.scale_int(3, zxy.mul(x, x))
    zt = PolyRing(Zmod(15), ("t",))
    t = zt.var("t")
    assert zt.mul(zt.add(zt.scale_int(5, t), zt.one), zt.scale_int(3, t)) == zt.scale_int(3, t)


def _kernel_towers():
    """(name, ring, reference ring, coefficient strategy) for
    poly:zmod:15:x,y, poly:q:t and the (Z/15[Y])_s[X] towers of patch,
    with s a unit (2) and a non-unit (Y)."""
    z15, q = Zmod(15), Rationals()
    residues = st.integers(0, 14)
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(
        lambda f: q.mul(q.from_int(f.numerator), q.try_invert(q.from_int(f.denominator))))
    out = [("zmod15-xy", PolyRing(z15, ("x", "y")), DictSortPolyRing(z15, ("x", "y")),
            residues),
           ("q-t", PolyRing(q, ("t",)), DictSortPolyRing(q, ("t",)), rationals)]
    for label in ("2", "Y"):
        rings = []
        for cls in (PolyRing, DictSortPolyRing):
            ry = cls(z15, ("Y",))
            s = ry.const(2) if label == "2" else ry.var("Y")
            rings.append(cls(Localized(ry, s), ("X",)))
        inner = st.dictionaries(st.tuples(st.integers(0, 2)), residues, max_size=3)
        coeff = st.builds(lambda d, k, loc=rings[1].base: loc.frac(loc.base._freeze(d), k),
                          inner, st.integers(0, 2))
        out.append((f"z15-Y-s={label}-X", rings[0], rings[1], coeff))
    return out


_TOWERS = _kernel_towers()


def _tower_elements(ring, ref, coeff):
    keys = st.tuples(*[st.integers(0, 3)] * ring.nvars).map(monomial_key)
    return st.dictionaries(keys, coeff, max_size=4).map(ref._freeze)


@pytest.mark.parametrize("name,ring,ref,coeff", _TOWERS, ids=[t[0] for t in _TOWERS])
def test_poly_kernels_match_dict_sort_reference(name, ring, ref, coeff):
    elems = _tower_elements(ring, ref, coeff)

    @settings(max_examples=300, deadline=None)
    @given(elems, elems)
    def check(a, b):
        for op in ("add", "sub", "mul"):
            got = getattr(ring, op)(a, b)
            assert got == getattr(ref, op)(a, b), (op, a, b)
            _assert_canonical(ring, got)

    check()


@pytest.mark.parametrize("name,ring,ref,coeff", _TOWERS, ids=[t[0] for t in _TOWERS])
def test_exact_division_undoes_a_reference_product(name, ring, ref, coeff):
    # the quotient is built term by term, leading term first, and must come
    # out canonical; a divisor with a unit leading coefficient divides
    # every multiple of it
    elems = _tower_elements(ring, ref, coeff)
    base = ring.base

    @settings(max_examples=200, deadline=None)
    @given(elems, elems.filter(bool))
    def check(a, d):
        if base.try_invert(d[0][1]) is None:
            d = ((d[0][0], base.one),) + d[1:]
        got = ring.try_exact_div(ref.mul(a, d), d)
        assert got == a, (a, d)
        _assert_canonical(ring, got)

    check()


def _reference_subst(ref, a, values):
    """a with variable i replaced by values[i], in the reference arithmetic."""
    acc = ()
    for e, c in a:
        term = ref.const(c)
        for i, p in enumerate(key_exponents(e)):
            v = values.get(i, ref.var(ref.names[i]))
            term = ref.mul(term, ref.pow_int(v, p))
        acc = ref.add(acc, term)
    return acc


@pytest.mark.parametrize("name,ring,ref,coeff", _TOWERS, ids=[t[0] for t in _TOWERS])
def test_subst_matches_the_reference(name, ring, ref, coeff):
    # the zero polynomial () is a value too, although it is falsy
    elems = _tower_elements(ring, ref, coeff)

    @settings(max_examples=200, deadline=None)
    @given(elems, st.lists(st.one_of(st.just(()), elems), min_size=ring.nvars,
                           max_size=ring.nvars), st.data())
    def check(a, vals, data):
        names = data.draw(st.lists(st.sampled_from(range(ring.nvars)), min_size=1, unique=True))
        values = {i: vals[i] for i in names}
        got = ring.subst(a, {ring.names[i]: v for i, v in values.items()})
        assert got == _reference_subst(ref, a, values), (a, values)
        _assert_canonical(ring, got)

    check()
    x = ring.var(ring.names[0])
    assert ring.subst(ring.add(x, ring.one), {ring.names[0]: ()}) == ring.one
    with pytest.raises(ValueError):
        ring.subst(x, {"not_a_variable": ring.one})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 14), max_size=5), st.lists(st.integers(0, 14), max_size=5),
       st.integers(0, 14))
def test_eval_at_over_a_zero_divisor_base(cp, cr, point):
    zt = ring_from_descriptor("poly:zmod:15:t")
    p, r = (zt.freeze({(e,): c for e, c in enumerate(cs)}) for cs in (cp, cr))
    assert zt.eval_at(p, point) == sum(c * point ** e for e, c in enumerate(cp)) % 15
    assert zt.eval_at(zt.mul(p, r), point) == zt.eval_at(p, point) * zt.eval_at(r, point) % 15


_LOCALIZED_TOWERS = [t for t in _TOWERS if isinstance(t[1].base, Localized)]


@pytest.mark.parametrize("name,ring,ref,coeff", _LOCALIZED_TOWERS,
                         ids=[t[0] for t in _LOCALIZED_TOWERS])
def test_localized_add_matches_cross_multiplication(name, ring, ref, coeff):
    # na/s^ka + nb/s^kb = (na s^kb + nb s^ka) / s^(ka + kb), in either order
    loc, ref_loc = ring.base, ref.base
    base, s = ref_loc.base, ref_loc.s
    unequal = []

    @settings(max_examples=300, deadline=None)
    @given(coeff, coeff)
    def check(a, b):
        (na, ka), (nb, kb) = a, b
        unequal.append(ka != kb)
        cross = base.add(base.mul(na, base.pow_int(s, kb)), base.mul(nb, base.pow_int(s, ka)))
        assert loc.add(a, b) == ref_loc.frac(cross, ka + kb), (a, b)

    check()
    assert any(unequal) or loc.base.try_invert(loc.s) is not None


# -- single-term operands: combined directly, as the general route would --

_Q = Rationals()
_SINGLE_TERM_COEFFS = {
    "q": st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool).map(
        lambda f: _Q.mul(_Q.from_int(f.numerator), _Q.try_invert(_Q.from_int(f.denominator)))),
    "zmod:15": st.integers(1, 14),
}


@pytest.mark.parametrize("descriptor", ["poly:q:t", "poly:q:x,y", "poly:zmod:15:t"])
def test_single_term_ops_match_the_general_route(descriptor):
    ring = ring_from_descriptor(descriptor)
    base = ring.base
    coeffs = _SINGLE_TERM_COEFFS[base.descriptor()]
    keys = st.tuples(*[st.integers(0, 2)] * ring.nvars).map(monomial_key)
    terms = st.tuples(keys, coeffs).map(lambda t: (t,))

    @settings(max_examples=300, deadline=None)
    @given(terms, terms)
    def check(a, b):
        ((ea, ca),), ((eb, cb),) = a, b
        total, diff = dict(a), dict(a)
        total[eb] = base.add(total[eb], cb) if eb in total else cb
        diff[eb] = base.sub(diff[eb], cb) if eb in diff else base.neg(cb)
        product = {tuple(map(sum, zip(ea, eb))): base.mul(ca, cb)}
        for op, d in (("add", total), ("sub", diff), ("mul", product)):
            got = getattr(ring, op)(a, b)
            assert got == ring.freeze(d), (op, a, b)
            _assert_canonical(ring, got)

    check()
    if descriptor == "poly:zmod:15:t":
        # products that vanish over the zero-divisor base, and sums that cancel
        t = ring.var("t")
        assert ring.mul(ring.scale_int(3, t), ring.scale_int(5, t)) == ()
        assert ring.mul(ring.scale_int(3, t), ring.from_int(5)) == ()
        assert ring.add(ring.scale_int(7, t), ring.scale_int(8, t)) == ()
        assert ring.sub(ring.scale_int(7, t), ring.scale_int(7, t)) == ()


# -- addmul: acc + lam * v in one call, as add and mul give it --

_ADDMUL_RINGS = ["zmod:15", "q", "poly:q:x,y", "poly:zmod:15:t", "loc:poly:q:t:s=t",
                 "poly:loc:poly:q:t:s=t:X"]


@pytest.mark.parametrize("descriptor", _ADDMUL_RINGS)
def test_addmul_agrees_with_add_and_mul(descriptor):
    ring = ring_from_descriptor(descriptor)

    def elem(seed, terms):
        rng = random.Random(seed)
        acc = ring.zero
        for _ in range(terms):
            acc = ring.add(acc, ring.sample(rng))
        return acc

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(0, 2), st.integers(1, 2), st.integers(0, 3))
    def check(seed, n_acc, n_lam, n_v):
        acc, lam, v = elem(seed, n_acc), elem(seed + 1, n_lam), elem(seed + 2, n_v)
        got = ring.addmul(acc, lam, v)
        assert got == ring.add(acc, ring.mul(lam, v)), (acc, lam, v)
        half = ring.half(acc)
        assert half == ring.mul(ring.inv2, acc), acc
        for a in (got, half):
            _assert_reduced(ring, a)

    check()


def _assert_reduced(ring, a):
    """Polynomials in canonical order, and every pair of Q in a, through
    coefficients and localized numerators, reduced over a positive
    denominator."""
    if isinstance(ring, PolyRing):
        _assert_canonical(ring, a)
        for _, c in a:
            _assert_reduced(ring.base, c)
    elif isinstance(ring, Localized):
        _assert_reduced(ring.base, a[0])
    elif isinstance(ring, Rationals):
        _assert_canonical_pair(a)


def test_addmul_edge_cases():
    # over Q: an integer lam * v into a fractional acc stays over acc's
    # denominator, and sums that cancel give (0, 1)
    q = Rationals()
    for acc, lam, v, want in [((1, 2), (3, 1), (-4, 1), (-23, 2)),
                              ((-5, 6), (2, 1), (1, 1), (7, 6)),
                              ((6, 1), (2, 1), (-3, 1), (0, 1)),
                              ((1, 6), (1, 2), (-1, 3), (0, 1)),
                              ((-3, 4), (3, 2), (1, 2), (0, 1)),
                              ((1, 6), (1, 2), (1, 3), (1, 3))]:
        got = q.addmul(acc, lam, v)
        assert got == want == q.add(acc, q.mul(lam, v)), (acc, lam, v)
        _assert_canonical_pair(got)
    for descriptor in ("poly:q:t", "poly:zmod:15:t"):
        ring = ring_from_descriptor(descriptor)
        t = ring.var("t")
        t2 = ring.mul(t, t)
        one_t = ring.add(ring.one, t)
        cases = [
            (ring.add(ring.scale_int(7, t2), ring.one), ring.scale_int(-7, t), t),  # t^2 cancels
            (ring.zero, ring.scale_int(3, t), one_t),  # empty acc
            (t, one_t, one_t),  # a multi-term lam
            (one_t, ring.scale_int(2, t), ring.zero),  # zero v
        ]
        for acc, lam, v in cases:
            got = ring.addmul(acc, lam, v)
            assert got == ring.add(acc, ring.mul(lam, v)), (descriptor, acc, lam, v)
            _assert_canonical(ring, got)
        assert ring.addmul(ring.scale_int(7, t2), ring.scale_int(-7, t), t) == ()
    # over Z/15: 7t^2 + t * 8t cancels, and 3t * 5 vanishes, in a gap of
    # acc's keys and at one of them
    zt = ring_from_descriptor("poly:zmod:15:t")
    t = zt.var("t")
    t2 = zt.mul(t, t)
    acc = zt.add(t2, zt.one)
    assert zt.addmul(zt.add(zt.scale_int(7, t2), t), t, zt.scale_int(8, t)) == t
    assert zt.addmul(acc, zt.scale_int(3, t), zt.from_int(5)) == acc
    assert zt.addmul(acc, zt.scale_int(3, t), zt.add(zt.from_int(5), t)) == \
        zt.add(acc, zt.scale_int(3, t2))


# -- exact division in a localization, over a localization too --

@pytest.mark.parametrize("descriptor", [
    "loc:zmod:15:s=2", "loc:poly:q:t:s=t", "loc:poly:zmod:15:t:s=3+t",
    "loc:loc:poly:q:t:s=t:s=t+1", "loc:loc:poly:zmod:15:t:s=t:s=1+t",
    "loc:poly:loc:poly:q:t:s=t:Y:s=t+1"])
def test_localized_representations_are_canonical(descriptor):
    # a localization divides its s out of a numerator through the base's
    # exact division; over a localization that division must divide the
    # numerators, or (a s)/s keeps a factor s/s and equal values differ
    ring = ring_from_descriptor(descriptor)
    over_s = ring.frac(ring.base.one, 1)
    elems = st.randoms(use_true_random=False).map(ring.sample)

    @settings(max_examples=150, deadline=None)
    @given(elems, elems, elems)
    def check(a, b, c):
        assert ring.mul(over_s, ring.mul(a, ring.embed(ring.s))) == a
        assert ring.sub(ring.add(a, c), c) == a
        assert (a == b) == ring.is_zero(ring.sub(a, b))

    check()


def test_a_localization_over_a_localization_parses_a_division_by_its_s():
    ring = ring_from_descriptor("loc:loc:poly:q:t:s=t:s=t+1")
    for text in ("1/(t+1)", "t/(t^2+t)"):
        got = parse_element(ring, text)
        assert got == ring.frac(ring.base.one, 1)
        assert ring.show(got) == "1/(t + 1)"
