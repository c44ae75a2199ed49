import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympelem.errors import EvenModulus, NilpotentS, ParseError, ZeroDivisorS
from sympelem.rings import (
    Localized,
    PolyRing,
    Rationals,
    Zmod,
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
    qx = PolyRing(Rationals(), ("x",))
    x = qx.var("x")
    loc = Localized(qx, x)
    assert loc.try_invert(loc.embed(qx.scale_int(3, x))) == loc.frac(qx.const(Fraction(1, 3)), 1)
    assert loc.try_invert(loc.embed(qx.add(x, qx.one))) is None
    assert loc.try_invert(loc.zero) is None
    with pytest.raises(ParseError):
        parse_element(loc, "1/0")


def test_localize_rejects_zero_divisor_and_nilpotent():
    z15 = Zmod(15)
    with pytest.raises(ZeroDivisorS):
        Localized(z15, 3)
    z27 = Zmod(27)
    with pytest.raises((NilpotentS, ZeroDivisorS)):
        Localized(z27, 3)
    # nilpotent detection fires before the zero-divisor scan
    with pytest.raises(NilpotentS):
        Localized(z27, 0)


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


def test_zmod_even_modulus_in_descriptor():
    with pytest.raises(EvenModulus):
        ring_from_descriptor("zmod:4")


def test_valuation_floor():
    q = Rationals()
    qx = PolyRing(q, ("x",))
    x = qx.var("x")
    loc = Localized(qx, x)
    assert loc.valuation_floor(loc.embed(qx.mul(x, x))) == 2
    assert loc.valuation_floor(loc.frac(qx.one, 3)) == -3
    assert loc.valuation_floor(loc.zero) is None
    # unit s: the search is capped instead of divergent
    z15 = Zmod(15)
    u = Localized(z15, 2)
    assert u.valuation_floor(u.embed(7), cap=16) == 16
