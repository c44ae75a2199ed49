import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympelem.errors import BadIndices, NonZeroDet
from sympelem.matrices import Matrix
from sympelem.rings import PolyRing, Rationals, Zmod, ring_from_descriptor
from sympelem.symplectic import (
    block2_make,
    block2_mul,
    block_e,
    gen_abcd,
    gen_corner,
    gen_s,
    gen_small,
    graded_block,
    is_symplectic,
    pi_swap,
    psi_form,
    shape_matrix,
    symp_inverse,
)

Q = Rationals()
PXY = PolyRing(Q, ("x", "y"))
X = PXY.var("x")
Y = PXY.var("y")
Z15 = Zmod(15)


def int_matrix(ring, rows):
    return Matrix(ring, [[ring.from_int(v) for v in r] for r in rows])


def test_psi_convention():
    p1 = psi_form(Z15, 1)
    assert p1 == int_matrix(Z15, [[0, 1], [-1, 0]])
    p2 = psi_form(Z15, 2)
    assert tuple(r[:2] for r in p2.rows[:2]) == p1.rows
    assert tuple(r[2:] for r in p2.rows[2:]) == p1.rows
    assert tuple(r[2:] for r in p2.rows[:2]) == Matrix.zero(Z15, 2, 2).rows
    # psi^t psi = I
    assert p2.transpose().mul(p2) == Matrix.identity(Z15, 4)


def test_is_symplectic_examples():
    assert is_symplectic(Matrix.identity(Z15, 4))
    d = int_matrix(Z15, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 8]])
    assert not is_symplectic(d)
    assert is_symplectic(gen_s(PXY, 2, 1, 3, X))


def test_gen_s_entries():
    s13 = gen_s(PXY, 2, 1, 3, X)
    assert s13.rows[0][2] == X and s13.rows[3][1] == PXY.neg(X)
    s14 = gen_s(PXY, 2, 1, 4, Y)
    assert s14.rows[0][3] == Y and s14.rows[2][1] == Y
    assert gen_s(Z15, 2, 1, 3, 0) == Matrix.identity(Z15, 4)


def test_gen_s_bad_indices():
    with pytest.raises(BadIndices):
        gen_s(Z15, 2, 1, 1, 3)
    with pytest.raises(BadIndices):
        gen_s(Z15, 2, 1, 2, 3)   # j = pi(i)
    with pytest.raises(BadIndices):
        gen_s(Z15, 2, 3, 4, 3)


def test_gen_s_additivity():
    rng = random.Random(1)
    from sympelem.symplectic import pi_swap
    for n in (2, 3):
        for i in range(1, 2 * n + 1):
            for j in range(1, 2 * n + 1):
                if i == j or j == pi_swap(i):
                    continue
                a, b = Z15.sample(rng), Z15.sample(rng)
                assert gen_s(Z15, n, i, j, a).mul(gen_s(Z15, n, i, j, b)) == \
                    gen_s(Z15, n, i, j, Z15.add(a, b))


def test_gen_corner():
    m = gen_corner(Z15, 2, "E21", 7)
    assert m.rows[1][0] == 7
    a = gen_corner(Z15, 3, "E21", 4).mul(gen_corner(Z15, 3, "E21", 5))
    assert a == gen_corner(Z15, 3, "E21", 9)
    assert is_symplectic(gen_corner(Z15, 1, "E12", 11))


def test_block2_table_matches_matrices():
    for s1, s2 in itertools.product("ABCD", repeat=2):
        p = block2_make(s1, X)
        q = block2_make(s2, Y)
        got = block2_mul(PXY, p, q)
        want = shape_matrix(PXY, s1, X).mul(shape_matrix(PXY, s2, Y))
        assert got.matrix(PXY) == want, (s1, s2)


def test_block2_specific_entries():
    a_b = block2_mul(PXY, block2_make("A", X), block2_make("B", Y))
    assert a_b.shape == "B" and a_b.param == PXY.scale_int(2, PXY.mul(X, Y))
    b_a = block2_mul(PXY, block2_make("B", X), block2_make("A", Y))
    assert b_a.matrix(PXY) == Matrix.zero(PXY, 2, 2)
    d_c = block2_mul(PXY, block2_make("D", X), block2_make("C", Y))
    assert d_c.shape == "C" and d_c.param == PXY.scale_int(-2, PXY.mul(X, Y))


def test_block_e():
    assert block_e(Z15, 3, {}) == Matrix.identity(Z15, 6)
    m = block_e(PXY, 2, {2: shape_matrix(PXY, "A", X)})
    assert is_symplectic(m)
    # a transvection is a one-block matrix
    blk = Matrix(PXY, [(X, PXY.zero), (PXY.zero, PXY.zero)])
    assert gen_s(PXY, 2, 1, 3, X) == block_e(PXY, 2, {2: blk})
    with pytest.raises(NonZeroDet):
        block_e(PXY, 2, {2: Matrix.identity(PXY, 2)})
    # the inverse of E(X) is E(-X)
    assert symp_inverse(m) == block_e(PXY, 2, {2: shape_matrix(PXY, "A", PXY.neg(X))})


# symp_inverse and block_e compute the psi products by index; these are
# the products themselves, kept as the reference
def psi_inverse_reference(m):
    psi = psi_form(m.ring, m.nrows // 2)
    prod = psi.mul(m.transpose()).mul(psi)
    return Matrix(m.ring, [[m.ring.neg(v) for v in r] for r in prod.rows])


def block_e_reference(ring, n, blocks):
    X = Matrix.zero(ring, 2, 2 * n - 2)
    for pos, blk in blocks.items():
        X = X.paste(0, 2 * (pos - 2), blk)
    W = psi_form(ring, n - 1).mul(X.transpose()).mul(psi_form(ring, 1))
    return Matrix.identity(ring, 2 * n).paste(0, 2, X).paste(2, 0, W)


PSI_RINGS = {text: ring_from_descriptor(text) for text in ("zmod:15", "poly:q:t")}


def _elements(ring):
    """Elements of Z/15, or polynomials of degree <= 2 over Q[t] with small
    integer coefficients."""
    if isinstance(ring, Zmod):
        return st.integers(0, 14)
    t = ring.var("t")

    def poly(coeffs):
        acc = ring.zero
        for c in coeffs:
            acc = ring.add(ring.mul(acc, t), ring.from_int(c))
        return acc
    return st.lists(st.integers(-3, 3), max_size=3).map(poly)


@st.composite
def psi_cases(draw):
    ring = PSI_RINGS[draw(st.sampled_from(sorted(PSI_RINGS)))]
    n = draw(st.integers(1, 4))
    elem = _elements(ring)
    m = Matrix(ring, [[draw(elem) for _ in range(2 * n)] for _ in range(2 * n)])
    # rank-one blocks [[p x, p y], [q x, q y]] at some of the positions 2..n
    blocks = {}
    for pos in range(2, n + 1):
        if draw(st.booleans()):
            p, q, x, y = (draw(elem) for _ in range(4))
            blocks[pos] = Matrix(ring, [(ring.mul(p, x), ring.mul(p, y)),
                                        (ring.mul(q, x), ring.mul(q, y))])
    return ring, n, m, blocks


@settings(max_examples=150, deadline=None)
@given(psi_cases())
def test_psi_index_arithmetic_matches_psi_products(case):
    # m is arbitrary, not only symplectic: the formulas are entrywise
    ring, n, m, blocks = case
    assert symp_inverse(m) == psi_inverse_reference(m)
    if n >= 2:
        assert block_e(ring, n, blocks) == block_e_reference(ring, n, blocks)


@st.composite
def generator_products(draw):
    """(ring, n, m): m a product of 1-4 generators S, E(shape) and unit,
    with parameters from ``_elements``."""
    ring = PSI_RINGS[draw(st.sampled_from(sorted(PSI_RINGS)))]
    n = draw(st.integers(2, 4))
    elem = _elements(ring)
    m = Matrix.identity(ring, 2 * n)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["S", "abcd", "small"]))
        if kind == "S":
            i = draw(st.integers(1, 2 * n))
            j = draw(st.sampled_from([j for j in range(1, 2 * n + 1) if j not in (i, pi_swap(i))]))
            g = gen_s(ring, n, i, j, draw(elem))
        elif kind == "abcd":
            g = gen_abcd(ring, n, draw(st.sampled_from("ABCD")), draw(st.integers(2, n)),
                         draw(elem))
        else:
            g = gen_small(ring, n, draw(st.sampled_from("BC")), draw(st.integers(1, n)),
                          draw(elem))
        m = m.mul(g)
    return ring, n, m


@settings(max_examples=100, deadline=None)
@given(generator_products())
def test_symp_inverse_of_generator_products(case):
    ring, n, m = case
    assert symp_inverse(m) == psi_inverse_reference(m)
    assert symp_inverse(m).mul(m) == Matrix.identity(ring, 2 * n)
    # E(X) for the block row of m's first two rows, made singular block
    # by block: one block, then every block at once
    rank_one = {pos: Matrix(ring, [m.rows[0][2 * pos - 2:2 * pos],
                                   [ring.zero, ring.zero]]) for pos in range(2, n + 1)}
    assert block_e(ring, n, {n: rank_one[n]}) == block_e_reference(ring, n, {n: rank_one[n]})
    assert block_e(ring, n, rank_one) == block_e_reference(ring, n, rank_one)


def test_gen_abcd_additivity_and_inverse():
    rng = random.Random(2)
    for n in (2, 3):
        for shape in "ABCD":
            for i in range(2, n + 1):
                a, b = Z15.sample(rng), Z15.sample(rng)
                assert gen_abcd(Z15, n, shape, i, a).mul(gen_abcd(Z15, n, shape, i, b)) == \
                    gen_abcd(Z15, n, shape, i, Z15.add(a, b))
                assert symp_inverse(gen_abcd(Z15, n, shape, i, a)) == \
                    gen_abcd(Z15, n, shape, i, Z15.neg(a))
                assert gen_abcd(Z15, n, shape, i, 0) == Matrix.identity(Z15, 2 * n)
    with pytest.raises(BadIndices):
        gen_abcd(Z15, 2, "A", 3, 1)


def test_gen_small():
    assert gen_small(Z15, 2, "B", 1, 0) == Matrix.identity(Z15, 4)
    rng = random.Random(3)
    for n in (2, 3):
        for shape in ("B", "C"):
            for j in range(1, n + 1):
                yv, zv = Z15.sample(rng), Z15.sample(rng)
                u = gen_small(Z15, n, shape, j, yv)
                assert is_symplectic(u)
                block = [r[2 * j - 2:2 * j] for r in u.rows[2 * j - 2:2 * j]]
                assert Matrix(Z15, block).det2() == Z15.one
                # additivity of same-shape units
                assert u.mul(gen_small(Z15, n, shape, j, zv)) == \
                    gen_small(Z15, n, shape, j, Z15.add(yv, zv))
    # same-shape units at any positions commute
    for j1 in (1, 2, 3):
        for j2 in (1, 2, 3):
            u1 = gen_small(Z15, 3, "B", j1, 7)
            u2 = gen_small(Z15, 3, "B", j2, 4)
            assert u1.mul(u2) == u2.mul(u1)
    with pytest.raises(BadIndices):
        gen_small(Z15, 2, "A", 1, 1)


def test_block_row_additivity_when_interaction_vanishes():
    rng = random.Random(6)

    def graded(lam, mu, x, y):
        return Matrix(Z15, [(Z15.mul(lam, x), Z15.mul(lam, y)),
                            (Z15.mul(mu, x), Z15.mul(mu, y))])

    for _ in range(20):
        lam, mu = Z15.sample(rng), Z15.sample(rng)
        vals = [Z15.sample(rng) for _ in range(6)]
        # disjoint positions: the cross terms pair different blocks
        r1 = {2: graded(lam, mu, vals[0], vals[1])}
        r2 = {3: graded(lam, mu, vals[2], vals[3])}
        total = {2: r1[2], 3: r2[3]}
        assert block_e(Z15, 3, r1).mul(block_e(Z15, 3, r2)) == block_e(Z15, 3, total)
        # proportional rows at the same position: the pairing is alternating
        c = vals[4]
        r1 = {2: graded(lam, mu, vals[0], vals[1])}
        r2 = {2: graded(lam, mu, Z15.mul(c, vals[0]), Z15.mul(c, vals[1]))}
        total = {2: r1[2].add(r2[2])}
        assert block_e(Z15, 3, r1).mul(block_e(Z15, 3, r2)) == block_e(Z15, 3, total)


def test_constructors_symplectic_symbolically():
    for n in (2, 3, 4):
        for shape in "ABCD":
            assert is_symplectic(gen_abcd(PXY, n, shape, n, X))
        assert is_symplectic(gen_small(PXY, n, "C", 1, Y))
        assert is_symplectic(graded_block(PXY, n, X, Y, X, Y, 2))


def test_is_symplectic_rejects_odd_size():
    from sympelem.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        is_symplectic(Matrix.identity(Z15, 3))


def test_poly_ring_has_half():
    assert PXY.inv2 == PXY.const(Q.inv2)
    assert PXY.add(PXY.inv2, PXY.inv2) == PXY.one
