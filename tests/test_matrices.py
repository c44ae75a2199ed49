import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympelem.errors import DimensionMismatch
from sympelem.matrices import Matrix
from sympelem.rings import ring_from_descriptor
from sympelem.words import ABCDAtom, UnitAtom, Word

PRODUCT_RINGS = {text: ring_from_descriptor(text)
                 for text in ("zmod:15", "q", "poly:q:x,y", "loc:poly:q:t:s=t")}


def naive_product(a, b):
    """Entry (i, j) is the sum over every k of a[i][k] * b[k][j], zeros included."""
    ring = a.ring
    return [tuple(functools.reduce(ring.add, (ring.mul(a.rows[i][k], b.rows[k][j])
                                               for k in range(a.ncols)), ring.zero)
                  for j in range(b.ncols)) for i in range(a.nrows)]


@st.composite
def matrices(draw, ring, nrows, ncols):
    """Entries mostly 0, 1 or -1, like the near-identity generators; one
    in four a sampled ring element."""
    small = (ring.zero, ring.one, ring.neg(ring.one))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        pick = draw(st.integers(0, 3))
        return small[pick] if pick < 3 else ring.sample(rng)
    return Matrix(ring, [[entry() for _ in range(ncols)] for _ in range(nrows)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mul_matches_the_naive_triple_loop(data):
    ring = PRODUCT_RINGS[data.draw(st.sampled_from(sorted(PRODUCT_RINGS)))]
    k, l, m = (data.draw(st.integers(1, 6)) for _ in range(3))
    a = data.draw(matrices(ring, k, l))
    b = data.draw(matrices(ring, l, m))
    product = a.mul(b)
    assert (product.nrows, product.ncols) == (k, m)
    assert list(product.rows) == naive_product(a, b)
    wrong = data.draw(st.integers(1, 6).filter(lambda x: x != l))
    with pytest.raises(DimensionMismatch):
        a.mul(data.draw(matrices(ring, wrong, m)))


def test_zero_divisor_products_vanish():
    z15 = PRODUCT_RINGS["zmod:15"]
    a = Matrix(z15, [(3, 5), (5, 0)])
    b = Matrix(z15, [(5, 1), (3, 3)])
    assert a.mul(b) == Matrix(z15, [(0, 3), (10, 5)])
    assert a.mul(b).rows == tuple(naive_product(a, b))


def test_outside_rows_are_copied_and_checked_built_rows_are_tuples():
    z15 = PRODUCT_RINGS["zmod:15"]
    rows = [[1, 2], [3, 4]]
    m = Matrix(z15, rows)
    rows[0][0] = 9
    assert m.rows == ((1, 2), (3, 4))
    with pytest.raises(DimensionMismatch):
        Matrix(z15, [(1, 2), (3,)])
    built = [m.mul(m), m.add(m), Matrix.identity(z15, 3),
             Matrix.identity(z15, 3).paste(1, 1, m),
             Word(z15, 2, [ABCDAtom("A", 2, 7), UnitAtom("B", 1, 4)]).eval()]
    for b in built:
        assert type(b.rows) is tuple and all(type(r) is tuple and len(r) == b.ncols
                                             for r in b.rows)
    assert Matrix.identity(z15, 3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
