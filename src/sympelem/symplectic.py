"""The standard alternating form, the classical elementary symplectic
generators, and the four rank-one block shapes with their placements.

Conventions fixed here and validated by the test suite:

* the 2x2 alternating form is [[0,1],[-1,0]], placed diagonally n times;
* block positions are counted 1..n, position 1 being the leading 2x2
  corner; the one-block generators live at positions 2..n;
* a "graded" block at position k is [[lam*x, lam*y], [mu*x, mu*y]].
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadIndices, DimensionMismatch, NonZeroDet
from .matrices import Matrix

SHAPES = ("A", "B", "C", "D")


def pi_swap(i):
    """The pairing permutation (1 2)(3 4)...(2n-1 2n), 1-indexed."""
    return i + 1 if i % 2 == 1 else i - 1


def psi_form(ring, n):
    if n < 1:
        raise BadIndices("n must be >= 1")
    rows = [[ring.zero] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        rows[2 * k][2 * k + 1], rows[2 * k + 1][2 * k] = ring.one, ring.neg(ring.one)
    return Matrix(ring, rows)


def is_symplectic(m):
    if m.nrows != m.ncols or m.nrows % 2 != 0 or m.nrows == 0:
        raise DimensionMismatch("need a square matrix of even size")
    psi = psi_form(m.ring, m.nrows // 2)
    return m.transpose().mul(psi).mul(m) == psi


def _psi_transpose_psi(m, negate=False):
    """psi m^t psi, or its negative, by index arithmetic. psi is a signed
    permutation: 0-based, psi[i][pi(i)] = (-1)^i with pi(i) = i ^ 1, so
    entry (r, c) of psi m^t psi is -(-1)^(r+c) m[pi(c)][pi(r)]."""
    neg, zero, flip = m.ring.neg, m.ring.zero, int(negate)
    cols = tuple(zip(*m.rows))
    out = [list(cols[r ^ 1]) for r in range(m.ncols)]
    for r, row in enumerate(out):
        row[0::2], row[1::2] = row[1::2], row[0::2]
        row[(r + flip) % 2::2] = [v if v == zero else neg(v) for v in row[(r + flip) % 2::2]]
    return Matrix(m.ring, out)


def symp_inverse(m):
    """Inverse of a symplectic matrix: -psi m^t psi (since psi^2 = -I)."""
    return _psi_transpose_psi(m, negate=True)


def gen_s(ring, n, i, j, lam):
    """I + lam e_ij - (-1)^(i+j) lam e_(pi(j) pi(i)), 1-indexed."""
    if not (1 <= i <= 2 * n and 1 <= j <= 2 * n):
        raise BadIndices(f"indices out of range for n={n}")
    if i == j or j == pi_swap(i):
        raise BadIndices(f"S_{i}{j} is not a generator")
    rows = [list(r) for r in Matrix.identity(ring, 2 * n).rows]
    rows[i - 1][j - 1] = ring.add(rows[i - 1][j - 1], lam)
    sgn = ring.neg(lam) if (i + j) % 2 == 0 else lam
    pj, pi_ = pi_swap(j), pi_swap(i)
    rows[pj - 1][pi_ - 1] = ring.add(rows[pj - 1][pi_ - 1], sgn)
    return Matrix(ring, rows)


def gen_corner(ring, n, kind, x):
    """(I_2 + x e_12) perp I or (I_2 + x e_21) perp I."""
    if kind not in ("E12", "E21"):
        raise BadIndices(f"unknown corner kind {kind!r}")
    rows = [list(r) for r in Matrix.identity(ring, 2 * n).rows]
    if kind == "E12":
        rows[0][1] = ring.add(rows[0][1], x)
    else:
        rows[1][0] = ring.add(rows[1][0], x)
    return Matrix(ring, rows)


def corner_embed(delta, n):
    """delta perp I_{2n-2} for a 2x2 delta."""
    return delta.perp(Matrix.identity(delta.ring, 2 * n - 2))


# ---------------------------------------------------------------------------
# the four 2x2 shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block2x2:
    """A tagged 2x2 block: one of the four singular shapes, or GENERAL."""

    shape: str  # A | B | C | D | GENERAL
    param: object = None       # ring rep for tagged shapes
    entries: tuple = None      # ((a,b),(c,d)) for GENERAL

    def matrix(self, ring):
        return shape_matrix(ring, self.shape, self.param) if self.shape != "GENERAL" \
            else Matrix(ring, self.entries)


def block2_make(shape, param):
    if shape not in SHAPES:
        raise BadIndices(f"unknown shape {shape!r}")
    return Block2x2(shape, param)


def block2_general(ring, rows):
    return Block2x2("GENERAL", None, tuple(tuple(r) for r in rows))


def shape_matrix(ring, shape, v):
    nv = ring.neg(v)
    if shape == "A":
        return Matrix(ring, [(v, v), (v, v)])
    if shape == "B":
        return Matrix(ring, [(v, nv), (v, nv)])
    if shape == "C":
        return Matrix(ring, [(v, v), (nv, nv)])
    if shape == "D":
        return Matrix(ring, [(nv, v), (v, nv)])
    raise BadIndices(f"unknown shape {shape!r}")


# product table for the four shapes: (left, right) -> (shape, integer factor)
# or None for the zero product; the factor multiplies x*y
BLOCK2_TABLE = {
    ("A", "A"): ("A", 2), ("A", "B"): ("B", 2), ("A", "C"): None, ("A", "D"): None,
    ("B", "A"): None, ("B", "B"): None, ("B", "C"): ("A", 2), ("B", "D"): ("B", -2),
    ("C", "A"): ("C", 2), ("C", "B"): ("D", -2), ("C", "C"): None, ("C", "D"): None,
    ("D", "A"): None, ("D", "B"): None, ("D", "C"): ("C", -2), ("D", "D"): ("D", -2),
}


def block2_mul(ring, p, q):
    """Multiply tagged blocks via the shape table; GENERAL falls back to
    matrix arithmetic. Zero products come back as an all-zero GENERAL tag."""
    if p.shape in SHAPES and q.shape in SHAPES:
        hit = BLOCK2_TABLE[(p.shape, q.shape)]
        if hit is None:
            z = ring.zero
            return block2_general(ring, [(z, z), (z, z)])
        sh, c = hit
        return Block2x2(sh, ring.scale_int(c, ring.mul(p.param, q.param)))
    m = p.matrix(ring).mul(q.matrix(ring))
    return block2_general(ring, m.rows)


# ---------------------------------------------------------------------------
# one-row block matrices E(X)
# ---------------------------------------------------------------------------

def block_e(ring, n, blocks):
    """E(X) = [[I_2, X], [psi_{n-1} X^t psi_1, I_{2n-2}]] for a block row X.

    ``blocks`` maps positions in 2..n to 2x2 matrices; each must be
    singular for the result to be symplectic.
    """
    if n < 2:
        raise BadIndices("block matrices need n >= 2")
    rows = [list(r) for r in Matrix.identity(ring, 2 * n).rows]
    for pos, blk in blocks.items():
        if not (2 <= pos <= n):
            raise BadIndices(f"block position {pos} out of 2..{n}")
        if not ring.is_zero(blk.det2()):
            raise NonZeroDet(f"block at position {pos} has nonzero determinant")
        rows[0][2 * pos - 2:2 * pos], rows[1][2 * pos - 2:2 * pos] = blk.rows
    low = _psi_transpose_psi(Matrix(ring, [r[2:] for r in rows[:2]]))
    for r, head in zip(rows[2:], low.rows):
        r[:2] = head
    return Matrix(ring, rows)


def gen_abcd(ring, n, shape, i, x):
    """E(shape_i)(x): the single-block generator at position i in 2..n."""
    if not (2 <= i <= n):
        raise BadIndices(f"position {i} out of 2..{n}")
    return block_e(ring, n, {i: shape_matrix(ring, shape, x)})


def graded_block(ring, n, lam, mu, x, y, i):
    """E with the single block [[lam x, lam y], [mu x, mu y]] at position i."""
    if not (2 <= i <= n):
        raise BadIndices(f"position {i} out of 2..{n}")
    blk = Matrix(ring, [(ring.mul(lam, x), ring.mul(lam, y)),
                        (ring.mul(mu, x), ring.mul(mu, y))])
    return block_e(ring, n, {i: blk})


def gen_small(ring, n, shape, j, y):
    """I perp (I_2 + shape(y)) perp I with the unit at position j in 1..n."""
    if shape not in ("B", "C"):
        raise BadIndices("unit shapes are B and C")
    if not (1 <= j <= n):
        raise BadIndices(f"position {j} out of 1..{n}")
    unit = Matrix.identity(ring, 2).add(shape_matrix(ring, shape, y))
    M = Matrix.identity(ring, 2 * n)
    return M.paste(2 * (j - 1), 2 * (j - 1), unit)


def placed_abcd(ring, n, offset, shape, p, c):
    """I_{2 offset} perp E(shape_p)(c) perp I, the inner E in Sp_{2(n-offset)}."""
    if offset < 0:
        raise BadIndices(f"offset {offset} is negative")
    inner = gen_abcd(ring, n - offset, shape, p, c)
    M = Matrix.identity(ring, 2 * n)
    return M.paste(2 * offset, 2 * offset, inner)
