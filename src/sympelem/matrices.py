"""Dense immutable matrices over a ring.

Rows are tuples of raw ring representations; two matrices are equal when
their rows are, and a matrix is not hashable. The sizes here are tiny
(2n <= 12), so dense storage is fine. A product follows the nonzeros:
output row i is the sum of u_k * (row k of the right factor) over the
nonzero u_k of row i. The first term of an entry is a product, free
when a factor is 1, and each further term one ``addmul``;
representations are canonical, so every entry equals the full inner
product. Words of generators are evaluated in ``words`` by sparse
column updates, not by products of these matrices.
"""

from __future__ import annotations

from .errors import DimensionMismatch


class Matrix:
    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise DimensionMismatch("ragged rows")

    @classmethod
    def _trusted(cls, ring, rows):
        """A matrix on rows the library built: equal-length tuples, not rechecked."""
        m = cls.__new__(cls)
        m.ring, m.rows, m.nrows, m.ncols = ring, rows, len(rows), len(rows[0]) if rows else 0
        return m

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def identity(ring, n):
        z, o = ring.zero, ring.one
        return Matrix._trusted(ring, tuple((z,) * i + (o,) + (z,) * (n - 1 - i) for i in range(n)))

    @staticmethod
    def zero(ring, nrows, ncols):
        z = ring.zero
        return Matrix(ring, [[z] * ncols for _ in range(nrows)])

    # -- arithmetic -----------------------------------------------------------
    def mul(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} != {other.nrows}")
        ring = self.ring
        zero, one, mul, addmul = ring.zero, ring.one, ring.mul, ring.addmul
        support = [[(j, v) for j, v in enumerate(r) if v != zero] for r in other.rows]
        out = []
        for row in self.rows:
            acc = [zero] * other.ncols
            for u, terms in zip(row, support):
                if u == zero:
                    continue
                for j, v in terms:
                    if acc[j] == zero:
                        acc[j] = v if u == one else u if v == one else mul(u, v)
                    else:
                        acc[j] = addmul(acc[j], u, v)
            out.append(tuple(acc))
        return Matrix._trusted(ring, tuple(out))

    def add(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch in add")
        a = self.ring.add
        return Matrix._trusted(self.ring, tuple(tuple(map(a, r1, r2))
                                                for r1, r2 in zip(self.rows, other.rows)))

    def transpose(self):
        return Matrix(self.ring, list(zip(*self.rows)))

    def perp(self, other):
        """Block-diagonal juxtaposition."""
        z = self.ring.zero
        n1, n2 = self.ncols, other.ncols
        rows = [r + (z,) * n2 for r in self.rows]
        rows += [(z,) * n1 + r for r in other.rows]
        return Matrix(self.ring, rows)

    def paste(self, r0, c0, block):
        rows = [list(r) for r in self.rows]
        for i, br in enumerate(block.rows):
            for j, v in enumerate(br):
                rows[r0 + i][c0 + j] = v
        return Matrix._trusted(self.ring, tuple(map(tuple, rows)))

    def det2(self):
        if (self.nrows, self.ncols) != (2, 2):
            raise DimensionMismatch("det2 needs 2x2")
        r = self.ring
        (a, b), (c, d) = self.rows
        return r.sub(r.mul(a, d), r.mul(b, c))

    def adj2(self):
        """Adjugate of a 2x2; for det 1 this is the inverse."""
        if (self.nrows, self.ncols) != (2, 2):
            raise DimensionMismatch("adj2 needs 2x2")
        n = self.ring.neg
        (a, b), (c, d) = self.rows
        return Matrix(self.ring, [(d, n(b)), (n(c), a)])

    # -- protocol -------------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __repr__(self):
        return f"<{self.nrows}x{self.ncols} over {self.ring.descriptor()}>"
