"""Words over the generator alphabet and their evaluation.

Atoms are immutable and hashable. Each atom G knows G - I as a short
sum of rank-one terms, written out from its parameter in closed form.
Every generator here differs from the identity by one or two rank-one
pieces x u w^t; for the A/B/C/D shapes and the units, u and w are sign
vectors that fill one 2-block (``_SHAPE_SIGNS``).

Words are evaluated in the basis P = H perp ... perp H, with
H = [[1, 1], [1, -1]] on every 2-block, where an atom G acts as
P^-1 G P. A term x u w^t becomes (x/2)(P u)(P w)^t, since P^-1 = P/2.
A sign vector that fills a block has one nonzero entry after P, so each
shape or unit term updates one column of the running product by a
multiple of one other; a single entry e_r spreads to the two entries of
its block. A term sums the columns it reads once (an S or corner term
reads two) and adds that sum into each column it writes, one ``addmul``
(acc + lam * v) per nonzero entry, never a dense 2n x 2n product. The
running product is M' = P^-1 M P, started at I.

2 is invertible in every ring here, so M -> M' is injective, and
``same_value`` decides eval(a) == eval(b) on the columns of M'. The
rewriting engine checks every step that way. ``Word.eval`` converts
back once, at the end, to the standard basis.

Every atom class answers one protocol: ``_terms(ring, n)`` (its terms of
P^-1 (G - I) P), ``_inverse(ring)``, ``_map(f)`` (a ring map applied to
every parameter) and ``_text(ring)`` (its line in a word file).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import BadIndices, NonZeroDet, ParseError
from .matrices import Matrix
from .symplectic import SHAPES, pi_swap

# shape(v) = v * u w^t for the sign vectors (u, w) of each 2x2 shape
_SHAPE_SIGNS = {
    "A": ((1, 1), (1, 1)),
    "B": ((1, 1), (1, -1)),
    "C": ((1, -1), (1, 1)),
    "D": ((1, -1), (-1, 1)),
}

# A term (lam, rows, cols) stands for lam * u w^t in the basis P, where u
# is the sum of sign * e_row over ``rows`` and w the sum of sign * e_col
# over ``cols``; indices are 0-based. An atom's terms add up to
# P^-1 (G - I) P.


def _hpair(base, s0, s1):
    """P (s0 e_base + s1 e_(base+1)) = 2 s0 e_k, k = base if s0 = s1 and
    base + 1 otherwise, as the one-entry vector ((k, s0),); the factor 2
    goes into the term's scalar."""
    return ((base + (s0 != s1), s0),)


# per shape, the two single-entry terms of ``_block_terms``, read off
# _SHAPE_SIGNS once: the first term's row and the second's column lie in
# block 1 and are given as entries; the first term's column and the
# second's row lie in the atom's block and are given as (offset, sign)
_BLOCK_ENTRIES = {shape: (_hpair(0, u0, u1), (w0 != w1, w0), (w1 != -w0, w1), _hpair(0, -u1, u0))
                  for shape, ((u0, u1), (w0, w1)) in _SHAPE_SIGNS.items()}


def _hunit(i, sign=1):
    """P (sign e_i): sign on both entries of i's block, negated on the
    second when i is the second."""
    b = i - i % 2
    return ((b, sign), (b + 1, -sign if i > b else sign))


def _block_terms(ring, n, shape, pos, x):
    """Terms of E(shape_pos)(x).

    E(X) - I is X in rows 1-2 plus W = psi X^t psi in the block's rows;
    for X = x u w^t at the block, W = x (psi w)(u^t psi). Both pieces
    fill a block on each side, so each is (x/2)(2)(2) = 2x times one
    entry in the basis P."""
    if not 2 <= pos <= n:
        raise BadIndices(f"position {pos} out of 2..{n} for n={n}")
    if shape not in SHAPES:
        raise BadIndices(f"unknown shape {shape!r}")
    if x == ring.zero:
        return ()
    rows, (dc, sc), (dr, sr), cols = _BLOCK_ENTRIES[shape]
    b = 2 * (pos - 1)
    x2 = ring.add(x, x)
    return ((x2, rows, ((b + dc, sc),)), (x2, ((b + dr, sr),), cols))


def _hadamard(ring, cols):
    """The rows of (P X P) / 2 for the square matrix X given by its
    columns. As P^-1 = P / 2, this is X -> P^-1 X P and also its inverse.
    Each 2x2 block B becomes H B H / 2, which is B itself when B is a
    multiple of I_2, at no cost in ring operations."""
    zero, half = ring.zero, ring.half

    def add(u, v):
        return u if v == zero else v if u == zero else ring.add(u, v)

    def sub(u, v):
        return u if v == zero else ring.neg(v) if u == zero else ring.sub(u, v)

    def halves(*vs):
        return [zero if v == zero else half(v) for v in vs]

    size = len(cols)
    rows = [[zero] * size for _ in range(size)]
    for j in range(0, size, 2):
        x, y = cols[j], cols[j + 1]
        for i in range(0, size, 2):
            (a, c), (b, d) = x[i:i + 2], y[i:i + 2]  # B = [[a, b], [c, d]]
            if b == zero and c == zero and a == d:
                rows[i][j] = rows[i + 1][j + 1] = a
                continue
            s, t, u, w = add(a, b), sub(a, b), add(c, d), sub(c, d)  # B H
            rows[i][j:j + 2] = halves(add(s, u), add(t, w))
            rows[i + 1][j:j + 2] = halves(sub(s, u), sub(t, w))
    return rows


def _fmt(ring, e):
    return ring.show(e).replace(" ", "")


class _OneParam:
    """An atom whose only ring parameter is ``e`` and whose inverse is the
    same atom at -e; each class builds itself at another e in ``_with``."""

    def _inverse(self, ring):
        return self._with(ring.neg(self.e))

    def _map(self, f):
        return self._with(f(self.e))


@dataclass(frozen=True)
class SAtom(_OneParam):
    i: int
    j: int
    e: object

    def _terms(self, ring, n):
        """I + e e_ij - (-1)^(i+j) e e_(pi(j) pi(i)), 1-indexed."""
        i, j = self.i, self.j
        if not (1 <= i <= 2 * n and 1 <= j <= 2 * n):
            raise BadIndices(f"indices {i}, {j} out of 1..{2 * n} for n={n}")
        if i == j or j == pi_swap(i):
            raise BadIndices(f"S_{i},{j} is not a generator for n={n}: needs i != j and j != pi(i)")
        if self.e == ring.zero:
            return ()
        sign = -1 if (i + j) % 2 == 0 else 1
        h = ring.half(self.e)
        return ((h, _hunit(i - 1), _hunit(j - 1)),
                (h, _hunit(pi_swap(j) - 1, sign), _hunit(pi_swap(i) - 1)))

    def _with(self, e):
        return SAtom(self.i, self.j, e)

    def _text(self, ring):
        return f"S {self.i} {self.j} {_fmt(ring, self.e)}"


@dataclass(frozen=True)
class CornerAtom(_OneParam):
    kind: str  # E12 | E21
    e: object

    def _terms(self, ring, n):
        if self.kind not in ("E12", "E21"):
            raise BadIndices(f"unknown corner kind {self.kind!r}")
        if self.e == ring.zero:
            return ()
        r, c = (0, 1) if self.kind == "E12" else (1, 0)
        return ((ring.half(self.e), _hunit(r), _hunit(c)),)

    def _with(self, e):
        return CornerAtom(self.kind, e)

    def _text(self, ring):
        return f"{self.kind} {_fmt(ring, self.e)}"


@dataclass(frozen=True)
class ABCDAtom(_OneParam):
    shape: str  # A | B | C | D
    pos: int
    e: object

    def _terms(self, ring, n):
        return _block_terms(ring, n, self.shape, self.pos, self.e)

    def _with(self, e):
        return ABCDAtom(self.shape, self.pos, e)

    def _text(self, ring):
        return f"{self.shape} {self.pos} {_fmt(ring, self.e)}"


@dataclass(frozen=True)
class UnitAtom(_OneParam):
    shape: str  # B | C
    pos: int
    e: object

    def _terms(self, ring, n):
        """I perp (I_2 + shape(e)) perp I at position pos in 1..n."""
        if self.shape not in ("B", "C"):
            raise BadIndices("unit shapes are B and C")
        if not 1 <= self.pos <= n:
            raise BadIndices(f"position {self.pos} out of 1..{n} for n={n}")
        if self.e == ring.zero:
            return ()
        (u0, u1), (w0, w1) = _SHAPE_SIGNS[self.shape]
        b = 2 * (self.pos - 1)
        return ((ring.add(self.e, self.e), _hpair(b, u0, u1), _hpair(b, w0, w1)),)

    def _with(self, e):
        return UnitAtom(self.shape, self.pos, e)

    def _text(self, ring):
        return f"U{self.shape} {self.pos} {_fmt(ring, self.e)}"


@dataclass(frozen=True)
class CornerMatrixAtom:
    rows: tuple  # ((a,b),(c,d)), det 1

    def _terms(self, ring, n):
        """One single-entry term per nonzero entry of P^-1 (G - I) P, where
        G - I fills the top-left 2x2 block."""
        (a, b), (c, d) = self.rows
        if not ring.is_one(ring.sub(ring.mul(a, d), ring.mul(b, c))):
            raise NonZeroDet("corner block must have determinant 1")
        one, zero = ring.one, ring.zero
        cols = ((ring.sub(a, one), c), (b, ring.sub(d, one)))
        return tuple((v, ((r, 1),), ((k, 1),)) for r, row in enumerate(_hadamard(ring, cols))
                     for k, v in enumerate(row) if v != zero)

    def _inverse(self, ring):
        return CornerMatrixAtom(Matrix(ring, self.rows).adj2().rows)

    def _map(self, f):
        return CornerMatrixAtom(tuple(tuple(map(f, r)) for r in self.rows))

    def _text(self, ring):
        return "CORNER " + " ".join(_fmt(ring, v) for r in self.rows for v in r)


def _apply_terms(ring, cols, terms):
    """Replace the matrix with columns ``cols`` by its product with G,
    where G - I is the sum of ``terms`` (both in the basis P): for each
    term lam u w^t, the columns of M named in u are summed once, each
    with its sign relative to the first, and lam times each nonzero entry
    of that sum is added into each column named in w, lam negated where
    that column's sign differs from the first source's: one ``addmul`` per
    entry and target column. Every source column is read before any
    column changes."""
    zero, neg, addmul = ring.zero, ring.neg, ring.addmul
    updates = []
    for lam, ((c0, s0), *rest), targets in terms:
        src = cols[c0]
        for c, s in rest:
            comb = ring.add if s == s0 else ring.sub
            src = [a if b == zero else (b if s == s0 else neg(b)) if a == zero else comb(a, b)
                   for a, b in zip(src, cols[c])]
        updates.append((lam, s0, targets, [(r, v) for r, v in enumerate(src) if v != zero]))
    for lam, s0, targets, entries in updates:
        for c, s in targets:
            col, lam_c = cols[c], lam if s == s0 else neg(lam)
            for r, v in entries:
                col[r] = addmul(col[r], lam_c, v)


def _eval_cols(ring, n, atoms):
    """The columns of P^-1 M P for the product M of ``atoms``."""
    size = 2 * n
    zero, one = ring.zero, ring.one
    cols = [[one if r == c else zero for r in range(size)] for c in range(size)]
    for atom in atoms:
        _apply_terms(ring, cols, atom._terms(ring, n))
    return cols


class Word:
    """An ordered product of generator atoms in Sp_{2n}(R)."""

    __slots__ = ("ring", "n", "atoms")

    def __init__(self, ring, n, atoms=()):
        self.ring = ring
        self.n = n
        self.atoms = tuple(atoms)

    def eval(self):
        ring = self.ring
        cols = _eval_cols(ring, self.n, self.atoms)
        return Matrix._trusted(ring, tuple(map(tuple, _hadamard(ring, cols))))

    def inverse(self):
        return Word(self.ring, self.n, [a._inverse(self.ring) for a in reversed(self.atoms)])

    def concat(self, other):
        return Word(self.ring, self.n, self.atoms + other.atoms)

    def __len__(self):
        return len(self.atoms)

    def __eq__(self, other):
        return isinstance(other, Word) and (self.n, self.atoms) == (other.n, other.atoms)

    def map_params(self, f, target_ring=None):
        """Apply a ring map to every atom parameter."""
        return Word(target_ring or self.ring, self.n, [a._map(f) for a in self.atoms])

    def to_text(self):
        return "".join(a._text(self.ring) + "\n" for a in self.atoms)

    def digest(self):
        return hashlib.sha256(f"n={self.n};{self.to_text()}".encode()).hexdigest()[:16]

    def __repr__(self):
        return f"<word n={self.n} len={len(self.atoms)}>"


def word_from_text(ring, n, text):
    from .rings import parse_element

    atoms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        head = toks[0].upper()
        try:
            if head == "S":
                if len(toks) != 4:
                    raise ParseError("S atom needs: S i j <elem>")
                atoms.append(SAtom(int(toks[1]), int(toks[2]), parse_element(ring, toks[3])))
            elif head in ("E12", "E21"):
                if len(toks) != 2:
                    raise ParseError(f"{head} atom needs one element")
                atoms.append(CornerAtom(head, parse_element(ring, toks[1])))
            elif head in ("A", "B", "C", "D"):
                if len(toks) != 3:
                    raise ParseError(f"{head} atom needs: {head} pos <elem>")
                atoms.append(ABCDAtom(head, int(toks[1]), parse_element(ring, toks[2])))
            elif head in ("UB", "UC"):
                if len(toks) != 3:
                    raise ParseError(f"{head} atom needs: {head} pos <elem>")
                atoms.append(UnitAtom(head[1], int(toks[1]), parse_element(ring, toks[2])))
            elif head == "CORNER":
                if len(toks) != 5:
                    raise ParseError("CORNER atom needs four elements")
                a, b, c, d = (parse_element(ring, t) for t in toks[1:])
                atoms.append(CornerMatrixAtom(((a, b), (c, d))))
            else:
                raise ParseError(f"unknown atom kind {toks[0]!r}")
            atoms[-1]._terms(ring, n)
        except (BadIndices, NonZeroDet) as exc:
            raise ParseError(f"{line}: {exc}", line=lineno) from None
        except ParseError as exc:
            if exc.line is None:
                raise ParseError(str(exc), line=lineno) from None
            raise
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return Word(ring, n, atoms)


def same_value(ring, n, atoms, other):
    """Whether two atom lists evaluate to the same matrix, decided in the
    basis P without converting back: conjugation by P is injective."""
    return _eval_cols(ring, n, atoms) == _eval_cols(ring, n, other)
