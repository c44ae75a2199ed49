"""Words over the generator alphabet and their evaluation.

Atoms are immutable and hashable; the matrix of an atom is memoized on
the ring object, which makes the step-by-step verification done by the
rewriting engine cheap.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import NonZeroDet, ParseError
from .matrices import Matrix
from .symplectic import (
    gen_abcd,
    gen_corner,
    gen_s,
    gen_small,
    placed_abcd,
    symp_inverse,
)


@dataclass(frozen=True)
class SAtom:
    i: int
    j: int
    e: object


@dataclass(frozen=True)
class CornerAtom:
    kind: str  # E12 | E21
    e: object


@dataclass(frozen=True)
class ABCDAtom:
    shape: str  # A | B | C | D
    pos: int
    e: object


@dataclass(frozen=True)
class UnitAtom:
    shape: str  # B | C
    pos: int
    e: object


@dataclass(frozen=True)
class CornerMatrixAtom:
    rows: tuple  # ((a,b),(c,d)), det 1


@dataclass(frozen=True)
class PlacedAtom:
    """I_{2 offset} perp E(shape_pos)(e) perp I: a block generator of a
    smaller symplectic group sitting below the leading corner."""

    offset: int
    shape: str
    pos: int
    e: object


@dataclass(frozen=True)
class DenseAtom:
    rows: tuple  # full 2n x 2n entries; must be symplectic


def atom_matrix(ring, n, atom):
    cache = getattr(ring, "_atom_cache", None)
    if cache is None:
        cache = {}
        ring._atom_cache = cache
    key = (n, atom)
    hit = cache.get(key)
    if hit is not None:
        return hit
    M = _atom_matrix(ring, n, atom)
    cache[key] = M
    return M


def _atom_matrix(ring, n, atom):
    if isinstance(atom, SAtom):
        return gen_s(ring, n, atom.i, atom.j, atom.e)
    if isinstance(atom, CornerAtom):
        return gen_corner(ring, n, atom.kind, atom.e)
    if isinstance(atom, ABCDAtom):
        return gen_abcd(ring, n, atom.shape, atom.pos, atom.e)
    if isinstance(atom, UnitAtom):
        return gen_small(ring, n, atom.shape, atom.pos, atom.e)
    if isinstance(atom, CornerMatrixAtom):
        blk = Matrix(ring, atom.rows)
        if not ring.is_one(blk.det2()):
            raise NonZeroDet("corner block must have determinant 1")
        return blk.perp(Matrix.identity(ring, 2 * n - 2))
    if isinstance(atom, PlacedAtom):
        return placed_abcd(ring, n, atom.offset, atom.shape, atom.pos, atom.e)
    if isinstance(atom, DenseAtom):
        return Matrix(ring, atom.rows)
    raise TypeError(f"not an atom: {atom!r}")


def atom_inverse(ring, n, atom):
    if isinstance(atom, SAtom):
        return SAtom(atom.i, atom.j, ring.neg(atom.e))
    if isinstance(atom, CornerAtom):
        return CornerAtom(atom.kind, ring.neg(atom.e))
    if isinstance(atom, ABCDAtom):
        return ABCDAtom(atom.shape, atom.pos, ring.neg(atom.e))
    if isinstance(atom, UnitAtom):
        return UnitAtom(atom.shape, atom.pos, ring.neg(atom.e))
    if isinstance(atom, CornerMatrixAtom):
        return CornerMatrixAtom(Matrix(ring, atom.rows).adj2().rows)
    if isinstance(atom, PlacedAtom):
        return PlacedAtom(atom.offset, atom.shape, atom.pos, ring.neg(atom.e))
    if isinstance(atom, DenseAtom):
        return DenseAtom(symp_inverse(Matrix(ring, atom.rows)).rows)
    raise TypeError(f"not an atom: {atom!r}")


class Word:
    """An ordered product of generator atoms in Sp_{2n}(R)."""

    __slots__ = ("ring", "n", "atoms")

    def __init__(self, ring, n, atoms=()):
        self.ring = ring
        self.n = n
        self.atoms = tuple(atoms)

    def eval(self):
        M = Matrix.identity(self.ring, 2 * self.n)
        for a in self.atoms:
            M = M.mul(atom_matrix(self.ring, self.n, a))
        return M

    def inverse(self):
        inv = [atom_inverse(self.ring, self.n, a) for a in reversed(self.atoms)]
        return Word(self.ring, self.n, inv)

    def concat(self, other):
        return Word(self.ring, self.n, self.atoms + other.atoms)

    def __mul__(self, other):
        return self.concat(other)

    def __len__(self):
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __eq__(self, other):
        return isinstance(other, Word) and (self.n, self.atoms) == (other.n, other.atoms)

    def map_params(self, f, target_ring=None, target_n=None):
        """Apply a ring map to every atom parameter."""
        ring = target_ring or self.ring
        out = []
        for a in self.atoms:
            if isinstance(a, SAtom):
                out.append(SAtom(a.i, a.j, f(a.e)))
            elif isinstance(a, CornerAtom):
                out.append(CornerAtom(a.kind, f(a.e)))
            elif isinstance(a, ABCDAtom):
                out.append(ABCDAtom(a.shape, a.pos, f(a.e)))
            elif isinstance(a, UnitAtom):
                out.append(UnitAtom(a.shape, a.pos, f(a.e)))
            elif isinstance(a, CornerMatrixAtom):
                out.append(CornerMatrixAtom(tuple(tuple(f(v) for v in r) for r in a.rows)))
            elif isinstance(a, PlacedAtom):
                out.append(PlacedAtom(a.offset, a.shape, a.pos, f(a.e)))
            elif isinstance(a, DenseAtom):
                out.append(DenseAtom(tuple(tuple(f(v) for v in r) for r in a.rows)))
            else:
                raise TypeError(f"not an atom: {a!r}")
        return Word(ring, target_n or self.n, out)

    def to_text(self):
        return "\n".join(atom_to_text(self.ring, a) for a in self.atoms) + ("\n" if self.atoms else "")

    def digest(self):
        h = hashlib.sha256()
        h.update(f"n={self.n};".encode())
        for a in self.atoms:
            h.update(atom_to_text(self.ring, a).encode())
            h.update(b"\n")
        return h.hexdigest()[:16]

    def __repr__(self):
        return f"<word n={self.n} len={len(self.atoms)}>"


def _fmt(ring, e):
    return ring.show(e).replace(" ", "")


def atom_to_text(ring, atom):
    if isinstance(atom, SAtom):
        return f"S {atom.i} {atom.j} {_fmt(ring, atom.e)}"
    if isinstance(atom, CornerAtom):
        return f"{atom.kind} {_fmt(ring, atom.e)}"
    if isinstance(atom, ABCDAtom):
        return f"{atom.shape} {atom.pos} {_fmt(ring, atom.e)}"
    if isinstance(atom, UnitAtom):
        return f"U{atom.shape} {atom.pos} {_fmt(ring, atom.e)}"
    if isinstance(atom, CornerMatrixAtom):
        (a, b), (c, d) = atom.rows
        return "CORNER " + " ".join(_fmt(ring, v) for v in (a, b, c, d))
    if isinstance(atom, PlacedAtom):
        return f"PLACED {atom.offset} {atom.shape} {atom.pos} {_fmt(ring, atom.e)}"
    if isinstance(atom, DenseAtom):
        flat = [v for r in atom.rows for v in r]
        return "DENSE " + " ".join(_fmt(ring, v) for v in flat)
    raise TypeError(f"not an atom: {atom!r}")


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
        except ParseError as exc:
            if exc.line is None:
                raise ParseError(str(exc), line=lineno) from None
            raise
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return Word(ring, n, atoms)


def eval_atoms(ring, n, atoms):
    M = Matrix.identity(ring, 2 * n)
    for a in atoms:
        M = M.mul(atom_matrix(ring, n, a))
    return M
