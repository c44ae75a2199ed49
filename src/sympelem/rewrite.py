"""Self-checking rewriting of generator words into the four-shape alphabet.

Every rule application verifies, by exact matrix arithmetic on the spliced
segment, that the evaluation is preserved; a failure raises
StepVerificationFailed with the offending rule in the message. The
initial decomposition re-verifies its stage boundary on each segment.
The final certificate records the step trace: the rule name, the replaced
atoms and the atoms that replace them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import AlphabetViolation, StepVerificationFailed
from .identities import (
    corner_unit_atoms,
    form_split_atoms,
    placed_bracket_atoms,
    unit_bracket_atoms,
)
from .symplectic import pi_swap
from .words import ABCDAtom, CornerAtom, CornerMatrixAtom, SAtom, UnitAtom, Word, same_value


def _alphabet_error(ring, what, atom):
    hint = (" (a CORNER atom is accepted only as the one atom of normality-demo --gamma)"
            if isinstance(atom, CornerMatrixAtom) else "")
    return AlphabetViolation(f"{what} {atom._text(ring)!r}{hint}")


def _same(ring, n, rule, before_atoms, after_atoms):
    """Raise unless the two atom lists evaluate to the same matrix. The
    message names the ring and n and gives both sides as word-file lines,
    so the input of a failing step can be replayed."""
    if not same_value(ring, n, before_atoms, after_atoms):
        raise StepVerificationFailed(
            f"rule {rule!r} changed the evaluation over {ring.descriptor()} at n={n}\n"
            f"before:\n{Word(ring, n, before_atoms).to_text()}"
            f"after:\n{Word(ring, n, after_atoms).to_text()}")


def _check(ring, n, rule, before_atoms, after_atoms, trace):
    """Verify one step and append (rule, before atoms, after atoms) to
    the trace, a plain list."""
    _same(ring, n, rule, before_atoms, after_atoms)
    trace.append((rule, before_atoms, after_atoms))


# ---------------------------------------------------------------------------
# one transvection: its correction and its form splits
# ---------------------------------------------------------------------------

def _split(ring, atom):
    """A row-1/2 transvection S_rj(e) as (correction, forms) with
    S = correction * forms.

    S is the graded block of the unit vector (lam, mu) of row r with
    (x, y) = (e, 0) for odd j and (0, e) for even j. With a = (x+y)/2 and
    b = (x-y)/2 it is the correction E12(2ab) (row 1) or E21(-2ab) (row 2)
    times the form_split_atoms of its A-form and its B-form."""
    r, j = atom.i, atom.j
    zero, one = ring.zero, ring.one
    a = ring.half(atom.e)
    b = a if j % 2 else ring.neg(a)
    ab2 = ring.scale_int(2, ring.mul(a, b))
    lam, mu = (one, zero) if r == 1 else (zero, one)
    corr = CornerAtom("E12", ab2) if r == 1 else CornerAtom("E21", ring.neg(ab2))
    pos = (j + 1) // 2
    return corr, (form_split_atoms(ring, "A", lam, mu, a, pos)
                  + form_split_atoms(ring, "B", lam, mu, b, pos))


# ---------------------------------------------------------------------------
# transvections with row >= 3
# ---------------------------------------------------------------------------

def _mirror(ring, atom):
    """S_ij(e) = S_{pi(j) pi(i)}(-(-1)^(i+j) e)."""
    i, j, e = atom.i, atom.j, atom.e
    return SAtom(pi_swap(j), pi_swap(i), ring.neg(e) if (i + j) % 2 == 0 else e)


def _placed_rule(ring, n, atom):
    """S_ij with i, j >= 3 and j not in {i, pi(i)} as 36 shape atoms.

    Of S_ij and its mirror, the one whose row lies in the lower block p is
    a row-1/2 transvection of I_{2(p-1)} perp Sp_{2(n-p+1)}, with column
    block q'. Its _split maps back piece by piece: the correction to three
    units at p (corner_unit_atoms), each shape Z at q' to the 4-atom
    bracket of I_2(p-1) perp E(Z_q') (placed_bracket_atoms), and each
    unit at q' to the bracket of a unit at q = p + q' - 1."""
    rep = atom if atom.i < atom.j else _mirror(ring, atom)
    p = (rep.i + 1) // 2
    off = 2 * (p - 1)
    corr, forms = _split(ring, SAtom(rep.i - off, rep.j - off, rep.e))
    out = [] if ring.is_zero(corr.e) else corner_unit_atoms(ring, n, corr.kind, p, corr.e)
    for f in forms:
        q = p + f.pos - 1
        out += (unit_bracket_atoms(ring, n, f.shape, q, f.e) if isinstance(f, UnitAtom)
                else placed_bracket_atoms(ring, n, f.shape, p, q, f.e))
    return out


def reduce_to_row12(word, trace=None):
    """Rewrite every transvection with row >= 3. S_ij(e) with j <= 2 is
    mirrored to the row-1/2 transvection S_{pi(j) pi(i)}(+-e); any other
    one becomes 36 shape atoms by the placed-subgroup rule."""
    ring, n = word.ring, word.n
    trace = [] if trace is None else trace
    out = []
    for atom in word.atoms:
        if not (isinstance(atom, SAtom) and atom.i >= 3):
            raise _alphabet_error(ring, "not a transvection with row >= 3: atom", atom)
        if atom.j <= 2:
            rep = [_mirror(ring, atom)]
            _check(ring, n, "mirror", [atom], rep, trace)
        else:
            rep = _placed_rule(ring, n, atom)
            _check(ring, n, "placed-subgroup", [atom], rep, trace)
        out.extend(rep)
    return Word(ring, n, out)


# ---------------------------------------------------------------------------
# stage one: a same-row segment into a corner and a body
# ---------------------------------------------------------------------------

@dataclass
class CornerWitness:
    """The corner of a decomposed segment, as a corner transvection word."""
    word: tuple  # CornerAtoms


def _row(atom):
    """The row of a segment atom: a transvection's row, 1 for an E12 and 2
    for an E21 (an E12 fixes every row-1 form, an E21 every row-2 form)."""
    if isinstance(atom, CornerAtom):
        return {"E12": 1, "E21": 2}.get(atom.kind)
    return atom.i if isinstance(atom, SAtom) else None


def _merge_corrections(ring, corrections):
    """The corrections of a same-row segment are all E12 or all E21, so
    they add up to one corner atom, or none when the sum is zero."""
    if not corrections:
        return []
    total = reduce(ring.add, (c.e for c in corrections))
    return [] if ring.is_zero(total) else [CornerAtom(corrections[0].kind, total)]


def decompose_initial(word, trace=None):
    """Split a segment of one row r in {1, 2} as (corner, body over shapes
    and units). The segment holds row-r transvections and the corner
    transvections of that row (_row).

    Each transvection is checked once against its correction followed by
    its form splits (_split). An E12 fixes every row-1 form and an E21
    every row-2 form, so across the segment the corrections and the
    corner atoms move to the front, where they add up to the corner. The
    stage boundary segment = corner * body is checked on the whole
    segment.
    """
    ring, n = word.ring, word.n
    trace = [] if trace is None else trace
    row = _row(word.atoms[0]) if word.atoms else None
    corrections, body = [], []
    for atom in word.atoms:
        if row not in (1, 2) or _row(atom) != row:
            raise _alphabet_error(ring, "outside a same-row segment of rows 1 and 2: atom", atom)
        if isinstance(atom, CornerAtom):
            corrections.append(atom)
            continue
        corr, forms = _split(ring, atom)
        after = forms if ring.is_zero(corr.e) else [corr] + forms
        _check(ring, n, "transvection-split", [atom], after, trace)
        corrections.append(corr)
        body.extend(forms)
    corner = _merge_corrections(ring, corrections)
    _same(ring, n, "stage boundary", list(word.atoms), corner + body)
    return CornerWitness(tuple(corner)), Word(ring, n, body), trace


# ---------------------------------------------------------------------------
# corner elimination
# ---------------------------------------------------------------------------

def corner_to_abcd(ring, n, corner_atoms, trace=None):
    """Rewrite a word of corner transvections into a pure shape word: each
    nonzero one is the 12-atom corner_unit_atoms word at position 1."""
    trace = [] if trace is None else trace
    out = []
    for atom in corner_atoms:
        if not isinstance(atom, CornerAtom):
            raise _alphabet_error(ring, "not a corner transvection: atom", atom)
        if ring.is_zero(atom.e):
            continue
        rep = corner_unit_atoms(ring, n, atom.kind, 1, atom.e)
        _check(ring, n, "corner-to-shapes", [atom], rep, trace)
        out.extend(rep)
    return Word(ring, n, out), trace


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

@dataclass
class DecompositionCertificate:
    input_word: Word
    output_word: Word
    trace: list
    verified: bool

    def summary(self):
        return (f"in={len(self.input_word)} atoms, out={len(self.output_word)} atoms, "
                f"steps={len(self.trace)}, verified={self.verified}")


def _push_shape(ring, n, atoms, a, trace):
    """Append ``a`` to the merged list ``atoms``: a zero shape atom is
    dropped, and one at the last atom's shape and position merges into
    it, the merge checked as ``merge-adjacent``."""
    prev = atoms[-1] if atoms else None
    if not isinstance(a, ABCDAtom):
        atoms.append(a)
    elif ring.is_zero(a.e):
        return
    elif isinstance(prev, ABCDAtom) and (prev.shape, prev.pos) == (a.shape, a.pos):
        merged = prev._map(lambda e: ring.add(e, a.e))
        after = [] if ring.is_zero(merged.e) else [merged]
        _check(ring, n, "merge-adjacent", [prev, a], after, trace)
        atoms[-1:] = after
    else:
        atoms.append(a)


def simplify_shape_word(word, trace=None):
    """Merge adjacent same-shape same-position atoms and drop zeros."""
    trace = [] if trace is None else trace
    atoms = []
    for a in word.atoms:
        _push_shape(word.ring, word.n, atoms, a, trace)
    return Word(word.ring, word.n, atoms), trace


def eliminate_units_inplace(word, trace=None):
    """Replace every placed unit by its 4-atom shape commutator, in place.

    This keeps parameters small (the bracket's parameters live at the
    unit's own position), unlike collecting units across the word.
    """
    ring, n = word.ring, word.n
    trace = [] if trace is None else trace
    out = []
    for a in word.atoms:
        if isinstance(a, ABCDAtom):
            out.append(a)
        elif isinstance(a, UnitAtom):
            if ring.is_zero(a.e):
                continue
            rep = unit_bracket_atoms(ring, n, a.shape, a.pos, a.e)
            _check(ring, n, "unit-to-bracket", [a], rep, trace)
            out.extend(rep)
        else:
            raise _alphabet_error(ring, "outside the shape/unit alphabet: atom", a)
    return Word(ring, n, out), trace


def _convert_segment(ring, n, segment, trace):
    """One same-row segment through the rewrite stages: initial
    decomposition, corner elimination, in-place unit elimination."""
    if not segment:
        return []
    witness, body, _ = decompose_initial(Word(ring, n, segment), trace)
    corner_word, _ = corner_to_abcd(ring, n, witness.word, trace)
    flat, _ = eliminate_units_inplace(body, trace)
    return list(corner_word.atoms) + list(flat.atoms)


def decompose_full(word):
    """Rewrite any generator word into a pure shape word, with a verified
    certificate.

    Transvections with row >= 3 go through reduce_to_row12 first. The
    row-1/2 transvections and the corner atoms are cut into maximal
    same-row segments (_row), each converted on its own, so its
    corrections and corners merge into one corner atom without regrading
    any form; adjacent transvections S_ij merge first. Placed units are
    eliminated where they stand, and shape atoms (e.g. a previous output)
    pass straight through, so the decomposition is idempotent on its
    image. Every step is verified.
    """
    ring, n = word.ring, word.n
    if n < 2:
        raise AlphabetViolation("decomposition needs n >= 2")
    trace = []
    out_atoms = []
    segment = []

    def flush():
        out_atoms.extend(_convert_segment(ring, n, segment, trace))
        segment.clear()

    for atom in word.atoms:
        pieces = (reduce_to_row12(Word(ring, n, [atom]), trace).atoms
                  if isinstance(atom, SAtom) and atom.i >= 3 else (atom,))
        for a in pieces:
            if not isinstance(a, (SAtom, CornerAtom)):
                flush()
                out_atoms.extend(eliminate_units_inplace(Word(ring, n, [a]), trace)[0].atoms)
                continue
            if segment and _row(segment[0]) != _row(a):
                flush()
            prev = segment[-1] if segment else None
            if isinstance(a, SAtom) and isinstance(prev, SAtom) and prev.j == a.j:
                # S_ij(x) S_ij(y) = S_ij(x + y)
                merged = prev._map(lambda e: ring.add(e, a.e))
                _check(ring, n, "merge-adjacent", [prev, a], [merged], trace)
                segment[-1] = merged
            else:
                segment.append(a)
    flush()
    out, _ = simplify_shape_word(Word(ring, n, out_atoms), trace)
    # soundness is the composition of the per-step checks above; the
    # output alphabet is checked outright
    if not all(isinstance(a, ABCDAtom) for a in out.atoms):
        raise StepVerificationFailed("output contains non-shape atoms")
    return DecompositionCertificate(word, out, trace, True)
