"""Self-checking rewriting of generator words into the four-shape alphabet.

Every rule application verifies, by exact matrix arithmetic on the spliced
segment, that the evaluation is preserved; a failure raises
StepVerificationFailed with the offending rule in the message. The
initial decomposition re-verifies its stage boundary on the whole word.
The final certificate records the step trace: the rule name, the replaced
atoms and the atoms that replace them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlphabetViolation, BadIndices, StepVerificationFailed
from .identities import form_split_atoms, unit_bracket_atoms
from .symplectic import pi_swap
from .words import (
    ABCDAtom,
    CornerAtom,
    CornerMatrixAtom,
    SAtom,
    UnitAtom,
    Word,
    _single_terms,
    eval_atoms,
)


def _alphabet_error(ring, what, atom):
    hint = (" (a CORNER atom is accepted only as the one atom of normality-demo --gamma)"
            if isinstance(atom, CornerMatrixAtom) else "")
    return AlphabetViolation(f"{what} {atom._text(ring)!r}{hint}")


def _same(ring, n, rule, before_atoms, after_atoms):
    """Raise unless the two atom lists evaluate to the same matrix. The
    message names the ring and n and gives both sides as word-file lines,
    so the input of a failing step can be replayed."""
    if eval_atoms(ring, n, before_atoms) != eval_atoms(ring, n, after_atoms):
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
# reduction of the full transvection alphabet to rows 1 and 2
# ---------------------------------------------------------------------------

def _bracket_rule(i, j):
    """The commutator rule (g, h, c) for S_ij with 3 <= i, j <= 2n and
    j not in {i, pi(i)}: [g(x), h(y)] = S_ij(c*x*y) with c = +-1, where
    g = S_1a and h = S_2b are row-1/2 transvections given as (row, column).
    It is [S_1a(x), S_2b(y)] = S_{pi(a) b}(+-xy), read through the mirror
    S_ij(e) = S_{pi(j) pi(i)}(+-e) when i > j."""
    c = 1 if i % 2 == 1 else -1
    if i < j:
        return (1, pi_swap(i)), (2, j), c
    return (1, j), (2, pi_swap(i)), c


def reduce_to_row12(word, trace=None):
    """Rewrite transvections with row >= 3 into the row-1/2 alphabet. A
    transvection S_ij(e) with j <= 2 is mirrored to S_{pi(j) pi(i)}; any
    other one becomes the 4-atom bracket of its rule."""
    ring, n = word.ring, word.n
    trace = [] if trace is None else trace
    out = []
    for atom in word.atoms:
        if not (isinstance(atom, SAtom) and atom.i >= 3):
            raise _alphabet_error(ring, "not a transvection with row >= 3: atom", atom)
        i, j, e = atom.i, atom.j, atom.e
        if j <= 2:
            rep = [SAtom(pi_swap(j), pi_swap(i), ring.neg(e) if (i + j) % 2 == 0 else e)]
            _check(ring, n, "mirror", [atom], rep, trace)
        else:
            g, h, c = _bracket_rule(i, j)
            xhat = e if c == 1 else ring.neg(e)
            one = ring.one
            rep = [SAtom(*g, xhat), SAtom(*h, one),
                   SAtom(*g, ring.neg(xhat)), SAtom(*h, ring.neg(one))]
            _check(ring, n, "bracket-rule", [atom], rep, trace)
        out.extend(rep)
    return Word(ring, n, out)


# ---------------------------------------------------------------------------
# stage one: row-1/2 transvections into graded one-block matrices
# ---------------------------------------------------------------------------

@dataclass
class GradedForm:
    """A one-block graded matrix [[lam x, lam y],[mu x, mu y]] at pos,
    evaluable like any atom."""
    lam: object
    mu: object
    x: object
    y: object
    pos: int

    def _terms(self, ring, n):
        """E(X) - I for X = (lam, mu)^t (x, y): X in rows 1-2 and
        W = psi X^t psi = [[-mu y, lam y], [mu x, -lam x]] in the block's rows."""
        if not 2 <= self.pos <= n:
            raise BadIndices(f"position {self.pos} out of 2..{n} for n={n}")
        mul, neg = ring.mul, ring.neg
        lx, ly = mul(self.lam, self.x), mul(self.lam, self.y)
        mx, my = mul(self.mu, self.x), mul(self.mu, self.y)
        b = 2 * (self.pos - 1)
        return _single_terms([(0, b, lx), (0, b + 1, ly), (1, b, mx), (1, b + 1, my),
                              (b, 0, neg(my)), (b, 1, ly), (b + 1, 0, mx), (b + 1, 1, neg(lx))],
                             ring.zero)

    def _text(self, ring):
        return "GRADED " + " ".join(ring.show(v) for v in (self.lam, self.mu, self.x, self.y)) \
            + f" @{self.pos}"


@dataclass
class CornerWitness:
    """The corner of a decomposed run, as a corner transvection word."""
    word: tuple  # CornerAtoms


def _s_to_graded(ring, atom):
    """A row-1/2 transvection is a single graded block with (lam, mu) the
    unit vector of its row."""
    i, j, e = atom.i, atom.j, atom.e
    pos = (j + 1) // 2
    zero, one = ring.zero, ring.one
    lam, mu = (one, zero) if i == 1 else (zero, one)
    if j % 2 == 1:
        return GradedForm(lam, mu, e, zero, pos)
    return GradedForm(lam, mu, zero, e, pos)


def decompose_initial(word, trace=None):
    """Split a row-1/2 transvection run as (corner delta, body over shapes
    and units).

    The run is corner-free: decompose_full cuts its runs at corner atoms,
    and the reduction rules use row-1/2 transvections only. So every block
    is graded by a unit vector (lam, mu), and every correction corner is
    the single transvection E12(2ab) or E21(-2ab). The corner is carried
    as those transvections only, and every check is made on atom words:
    the graded split, each fold of a correction across the pending forms,
    and the stage boundary delta * body = word. The body contains only
    one-block generators and placed units.
    """
    ring, n = word.ring, word.n
    trace = [] if trace is None else trace

    # stage (a): each transvection becomes one graded block
    blocks = []
    for atom in word.atoms:
        if not (isinstance(atom, SAtom) and atom.i in (1, 2) and atom.j >= 3):
            raise _alphabet_error(ring, "outside the row-1/2 transvection alphabet: atom", atom)
        g = _s_to_graded(ring, atom)
        _check(ring, n, "transvection-to-block", [atom], [g], trace)
        blocks.append(g)

    # stage (b): extract corner corrections block by block, then split forms
    delta_word = []
    forms = []  # (kind "A"|"B", lam, mu, val, pos)
    for g in blocks:
        if ring.is_zero(g.x) and ring.is_zero(g.y):
            continue
        a = ring.half(ring.add(g.x, g.y))
        b = ring.half(ring.sub(g.x, g.y))
        ab2 = ring.scale_int(2, ring.mul(a, b))
        if ring.is_zero(ab2):
            ch_word = []
        elif ring.is_zero(g.mu):
            ch_word = [CornerAtom("E12", ab2)]
        else:
            ch_word = [CornerAtom("E21", ring.neg(ab2))]
        # graded = ch * A-form * B-form
        af = GradedForm(g.lam, g.mu, a, a, g.pos)
        bf = GradedForm(g.lam, g.mu, b, ring.neg(b), g.pos)
        _same(ring, n, "graded-split", [g], ch_word + [af, bf])
        trace.append(("graded-split", [g], [af, bf]))
        # fold ch left across the pending forms
        if ch_word:
            ch = ch_word[0]
            ch_inv = ch._inverse(ring)
            top, bottom = eval_atoms(ring, 1, [ch_inv]).rows
            new_forms, regraded = [], []
            for (kind, lam, mu, val, pos) in forms:
                lam2, mu2 = ring.dot(top, (lam, mu)), ring.dot(bottom, (lam, mu))
                y_old = val if kind == "A" else ring.neg(val)
                before = GradedForm(lam, mu, val, y_old, pos)
                after = GradedForm(lam2, mu2, val, y_old, pos)
                _same(ring, n, "correction-fold", [ch_inv, before, ch], [after])
                new_forms.append((kind, lam2, mu2, val, pos))
                regraded.append(after)
            trace.append(("correction-fold", ch_word, regraded))
            forms = new_forms
            delta_word.extend(ch_word)
        if not ring.is_zero(a):
            forms.append(("A", g.lam, g.mu, a, g.pos))
        if not ring.is_zero(b):
            forms.append(("B", g.lam, g.mu, b, g.pos))

    # stage (b2): split each form into pure shapes and a unit
    body = []
    for (kind, lam, mu, val, pos) in forms:
        before = GradedForm(lam, mu, val, val if kind == "A" else ring.neg(val), pos)
        atoms = form_split_atoms(ring, kind, lam, mu, val, pos)
        _check(ring, n, "form-split", [before], atoms, trace)
        body.extend(atoms)

    _same(ring, n, "stage boundary", delta_word + body, word.atoms)
    return CornerWitness(tuple(delta_word)), Word(ring, n, body), trace


# ---------------------------------------------------------------------------
# corner elimination
# ---------------------------------------------------------------------------

def corner_to_abcd(ring, n, corner_atoms, trace=None):
    """Rewrite a word of corner transvections into a pure shape word.

    Each corner transvection is a product of three corner units (placed
    units at position 1), each the 4-atom bracket of unit_bracket_atoms:

        E12(x) = U_C(1/2) U_B(-x/4) U_C(-1/2),
        E21(x) = U_B(-1/2) U_C(-x/4) U_B(1/2),

    so it costs 12 shape atoms.
    """
    trace = [] if trace is None else trace
    out = []
    half = ring.inv2
    for atom in corner_atoms:
        if not isinstance(atom, CornerAtom):
            raise _alphabet_error(ring, "not a corner transvection: atom", atom)
        if ring.is_zero(atom.e):
            continue
        outer, inner, u = ("C", "B", half) if atom.kind == "E12" else ("B", "C", ring.neg(half))
        v = ring.neg(ring.mul(atom.e, ring.mul(half, half)))  # -x/4
        rep = (unit_bracket_atoms(ring, n, outer, 1, u)
               + unit_bracket_atoms(ring, n, inner, 1, v)
               + unit_bracket_atoms(ring, n, outer, 1, ring.neg(u)))
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


def simplify_shape_word(word, trace=None):
    """Merge adjacent same-shape same-position atoms and drop zeros."""
    ring, n = word.ring, word.n
    trace = [] if trace is None else trace
    atoms = []
    for a in word.atoms:
        if isinstance(a, ABCDAtom) and ring.is_zero(a.e):
            continue
        if atoms and isinstance(a, ABCDAtom) and isinstance(atoms[-1], ABCDAtom) \
                and atoms[-1].shape == a.shape and atoms[-1].pos == a.pos:
            prev = atoms.pop()
            merged = ABCDAtom(a.shape, a.pos, ring.add(prev.e, a.e))
            _check(ring, n, "merge-adjacent", [prev, a],
                   [merged] if not ring.is_zero(merged.e) else [], trace)
            if not ring.is_zero(merged.e):
                atoms.append(merged)
        else:
            atoms.append(a)
    return Word(ring, n, atoms), trace


def merge_corner_atoms(ring, atoms, trace=None):
    """Peephole on a corner word: drop zeros, merge adjacent same-kind
    transvections (their parameters add), cancel trivial results."""
    trace = [] if trace is None else trace
    out = []
    for a in atoms:
        if ring.is_zero(a.e):
            continue
        if out and out[-1].kind == a.kind:
            prev = out.pop()
            merged = CornerAtom(a.kind, ring.add(prev.e, a.e))
            rep = [] if ring.is_zero(merged.e) else [merged]
            _check(ring, 1, "corner-merge", [prev, a], rep, trace)
            out.extend(rep)
        else:
            out.append(a)
    return out


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


def _convert_segment(ring, n, s_atoms, trace):
    """One row-1/2 transvection run through the rewrite stages: initial
    decomposition, in-place unit elimination, corner elimination. The run
    is corner-free, because decompose_full cuts runs at corner atoms and
    the reduction rules emit no corners; so every correction factor is a
    single transvection, and nothing here inflates parameters."""
    if not s_atoms:
        return []
    witness, body, _ = decompose_initial(Word(ring, n, s_atoms), trace)
    delta_atoms = merge_corner_atoms(ring, list(witness.word), trace)
    corner_word, _ = corner_to_abcd(ring, n, delta_atoms, trace)
    flat, _ = eliminate_units_inplace(body, trace)
    return list(corner_word.atoms) + list(flat.atoms)


def decompose_full(word):
    """Rewrite any generator word into a pure shape word, with a verified
    certificate.

    Corner atoms are eliminated where they stand, and each corner-free
    run of transvections between them is converted on its own. Folding
    the corners leftward through the whole word instead would regrade
    every later block, so the correction factors would carry conjugated
    corner words and inflate the output; converting run by run keeps
    every correction a single transvection. Every step is verified.
    """
    ring, n = word.ring, word.n
    if n < 2:
        raise AlphabetViolation("decomposition needs n >= 2")
    trace = []
    out_atoms = []
    run = []
    for atom in word.atoms:
        if isinstance(atom, SAtom) and atom.i in (1, 2):
            run.append(atom)
            continue
        if isinstance(atom, SAtom):
            run.extend(reduce_to_row12(Word(ring, n, [atom]), trace).atoms)
            continue
        out_atoms.extend(_convert_segment(ring, n, run, trace))
        run = []
        if isinstance(atom, CornerAtom):
            done, _ = corner_to_abcd(ring, n, [atom], trace)
        else:
            # placed units become brackets and shape atoms (e.g. a previous
            # output) pass straight through, so the decomposition is
            # idempotent on its image
            done, _ = eliminate_units_inplace(Word(ring, n, [atom]), trace)
        out_atoms.extend(done.atoms)
    out_atoms.extend(_convert_segment(ring, n, run, trace))
    out, _ = simplify_shape_word(Word(ring, n, out_atoms), trace)
    # soundness is the composition of the per-step checks above; the
    # output alphabet is checked outright
    if not all(isinstance(a, ABCDAtom) for a in out.atoms):
        raise StepVerificationFailed("output contains non-shape atoms")
    return DecompositionCertificate(word, out, trace, True)
