"""Closed-form identities between generator products, each with two sides.

Every constructor returns an IdentityInstance whose two sides are built
through independent routes, so instance verification is a real check,
not a tautology. The left side is the product the identity starts from:
a word of generator atoms for the commutator families and the det-1
conjugation, a dense graded block or product for the others. The right
side is the tabulated closed form; where the rewriting and normality code
emit it as atoms (the form splits, the graded split, the det-1
conjugation), it is that very atom list, built by the same function. The
commutator tables are the package's own corrected versions; each entry is
validated against its bracket word by the test suite and the
verify-tables command, whose atom-terms items check the word evaluator
against the dense generators in the same run. Every closed form is one
table row, read by one builder per family.

Bracket convention throughout: [g, h] = g h g^-1 h^-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .errors import BadIndices, RowConditionFailed
from .matrices import Matrix
from .symplectic import (
    corner_embed,
    gen_abcd,
    gen_corner,
    gen_s,
    gen_small,
    graded_block,
    placed_abcd,
    shape_matrix,
    symp_inverse,
)
from .words import ABCDAtom, CornerMatrixAtom, UnitAtom, Word, same_value


@dataclass
class IdentityInstance:
    """A side is a Matrix, a Word or a tuple of matrices. Two Words are
    compared in the evaluator's basis; otherwise a Word side is evaluated
    once and the matrices are compared."""
    ring: object
    n: int
    lhs: object
    rhs: object
    bindings: dict = field(default_factory=dict)

    def holds(self):
        lhs, rhs = self.lhs, self.rhs
        if isinstance(lhs, Word) and isinstance(rhs, Word):
            return same_value(self.ring, self.n, lhs.atoms, rhs.atoms)
        value = lambda side: side.eval() if isinstance(side, Word) else side
        return value(lhs) == value(rhs)

    def bindings_str(self):
        return ", ".join(f"{k}={self.ring.show(v)}" for k, v in self.bindings.items())


def bracket_atoms(ring, g, h):
    """The word [g, h] = g h g^-1 h^-1 of two atom lists."""
    inv = lambda w: [a._inverse(ring) for a in reversed(w)]
    return [*g, *h, *inv(g), *inv(h)]


# ---------------------------------------------------------------------------
# corner correction and the form splits of the graded split
# ---------------------------------------------------------------------------

def corner_correction(ring, lam, mu, a, b):
    """2x2 matrix [[1-2*lam*mu*ab, 2*lam^2*ab], [-2*mu^2*ab, 1+2*lam*mu*ab]]."""
    ab2 = ring.scale_int(2, ring.mul(a, b))
    lm = ring.mul(lam, mu)
    one = ring.one
    return Matrix(ring, [
        (ring.sub(one, ring.mul(lm, ab2)), ring.mul(ring.mul(lam, lam), ab2)),
        (ring.neg(ring.mul(ring.mul(mu, mu), ab2)), ring.add(one, ring.mul(lm, ab2))),
    ])


# form kind -> (x shape, y shape, unit shape, +-1): graded(lam,mu;val,+-val)
# = E(X(x)) E(Y(y)) (I+U(unit)), x = (lam+mu)val/2, y = +-(lam-mu)val/2
_FORM_SPLIT = {"A": ("A", "C", "C", 1), "B": ("B", "D", "B", -1)}


def split_form(ring, kind, lam, mu, val):
    """Parameters (x, y, unit) of the _FORM_SPLIT row of kind "A" or "B"."""
    sgn = _FORM_SPLIT[kind][3]
    x = ring.half(ring.mul(ring.add(lam, mu), val))
    y = ring.half(ring.mul(ring.sub(lam, mu) if sgn > 0 else ring.sub(mu, lam), val))
    return x, y, ring.scale_int(2, ring.mul(x, y))


def form_split_atoms(ring, kind, lam, mu, val, pos):
    """The nonzero atoms of the form split of graded(lam,mu;val,+-val)."""
    sx, sy, su, _ = _FORM_SPLIT[kind]
    x, y, up = split_form(ring, kind, lam, mu, val)
    atoms = [ABCDAtom(sx, pos, x), ABCDAtom(sy, pos, y), UnitAtom(su, pos, up)]
    return [a for a in atoms if not ring.is_zero(a.e)]


# ---------------------------------------------------------------------------
# conjugation data for det-1 corners acting on block generators
# ---------------------------------------------------------------------------

# shape -> (sign on delta's first column, sign on its second column, form
# kind of both graded factors, unit shape, sign on x^2)
_DET1_CONJ = {"A": (1, 1, "A", "C", -1), "B": (1, 1, "B", "B", 1),
              "C": (1, -1, "A", "C", 1), "D": (-1, 1, "B", "B", -1)}


def conj_abcd_atom(ring, delta_rows, atom):
    """Atoms for (delta perp I) E(shape_i)(x) (delta perp I)^-1, det delta = 1:
    the form splits of two graded one-block factors, graded(p, r; x, +-x)
    and graded(q, s; x, +-x) up to the signs of the _DET1_CONJ row, then a
    unit at i. The units stay ``UnitAtom``s; a caller that needs shape
    atoms expands them with ``rewrite.eliminate_units_inplace``."""
    if atom.shape not in _DET1_CONJ:
        raise BadIndices(f"unknown shape {atom.shape!r}")
    c1, c2, kind, ush, cu = _DET1_CONJ[atom.shape]
    (p, q), (r, s) = delta_rows
    sgn = {1: (lambda v: v), -1: ring.neg}
    x, i = atom.e, atom.pos
    out = form_split_atoms(ring, kind, sgn[c1](p), sgn[c1](r), x, i) \
        + form_split_atoms(ring, kind, sgn[c2](q), sgn[c2](s), x, i)
    uparam = sgn[cu](ring.mul(x, x))
    if not ring.is_zero(uparam):
        out.append(UnitAtom(ush, i, uparam))
    return out


# ---------------------------------------------------------------------------
# commutator table for pairs of block generators
# ---------------------------------------------------------------------------

# same-position pairs whose bracket is a unit: (X, Y) -> (unit shape, pos
# tag "1" for a corner unit or "i" for the shared position, +-4 on x y)
_UNIT_BRACKET = {("A", "B"): ("B", "1", 4), ("B", "A"): ("B", "1", -4),
                 ("C", "D"): ("C", "1", 4), ("D", "C"): ("C", "1", -4),
                 ("A", "C"): ("C", "i", -4), ("C", "A"): ("C", "i", 4),
                 ("B", "D"): ("B", "i", -4), ("D", "B"): ("B", "i", 4)}
# crossing pairs: the blocks (TL, TR, BL, BR) of the bracket at the block
# pair (1, i), each a sum of (shape, integer coefficients on xy, x^2y, xy^2,
# x^2y^2) terms, plus I_2 on TL and BR
_DIAG_P = (("A", (2, 0, 0, 8)), ("D", (2, 0, 0, 0)))
_DIAG_M = (("A", (-2, 0, 0, 0)), ("D", (-2, 0, 0, -8)))
_XY2, _X2Y = (0, 0, 4, 0), (0, -4, 0, 0)
_CROSSING = {
    ("A", "D"): (_DIAG_P, (("D", _XY2), ("A", _X2Y)), (("A", _XY2), ("D", _X2Y)), _DIAG_M),
    ("D", "A"): (_DIAG_M, (("A", _XY2), ("D", _X2Y)), (("D", _XY2), ("A", _X2Y)), _DIAG_P),
    ("B", "C"): (_DIAG_P, (("C", _XY2), ("B", _X2Y)), (("C", _XY2), ("B", _X2Y)), _DIAG_P),
    ("C", "B"): (_DIAG_M, (("B", _XY2), ("C", _X2Y)), (("B", _XY2), ("C", _X2Y)), _DIAG_M)}
# different-position pairs: (X, Y) -> (shape for i<j, shape for i>j, +-2);
# the pairs absent here commute at different positions
_PLACED = {("A", "C"): ("C", "C", -2), ("C", "A"): ("C", "C", 2),
           ("B", "D"): ("B", "B", -2), ("D", "B"): ("B", "B", 2),
           ("A", "D"): ("D", "A", -2), ("D", "A"): ("A", "D", 2),
           ("B", "C"): ("A", "D", 2), ("C", "B"): ("D", "A", -2)}


def tag_pos(tag, i):
    """The position a table's tag "1" or "i" names."""
    return 1 if tag == "1" else i


def commutes(X, i, Y, j):
    """Whether E(X_i)(x) and E(Y_j)(y) commute for every x, y: the pair
    is in no table of its positions."""
    if i == j:
        return (X, Y) not in _UNIT_BRACKET and (X, Y) not in _CROSSING
    return (X, Y) not in _PLACED


def bracket_unit(ring, X, i, x, Y, y):
    """The unit [E(X_i)(x), E(Y_i)(y)] of a same-position pair of
    _UNIT_BRACKET."""
    sh, tag, c = _UNIT_BRACKET[(X, Y)]
    return UnitAtom(sh, tag_pos(tag, i), ring.scale_int(c, ring.mul(x, y)))


def commutator_entry_key(X, Y, i, j):
    rel = "eq" if i == j else ("lt" if i < j else "gt")
    return f"commutator:{X}{Y}:{rel}"


def commutator_matrix(ring, n, X, i, x, Y, j, y):
    """Closed form of [E(X_i)(x), E(Y_j)(y)]: the table row's right side
    as a matrix."""
    if not (2 <= i <= n and 2 <= j <= n):
        raise BadIndices("positions must lie in 2..n")
    if commutes(X, i, Y, j):
        return Matrix.identity(ring, 2 * n)
    if i == j and (X, Y) in _UNIT_BRACKET:
        u = bracket_unit(ring, X, i, x, Y, y)
        return gen_small(ring, n, u.shape, u.pos, u.e)
    if i == j:
        return crossing_commutator_matrix(ring, n, X, i, x, Y, y)
    sh_lt, sh_gt, c = _PLACED[(X, Y)]
    return placed_abcd(ring, n, min(i, j) - 1, sh_lt if i < j else sh_gt, abs(i - j) + 1,
                       ring.scale_int(c, ring.mul(x, y)))


def crossing_commutator_matrix(ring, n, X, i, x, Y, y):
    """The dense closed form of [E(X_i)(x), E(Y_i)(y)] for the four
    crossing pairs, embedded at the block pair (1, i)."""
    if (X, Y) not in _CROSSING:
        raise BadIndices(f"({X},{Y}) has a shorter closed form")
    xy = ring.mul(x, y)
    monomials = (xy, ring.mul(xy, x), ring.mul(xy, y), ring.mul(xy, xy))
    r1 = 2 * (i - 1)
    M = Matrix.identity(ring, 2 * n)
    for (r, c), terms in zip(((0, 0), (0, r1), (r1, 0), (r1, r1)), _CROSSING[(X, Y)]):
        block = Matrix.identity(ring, 2) if r == c else Matrix.zero(ring, 2, 2)
        for sh, coeffs in terms:
            v = reduce(ring.add, (ring.scale_int(k, m) for k, m in zip(coeffs, monomials) if k))
            block = block.add(shape_matrix(ring, sh, v))
        M = M.paste(r, c, block)
    return M


def commutator_instance(ring, n, X, i, x, Y, j, y, corrupt=None):
    """The bracket word against its closed form. When ``corrupt`` names
    this entry (the fault-injection control of verify-tables), the closed
    form is read times E(X_i)(1), which changes it for every binding."""
    lhs = Word(ring, n, bracket_atoms(ring, [ABCDAtom(X, i, x)], [ABCDAtom(Y, j, y)]))
    rhs = commutator_matrix(ring, n, X, i, x, Y, j, y)
    if corrupt == commutator_entry_key(X, Y, i, j):
        rhs = rhs.mul(gen_abcd(ring, n, X, i, ring.one))
    return IdentityInstance(ring, n, lhs, rhs, {"x": x, "y": y})


# ---------------------------------------------------------------------------
# commutator table for a block generator against a placed unit
# ---------------------------------------------------------------------------

# (X, Y, rel) -> (unit shape, unit pos tag, +-4 on x^2 y, shape at i, +-2 on
# x y), with rel "j1" for a corner unit and "eq" for a unit at the
# generator's position; absent pairs commute
_UNIT_COMMUTATOR = {
    ("A", "B", "eq"): ("B", "1", 4, "B", 2), ("A", "C", "j1"): ("C", "i", 4, "C", -2),
    ("B", "C", "j1"): ("B", "i", -4, "D", 2), ("B", "C", "eq"): ("B", "1", -4, "A", 2),
    ("C", "B", "j1"): ("C", "i", -4, "A", -2), ("C", "B", "eq"): ("C", "1", -4, "D", -2),
    ("D", "B", "j1"): ("B", "i", 4, "B", 2), ("D", "C", "eq"): ("C", "1", 4, "C", -2),
}


def unit_rel(i, j):
    """The _UNIT_COMMUTATOR rel of a generator at i against a unit at j."""
    return "j1" if j == 1 else ("eq" if i == j else "other")


def corrupt_keys(n_values):
    """The fault-injection keys, one per table entry that some n in
    ``n_values`` builds an item for: lt and gt need n >= 3."""
    keys = {f"commutator:{X}{Y}:eq" for X, Y in (*_UNIT_BRACKET, *_CROSSING)}
    if max(n_values) >= 3:
        keys |= {f"commutator:{X}{Y}:{rel}" for X, Y in _PLACED for rel in ("lt", "gt")}
    return keys | {f"unit:{X}{Y}:{rel}" for X, Y, rel in _UNIT_COMMUTATOR}


def unit_commutator_word(ring, n, X, i, x, Y, j, y):
    """Closed form of [E(X_i)(x), I perp (I_2 + Y(y)) perp I] as a word."""
    if not (2 <= i <= n):
        raise BadIndices("generator position must lie in 2..n")
    if not (1 <= j <= n):
        raise BadIndices("unit position must lie in 1..n")
    if Y not in ("B", "C"):
        raise BadIndices("unit shapes are B and C")
    if (X, Y, unit_rel(i, j)) not in _UNIT_COMMUTATOR:
        return Word(ring, n, [])
    ush, utag, uc, esh, ec = _UNIT_COMMUTATOR[(X, Y, unit_rel(i, j))]
    xy = ring.mul(x, y)
    return Word(ring, n, [UnitAtom(ush, tag_pos(utag, i), ring.scale_int(uc, ring.mul(xy, x))),
                          ABCDAtom(esh, i, ring.scale_int(ec, xy))])


def unit_commutator_instance(ring, n, X, i, x, Y, j, y, corrupt=None):
    """The bracket word against its closed form, read times E(X_i)(1)
    when ``corrupt`` names this entry."""
    lhs = Word(ring, n, bracket_atoms(ring, [ABCDAtom(X, i, x)], [UnitAtom(Y, j, y)]))
    rhs = unit_commutator_word(ring, n, X, i, x, Y, j, y)
    if corrupt == f"unit:{X}{Y}:{unit_rel(i, j)}":
        rhs = rhs.concat(Word(ring, n, [ABCDAtom(X, i, ring.one)]))
    return IdentityInstance(ring, n, lhs, rhs, {"x": x, "y": y})


# ---------------------------------------------------------------------------
# named identity instances
# ---------------------------------------------------------------------------

def corner_conjugation(ring, n, lam, x, y):
    """E21(lam) S_{1,2n-1}(x) S_{1,2n}(y) E21(-lam) against its block form."""
    if n < 2:
        raise BadIndices("needs n >= 2")
    lhs = gen_corner(ring, n, "E21", lam) \
        .mul(gen_s(ring, n, 1, 2 * n - 1, x)) \
        .mul(gen_s(ring, n, 1, 2 * n, y)) \
        .mul(gen_corner(ring, n, "E21", ring.neg(lam)))
    e21 = Matrix(ring, [(ring.one, ring.zero), (lam, ring.one)])
    e12 = Matrix(ring, [(ring.one, ring.mul(x, y)), (ring.zero, ring.one)])
    delta = e21.mul(e12).mul(e21.adj2())
    rhs = corner_embed(delta, n).mul(graded_block(ring, n, ring.one, lam, x, y, n))
    return IdentityInstance(ring, n, lhs, rhs, {"lam": lam, "x": x, "y": y})


def elementary_criterion(ring, n, k, eps, x, y):
    """Graded block at position k as a conjugated transvection product,
    with (lam, mu) the first column of the det-1 witness eps."""
    if not ring.is_one(eps.det2()):
        raise RowConditionFailed("witness must have determinant 1")
    lam, mu = eps.rows[0][0], eps.rows[1][0]
    lhs = graded_block(ring, n, lam, mu, x, y, k)
    core = gen_corner(ring, n, "E12", ring.neg(ring.mul(x, y))) \
        .mul(gen_s(ring, n, 1, 2 * k - 1, x)) \
        .mul(gen_s(ring, n, 1, 2 * k, y))
    emb = corner_embed(eps, n)
    rhs = emb.mul(core).mul(symp_inverse(emb))
    return IdentityInstance(ring, n, lhs, rhs, {"lam": lam, "mu": mu, "x": x, "y": y})


def row_conjugation(ring, n, delta, ys):
    """Conjugating a full first-row transvection run by a det-1 corner."""
    if len(ys) != 2 * n - 2:
        raise BadIndices(f"need {2*n - 2} parameters y_3..y_{2*n}")
    emb = corner_embed(delta, n)
    lhs = emb
    for idx, i in enumerate(range(3, 2 * n + 1)):
        lhs = lhs.mul(gen_s(ring, n, 1, i, ys[idx]))
    lhs = lhs.mul(symp_inverse(emb))
    lam, mu = delta.rows[0][0], delta.rows[1][0]
    pair_sum = ring.zero
    for t in range(n - 1):
        pair_sum = ring.add(pair_sum, ring.mul(ys[2 * t], ys[2 * t + 1]))
    e12 = Matrix(ring, [(ring.one, pair_sum), (ring.zero, ring.one)])
    sigma = delta.mul(e12).mul(delta.adj2())
    rhs = corner_embed(sigma, n)
    for i in range(2, n + 1):
        rhs = rhs.mul(graded_block(ring, n, lam, mu, ys[2 * (i - 2)], ys[2 * (i - 2) + 1], i))
    return IdentityInstance(ring, n, lhs, rhs, {f"y{i + 3}": v for i, v in enumerate(ys)})


def graded_split(ring, n, k, lam, mu, x, y):
    """Graded block = corner correction * A-form split * B-form split,
    the atoms the transvection split of ``rewrite`` emits."""
    a = ring.half(ring.add(x, y))
    b = ring.half(ring.sub(x, y))
    lhs = graded_block(ring, n, lam, mu, x, y, k)
    rhs = Word(ring, n, [CornerMatrixAtom(corner_correction(ring, lam, mu, a, b).rows)]
               + form_split_atoms(ring, "A", lam, mu, a, k)
               + form_split_atoms(ring, "B", lam, mu, b, k))
    return IdentityInstance(ring, n, lhs, rhs, {"lam": lam, "mu": mu, "x": x, "y": y})


def form_split(ring, n, k, kind, lam, mu, val):
    """graded(lam,mu;val,+-val) against its form_split_atoms, kind "A" or "B"."""
    y = val if _FORM_SPLIT[kind][3] > 0 else ring.neg(val)
    lhs = graded_block(ring, n, lam, mu, val, y, k)
    rhs = Word(ring, n, form_split_atoms(ring, kind, lam, mu, val, k))
    return IdentityInstance(ring, n, lhs, rhs, {"lam": lam, "mu": mu, kind.lower(): val})


def block_conjugation(ring, n, k, delta, lam, mu, x, y):
    """Conjugating a graded block by a det-1 corner regrades (lam, mu)."""
    emb = corner_embed(delta, n)
    lhs = emb.mul(graded_block(ring, n, lam, mu, x, y, k)).mul(symp_inverse(emb))
    (a, b), (c, d) = delta.rows
    lam2 = ring.add(ring.mul(lam, a), ring.mul(mu, b))
    mu2 = ring.add(ring.mul(c, lam), ring.mul(mu, d))
    rhs = graded_block(ring, n, lam2, mu2, x, y, k)
    return IdentityInstance(ring, n, lhs, rhs, {"lam": lam, "mu": mu, "x": x, "y": y})


def det1_conjugation(ring, n, delta, shape, i, x):
    """The word CORNER delta, E(shape_i)(x), CORNER adj delta against its
    conj_abcd_atom atoms."""
    atom = ABCDAtom(shape, i, x)
    lhs = Word(ring, n, [CornerMatrixAtom(delta.rows), atom, CornerMatrixAtom(delta.adj2().rows)])
    rhs = Word(ring, n, conj_abcd_atom(ring, delta.rows, atom))
    return IdentityInstance(ring, n, lhs, rhs, {"x": x})


# ---------------------------------------------------------------------------
# composite commutator identities
# ---------------------------------------------------------------------------

# For each crossing pair (X, Y): E(Y_i)(2yz) = y_g * [z_g, w_g] with
#   y_g a placed unit, z_g a block generator, w_g a placed unit.
# Entries: (unit shape, unit pos tag, unit coeff on y^2 z), (z shape, z sign on y),
#          (w unit shape, w pos tag, w sign on z); pos tag "1" or "i".
_COMPOSITE = {
    ("A", "D"): (("C", "1", 4), ("C", -1), ("B", "i", 1)),
    ("B", "C"): (("C", "i", 4), ("A", 1), ("C", "1", -1)),
    ("D", "A"): (("B", "1", 4), ("B", 1), ("C", "i", 1)),
    ("C", "B"): (("B", "1", -4), ("A", 1), ("B", "i", 1)),
}
# the four crossing pairs, in the order verify-tables lists their items
CROSSING_PAIRS = tuple(_COMPOSITE)


def composite_pieces(ring, n, X, Y, i, y, z):
    """The atoms (y_g, z_g, w_g) of the _COMPOSITE row (X, Y) at i."""
    (ush, upos, uc), (zsh, zsgn), (wsh, wpos, wsgn) = _COMPOSITE[(X, Y)]
    y2z = ring.mul(ring.mul(y, y), z)
    return (UnitAtom(ush, tag_pos(upos, i), ring.scale_int(uc, y2z)),
            ABCDAtom(zsh, i, ring.scale_int(zsgn, y)),
            UnitAtom(wsh, tag_pos(wpos, i), ring.scale_int(wsgn, z)))


def composite_instance(ring, n, X, Y, i, y, z):
    """E(Y_i)(2yz) against its _COMPOSITE row y_g [z_g, w_g]."""
    if (X, Y) not in _COMPOSITE:
        raise BadIndices(f"no composite route for ({X},{Y})")
    yg, zg, wg = composite_pieces(ring, n, X, Y, i, y, z)
    lhs = Word(ring, n, [ABCDAtom(Y, i, ring.scale_int(2, ring.mul(y, z)))])
    rhs = Word(ring, n, [yg, *bracket_atoms(ring, [zg], [wg])])
    return IdentityInstance(ring, n, lhs, rhs, {"y": y, "z": z})


# ---------------------------------------------------------------------------
# unit brackets: the shape words that replace placed units
# ---------------------------------------------------------------------------

# (unit shape, pos tag) -> the pair of its +4 row in _UNIT_BRACKET
_UNIT_BRACKET_PAIR = {(sh, tag): pair for pair, (sh, tag, c) in _UNIT_BRACKET.items() if c == 4}


def unit_bracket_shapes(shape, pos):
    """Shapes (g1, g2) whose same-position bracket [g1(u), g2(v)] is the
    unit of this shape with parameter 4*u*v at pos."""
    pair = _UNIT_BRACKET_PAIR.get((shape, "1" if pos == 1 else "i"))
    if pair is None:
        raise BadIndices("unit shapes are B and C")
    return pair


def unit_bracket_atoms(ring, n, shape, pos, param):
    """A 4-atom commutator word evaluating to I perp (I_2+shape(param)) perp I:
    the same-position bracket [g1(param/4), g2(1)] of unit_bracket_shapes."""
    g1, g2 = unit_bracket_shapes(shape, pos)
    gpos = 2 if pos == 1 else pos
    u = ring.mul(param, ring.mul(ring.inv2, ring.inv2))
    return bracket_atoms(ring, [ABCDAtom(g1, gpos, u)], [ABCDAtom(g2, gpos, ring.one)])


def corner_unit_atoms(ring, n, kind, pos, x):
    """A 12-atom shape word for the transvection E12(x) or E21(x) of the
    2x2 block at pos (position 1 is the leading corner): three units at
    pos, each the bracket of unit_bracket_atoms,

        E12(x) = U_C(1/2) U_B(-x/4) U_C(-1/2),
        E21(x) = U_B(-1/2) U_C(-x/4) U_B(1/2).
    """
    half = ring.inv2
    outer, inner, u = ("C", "B", half) if kind == "E12" else ("B", "C", ring.neg(half))
    v = ring.neg(ring.mul(x, ring.mul(half, half)))
    return (unit_bracket_atoms(ring, n, outer, pos, u)
            + unit_bracket_atoms(ring, n, inner, pos, v)
            + unit_bracket_atoms(ring, n, outer, pos, ring.neg(u)))


# shape Z -> the first _PLACED pair (X, Y) whose bracket at positions i < j
# is Z, with its +-2. For C and D that is (A, C) and (A, D): their brackets
# end in C_j and D_j, which merge with the first atom of the unit bracket
# that follows them in a form split (unit_bracket_atoms).
_PLACED_PAIR = {sh_lt: (X, Y, c) for (X, Y), (sh_lt, _, c) in reversed(_PLACED.items())}


def placed_bracket_atoms(ring, n, shape, p, q, e):
    """A 4-atom commutator word evaluating to I_2(p-1) perp E(shape_(q-p+1))(e),
    for 2 <= p < q <= n: the bracket [E(X_p)(e/c), E(Y_q)(1)] of the
    _PLACED row (X, Y) whose i < j shape is ``shape``, with c = +-2."""
    X, Y, c = _PLACED_PAIR[shape]
    u = ring.half(e) if c > 0 else ring.neg(ring.half(e))
    return bracket_atoms(ring, [ABCDAtom(X, p, u)], [ABCDAtom(Y, q, ring.one)])
