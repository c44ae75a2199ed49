"""Closed-form identities between generator products, materialized as
pairs of matrices.

Every constructor returns an IdentityInstance whose two sides are built
through independent routes (a raw matrix product on the left, the
tabulated closed form on the right), so instance verification is a real
check, not a tautology. The commutator tables are the package's own
corrected versions; each entry is validated against the bracket product
by the test suite and the verify-tables command.

Bracket convention throughout: [g, h] = g h g^-1 h^-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadIndices, RowConditionFailed
from .matrices import Matrix
from .symplectic import (
    corner_embed,
    gen_abcd,
    gen_corner,
    gen_s,
    gen_small,
    graded_block,
    shape_matrix,
    symp_inverse,
)
from .words import ABCDAtom, DenseAtom, PlacedAtom, UnitAtom, Word


@dataclass
class IdentityInstance:
    name: str
    ring: object
    n: int
    lhs: Matrix
    rhs: Matrix
    bindings: dict = field(default_factory=dict)

    def holds(self):
        return self.lhs == self.rhs

    def bindings_str(self):
        return ", ".join(f"{k}={self.ring.show(v)}" for k, v in self.bindings.items())


def bracket(m, nmat):
    return m.mul(nmat).mul(symp_inverse(m)).mul(symp_inverse(nmat))


# ---------------------------------------------------------------------------
# corner correction for the graded split
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


def split_a_form(ring, lam, mu, a):
    """Parameters (x, y, unit) with graded(lam,mu;a,a) = E(A(x)) E(C(y)) (I+C(unit))."""
    x = ring.half(ring.mul(ring.add(lam, mu), a))
    y = ring.half(ring.mul(ring.sub(lam, mu), a))
    return x, y, ring.scale_int(2, ring.mul(x, y))


def split_b_form(ring, lam, mu, b):
    """Parameters (x, y, unit) with graded(lam,mu;b,-b) = E(B(x)) E(D(y)) (I+B(unit))."""
    x = ring.half(ring.mul(ring.add(lam, mu), b))
    y = ring.half(ring.mul(ring.sub(mu, lam), b))
    return x, y, ring.scale_int(2, ring.mul(x, y))


def form_split_atoms(ring, kind, lam, mu, val, pos):
    """The nonzero atoms of graded(lam,mu;val,val) = A C (C unit) for kind
    "A", or of graded(lam,mu;val,-val) = B D (B unit) for kind "B"."""
    split, (sx, sy, su) = (split_a_form, "ACC") if kind == "A" else (split_b_form, "BDB")
    x, y, up = split(ring, lam, mu, val)
    atoms = [ABCDAtom(sx, pos, x), ABCDAtom(sy, pos, y), UnitAtom(su, pos, up)]
    return [a for a in atoms if not ring.is_zero(a.e)]


# ---------------------------------------------------------------------------
# conjugation data for det-1 corners acting on block generators
# ---------------------------------------------------------------------------

def det1_conj_data(ring, delta_rows, shape, x):
    """RHS structure of conjugating E(shape_i)(x) by a det-1 corner:
    two graded one-block factors followed by a placed unit at position i.

    Returns ([(lam, mu, xx, yy), (lam, mu, xx, yy)], (unit_shape, unit_param)).
    """
    (p, q), (r, s) = delta_rows
    neg = ring.neg
    xsq = ring.mul(x, x)
    if shape == "A":
        return [(p, r, x, x), (q, s, x, x)], ("C", neg(xsq))
    if shape == "B":
        return [(p, r, x, neg(x)), (q, s, x, neg(x))], ("B", xsq)
    if shape == "C":
        return [(p, r, x, x), (neg(q), neg(s), x, x)], ("C", xsq)
    if shape == "D":
        return [(neg(p), neg(r), x, neg(x)), (q, s, x, neg(x))], ("B", neg(xsq))
    raise BadIndices(f"unknown shape {shape!r}")


# ---------------------------------------------------------------------------
# commutator table for pairs of block generators
# ---------------------------------------------------------------------------

# same-position pairs whose bracket is a corner unit: (X, Y) -> (unit shape, +-4)
_UNIT_AT_1 = {("A", "B"): ("B", 4), ("B", "A"): ("B", -4),
              ("C", "D"): ("C", 4), ("D", "C"): ("C", -4)}
# same-position pairs whose bracket is a unit at the shared position
_UNIT_AT_I = {("A", "C"): ("C", -4), ("C", "A"): ("C", 4),
              ("B", "D"): ("B", -4), ("D", "B"): ("B", 4)}
# crossing pairs: bracket is a dense 4x4 pattern at the shared position
_CROSSING = {("A", "D"), ("D", "A"), ("B", "C"), ("C", "B")}
# different-position pairs: (X, Y) -> (shape for i<j, shape for i>j, +-2)
_PLACED = {("A", "C"): ("C", "C", -2), ("C", "A"): ("C", "C", 2),
           ("B", "D"): ("B", "B", -2), ("D", "B"): ("B", "B", 2),
           ("A", "D"): ("D", "A", -2), ("D", "A"): ("A", "D", 2),
           ("B", "C"): ("A", "D", 2), ("C", "B"): ("D", "A", -2)}


def commutator_entry_key(X, Y, i, j):
    rel = "eq" if i == j else ("lt" if i < j else "gt")
    return f"commutator:{X}{Y}:{rel}"


def commutator_word(ring, n, X, i, x, Y, j, y, corrupt=None):
    """Closed form of [E(X_i)(x), E(Y_j)(y)] as a word."""
    if not (2 <= i <= n and 2 <= j <= n):
        raise BadIndices("positions must lie in 2..n")
    key = commutator_entry_key(X, Y, i, j)
    xy = ring.mul(x, y)
    if corrupt == key:
        xy = ring.neg(xy)
    if X == Y:
        return Word(ring, n, [])
    if i == j:
        if (X, Y) in _UNIT_AT_1:
            sh, c = _UNIT_AT_1[(X, Y)]
            return Word(ring, n, [UnitAtom(sh, 1, ring.scale_int(c, xy))])
        if (X, Y) in _UNIT_AT_I:
            sh, c = _UNIT_AT_I[(X, Y)]
            return Word(ring, n, [UnitAtom(sh, i, ring.scale_int(c, xy))])
        return Word(ring, n, [DenseAtom(crossing_commutator_matrix(ring, n, X, i, x, Y, y, corrupt).rows)])
    if (X, Y) in _UNIT_AT_1:
        return Word(ring, n, [])
    sh_lt, sh_gt, c = _PLACED[(X, Y)]
    sh = sh_lt if i < j else sh_gt
    off = min(i, j) - 1
    pos = abs(i - j) + 1
    return Word(ring, n, [PlacedAtom(off, sh, pos, ring.scale_int(c, xy))])


def _shape_sum(ring, terms):
    """Sum of shape(coeff) blocks as a 2x2 matrix."""
    M = Matrix.zero(ring, 2, 2)
    for sh, c in terms:
        M = M.add(shape_matrix(ring, sh, c))
    return M


def crossing_commutator_matrix(ring, n, X, i, x, Y, y, corrupt=None):
    """The dense closed form of [E(X_i)(x), E(Y_i)(y)] for the four
    crossing pairs, embedded at the block pair (1, i)."""
    if (X, Y) not in _CROSSING:
        raise BadIndices(f"({X},{Y}) has a shorter closed form")
    if corrupt == commutator_entry_key(X, Y, i, i):
        x = ring.neg(x)
    xy = ring.mul(x, y)
    x2y = ring.mul(xy, x)
    xy2 = ring.mul(xy, y)
    x2y2 = ring.mul(xy, xy)
    s2, s4, s8 = (lambda v: ring.scale_int(2, v)), (lambda v: ring.scale_int(4, v)), (lambda v: ring.scale_int(8, v))
    neg = ring.neg
    I2 = Matrix.identity(ring, 2)
    if (X, Y) == ("A", "D"):
        TL = I2.add(_shape_sum(ring, [("A", ring.add(s8(x2y2), s2(xy))), ("D", s2(xy))]))
        TR = _shape_sum(ring, [("D", s4(xy2)), ("A", neg(s4(x2y)))])
        BL = _shape_sum(ring, [("A", s4(xy2)), ("D", neg(s4(x2y)))])
        BR = I2.add(_shape_sum(ring, [("A", neg(s2(xy))), ("D", neg(ring.add(s8(x2y2), s2(xy))))]))
    elif (X, Y) == ("B", "C"):
        TL = BR = I2.add(_shape_sum(ring, [("A", ring.add(s8(x2y2), s2(xy))), ("D", s2(xy))]))
        TR = BL = _shape_sum(ring, [("B", neg(s4(x2y))), ("C", s4(xy2))])
    elif (X, Y) == ("C", "B"):
        TL = BR = I2.add(_shape_sum(ring, [("A", neg(s2(xy))), ("D", neg(ring.add(s2(xy), s8(x2y2))))]))
        TR = BL = _shape_sum(ring, [("B", s4(xy2)), ("C", neg(s4(x2y)))])
    else:  # (D, A)
        TL = I2.add(_shape_sum(ring, [("A", neg(s2(xy))), ("D", neg(ring.add(s2(xy), s8(x2y2))))]))
        TR = _shape_sum(ring, [("A", s4(xy2)), ("D", neg(s4(x2y)))])
        BL = _shape_sum(ring, [("D", s4(xy2)), ("A", neg(s4(x2y)))])
        BR = I2.add(_shape_sum(ring, [("A", ring.add(s2(xy), s8(x2y2))), ("D", s2(xy))]))
    M = Matrix.identity(ring, 2 * n)
    r1 = 2 * (i - 1)
    M = M.paste(0, 0, TL)
    M = M.paste(0, r1, TR)
    M = M.paste(r1, 0, BL)
    M = M.paste(r1, r1, BR)
    return M


def commutator_instance(ring, n, X, i, x, Y, j, y, corrupt=None):
    lhs = bracket(gen_abcd(ring, n, X, i, x), gen_abcd(ring, n, Y, j, y))
    rhs = commutator_word(ring, n, X, i, x, Y, j, y, corrupt=corrupt).eval()
    name = f"commutator:{X}{i},{Y}{j}"
    return IdentityInstance(name, ring, n, lhs, rhs, {"x": x, "y": y})


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


def tag_pos(tag, i):
    """The position a table's tag "1" or "i" names."""
    return 1 if tag == "1" else i


def corrupt_keys():
    """The fault-injection keys, one per entry of the commutator tables."""
    keys = {f"commutator:{X}{Y}:eq" for X, Y in (*_UNIT_AT_1, *_UNIT_AT_I, *_CROSSING)}
    keys |= {f"commutator:{X}{Y}:{rel}" for X, Y in _PLACED for rel in ("lt", "gt")}
    return keys | {f"unit:{X}{Y}:{rel}" for X, Y, rel in _UNIT_COMMUTATOR}


def unit_commutator_word(ring, n, X, i, x, Y, j, y, corrupt=None):
    """Closed form of [E(X_i)(x), I perp (I_2 + Y(y)) perp I] as a word."""
    if not (2 <= i <= n):
        raise BadIndices("generator position must lie in 2..n")
    if not (1 <= j <= n):
        raise BadIndices("unit position must lie in 1..n")
    if Y not in ("B", "C"):
        raise BadIndices("unit shapes are B and C")
    rel = "j1" if j == 1 else ("eq" if i == j else "other")
    if corrupt == f"unit:{X}{Y}:{rel}":
        x = ring.neg(x)
    if (X, Y, rel) not in _UNIT_COMMUTATOR:
        return Word(ring, n, [])
    ush, utag, uc, esh, ec = _UNIT_COMMUTATOR[(X, Y, rel)]
    xy = ring.mul(x, y)
    return Word(ring, n, [UnitAtom(ush, tag_pos(utag, i), ring.scale_int(uc, ring.mul(xy, x))),
                          ABCDAtom(esh, i, ring.scale_int(ec, xy))])


def unit_commutator_instance(ring, n, X, i, x, Y, j, y, corrupt=None):
    lhs = bracket(gen_abcd(ring, n, X, i, x), gen_small(ring, n, Y, j, y))
    rhs = unit_commutator_word(ring, n, X, i, x, Y, j, y, corrupt=corrupt).eval()
    name = f"unit-commutator:{X}{i},{Y}@{j}"
    return IdentityInstance(name, ring, n, lhs, rhs, {"x": x, "y": y})


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
    return IdentityInstance("corner-conjugation", ring, n, lhs, rhs,
                            {"lam": lam, "x": x, "y": y})


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
    return IdentityInstance("elementary-criterion", ring, n, lhs, rhs,
                            {"lam": lam, "mu": mu, "x": x, "y": y})


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
    return IdentityInstance("row-conjugation", ring, n, lhs, rhs,
                            {f"y{i + 3}": v for i, v in enumerate(ys)})


def graded_split(ring, n, k, lam, mu, x, y):
    """Graded block = corner correction * A-form * B-form."""
    a = ring.half(ring.add(x, y))
    b = ring.half(ring.sub(x, y))
    lhs = graded_block(ring, n, lam, mu, x, y, k)
    rhs = corner_embed(corner_correction(ring, lam, mu, a, b), n) \
        .mul(graded_block(ring, n, lam, mu, a, a, k)) \
        .mul(graded_block(ring, n, lam, mu, b, ring.neg(b), k))
    return IdentityInstance("graded-split", ring, n, lhs, rhs,
                            {"lam": lam, "mu": mu, "x": x, "y": y})


def a_form_split(ring, n, k, lam, mu, a):
    x, y, up = split_a_form(ring, lam, mu, a)
    lhs = graded_block(ring, n, lam, mu, a, a, k)
    rhs = gen_abcd(ring, n, "A", k, x).mul(gen_abcd(ring, n, "C", k, y)) \
        .mul(gen_small(ring, n, "C", k, up))
    return IdentityInstance("a-form-split", ring, n, lhs, rhs,
                            {"lam": lam, "mu": mu, "a": a})


def b_form_split(ring, n, k, lam, mu, b):
    x, y, up = split_b_form(ring, lam, mu, b)
    lhs = graded_block(ring, n, lam, mu, b, ring.neg(b), k)
    rhs = gen_abcd(ring, n, "B", k, x).mul(gen_abcd(ring, n, "D", k, y)) \
        .mul(gen_small(ring, n, "B", k, up))
    return IdentityInstance("b-form-split", ring, n, lhs, rhs,
                            {"lam": lam, "mu": mu, "b": b})


def block_conjugation(ring, n, k, delta, lam, mu, x, y):
    """Conjugating a graded block by a det-1 corner regrades (lam, mu)."""
    emb = corner_embed(delta, n)
    lhs = emb.mul(graded_block(ring, n, lam, mu, x, y, k)).mul(symp_inverse(emb))
    (a, b), (c, d) = delta.rows
    lam2 = ring.add(ring.mul(lam, a), ring.mul(mu, b))
    mu2 = ring.add(ring.mul(c, lam), ring.mul(mu, d))
    rhs = graded_block(ring, n, lam2, mu2, x, y, k)
    return IdentityInstance("block-conjugation", ring, n, lhs, rhs,
                            {"lam": lam, "mu": mu, "x": x, "y": y})


def det1_conjugation(ring, n, delta, shape, i, x):
    """Conjugation of a block generator by a det-1 corner, as two graded
    factors and a trailing unit."""
    emb = corner_embed(delta, n)
    lhs = emb.mul(gen_abcd(ring, n, shape, i, x)).mul(symp_inverse(emb))
    forms, (ush, uparam) = det1_conj_data(ring, delta.rows, shape, x)
    rhs = Matrix.identity(ring, 2 * n)
    for lam, mu, xx, yy in forms:
        rhs = rhs.mul(graded_block(ring, n, lam, mu, xx, yy, i))
    rhs = rhs.mul(gen_small(ring, n, ush, i, uparam))
    return IdentityInstance(f"det1-conjugation:{shape}", ring, n, lhs, rhs,
                            {"x": x})


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


def composite_pieces(ring, n, X, Y, i, y, z):
    (ush, upos, uc), (zsh, zsgn), (wsh, wpos, wsgn) = _COMPOSITE[(X, Y)]
    y2z = ring.mul(ring.mul(y, y), z)
    yg = gen_small(ring, n, ush, tag_pos(upos, i), ring.scale_int(uc, y2z))
    zg = gen_abcd(ring, n, zsh, i, ring.scale_int(zsgn, y))
    wg = gen_small(ring, n, wsh, tag_pos(wpos, i), ring.scale_int(wsgn, z))
    return yg, zg, wg


def composite_instance(ring, n, X, Y, i, x, y, z):
    """[E(X_i)(x), E(Y_i)(2yz)] expanded through the group identity
    [g, h[k, l]] = [g,h] h [[g,k]k, [g,l]l] [l,k] h^-1."""
    if (X, Y) not in _COMPOSITE:
        raise BadIndices(f"no composite route for ({X},{Y})")
    yg, zg, wg = composite_pieces(ring, n, X, Y, i, y, z)
    yz2 = ring.scale_int(2, ring.mul(y, z))
    lhs = bracket(gen_abcd(ring, n, X, i, x), gen_abcd(ring, n, Y, i, yz2))
    xg = gen_abcd(ring, n, X, i, x)
    inner = bracket(bracket(xg, zg).mul(zg), bracket(xg, wg).mul(wg))
    rhs = bracket(xg, yg).mul(yg).mul(inner).mul(bracket(wg, zg)).mul(symp_inverse(yg))
    return IdentityInstance(f"composite:{X}{Y}", ring, n, lhs, rhs,
                            {"x": x, "y": y, "z": z})


# ---------------------------------------------------------------------------
# unit brackets: the shape words that replace placed units
# ---------------------------------------------------------------------------

def unit_bracket_shapes(shape, pos):
    """Shapes (g1, g2) whose same-position bracket [g1(u), g2(v)] is the
    unit of this shape with parameter 4*u*v at pos (the +4 rows of the
    _UNIT_AT_1 and _UNIT_AT_I tables)."""
    if shape == "B":
        return ("A", "B") if pos == 1 else ("D", "B")
    if shape == "C":
        return ("C", "D") if pos == 1 else ("C", "A")
    raise BadIndices("unit shapes are B and C")


def unit_bracket_atoms(ring, n, shape, pos, param):
    """A 4-atom commutator word evaluating to I perp (I_2+shape(param)) perp I:
    the same-position bracket [g1(param/4), g2(1)] of unit_bracket_shapes."""
    g1, g2 = unit_bracket_shapes(shape, pos)
    gpos = 2 if pos == 1 else pos
    u = ring.mul(param, ring.mul(ring.inv2, ring.inv2))
    one = ring.one
    return [ABCDAtom(g1, gpos, u), ABCDAtom(g2, gpos, one),
            ABCDAtom(g1, gpos, ring.neg(u)), ABCDAtom(g2, gpos, ring.neg(one))]
