import itertools
import random
import re

import pytest

from sympelem import identities as idn
from sympelem import words
from sympelem.matrices import Matrix
from sympelem.rings import PolyRing, Rationals, Zmod
from sympelem.symplectic import gen_abcd, gen_small, symp_inverse
from sympelem.verify import iter_table_items, run_verify_tables
from sympelem.words import Word

Q = Rationals()
PXY = PolyRing(Q, ("x", "y"))
X, Y = PXY.var("x"), PXY.var("y")
Z15 = Zmod(15)


def dense_bracket(g, h):
    """The dense oracle [g, h] = g h g^-1 h^-1 of two symplectic matrices."""
    return g.mul(h).mul(symp_inverse(g)).mul(symp_inverse(h))


def value(side):
    """An instance side as a matrix: a Word is evaluated, a Matrix kept."""
    return side.eval() if isinstance(side, Word) else side


def int_matrix(ring, rows):
    return Matrix(ring, [[ring.from_int(v) for v in r] for r in rows])


def det1_witness(ring, t, u):
    one, zero = ring.one, ring.zero
    return Matrix(ring, [(one, zero), (t, one)]).mul(Matrix(ring, [(one, u), (zero, one)]))


def test_commutator_table_symbolic_small():
    for n in (2, 3):
        for Xs, Ys in itertools.product("ABCD", repeat=2):
            for i in range(2, n + 1):
                for j in range(2, n + 1):
                    inst = idn.commutator_instance(PXY, n, Xs, i, X, Ys, j, Y)
                    assert inst.holds(), (n, Xs, i, Ys, j)


def test_same_shape_commutators_trivial_up_to_n4():
    rng = random.Random(9)
    for n in (2, 3, 4):
        for sh in "ABCD":
            for i in range(2, n + 1):
                for j in range(2, n + 1):
                    a, b = Z15.sample(rng), Z15.sample(rng)
                    lhs = dense_bracket(gen_abcd(Z15, n, sh, i, a), gen_abcd(Z15, n, sh, j, b))
                    assert lhs == Matrix.identity(Z15, 2 * n)


def test_crossing_specials_match_bracket():
    # the four same-position crossing pairs have a dense closed form
    for n in (2, 3):
        for (Xs, Ys) in (("A", "D"), ("B", "C"), ("C", "B"), ("D", "A")):
            for i in range(2, n + 1):
                inst = idn.commutator_instance(PXY, n, Xs, i, X, Ys, i, Y)
                assert inst.holds(), (n, Xs, Ys, i)


def test_corrected_entry_in_crossing_special():
    # bottom-left block of the (C, B) special carries C(-4x^2 y); the
    # variant with C(-4xy^2) does not match the bracket
    m = idn.crossing_commutator_matrix(PXY, 2, "C", 2, X, "B", Y)
    lhs = dense_bracket(gen_abcd(PXY, 2, "C", 2, X), gen_abcd(PXY, 2, "B", 2, Y))
    assert m == lhs
    from sympelem.symplectic import shape_matrix
    x2y = PXY.scale_int(-4, PXY.mul(PXY.mul(X, X), Y))
    xy2 = PXY.scale_int(4, PXY.mul(PXY.mul(X, Y), Y))
    bottom_left = Matrix(PXY, [r[:2] for r in lhs.rows[2:4]])
    assert bottom_left == shape_matrix(PXY, "B", xy2).add(shape_matrix(PXY, "C", x2y))
    wrong = shape_matrix(PXY, "B", xy2).add(
        shape_matrix(PXY, "C", PXY.scale_int(-4, PXY.mul(X, PXY.mul(Y, Y)))))
    assert bottom_left != wrong


def test_commutator_matrix_couples_the_corner_only_for_crossing_pairs():
    # only the dense crossing closed form has entries joining the leading
    # corner's rows to another block's columns
    for n in (2, 3):
        for Xs, Ys in itertools.product("ABCD", repeat=2):
            for i in range(2, n + 1):
                for j in range(2, n + 1):
                    m = idn.commutator_matrix(Z15, n, Xs, i, 7, Ys, j, 4)
                    corner_rows = tuple(r[2:] for r in m.rows[:2])
                    coupled = corner_rows != Matrix.zero(Z15, 2, 2 * n - 2).rows
                    crossing = (Xs, Ys) in idn._CROSSING and i == j
                    assert coupled == crossing


def test_bracket_convention_consistency():
    # closed form times h g recovers g h
    rng = random.Random(10)
    for _ in range(50):
        Xs, Ys = rng.choice("ABCD"), rng.choice("ABCD")
        i, j = rng.randint(2, 3), rng.randint(2, 3)
        a, b = Z15.sample(rng), Z15.sample(rng)
        g = gen_abcd(Z15, 3, Xs, i, a)
        h = gen_abcd(Z15, 3, Ys, j, b)
        w = idn.commutator_matrix(Z15, 3, Xs, i, a, Ys, j, b)
        assert w.mul(h).mul(g) == g.mul(h)


def test_unit_commutator_table_symbolic():
    for n in (2, 3):
        for Xs in "ABCD":
            for Ys in "BC":
                for i in range(2, n + 1):
                    for j in range(1, n + 1):
                        inst = idn.unit_commutator_instance(PXY, n, Xs, i, X, Ys, j, Y)
                        assert inst.holds(), (n, Xs, i, Ys, j)


def test_word_sides_match_the_dense_bracket():
    # both sides of every commutator and unit-commutator instance equal the
    # dense bracket of the generator matrices, and both sides of every
    # composite instance the dense generator E(Y_i)(2yz)
    pz = PolyRing(Q, ("y", "z"))
    ys, zs = pz.var("y"), pz.var("z")
    yz2 = pz.scale_int(2, pz.mul(ys, zs))
    for n in (2, 3):
        pos, upos = range(2, n + 1), range(1, n + 1)
        for Xs, Ys in itertools.product("ABCD", repeat=2):
            for i, j in itertools.product(pos, pos):
                inst = idn.commutator_instance(PXY, n, Xs, i, X, Ys, j, Y)
                want = dense_bracket(gen_abcd(PXY, n, Xs, i, X), gen_abcd(PXY, n, Ys, j, Y))
                assert value(inst.lhs) == want == value(inst.rhs), (n, Xs, i, Ys, j)
        for Xs, Ys in itertools.product("ABCD", "BC"):
            for i, j in itertools.product(pos, upos):
                inst = idn.unit_commutator_instance(PXY, n, Xs, i, X, Ys, j, Y)
                want = dense_bracket(gen_abcd(PXY, n, Xs, i, X), gen_small(PXY, n, Ys, j, Y))
                assert value(inst.lhs) == want == value(inst.rhs), (n, Xs, i, Ys, j)
        for Xs, Ys in idn._COMPOSITE:
            for i in pos:
                inst = idn.composite_instance(pz, n, Xs, Ys, i, ys, zs)
                want = gen_abcd(pz, n, Ys, i, yz2)
                assert value(inst.lhs) == want == value(inst.rhs), (n, Xs, Ys, i)


def test_commutator_families_multiply_no_dense_matrices(monkeypatch):
    # the three commutator families are checked on the word evaluator:
    # building and checking their items takes no dense matrix product
    calls = []
    dense_mul = Matrix.mul
    monkeypatch.setattr(Matrix, "mul", lambda a, b: calls.append(1) or dense_mul(a, b))
    families = ("commutator:", "unit-commutator:", "composite:")
    items = [item for item in iter_table_items(PXY, [2, 3], random.Random(0))
             if item[0].startswith(families)]
    assert len(items) == 16 * 5 + 8 * 8 + 4 * 3
    for _, _, builder, args in items:
        assert builder(*args).holds()
    assert not calls


def _negate_first_term(terms):
    def slipped(self, ring, n):
        (lam, rows, cols), *rest = terms(self, ring, n)
        return ((ring.neg(lam), rows, cols), *rest)
    return slipped


@pytest.mark.parametrize("kind, cls", [
    ("S", words.SAtom), ("E12/E21", words.CornerAtom), ("A-D", words.ABCDAtom),
    ("UB/UC", words.UnitAtom), ("CORNER", words.CornerMatrixAtom)])
def test_a_sign_slip_in_terms_fails_its_atom_terms_item(monkeypatch, kind, cls):
    monkeypatch.setattr(cls, "_terms", _negate_first_term(cls._terms))
    report = run_verify_tables(PXY, [2])
    failed = {r.name for r in report.records if r.status != "PASS"}
    assert f"atom-terms:{kind}" in failed
    assert {r.name for r in report.records if r.name.startswith("atom-terms:")} == {
        f"atom-terms:{k}" for k in ("S", "E12/E21", "A-D", "UB/UC", "CORNER")}


def test_a_sign_slip_in_form_split_atoms_fails_the_split_items(monkeypatch):
    # the split items check the very atoms form_split_atoms emits, which
    # the transvection split and conj_abcd_atom build on
    real = idn.form_split_atoms
    monkeypatch.setattr(idn, "form_split_atoms", lambda ring, kind, lam, mu, val, pos:
                        real(ring, kind, lam, mu, ring.neg(val), pos))
    report = run_verify_tables(PXY, [2, 3])
    failed = {r.name.split("@")[0] for r in report.records if r.status != "PASS"}
    assert failed == {"a-form-split", "b-form-split", "graded-split",
                      *(f"det1-conjugation:{sh}" for sh in "ABCD")}


def test_unit_commutator_free_cases():
    # same-letter pairs commute for every position
    rng = random.Random(11)
    for _ in range(30):
        i, j = rng.randint(2, 3), rng.randint(1, 3)
        a, b = Z15.sample(rng), Z15.sample(rng)
        for sh in "BC":
            g = gen_abcd(Z15, 3, sh, i, a)
            u = gen_small(Z15, 3, sh, j, b)
            assert g.mul(u) == u.mul(g)


def test_composites_symbolic():
    pz = PolyRing(Q, ("y", "z"))
    ys, zs = pz.var("y"), pz.var("z")
    for n in (2, 3):
        for i in range(2, n + 1):
            assert idn.composite_instance(pz, n, "A", "D", i, ys, zs).holds()
            assert idn.composite_instance(pz, n, "B", "C", i, ys, zs).holds()
            for (Xs, Ys) in (("D", "A"), ("C", "B")):
                assert idn.composite_instance(pz, n, Xs, Ys, i, ys, zs).holds()
    # z = 0 collapses both sides to the identity
    inst = idn.composite_instance(Z15, 2, "A", "D", 2, 3, 0)
    assert value(inst.lhs) == Matrix.identity(Z15, 4) and inst.holds()


def test_corner_conjugation():
    ring = PolyRing(Q, ("lam", "x", "y"))
    lam, x, y = ring.var("lam"), ring.var("x"), ring.var("y")
    for n in (2, 3):
        assert idn.corner_conjugation(ring, n, lam, x, y).holds()
    # lam = 0 and x = y = 0 specializations
    assert idn.corner_conjugation(Z15, 2, 0, 3, 4).holds()
    inst = idn.corner_conjugation(Z15, 2, 5, 0, 0)
    assert inst.holds() and value(inst.lhs) == Matrix.identity(Z15, 4)


def test_elementary_criterion():
    ring = PolyRing(Q, ("t", "u", "x", "y"))
    t, u, x, y = (ring.var(v) for v in ("t", "u", "x", "y"))
    eps = det1_witness(ring, t, u)
    for n, k in ((2, 2), (3, 2), (3, 3)):
        assert idn.elementary_criterion(ring, n, k, eps, x, y).holds()
    # identity witness reduces to the bare product
    assert idn.elementary_criterion(Z15, 2, 2, Matrix.identity(Z15, 2), 3, 4).holds()
    from sympelem.errors import RowConditionFailed
    with pytest.raises(RowConditionFailed):
        # determinant 4, not a witness
        idn.elementary_criterion(Z15, 2, 2, int_matrix(Z15, [[2, 0], [0, 2]]), 3, 4)


def test_row_conjugation():
    names = ("t", "u") + tuple(f"y{i}" for i in range(3, 9))
    ring = PolyRing(Q, names)
    t, u = ring.var("t"), ring.var("u")
    delta = det1_witness(ring, t, u)
    for n in (2, 3):
        ys = [ring.var(f"y{i}") for i in range(3, 2 * n + 1)]
        assert idn.row_conjugation(ring, n, delta, ys).holds()
    # identity corner: the conjugation collapses
    z = Z15
    assert idn.row_conjugation(z, 2, Matrix.identity(z, 2), [3, 4]).holds()
    assert value(idn.row_conjugation(z, 2, Matrix.identity(z, 2), [0, 0]).lhs) == \
        Matrix.identity(z, 4)


def test_graded_split_and_corner_correction():
    ring = PolyRing(Q, ("lam", "mu", "x", "y"))
    lam, mu, x, y = (ring.var(v) for v in ("lam", "mu", "x", "y"))
    for n, k in ((2, 2), (3, 2), (3, 3)):
        assert idn.graded_split(ring, n, k, lam, mu, x, y).holds()
    a, b = ring.half(ring.add(x, y)), ring.half(ring.sub(x, y))
    assert idn.corner_correction(ring, lam, mu, a, b).det2() == ring.one
    # x = y kills the B-form factor and the correction
    assert idn.graded_split(Z15, 2, 2, 3, 4, 7, 7).holds()
    assert idn.corner_correction(Z15, 3, 4, 7, 0) == Matrix.identity(Z15, 2)
    # displayed entries of the correction matrix
    a, b = ring.var("x"), ring.var("y")
    ch = idn.corner_correction(ring, lam, mu, a, b)
    two_ab = ring.scale_int(2, ring.mul(a, b))
    assert ch.rows[0][0] == ring.sub(ring.one, ring.mul(ring.mul(lam, mu), two_ab))
    assert ch.rows[0][1] == ring.mul(ring.mul(lam, lam), two_ab)


def test_form_splits():
    ring = PolyRing(Q, ("lam", "mu", "a"))
    lam, mu, a = (ring.var(v) for v in ("lam", "mu", "a"))
    for n, k in ((2, 2), (3, 2), (3, 3)):
        assert idn.form_split(ring, n, k, "A", lam, mu, a).holds()
        assert idn.form_split(ring, n, k, "B", lam, mu, a).holds()
    # lam = mu kills the second factor of the A-form split
    x, y, up = idn.split_form(Z15, "A", 3, 3, 7)
    assert y == 0 and up == 0
    # lam = 1, mu = 0: x = y = a/2
    x, y, up = idn.split_form(Z15, "A", 1, 0, 7)
    assert x == y == Z15.half(7)


def test_block_conjugation():
    ring = PolyRing(Q, ("t", "u", "lam", "mu", "x", "y"))
    t, u, lam, mu, x, y = (ring.var(v) for v in ("t", "u", "lam", "mu", "x", "y"))
    delta = det1_witness(ring, t, u)
    for n, k in ((2, 2), (3, 2)):
        assert idn.block_conjugation(ring, n, k, delta, lam, mu, x, y).holds()
    assert idn.block_conjugation(Z15, 2, 2, Matrix.identity(Z15, 2), 1, 2, 3, 4).holds()


def test_det1_conjugation():
    ring = PolyRing(Q, ("t", "u", "x"))
    t, u, x = (ring.var(v) for v in ("t", "u", "x"))
    delta = det1_witness(ring, t, u)
    for n in (2, 3):
        for sh in "ABCD":
            for i in range(2, n + 1):
                assert idn.det1_conjugation(ring, n, delta, sh, i, x).holds(), (n, sh, i)
    # identity corner, zero parameter
    assert value(idn.det1_conjugation(Z15, 2, Matrix.identity(Z15, 2), "A", 2, 0).lhs) == \
        Matrix.identity(Z15, 4)


def test_corruption_is_caught():
    inst = idn.commutator_instance(Z15, 2, "A", 2, 7, "B", 2, 4,
                                   corrupt="commutator:AB:eq")
    assert not inst.holds()
    inst = idn.unit_commutator_instance(Z15, 2, "A", 2, 7, "C", 1, 4,
                                        corrupt="unit:AC:j1")
    assert not inst.holds()
    # untouched entries still pass under an unrelated corruption key
    inst = idn.commutator_instance(Z15, 2, "A", 2, 7, "C", 2, 4,
                                   corrupt="commutator:AB:eq")
    assert inst.holds()


def _entry_key(item):
    """The corruption key of a commutator item's table entry, else None."""
    m = re.fullmatch(r"commutator:([A-D])(\d+),([A-D])(\d+)", item)
    if m:
        X, i, Y, j = m[1], int(m[2]), m[3], int(m[4])
        return f"commutator:{X}{Y}:{'eq' if i == j else 'lt' if i < j else 'gt'}"
    m = re.fullmatch(r"unit-commutator:([A-D])(\d+),([BC])@(\d+)", item)
    if m:
        X, i, Y, j = m[1], int(m[2]), m[3], int(m[4])
        return f"unit:{X}{Y}:{'j1' if j == 1 else 'eq' if i == j else 'other'}"
    return None


def test_every_corrupt_key_bites_at_every_seed():
    # the corrupted closed form is the true one times E(X_i)(1), so one
    # sampled trial over Z/3 fails every item the key names, whatever its
    # bindings (x y = 0 included); only those items are built
    z3 = Zmod(3)
    for key in sorted(idn.corrupt_keys([2, 3])):
        for seed in range(10):
            items = iter_table_items(z3, [2, 3], random.Random(seed), trials=1, corrupt=key)
            insts = [builder(*args) for name, _, builder, args in items if _entry_key(name) == key]
            assert insts and not any(inst.holds() for inst in insts), (key, seed)


@pytest.mark.parametrize("key", sorted(idn.corrupt_keys([3])))
def test_every_corrupt_key_fails_exactly_its_own_items(key):
    report = run_verify_tables(PXY, [3], corrupt=key)
    failed = [r.name for r in report.records if r.status != "PASS"]
    assert failed and all(_entry_key(name) == key for name in failed), failed


def test_corrupt_keys_follow_the_n_range():
    assert len(idn.corrupt_keys([3])) == 36
    at2 = idn.corrupt_keys([2])
    assert at2 == {k for k in idn.corrupt_keys([2, 3]) if not k.endswith((":lt", ":gt"))}
    assert "commutator:AC:eq" in at2 and "commutator:AC:lt" not in at2


def test_unit_bracket_atoms():
    from sympelem.identities import unit_bracket_atoms
    rng = random.Random(12)
    for n in (2, 3):
        for sh in "BC":
            for pos in range(1, n + 1):
                c = Z15.sample(rng)
                atoms = unit_bracket_atoms(Z15, n, sh, pos, c)
                assert Word(Z15, n, atoms).eval() == gen_small(Z15, n, sh, pos, c)
