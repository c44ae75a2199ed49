import random

import pytest

from sympelem.errors import ParseError
from sympelem.matrices import Matrix
from sympelem.rings import PolyRing, Rationals, Zmod
from sympelem.symplectic import pi_swap
from sympelem.words import (
    ABCDAtom,
    CornerAtom,
    CornerMatrixAtom,
    PlacedAtom,
    SAtom,
    UnitAtom,
    Word,
    atom_matrix,
    word_from_text,
)

Z15 = Zmod(15)


def rand_atom(ring, n, rng):
    kind = rng.randrange(4)
    if kind == 0:
        return CornerAtom(rng.choice(["E12", "E21"]), ring.sample(rng))
    if kind == 1:
        while True:
            i, j = rng.randint(1, 2 * n), rng.randint(1, 2 * n)
            if i != j and j != pi_swap(i):
                return SAtom(i, j, ring.sample(rng))
    if kind == 2:
        return ABCDAtom(rng.choice("ABCD"), rng.randint(2, n), ring.sample(rng))
    return UnitAtom(rng.choice("BC"), rng.randint(1, n), ring.sample(rng))


def test_empty_word_is_identity():
    assert Word(Z15, 2, []).eval() == Matrix.identity(Z15, 4)


def test_inverse_word():
    rng = random.Random(17)
    for n in (2, 3):
        for _ in range(20):
            w = Word(Z15, n, [rand_atom(Z15, n, rng) for _ in range(rng.randint(0, 6))])
            assert w.eval().mul(w.inverse().eval()) == Matrix.identity(Z15, 2 * n)
    w = Word(Z15, 2, [SAtom(1, 3, 7)])
    assert w.concat(Word(Z15, 2, [SAtom(1, 3, 8)])).eval() == Matrix.identity(Z15, 4)


def test_eval_matches_naive_product():
    rng = random.Random(18)
    for _ in range(10):
        w = Word(Z15, 3, [rand_atom(Z15, 3, rng) for _ in range(6)])
        prod = Matrix.identity(Z15, 6)
        for a in w.atoms:
            prod = prod.mul(atom_matrix(Z15, 3, a))
        assert w.eval() == prod


def test_text_round_trip():
    ring = PolyRing(Rationals(), ("t",))
    t = ring.var("t")
    w = Word(ring, 2, [
        SAtom(1, 3, t),
        CornerAtom("E12", ring.add(ring.one, t)),
        ABCDAtom("A", 2, ring.neg(t)),
        UnitAtom("B", 1, ring.from_int(3)),
        CornerMatrixAtom(((ring.one, t), (ring.zero, ring.one))),
    ])
    text = w.to_text()
    back = word_from_text(ring, 2, text)
    assert back == w
    assert back.digest() == w.digest()


def test_parse_errors_name_lines():
    with pytest.raises(ParseError) as exc:
        word_from_text(Z15, 2, "S 1 3 4\nnope 1 2\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        word_from_text(Z15, 2, "S 1 3\n")
    assert "line 1" in str(exc.value)


def test_comment_and_blank_lines_skipped():
    w = word_from_text(Z15, 2, "# heading\n\nS 1 3 4\n")
    assert len(w) == 1


def test_special_atoms_evaluate():
    placed = PlacedAtom(1, "C", 2, 5)
    assert atom_matrix(Z15, 3, placed).submatrix(0, 0, 2, 2) == Matrix.identity(Z15, 2)
    w = Word(Z15, 3, [placed])
    from sympelem.symplectic import symp_inverse
    assert w.inverse().eval() == symp_inverse(w.eval())
