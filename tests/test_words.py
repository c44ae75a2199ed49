import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympelem import words
from sympelem.errors import BadIndices, ParseError
from sympelem.matrices import Matrix
from sympelem.rings import Localized, PolyRing, Rationals, Zmod, ring_from_descriptor
from sympelem.symplectic import (
    corner_embed,
    gen_abcd,
    gen_corner,
    gen_s,
    gen_small,
    pi_swap,
    symp_inverse,
)
from sympelem.words import (
    ABCDAtom,
    CornerAtom,
    CornerMatrixAtom,
    SAtom,
    UnitAtom,
    Word,
    same_value,
    word_from_text,
)

Z15 = Zmod(15)


def gen_matrix(ring, n, atom):
    """The atom's matrix from the definitions in ``symplectic``."""
    if isinstance(atom, SAtom):
        return gen_s(ring, n, atom.i, atom.j, atom.e)
    if isinstance(atom, CornerAtom):
        return gen_corner(ring, n, atom.kind, atom.e)
    if isinstance(atom, ABCDAtom):
        return gen_abcd(ring, n, atom.shape, atom.pos, atom.e)
    if isinstance(atom, UnitAtom):
        return gen_small(ring, n, atom.shape, atom.pos, atom.e)
    return corner_embed(Matrix(ring, atom.rows), n)


def dense_product(ring, n, atoms):
    prod = Matrix.identity(ring, 2 * n)
    for a in atoms:
        prod = prod.mul(gen_matrix(ring, n, a))
    return prod


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
        assert w.eval() == dense_product(Z15, 3, w.atoms)


def _tower():
    """(Z/15[Y])_s[X], the ring ``patch`` works over, at the cover's s = 2."""
    ry = PolyRing(Z15, ("Y",))
    return PolyRing(Localized(ry, ry.const(2)), ("X",))


EVAL_RINGS = {
    "zmod:15": Z15,
    "poly:q:t": ring_from_descriptor("poly:q:t"),
    "loc:poly:q:t:s=t": ring_from_descriptor("loc:poly:q:t:s=t"),
    "tower": _tower(),
}


def _element(ring, c0, c1, k):
    """c0 + c1 * v / s^k for the ring's variable v and localization s,
    built up the ring's tower; over Z/15 or Q just c0 + 4 c1."""
    if isinstance(ring, (Zmod, Rationals)):
        return ring.from_int(c0 + 4 * c1)
    if isinstance(ring, Localized):
        return ring.frac(_element(ring.base, c0, c1, 0), k)
    var = ring.var(ring.names[0])
    inner = _element(ring.base, c1, c0, k)
    return ring.add(ring.from_int(c0), ring.mul(ring.const(inner), var))


@st.composite
def atoms_for(draw, ring, n):
    elem = st.builds(lambda c: _element(ring, *c),
                     st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2)))
    kinds = ["E12", "E21", "CORNER"] if n == 1 else \
        ["S", "E12", "E21", "ABCD", "UNIT", "CORNER"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("E12", "E21"):
        return CornerAtom(kind, draw(elem))
    if kind == "S":
        i = draw(st.integers(1, 2 * n))
        j = draw(st.integers(1, 2 * n).filter(lambda j: j != i and j != pi_swap(i)))
        return SAtom(i, j, draw(elem))
    if kind == "ABCD":
        return ABCDAtom(draw(st.sampled_from("ABCD")), draw(st.integers(2, n)), draw(elem))
    if kind == "UNIT":
        return UnitAtom(draw(st.sampled_from("BC")), draw(st.integers(1, n)), draw(elem))
    rows = gen_corner(ring, 1, "E12", draw(elem)).mul(gen_corner(ring, 1, "E21", draw(elem)))
    return CornerMatrixAtom(rows.rows)


@st.composite
def words_for(draw, ring):
    n = draw(st.integers(1, 4))
    return n, draw(st.lists(atoms_for(ring, n), max_size=4))


@pytest.mark.parametrize("name", sorted(EVAL_RINGS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_eval_atoms_matches_generator_product(name, data):
    """Every atom evaluates to its generator's matrix, inverts to the
    symplectic inverse, and is left as it is by the identity map on
    parameters."""
    ring = EVAL_RINGS[name]
    n, atoms = data.draw(words_for(ring))
    want = dense_product(ring, n, atoms)
    assert Word(ring, n, atoms).eval() == want
    for atom in atoms:
        assert Word(ring, n, [atom]).inverse().eval() == symp_inverse(gen_matrix(ring, n, atom))
        assert atom._map(lambda v: v) == atom


def test_atom_indices_rejected_like_the_generators():
    """Evaluating an atom raises BadIndices exactly where its generator
    in ``symplectic`` does, whatever the parameter."""
    for n in (1, 2, 3):
        span = range(-1, 2 * n + 2)
        atoms = [SAtom(i, j, e) for i in span for j in span for e in (0, 4)]
        atoms += [ABCDAtom(sh, p, 4) for sh in "ABCDE" for p in span]
        atoms += [UnitAtom(sh, p, e) for sh in "ABC" for p in span for e in (0, 4)]
        atoms += [CornerAtom(k, 4) for k in ("E12", "E21", "E11")]
        for atom in atoms:
            try:
                gen_matrix(Z15, n, atom)
                rejected = False
            except BadIndices:
                rejected = True
            if rejected:
                with pytest.raises(BadIndices):
                    Word(Z15, n, [atom]).eval()
            else:
                assert Word(Z15, n, [atom]).eval() == gen_matrix(Z15, n, atom)


def test_parse_rejects_bad_indices():
    for text in ("S 1 9 4", "S 1 2 4", "S 1 1 4", "A 1 3", "D 3 3", "UB 0 2", "UC 3 2"):
        with pytest.raises(ParseError) as exc:
            word_from_text(Z15, 2, "# heading\n" + text + "\n")
        msg = str(exc.value)
        assert msg.startswith("line 2:") and text in msg and "n=2" in msg


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


@pytest.mark.parametrize("text", ["PLACED 1 A 3 4", "PLACED 0 Q 2 4", "PLACED -1 A 2 4",
                                  "PLACED 1 A 2", "DENSE 1 0 0 1", "DENSE",
                                  "DENSE 2 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1"])
def test_bad_placed_and_dense_lines_name_the_line(text):
    # PLACED and DENSE are no atom kinds any more
    with pytest.raises(ParseError) as exc:
        word_from_text(Z15, 2, "S 1 3 4\n" + text + "\n")
    msg = str(exc.value)
    assert "line 2" in msg and f"unknown atom kind {text.split()[0]!r}" in msg


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
    corner = CornerMatrixAtom(((7, 3), (2, 1)))  # det 1 mod 15
    w = Word(Z15, 3, [corner])
    assert w.eval() == corner_embed(Matrix(Z15, corner.rows), 3)
    assert w.inverse().eval() == symp_inverse(w.eval())


@pytest.mark.parametrize("name", sorted(EVAL_RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_same_value_agrees_with_the_generator_product(name, data):
    """same_value(a, b) holds exactly when the dense products agree: a
    parameter moved by 1 must differ, an atom and its inverse inserted
    must agree."""
    ring = EVAL_RINGS[name]
    n = data.draw(st.integers(2, 4))
    prefix, suffix = (data.draw(st.lists(atoms_for(ring, n), max_size=2)) for _ in range(2))
    one_param = data.draw(atoms_for(ring, n).filter(lambda atom: hasattr(atom, "e")))
    a = prefix + [one_param] + suffix
    want = dense_product(ring, n, a)

    moved = prefix + [replace(one_param, e=ring.add(one_param.e, ring.one))] + suffix
    assert dense_product(ring, n, moved) != want
    assert not same_value(ring, n, a, moved)

    g = data.draw(atoms_for(ring, n))
    k = data.draw(st.integers(0, len(a)))
    padded = a[:k] + [g, g._inverse(ring)] + a[k:]
    assert dense_product(ring, n, padded) == want
    assert same_value(ring, n, a, padded)


@pytest.mark.parametrize("name", sorted(EVAL_RINGS))
def test_shape_and_unit_terms_are_single_entries(name):
    # in the Hadamard basis each term of a shape or unit atom updates one
    # column by a multiple of one other
    ring = EVAL_RINGS[name]
    x = _element(ring, 1, 2, 1)
    for n in (2, 3, 4):
        atoms = [ABCDAtom(sh, p, x) for sh in "ABCD" for p in range(2, n + 1)]
        atoms += [UnitAtom(sh, p, x) for sh in "BC" for p in range(1, n + 1)]
        for atom in atoms:
            terms = atom._terms(ring, n)
            assert len(terms) == (2 if isinstance(atom, ABCDAtom) else 1)
            assert all(len(rows) == len(cols) == 1 for _, rows, cols in terms)


def test_a_kernel_slip_fails_the_independent_routes(monkeypatch):
    # same_value compares two outputs of one kernel, so a slip in addmul
    # must show on the dense sides: the identity tables and the rewrite's
    # step checks against their dense or closed-form routes
    from sympelem.errors import StepVerificationFailed
    from sympelem.rewrite import decompose_full
    from sympelem.verify import run_verify_tables

    def failed(ring, n_values):
        return [r.name for r in run_verify_tables(ring, n_values).records if r.status != "PASS"]

    with monkeypatch.context() as m:
        m.setattr(Zmod, "addmul", lambda self, acc, lam, v: (acc - lam * v) % self.m)
        names = failed(Z15, [2, 3])
    assert any(name.startswith("atom-terms") for name in names), names

    real = PolyRing.addmul

    def drop_trailing(self, acc, lam, v):
        # the single-term route without its last step: acc's terms below
        # every key of lam * v are lost
        out = real(self, acc, lam, v)
        if len(lam) != 1 or not acc or not v:
            return out
        low = tuple(map(sum, zip(v[-1][0], lam[0][0])))
        return tuple(t for t in out if t[0] >= low)

    with monkeypatch.context() as m:
        m.setattr(PolyRing, "addmul", drop_trailing)
        assert failed(ring_from_descriptor("poly:q:x,y"), [2, 3])
        qt = ring_from_descriptor("poly:q:t")
        word = word_from_text(qt, 3, "S 1 3 2+t\nS 3 5 -1\nE12 t")
        with pytest.raises(StepVerificationFailed, match="corner-to-shapes"):
            decompose_full(word)
    assert not failed(Z15, [2, 3])

    # the summed sources of a two-row term (S and corner atoms): the
    # second taken with the wrong sign
    real_apply = words._apply_terms

    def second_source_flipped(ring, cols, terms):
        real_apply(ring, cols, [(lam, rows[:1] + tuple((c, -s) for c, s in rows[1:]), targets)
                                for lam, rows, targets in terms])

    with monkeypatch.context() as m:
        m.setattr(words, "_apply_terms", second_source_flipped)
        names = failed(Z15, [2, 3])
        assert {"atom-terms:S", "atom-terms:E12", "atom-terms:E21"} & set(names), names
        qt = ring_from_descriptor("poly:q:t")
        with pytest.raises(StepVerificationFailed):
            decompose_full(word_from_text(qt, 3, "S 1 3 2+t\nS 3 5 -1\nE12 t"))

    # Q's one-gcd multiply-add without its reduction: equal values no
    # longer have equal pairs. Sampled rationals show it; the symbolic
    # items over Q[x, y] do not, as no unreduced pair survives to the end
    # of any of their evaluations
    def unreduced(self, acc, lam, v):
        (nc, dc), (na, da), (nb, db) = acc, lam, v
        return (nc * da * db + na * nb * dc, dc * da * db)

    q = Rationals()
    with monkeypatch.context() as m:
        m.setattr(Rationals, "addmul", unreduced)
        assert failed(q, [2, 3])
    assert not failed(q, [2, 3])


def test_a_two_row_term_sums_its_sources_once(monkeypatch):
    # an S or corner term reads two columns and writes two: summing the
    # sources first makes one addmul pass per target column, not one per
    # (source, target) pair
    calls = []
    real = Zmod.addmul
    monkeypatch.setattr(Zmod, "addmul", lambda self, *args: calls.append(1) or real(self, *args))
    prefix = "A 2 1\nB 2 2\nC 2 3\nD 2 4\n"
    words._eval_cols(Z15, 2, word_from_text(Z15, 2, prefix).atoms)
    before = len(calls)
    words._eval_cols(Z15, 2, word_from_text(Z15, 2, prefix + "S 1 3 5\nE12 7").atoms)
    assert len(calls) - 2 * before == 24
