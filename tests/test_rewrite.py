import random
from dataclasses import replace

import pytest

from sympelem import cli
from sympelem import identities as idn
from sympelem import rewrite as rw
from sympelem.errors import AlphabetViolation, StepVerificationFailed
from sympelem.identities import conj_abcd_atom
from sympelem.matrices import Matrix
from sympelem.rings import PolyRing, Rationals, Zmod, parse_element, ring_from_descriptor
from sympelem.symplectic import corner_embed, gen_corner, gen_s, pi_swap, symp_inverse
from sympelem.words import ABCDAtom, CornerAtom, SAtom, UnitAtom, Word, word_from_text

Z15 = Zmod(15)
Q = Rationals()
QX = PolyRing(Q, ("x",))


def int_matrix(ring, rows):
    return Matrix(ring, [[ring.from_int(v) for v in r] for r in rows])


def rand_gen_word(ring, n, length, rng, corner_prob=0.3):
    atoms = []
    for _ in range(length):
        if rng.random() < corner_prob:
            atoms.append(CornerAtom(rng.choice(["E12", "E21"]), ring.sample(rng)))
        else:
            while True:
                i, j = rng.randint(1, 2 * n), rng.randint(1, 2 * n)
                if i != j and j != pi_swap(i):
                    break
            atoms.append(SAtom(i, j, ring.sample(rng)))
    return Word(ring, n, atoms)


@pytest.mark.parametrize("n", range(2, 9))
def test_rules_are_row12_transvections_covering_every_index(n):
    # every S_ij with 3 <= i, j <= 2n and j not in {i, pi(i)} has a rule:
    # of S_ij and its mirror, the one whose row lies in the lower block p
    # is a row-1/2 transvection of I_{2(p-1)} perp Sp_{2(n-p+1)}, and the
    # placed-subgroup rule's 36 shape atoms evaluate over Q[x, y] to the
    # dense S_ij(x*y)
    ring = PolyRing(Q, ("x", "y"))
    xy = ring.mul(ring.var("x"), ring.var("y"))
    for i in range(3, 2 * n + 1):
        for j in range(3, 2 * n + 1):
            if j in (i, pi_swap(i)):
                continue
            want = gen_s(ring, n, i, j, xy)
            rep = SAtom(i, j, xy) if i < j else rw._mirror(ring, SAtom(i, j, xy))
            p = (rep.i + 1) // 2
            assert rep.i - 2 * (p - 1) in (1, 2) and (rep.j + 1) // 2 > p
            assert Word(ring, n, [rep]).eval() == want, (i, j)
            word = rw.reduce_to_row12(Word(ring, n, [SAtom(i, j, xy)]))
            assert len(word) == 36 and all(isinstance(a, ABCDAtom) for a in word.atoms)
            assert word.eval() == want, (i, j)


def test_reduce_to_row12():
    w = Word(Z15, 3, [SAtom(3, 5, 7)])
    r = rw.reduce_to_row12(w)
    assert r.eval() == w.eval()
    assert all(a.i in (1, 2) for a in r.atoms if isinstance(a, SAtom))
    # a mirrored atom reduces to a single transvection
    w = Word(Z15, 2, [SAtom(3, 1, 7)])
    r = rw.reduce_to_row12(w)
    assert len(r) == 1 and r.eval() == w.eval()
    rng = random.Random(31)
    for n in (2, 3, 4):
        for _ in range(10):
            atoms = []
            for _ in range(rng.randint(0, 6)):
                i = rng.randint(3, 2 * n)
                j = rng.choice([c for c in range(1, 2 * n + 1) if c not in (i, pi_swap(i))])
                atoms.append(SAtom(i, j, Z15.sample(rng)))
            w = Word(Z15, n, atoms)
            r = rw.reduce_to_row12(w)
            assert r.eval() == w.eval()
            # a mirror is one row-1/2 transvection; any other atom becomes
            # the 36 shape atoms of the placed-subgroup rule, none at zero
            assert all(isinstance(a, ABCDAtom) or (isinstance(a, SAtom) and a.i in (1, 2))
                       for a in r.atoms)
            assert len(r) == sum(1 if a.j <= 2 else 36 * (a.e != 0) for a in atoms)
    # only transvections with row >= 3 are accepted
    for atom in (CornerAtom("E12", 1), SAtom(1, 3, 4), ABCDAtom("A", 2, 1)):
        with pytest.raises(AlphabetViolation):
            rw.reduce_to_row12(Word(Z15, 2, [SAtom(3, 1, 7), atom]))


def test_decompose_initial_single_transvection():
    x = QX.var("x")
    w = Word(QX, 2, [SAtom(1, 3, x)])
    witness, body, _ = rw.decompose_initial(w)
    assert len(body) <= 6
    assert all(isinstance(a, (ABCDAtom, UnitAtom)) for a in body.atoms)
    assert all(isinstance(a, CornerAtom) for a in witness.word)
    assert Word(QX, 2, witness.word + body.atoms).eval() == w.eval()


def test_decompose_initial_empty_and_corner_input():
    witness, body, _ = rw.decompose_initial(Word(Z15, 2, []))
    assert witness.word == () and len(body) == 0
    # runs are corner-free: decompose_full cuts them at corners
    with pytest.raises(AlphabetViolation):
        rw.decompose_initial(Word(Z15, 2, [SAtom(1, 3, 4), CornerAtom("E21", 2)]))
    # corner-sandwiched transvections: the closed form of the leading
    # corner conjugation identity
    rng = random.Random(32)
    for _ in range(10):
        lam, xv, yv = (Z15.sample(rng) for _ in range(3))
        w = Word(Z15, 2, [CornerAtom("E21", lam), SAtom(1, 3, xv), SAtom(1, 4, yv),
                          CornerAtom("E21", Z15.neg(lam))])
        cert = rw.decompose_full(w)
        assert all(isinstance(a, ABCDAtom) for a in cert.output_word.atoms)
        assert cert.output_word.eval() == w.eval()


def test_decompose_initial_rejects_high_rows():
    with pytest.raises(AlphabetViolation):
        rw.decompose_initial(Word(Z15, 3, [SAtom(3, 5, 1)]))


def test_corner_to_abcd():
    # each nonzero corner transvection is three corner-unit brackets of
    # 4 atoms, one checked step; a zero one is dropped
    rng = random.Random(35)
    for descriptor in ("poly:q:t", "zmod:15", "poly:zmod:15:t", "loc:poly:q:t:s=t"):
        ring = ring_from_descriptor(descriptor)
        for n in (2, 3, 4):
            for kind in ("E21", "E12"):
                for c in [ring.sample(rng) for _ in range(4)] + [ring.zero]:
                    word, trace = rw.corner_to_abcd(ring, n, [CornerAtom(kind, c)])
                    assert all(isinstance(a, ABCDAtom) for a in word.atoms)
                    assert word.eval() == gen_corner(ring, n, kind, c), (descriptor, n, kind)
                    nonzero = not ring.is_zero(c)
                    assert len(word) == 12 * nonzero
                    assert [rule for rule, _, _ in trace] == ["corner-to-shapes"] * nonzero
    # several corner atoms concatenate
    atoms = [CornerAtom("E12", 3), CornerAtom("E21", 7)]
    word, _ = rw.corner_to_abcd(Z15, 2, atoms)
    want = gen_corner(Z15, 2, "E12", 3).mul(gen_corner(Z15, 2, "E21", 7))
    assert word.eval() == want
    with pytest.raises(AlphabetViolation):
        rw.corner_to_abcd(Z15, 2, [ABCDAtom("A", 2, 1)])


def test_conj_abcd_atom():
    rng = random.Random(36)
    for n in (2, 3):
        for _ in range(10):
            t, u = Z15.sample(rng), Z15.sample(rng)
            delta = int_matrix(Z15, [[1, 0], [t, 1]]).mul(int_matrix(Z15, [[1, u], [0, 1]]))
            atom = ABCDAtom(rng.choice("ABCD"), rng.randint(2, n), Z15.sample(rng))
            out = conj_abcd_atom(Z15, delta.rows, atom)
            emb = corner_embed(delta, n)
            want = emb.mul(Word(Z15, n, [atom]).eval()).mul(symp_inverse(emb))
            assert Word(Z15, n, out).eval() == want


def test_decompose_full_round_trip():
    rng = random.Random(37)
    for n in (2, 3):
        for _ in range(8):
            w = rand_gen_word(Z15, n, rng.randint(0, 5), rng)
            cert = rw.decompose_full(w)
            assert cert.verified
            assert all(isinstance(a, ABCDAtom) for a in cert.output_word.atoms)
            assert cert.output_word.eval() == w.eval()


def test_decompose_full_idempotent_alphabet():
    rng = random.Random(38)
    for _ in range(5):
        w = rand_gen_word(Z15, 2, 4, rng)
        cert = rw.decompose_full(w)
        again = rw.decompose_full(cert.output_word)
        assert again.output_word.eval() == w.eval()
        assert all(isinstance(a, ABCDAtom) for a in again.output_word.atoms)


def test_decompose_full_mixed_alphabet():
    rng = random.Random(40)
    w = Word(Z15, 3, [ABCDAtom("A", 2, 3), SAtom(3, 5, 4), UnitAtom("B", 1, 2),
                      CornerAtom("E12", 5), UnitAtom("C", 3, 9)])
    cert = rw.decompose_full(w)
    assert cert.output_word.eval() == w.eval()
    assert all(isinstance(a, ABCDAtom) for a in cert.output_word.atoms)


def test_conjugation_closure_of_shape_words():
    # det-1 corner conjugates of shape words are shape and unit words, and
    # so shape words once the units are expanded
    rng = random.Random(41)
    for _ in range(10):
        t, u = Z15.sample(rng), Z15.sample(rng)
        delta = int_matrix(Z15, [[1, 0], [t, 1]]).mul(int_matrix(Z15, [[1, u], [0, 1]]))
        h = Word(Z15, 3, [ABCDAtom(rng.choice("ABCD"), rng.randint(2, 3), Z15.sample(rng))
                          for _ in range(rng.randint(1, 3))])
        out = []
        for atom in h.atoms:
            out.extend(conj_abcd_atom(Z15, delta.rows, atom))
        emb = corner_embed(delta, 3)
        want = emb.mul(h.eval()).mul(symp_inverse(emb))
        assert Word(Z15, 3, out).eval() == want
        assert all(isinstance(a, (ABCDAtom, UnitAtom)) for a in out)
        flat, _ = rw.eliminate_units_inplace(Word(Z15, 3, out))
        assert flat.eval() == want
        assert all(isinstance(a, ABCDAtom) for a in flat.atoms)


def test_decompose_full_over_polynomials():
    rng = random.Random(39)
    qt = PolyRing(Q, ("t",))
    for _ in range(3):
        w = rand_gen_word(qt, 2, 3, rng)
        cert = rw.decompose_full(w)
        assert cert.output_word.eval() == w.eval()


def test_certificate_trace_records_steps():
    w = Word(Z15, 2, [SAtom(1, 3, 4), CornerAtom("E21", 2)])
    cert = rw.decompose_full(w)
    assert cert.trace
    rules = {r for r, _, _ in cert.trace}
    assert "transvection-split" in rules
    assert cert.summary().startswith("in=2 atoms")


def test_decompose_full_n4():
    rng = random.Random(44)
    for _ in range(4):
        w = rand_gen_word(Z15, 4, rng.randint(1, 6), rng)
        cert = rw.decompose_full(w)
        assert all(isinstance(a, ABCDAtom) for a in cert.output_word.atoms)
        assert cert.output_word.eval() == w.eval()


def test_step_failure_names_ring_and_n_and_replays(monkeypatch):
    # a sign fault in every placed bracket breaks the placed-subgroup step
    bracket = rw.placed_bracket_atoms

    def negated(ring, n, shape, p, q, e):
        return bracket(ring, n, shape, p, q, ring.neg(e))

    monkeypatch.setattr(rw, "placed_bracket_atoms", negated)
    ring = PolyRing(Q, ("t",))
    word = Word(ring, 3, [SAtom(1, 3, ring.from_int(4)),
                          SAtom(3, 5, ring.add(ring.one, ring.var("t")))])
    with pytest.raises(StepVerificationFailed) as exc:
        rw.decompose_full(word)
    msg = str(exc.value)
    head, rest = msg.split("\nbefore:\n", 1)
    before, after = rest.split("after:\n", 1)
    assert head == "rule 'placed-subgroup' changed the evaluation over poly:q:t at n=3"
    assert before == "S 3 5 t+1\n" and after.count("\n") == 36
    # the reported input replays to the same failure
    descriptor, n = head.split(" over ")[1].split(" at n=")
    replay = word_from_text(ring_from_descriptor(descriptor), int(n), before)
    with pytest.raises(StepVerificationFailed) as again:
        rw.decompose_full(replay)
    assert str(again.value) == msg


def _negate_last(fn):
    """``fn`` with its last argument, a ring parameter, negated."""
    return lambda ring, *args: fn(ring, *args[:-1], ring.neg(args[-1]))


def _inverted(fn):
    """``fn`` with each atom it returns inverted, i.e. its parameter negated."""
    def faulty(ring, *args):
        out = fn(ring, *args)
        return [a._inverse(ring) for a in out] if isinstance(out, list) else out._inverse(ring)
    return faulty


def _negated_form_split(ring, kind, lam, mu, val, pos):
    return idn.form_split_atoms(ring, kind, lam, mu, ring.neg(val), pos)


QT_RING = ring_from_descriptor("poly:q:t")


def _negated_map(self, f):
    return replace(self, e=QT_RING.neg(f(self.e)))


# (rule family, owner and name of the code to fault, the faulty code, the
# input, the failing step's before side); merge-adjacent merges shapes in
# the output and transvections in a segment
_FAULTS = [
    ("mirror", rw, "_mirror", _inverted(rw._mirror), "S 3 1 t+1\n", "S 3 1 t+1\n"),
    ("placed-subgroup", rw, "placed_bracket_atoms", _negate_last(rw.placed_bracket_atoms),
     "S 1 4 2\nS 4 5 t+1\n", "S 4 5 t+1\n"),
    ("transvection-split", rw, "form_split_atoms", _negated_form_split,
     "UB 2 3\nS 2 5 t+1\n", "S 2 5 t+1\n"),
    ("stage boundary", rw, "_merge_corrections", _inverted(rw._merge_corrections),
     "S 1 3 t+1\nE12 2\nS 1 6 t\nE21 1\n", "S 1 3 t+1\nE12 2\nS 1 6 t\n"),
    ("corner-to-shapes", rw, "corner_unit_atoms", _negate_last(rw.corner_unit_atoms),
     "A 2 1\nE21 t+1\n", "E21 t+1\n"),
    ("unit-to-bracket", rw, "unit_bracket_atoms", _negate_last(rw.unit_bracket_atoms),
     "C 3 1\nUB 2 t+1\n", "UB 2 t+1\n"),
    ("merge-adjacent", ABCDAtom, "_map", _negated_map, "A 2 1\nA 2 t\n", "A 2 1\nA 2 t\n"),
    ("merge-adjacent", SAtom, "_map", _negated_map, "S 2 4 1\nS 2 4 t\n", "S 2 4 1\nS 2 4 t\n"),
]


@pytest.mark.parametrize("rule, owner, name, faulty, text, before_want", _FAULTS,
                         ids=[f"{f[0]}-{f[4].split()[0]}" for f in _FAULTS])
def test_every_rule_family_fails_by_name_and_replays(rule, owner, name, faulty, text,
                                                     before_want, monkeypatch, tmp_path, capsys):
    # a sign fault in one rule fails that rule's own check, with the ring,
    # n and a before side that replays through the CLI to the same message
    monkeypatch.setattr(owner, name, faulty)
    word = word_from_text(QT_RING, 3, text)
    with pytest.raises(StepVerificationFailed) as exc:
        rw.decompose_full(word)
    msg = str(exc.value)
    head, rest = msg.split("\nbefore:\n", 1)
    before, after = rest.split("after:\n", 1)
    assert head == f"rule {rule!r} changed the evaluation over poly:q:t at n=3"
    assert before == before_want
    assert word_from_text(QT_RING, 3, after).atoms
    replay = tmp_path / "before.txt"
    replay.write_text(before)
    assert cli.main(["decompose", "--ring", "poly:q:t", "--n", "3", "--in", str(replay)]) == 1
    assert capsys.readouterr().err == f"verification failure: {msg}\n"


@pytest.mark.parametrize("descriptor, param", [("poly:q:t", "t+2"), ("zmod:15", "7"),
                                               ("poly:zmod:15:t", "t+2"),
                                               ("loc:poly:q:t:s=t", "2+1/t")])
def test_placed_subgroup_rule_gives_at_most_36_atoms(descriptor, param):
    # every S_ij with i, j >= 3 and j not in {i, pi(i)} at n = 3, 4, 5
    ring = ring_from_descriptor(descriptor)
    e = parse_element(ring, param)
    count = 0
    for n in (3, 4, 5):
        for i in range(3, 2 * n + 1):
            for j in range(3, 2 * n + 1):
                if j in (i, pi_swap(i)):
                    continue
                word = Word(ring, n, [SAtom(i, j, e)])
                out = rw.decompose_full(word).output_word
                assert len(out) <= 36, (n, i, j)
                assert out.eval() == word.eval(), (n, i, j)
                count += 1
    assert count == 80
