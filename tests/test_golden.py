"""Golden output digests: any change to ring arithmetic, evaluation or the
rewrite stages that alters an output word or a certificate's step count
fails here, not only in a manual before/after comparison.

The values were last re-recorded when the rewrite stages became closed
forms: same-row segments whose corrections and corner atoms merge into
one corner, one check per transvection, and the 36-atom placed-subgroup
rule for a transvection S_ij with i, j >= 3. ``LENGTH_CEILINGS`` keeps
the output lengths from before every re-recording, and no re-recorded
output may be longer. To re-record after
an intended output change, run this file as a script
(``PYTHONPATH=src python tests/test_golden.py``) and paste what it prints.
"""

import random
from pathlib import Path

import pytest

from sympelem.localglobal import CoverData, conj_decompose, dilate, normality_demo, patch
from sympelem.rewrite import decompose_full
from sympelem.rings import (
    Localized,
    PolyRing,
    Rationals,
    Zmod,
    parse_element,
    ring_from_descriptor,
)
from sympelem.symplectic import pi_swap
from sympelem.words import (
    ABCDAtom,
    CornerAtom,
    CornerMatrixAtom,
    SAtom,
    UnitAtom,
    Word,
    word_from_text,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

Z15 = Zmod(15)
Q = Rationals()
QT = PolyRing(Q, ("t",))
QX = PolyRing(Q, ("x",))


def _gen_word(ring, n, length, rng, sample, corner_prob=0.3):
    atoms = []
    for _ in range(length):
        if rng.random() < corner_prob:
            atoms.append(CornerAtom(rng.choice(["E12", "E21"]), sample()))
        else:
            while True:
                i, j = rng.randint(1, 2 * n), rng.randint(1, 2 * n)
                if i != j and j != pi_swap(i):
                    break
            atoms.append(SAtom(i, j, sample()))
    return Word(ring, n, atoms)


def _rewrite_test_words():
    """The words ``tests/test_rewrite.py`` decomposes, drawn the same way."""
    words = []
    rng = random.Random(37)
    for n in (2, 3):
        for _ in range(8):
            words.append(_gen_word(Z15, n, rng.randint(0, 5), rng, lambda: Z15.sample(rng)))
    rng = random.Random(38)
    for _ in range(5):
        words.append(_gen_word(Z15, 2, 4, rng, lambda: Z15.sample(rng)))
    rng = random.Random(39)
    for _ in range(3):
        words.append(_gen_word(QT, 2, 3, rng, lambda: QT.sample(rng)))
    rng = random.Random(44)
    for _ in range(4):
        words.append(_gen_word(Z15, 4, rng.randint(1, 6), rng, lambda: Z15.sample(rng)))
    words.append(Word(Z15, 3, [ABCDAtom("A", 2, 3), SAtom(3, 5, 4), UnitAtom("B", 1, 2),
                               CornerAtom("E12", 5), UnitAtom("C", 3, 9)]))
    words.append(Word(Z15, 2, [SAtom(1, 3, 4), CornerAtom("E21", 2)]))
    words.append(Word(QX, 2, [SAtom(1, 3, QX.var("x"))]))
    return words


def _seeded_words():
    """Criterion-5-style words of 0-8 atoms at n = 2 and 3: over Q[t] with
    parameters ``randint(-2, 2)`` plus a +-t term one time in four, and
    over Z/15 with parameters ``randrange(15)``."""
    rng = random.Random(2024)
    t = QT.var("t")

    def qt_param():
        p = QT.from_int(rng.randint(-2, 2))
        if rng.random() < 0.25:
            p = QT.add(p, t if rng.random() < 0.5 else QT.neg(t))
        return p

    words = []
    for n in (2, 3):
        for length in range(9):
            words.append(_gen_word(QT, n, length, rng, qt_param))
            words.append(_gen_word(Z15, n, length, rng, lambda: rng.randrange(15)))
    return words


def decomposition_digests():
    out = []
    for w in _rewrite_test_words() + _seeded_words():
        cert = decompose_full(w)
        out.append((w.digest(), cert.output_word.digest(), len(cert.output_word),
                    len(cert.trace)))
    return out


def _read(name):
    return (EXAMPLES / name).read_text()


def example_digests():
    """Outputs of ``normality-demo``, ``patch`` and ``dilate`` on the
    example files, as the CLI reads them, and of ``normality_demo`` on
    seeded criterion-9-style inputs over the example cover."""
    cover = CoverData.from_text(Z15, _read("cover_z15.txt"))
    gamma = word_from_text(Z15, 2, _read("gamma_z15.txt"))
    h = word_from_text(Z15, 2, _read("h_z15.txt"))
    normal = normality_demo(Z15, 2, gamma, h, cover)

    rx = PolyRing(Z15, ("X",))
    alpha = word_from_text(rx, 2, _read("alpha_z15.txt"))
    locals_ = []
    for (s, _, _, _), name in zip(cover.entries, ("local1_z15.txt", "local2_z15.txt")):
        locals_.append(word_from_text(PolyRing(Localized(Z15, s), ("X",)), 2, _read(name)))
    patched = patch(Z15, 2, alpha, cover, locals_)

    t = QT.var("t")
    rsx = PolyRing(Localized(QT, t), ("X",))
    m, dilated = dilate(QT, t, 2, word_from_text(rsx, 2, _read("homotopy_qt.txt")))
    seeded = []
    rng = random.Random(53)
    for _ in range(4):
        g = _gen_word(Z15, 2, rng.randint(1, 3), rng, lambda: Z15.sample(rng))
        hw = Word(Z15, 2, [ABCDAtom(rng.choice("ABCD"), 2, Z15.sample(rng))
                           for _ in range(rng.randint(1, 2))])
        out = normality_demo(Z15, 2, g, hw, cover)
        seeded.append((out.digest(), len(out)))
    return {
        "normality_demo": (normal.digest(), len(normal)),
        "normality_demo_seeded": seeded,
        "patch": (patched.digest(), len(patched)),
        "dilate": (m, dilated.digest(), len(dilated)),
    }


def qt_normality_digests(ring):
    """Outputs of ``normality_demo`` over ``ring`` (Q[t] or Z/15[t]) with
    the cover (t, 1 - t) of ``cover_qt.txt``, where neither s is a unit, so
    patching and dilation clear genuine denominators: the example files
    first, then two inline inputs."""
    cover = CoverData.from_text(ring, _read("cover_qt.txt"))
    inputs = [(_read("gamma_qt.txt"), _read("h_qt.txt")),
              ("S 1 3 1+t", "C 2 t"),
              ("S 1 3 t\nS 2 4 1", "A 2 1\nD 2 t")]
    out = []
    for gamma, h in inputs:
        word = normality_demo(ring, 2, word_from_text(ring, 2, gamma),
                              word_from_text(ring, 2, h), cover)
        out.append((word.digest(), len(word)))
    return out



def corner_normality_digests():
    """Outputs of ``normality_demo`` on its corner route, where gamma is a
    single det-1 corner block, over Z/15 with ``cover_z15.txt`` and over
    Q[t] with ``cover_qt.txt``."""
    inputs = [("zmod:15", "cover_z15.txt", (("7", "3"), ("2", "1")), "A 2 4"),
              ("zmod:15", "cover_z15.txt", (("1", "5"), ("0", "1")), "D 2 2\nB 2 7"),
              ("poly:q:t", "cover_qt.txt", (("1", "t"), ("0", "1")), "B 2 1")]
    out = []
    for descriptor, cover, rows, h in inputs:
        ring = ring_from_descriptor(descriptor)
        delta = tuple(tuple(parse_element(ring, v) for v in row) for row in rows)
        word = normality_demo(ring, 2, Word(ring, 2, [CornerMatrixAtom(delta)]),
                              word_from_text(ring, 2, h),
                              CoverData.from_text(ring, _read(cover)))
        out.append((word.digest(), len(word)))
    return out


def qt_conjugation_digests():
    """Outputs of ``dilate`` and ``patch`` over Q[t] on words whose constant
    prefixes carry a denominator, so each conjugates through
    ``_conj_decompose_ctx``. ``dilate`` at s = t gets a commutator-word
    pair, the same-position crossing pairs (A, D) and (B, C) of
    ``_case3_same_position`` and a pair at different positions. ``patch``
    gets the cover (t, 1 - t) with N = 3 and the local words
    A(1/s) D(X) D(-X) A(-1/s) D(X) = D(X), whose beta conjugates D through
    A(1/s) at the same position."""
    t = QT.var("t")
    rsx = PolyRing(Localized(QT, t), ("X",))
    dilated = []
    for n, text in ((2, "C 2 2/t\nA 2 5*X\nC 2 -2/t"),
                    (2, "A 2 3/t\nD 2 X\nA 2 -3/t"),
                    (2, "B 2 1/t\nC 2 X*(1+t)\nB 2 -1/t"),
                    (3, "A 2 1/t\nD 3 X\nA 2 -1/t")):
        m, out = dilate(QT, t, n, word_from_text(rsx, n, text))
        dilated.append((m, out.digest(), len(out)))
    cover = CoverData.from_text(QT, "s=t c=6*t^2-15*t+10 b=t^3 N=3\n"
                                    "s=1-t c=6*t^2+3*t+1 b=(1-t)^3 N=3\n")
    alpha = word_from_text(PolyRing(QT, ("X",)), 2, "D 2 X")
    locals_ = []
    for s in ("t", "1-t"):
        rsx = PolyRing(Localized(QT, parse_element(QT, s)), ("X",))
        locals_.append(word_from_text(rsx, 2, f"A 2 1/({s})\nD 2 X\nD 2 -X\nA 2 -1/({s})\nD 2 X"))
    patched = patch(QT, 2, alpha, cover, locals_)
    return {"dilate": dilated, "patch": (patched.digest(), len(patched))}


CROSSING_RINGS = ("loc:poly:q:t:s=t", "loc:poly:q:t:s=1+t")


def crossing_conjugation_digests(descriptor):
    """Outputs of ``conj_decompose`` at n = 3 for the four same-position
    crossing pairs (X, Y) at i = j in {2, 3}, a = 2 - t, x = 1 + 3t, and
    each (k, m) of (1, 2), (0, 4), (-2, 5), (2, 9): every route through
    ``_case3_same_position``, with m - 3 * (m // 3) = 0, 1 and 2 and with
    k below, at and above zero."""
    loc = ring_from_descriptor(descriptor)
    a, x = parse_element(QT, "2-t"), parse_element(QT, "1+3*t")
    out = []
    for X, Y in (("A", "D"), ("B", "C"), ("D", "A"), ("C", "B")):
        for i in (2, 3):
            for k, m in ((1, 2), (0, 4), (-2, 5), (2, 9)):
                word, _ = conj_decompose(loc, 3, X, i, a, k, Y, i, m, x)
                out.append((word.digest(), len(word)))
    return out


# (input digest, output digest, len(output), len(cert.trace))
GOLDEN_DECOMPOSITIONS = [
    ('c6d487ff9e41fab4', '0c1b5c1836428aad', 60, 26),
    ('e028167f9b175d04', '25c18408986310d6', 64, 23),
    ('bf922a96213596fa', '23fec112ffa17735', 18, 9),
    ('5a91ee1805f0d601', '7c98312f24022f98', 20, 7),
    ('eb7f7ce97b41fc33', 'eb7f7ce97b41fc33', 0, 0),
    ('1c68f6ce583b795a', '1df91119e6f7cbb7', 12, 1),
    ('570bd736483cf0e0', 'd447ae28514600ef', 30, 13),
    ('557a5f87589ad165', 'c803173862ecd827', 20, 8),
    ('c612efdb0f2c53b5', 'c612efdb0f2c53b5', 0, 0),
    ('682c920aeacf6cb1', '6a18563ec95989f7', 45, 5),
    ('69ceb1409bf53224', '5d63834f72200b8b', 40, 15),
    ('2a3aeed84b6abf35', '477f150795700440', 94, 24),
    ('c98d5746cea44943', '6f6fbefc772b6e5c', 80, 11),
    ('3e77ba4fc2d5a855', 'e6c7f4ac0421e80f', 12, 1),
    ('cb163ff7c87628ec', '49aeae30c6d092ec', 12, 1),
    ('c612efdb0f2c53b5', 'c612efdb0f2c53b5', 0, 0),
    ('fd2bb03d7411f4f3', 'ef52e07e483f8cbb', 36, 23),
    ('9ab2d9bf5f95051b', 'e5195230c036acdc', 66, 19),
    ('d9e4a3054d38426b', 'b17e188b34ffb78d', 64, 21),
    ('57e1df25f52f4fd2', 'fa49569f0753f296', 54, 17),
    ('787d0ddab2c2ecec', 'e2d3747f368289fa', 44, 10),
    ('b11e32029b23d930', 'e0060975675c09be', 12, 1),
    ('2fe738efb5ee0416', '14ae1f39703d2d8f', 34, 8),
    ('68255d90af96d83e', '26b97ec2a2046f55', 54, 19),
    ('4b0be1cec020453a', '2ce00fcb4d5e61b5', 46, 8),
    ('7db7992d98d3e91b', '71d7c0614e5f07d3', 112, 16),
    ('d40e1aac77e32753', '7fe411af74870431', 34, 7),
    ('78d6ce066677bece', '7859a5c6143ddbfb', 66, 17),
    ('e93a0f7e8a4d86a8', 'f0c159714a7c2764', 55, 6),
    ('cfafffd213d5590d', 'b1ba8922ff0f4a85', 34, 7),
    ('22e92f70bf57bc07', '9cec6a99b4e9d3fe', 22, 6),
    ('eb7f7ce97b41fc33', 'eb7f7ce97b41fc33', 0, 0),
    ('eb7f7ce97b41fc33', 'eb7f7ce97b41fc33', 0, 0),
    ('c89106d3f0da141b', 'a9c67d36f184b521', 22, 7),
    ('931b54a943d49c2c', '9756a3dea8ea3d71', 20, 7),
    ('3fc3ce55954efd4b', '9fdecc3085bc8f94', 32, 11),
    ('3c8266a5e6f4323e', '7d73ad2cdc4e51e5', 40, 14),
    ('5a934201fdf5ef6a', '05a77d3af1e93cf7', 32, 13),
    ('87cca7cf34ff3e86', '931375fd9a51b980', 56, 14),
    ('43265cad7bf88fe4', '463fa4a67fddadcc', 56, 14),
    ('ce5399291fed7b7f', '05ea7af2a46d6ba1', 66, 18),
    ('b2278a48288bb304', '59440b21081bd935', 44, 18),
    ('999dc0587b3c9535', '3e776ce31e4465db', 60, 22),
    ('7982898dd910f2f3', '49f563dae2cad611', 56, 18),
    ('54b2f368ae4376cd', '65d3d9b882c2d0a8', 108, 34),
    ('8d429fcc7dbe0e6f', '970c711605f3a7e2', 44, 17),
    ('3d5036bb02d81ff9', '7324c9ba74480d6e', 78, 25),
    ('89322a4058d29824', 'f4737b0f6146d48d', 86, 35),
    ('6e1038b675e9f941', '54fffe3d3b97535f', 72, 33),
    ('c612efdb0f2c53b5', 'c612efdb0f2c53b5', 0, 0),
    ('c612efdb0f2c53b5', 'c612efdb0f2c53b5', 0, 0),
    ('ded4e6cab2eb6b45', '813ef687a2c15436', 34, 3),
    ('0b82e46207d42e06', 'f5c3671b86d4d9b7', 34, 3),
    ('26505dc252d892d4', 'f5fa751af2b2b7a2', 22, 8),
    ('191275388f8f38d1', 'dec6a798a98499b4', 68, 6),
    ('94dc97517dea91d4', 'b519c13cea201467', 24, 3),
    ('2ab533e742c26222', '0ef19b9017a4f92b', 54, 17),
    ('9840e0592d710540', '2c4ebd19ea2abb69', 68, 11),
    ('7cdc43aef62ea890', '402b48abcffcb066', 87, 18),
    ('0ac496a593397102', '25d402cffe49e88b', 90, 17),
    ('323c1c30c2f12587', '12ce7f5f3411cb9c', 40, 15),
    ('7dc5e2d9e7612e89', '1f8e8bc2205e85f5', 134, 24),
    ('95e70afb9ba1151f', '8cf39130debda5a1', 144, 24),
    ('66d231eeeae800ac', '50797c06bc29184b', 96, 36),
    ('c3cc24cbd865ca16', '7ffb11db725b7859', 168, 33),
    ('91884b4f35bb1e7f', '12b153da61ebe811', 102, 24),
    ('664b3f724ab41427', 'c1909c581121e62e', 74, 27),
]

GOLDEN_EXAMPLES = {
    'normality_demo': ('36f80c4f8924fc60', 70),
    'normality_demo_seeded': [('2e6a40ce3591fa92', 85), ('2db7733420528e61', 45), ('eb7f7ce97b41fc33', 0), ('085f373348213217', 86)],
    'patch': ('b791c5fbac21c72a', 1),
    'dilate': (1, 'aaf7da5d86617d13', 1),
}

# ring descriptor -> (output digest, len(output)) of qt_normality_digests
GOLDEN_QT_NORMALITY = {
    'poly:q:t': [('9a593ddfbf422932', 43), ('27ba6fb19797d3b8', 45), ('86a483199fa187df', 90)],
    'poly:zmod:15:t': [('068dcb0c6bb6ee3c', 43), ('e4c4d7842100ef43', 45), ('fde8b006ef44ef33', 90)],
}

# (output digest, len(output)) of corner_normality_digests
GOLDEN_CORNER_NORMALITY = [('6119a5dcb92b1843', 11), ('90fc33b61de4f04d', 25),
                           ('32c91434b5dfab63', 13)]

# (m, output digest, len(output)) of each dilate, (digest, len) of the patch
GOLDEN_QT_CONJUGATION = {
    'dilate': [(2, 'be2354d9de035659', 4), (3, 'b91dd8d78287bc4a', 34),
               (3, 'd900f260507ca27f', 36), (2, 'cba7f8cd8dfa150d', 4)],
    'patch': ('d7ef4aa5ac9dd3d4', 138),
}


# ring descriptor -> (output digest, len(output)) of crossing_conjugation_digests
GOLDEN_CROSSING_CONJUGATION = {
    'loc:poly:q:t:s=t': [
        ('4d504872cfea1485', 37), ('297745520be31a62', 37), ('cede61c69a913413', 37), ('a9fee0c8d7bbb2b3', 37),
        ('a2ec6b67eea86032', 37), ('99f1175102c43708', 37), ('2f6f9f21463e8894', 37), ('33b11afd86dabfba', 37),
        ('d53c0b603de43379', 37), ('a30e805de24303f1', 37), ('e50f845dbf26bda6', 37), ('c71b64dcead26f3e', 37),
        ('7525aab0893edbfb', 37), ('7f1b17ff0cbe7789', 37), ('90e94f472b7dcd0a', 37), ('74205d9829f4493e', 37),
        ('73d7ebb098f96de8', 37), ('a4cbac077a2f8492', 37), ('54c9bbce972d6a49', 37), ('569f9b0d1367ecca', 37),
        ('b55d5c804dbbc700', 37), ('1ee9708ea3510abe', 37), ('74f8126bef49557e', 37), ('9db4c94b17124ad6', 37),
        ('d1326746ea0fb42c', 37), ('ef4790bee4ccd818', 37), ('c1c08f85622c566d', 37), ('97cc5512d20842a5', 37),
        ('83edf3f1d86f0894', 37), ('ae04f36129a48007', 37), ('441ef834619b637e', 37), ('160af0d6c24b73ae', 37),
    ],
    'loc:poly:q:t:s=1+t': [
        ('ac8c8fea8b7f19ef', 37), ('f8d86d6ee13ac957', 37), ('05ef2138c4a8fdfe', 37), ('951ab824d37d2b63', 37),
        ('74989c63e4e1229e', 37), ('db98019ce76bde0f', 37), ('b451579cc3d24f44', 37), ('fe3076beca5d429e', 37),
        ('86c208990082b4af', 37), ('9ec2997b34cc244c', 37), ('63d156ec4573511f', 37), ('c38690a510d91428', 37),
        ('03f0cf4c44d9d84b', 37), ('6bcb6c070a4ddd28', 37), ('5487e68365d9a4b6', 37), ('28740fcc8b353a76', 37),
        ('232997e5b0f5168b', 37), ('d243a578ceb1a3ac', 37), ('09e5045d12bfebab', 37), ('97508817c19ad8d0', 37),
        ('9dd29e1bb2261ea9', 37), ('b770e65b89fc263f', 37), ('fe717c16f9e55dc1', 37), ('f0ce72dfec8d9cae', 37),
        ('8db041a529c83e6a', 37), ('b815c81abd5e3f74', 37), ('1d9b66b010cbb1ea', 37), ('916f6066a7ce0c7e', 37),
        ('8719822ebc74dcdf', 37), ('d55b39dd2c5269db', 37), ('124bb9d94c3f4284', 37), ('6309528655470a7d', 37),
    ],
}


# Output lengths recorded before each corner transvection became three
# corner-unit brackets (36 atoms each until then), in the order of the
# tables above; the conjugation lengths (dilate outputs, then the patch, and
# the crossing-pair words) are those of their first recording. Output length
# is part of the design: a re-recorded word may be shorter than its ceiling,
# never longer.
LENGTH_CEILINGS = {
    "decompositions": [
        140, 170, 78, 78, 0, 34, 160, 44, 0, 220, 166, 226, 286, 30, 34, 0, 108, 170, 168, 126,
        152, 36, 82, 102, 152, 486, 76, 152, 226, 82, 46, 0, 0, 46, 38, 56, 86, 56, 116, 164,
        160, 148, 198, 138, 200, 194, 186, 178, 224, 0, 0, 184, 168, 46, 364, 128, 102, 302,
        306, 348, 188, 470, 550, 188, 560, 256, 262,
    ],
    "normality_demo": [664, 338, 330, 708, 728],
    "corner_normality": [140, 916, 216],
    "qt_normality poly:q:t": [186, 186, 744],
    "qt_normality poly:zmod:15:t": [186, 186, 744],
    "qt_conjugation": [5, 37, 37, 5, 150],
    "crossing_conjugation loc:poly:q:t:s=t": [37] * 32,
    "crossing_conjugation loc:poly:q:t:s=1+t": [37] * 32,
}


def test_decomposition_digests_are_pinned():
    got = decomposition_digests()
    assert len(got) == len(GOLDEN_DECOMPOSITIONS)
    for k, (row, want) in enumerate(zip(got, GOLDEN_DECOMPOSITIONS)):
        assert row == want, f"word {k} (input digest {want[0]})"


def test_example_digests_are_pinned():
    assert example_digests() == GOLDEN_EXAMPLES


@pytest.mark.parametrize("descriptor", sorted(GOLDEN_QT_NORMALITY))
def test_qt_normality_digests_are_pinned(descriptor):
    assert qt_normality_digests(ring_from_descriptor(descriptor)) == GOLDEN_QT_NORMALITY[descriptor]


def test_corner_normality_digests_are_pinned():
    assert corner_normality_digests() == GOLDEN_CORNER_NORMALITY


def test_qt_conjugation_digests_are_pinned():
    assert qt_conjugation_digests() == GOLDEN_QT_CONJUGATION


@pytest.mark.parametrize("descriptor", CROSSING_RINGS)
def test_crossing_conjugation_digests_are_pinned(descriptor):
    assert crossing_conjugation_digests(descriptor) == GOLDEN_CROSSING_CONJUGATION[descriptor]


def test_output_lengths_never_grow():
    # the pin tests above tie each table to the code
    got = {
        "decompositions": [row[2] for row in GOLDEN_DECOMPOSITIONS],
        "normality_demo": [GOLDEN_EXAMPLES["normality_demo"][1]]
        + [length for _, length in GOLDEN_EXAMPLES["normality_demo_seeded"]],
        "corner_normality": [length for _, length in GOLDEN_CORNER_NORMALITY],
        "qt_conjugation": [row[2] for row in GOLDEN_QT_CONJUGATION["dilate"]]
        + [GOLDEN_QT_CONJUGATION["patch"][1]],
    }
    for descriptor, rows in GOLDEN_QT_NORMALITY.items():
        got[f"qt_normality {descriptor}"] = [length for _, length in rows]
    for descriptor, rows in GOLDEN_CROSSING_CONJUGATION.items():
        got[f"crossing_conjugation {descriptor}"] = [length for _, length in rows]
    assert got.keys() == LENGTH_CEILINGS.keys()
    for key, ceilings in LENGTH_CEILINGS.items():
        assert len(got[key]) == len(ceilings), key
        grown = [k for k, (g, c) in enumerate(zip(got[key], ceilings)) if g > c]
        assert not grown, f"{key}: outputs {grown} grew"


if __name__ == "__main__":
    print("GOLDEN_DECOMPOSITIONS = [")
    for row in decomposition_digests():
        print(f"    {row!r},")
    print("]")
    print()
    print("GOLDEN_EXAMPLES = {")
    for key, value in example_digests().items():
        print(f"    {key!r}: {value!r},")
    print("}")
    print()
    print("GOLDEN_QT_NORMALITY = {")
    for descriptor in ("poly:q:t", "poly:zmod:15:t"):
        print(f"    {descriptor!r}: {qt_normality_digests(ring_from_descriptor(descriptor))!r},")
    print("}")
    print()
    print(f"GOLDEN_CORNER_NORMALITY = {corner_normality_digests()!r}")
    print()
    print("GOLDEN_QT_CONJUGATION = {")
    for key, value in qt_conjugation_digests().items():
        print(f"    {key!r}: {value!r},")
    print("}")
    print()
    print("GOLDEN_CROSSING_CONJUGATION = {")
    for descriptor in CROSSING_RINGS:
        print(f"    {descriptor!r}: {crossing_conjugation_digests(descriptor)!r},")
    print("}")
