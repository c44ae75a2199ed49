"""Golden output digests: any change to ring arithmetic, evaluation or the
rewrite stages that alters an output word or a certificate's step count
fails here, not only in a manual before/after comparison.

The values were recorded from the arithmetic kernels that sort a dict of
terms on every polynomial operation; the sorted-merge kernels must give the
same bytes. To re-record after an intended output change, run this file as
a script (``PYTHONPATH=src python tests/test_golden.py``) and paste what it
prints.
"""

import random
from pathlib import Path

import pytest

from sympelem.localglobal import CoverData, dilate, normality_demo, patch
from sympelem.rewrite import decompose_full
from sympelem.rings import Localized, PolyRing, Rationals, Zmod, ring_from_descriptor
from sympelem.symplectic import pi_swap
from sympelem.words import ABCDAtom, CornerAtom, SAtom, UnitAtom, Word, word_from_text

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
        out.append((w.digest(), cert.output_word.digest(), len(cert.trace)))
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
    alpha = word_from_text(rx, 2, _read("alpha_z15.txt")).eval()
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


# (input digest, output digest, len(cert.trace))
GOLDEN_DECOMPOSITIONS = [
    ('c6d487ff9e41fab4', '53bb86d53e5a70b6', 71),
    ('e028167f9b175d04', '475b26afd3c1c558', 83),
    ('bf922a96213596fa', '1c12c76c6be4d839', 30),
    ('5a91ee1805f0d601', '696bc1642b798047', 29),
    ('eb7f7ce97b41fc33', 'eb7f7ce97b41fc33', 0),
    ('1c68f6ce583b795a', '5d39a766c007b624', 10),
    ('570bd736483cf0e0', '27f2a1e75039c0c1', 57),
    ('557a5f87589ad165', '0f5032423d656e7b', 20),
    ('c612efdb0f2c53b5', 'c612efdb0f2c53b5', 0),
    ('682c920aeacf6cb1', 'eb24df2dadbc2005', 82),
    ('69ceb1409bf53224', '0bb109ae37644545', 85),
    ('2a3aeed84b6abf35', '9150295f39543d7f', 107),
    ('c98d5746cea44943', 'e6a2e7bc7507c4d7', 109),
    ('3e77ba4fc2d5a855', '656396c3b1c1df71', 12),
    ('cb163ff7c87628ec', 'e72377532b080912', 10),
    ('c612efdb0f2c53b5', 'c612efdb0f2c53b5', 0),
    ('fd2bb03d7411f4f3', 'cdc98dc4271e551c', 61),
    ('9ab2d9bf5f95051b', '43d68776fb41d960', 66),
    ('d9e4a3054d38426b', 'f76633fe13e49a23', 68),
    ('57e1df25f52f4fd2', 'a2bf0f3492dfd589', 49),
    ('787d0ddab2c2ecec', '33c78101d113b2d4', 47),
    ('b11e32029b23d930', 'b7a5c0ea36faf7e6', 9),
    ('2fe738efb5ee0416', 'f257ff5961b517f2', 28),
    ('68255d90af96d83e', 'b7bb4e28ceb61868', 48),
    ('4b0be1cec020453a', 'bf695ec82cc4844d', 46),
    ('7db7992d98d3e91b', 'c93893a30c09cf24', 202),
    ('d40e1aac77e32753', 'e7e440f7487bbfe5', 30),
    ('78d6ce066677bece', 'acdaf04c8bf1f0c7', 62),
    ('e93a0f7e8a4d86a8', 'fa44da517ee09f24', 86),
    ('cfafffd213d5590d', 'eae8920dc32f6bf2', 27),
    ('22e92f70bf57bc07', '9d5a3686354bd702', 18),
    ('eb7f7ce97b41fc33', 'eb7f7ce97b41fc33', 0),
    ('eb7f7ce97b41fc33', 'eb7f7ce97b41fc33', 0),
    ('c89106d3f0da141b', 'ad0468694ec7ba21', 19),
    ('931b54a943d49c2c', '3b8140c4277aadc9', 22),
    ('3fc3ce55954efd4b', '112a6f13db62a028', 28),
    ('3c8266a5e6f4323e', 'c2fa72066487d9ff', 39),
    ('5a934201fdf5ef6a', 'f8a4f346f3ecaff8', 30),
    ('87cca7cf34ff3e86', '42c22818a3ab5453', 44),
    ('43265cad7bf88fe4', '8b9a74f722440dde', 55),
    ('ce5399291fed7b7f', 'ff2e5a44a8b246d0', 62),
    ('b2278a48288bb304', '3f3108efb826ba34', 69),
    ('999dc0587b3c9535', '1af2f5524bdff13f', 79),
    ('7982898dd910f2f3', '19b515b965dba6a7', 59),
    ('54b2f368ae4376cd', '0b4bbd6042bb57c7', 95),
    ('8d429fcc7dbe0e6f', '38f8778ec6101036', 85),
    ('3d5036bb02d81ff9', '3fa586572fcb7310', 84),
    ('89322a4058d29824', '87e4c1ed837ac279', 98),
    ('6e1038b675e9f941', '50f92f8003c42b68', 99),
    ('c612efdb0f2c53b5', 'c612efdb0f2c53b5', 0),
    ('c612efdb0f2c53b5', 'c612efdb0f2c53b5', 0),
    ('ded4e6cab2eb6b45', 'a7f7b4bdc69de65c', 73),
    ('0b82e46207d42e06', '9bed98b6c435fbe0', 73),
    ('26505dc252d892d4', '9f67cdd703e11a0a', 20),
    ('191275388f8f38d1', '05678de8a3e47148', 148),
    ('94dc97517dea91d4', 'c74a79cfc56d48c3', 49),
    ('2ab533e742c26222', '2722020f07f17647', 46),
    ('9840e0592d710540', '2ed0659ee9defd0e', 110),
    ('7cdc43aef62ea890', '03f600fa477ce4c9', 121),
    ('0ac496a593397102', '9c3e4095485277fa', 128),
    ('323c1c30c2f12587', 'fd32af8dc08d026c', 70),
    ('7dc5e2d9e7612e89', '42b5884b57f130e2', 193),
    ('95e70afb9ba1151f', '3343a81af3e4e9e3', 231),
    ('66d231eeeae800ac', '93318c2044f37387', 109),
    ('c3cc24cbd865ca16', 'f7071ddd27c0d9c2', 220),
    ('91884b4f35bb1e7f', '49a7ca3159c99843', 93),
    ('664b3f724ab41427', 'd1f1eb35eef150c7', 105),
]

GOLDEN_EXAMPLES = {
    'normality_demo': ('7693b8b785d64ebe', 664),
    'normality_demo_seeded': [('0e1163477ef9aa7e', 338), ('974511cda7988304', 330), ('84bad4d7e19a2caf', 708), ('5a8da991825606eb', 728)],
    'patch': ('5e2a9f4a65ce68a3', 2),
    'dilate': (1, 'aaf7da5d86617d13', 1),
}

# ring descriptor -> (output digest, len(output)) of qt_normality_digests
GOLDEN_QT_NORMALITY = {
    'poly:q:t': [('3343718b620f6b62', 186), ('bb5e204c55abae80', 186), ('64ca52cb185db721', 744)],
    'poly:zmod:15:t': [('8a6598a80571d395', 186), ('4780a7460f0cd38e', 186), ('ad6aef14358536a7', 744)],
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
