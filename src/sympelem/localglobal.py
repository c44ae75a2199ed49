"""Conjugation decompositions over localizations, the dilation argument,
patching along a comaximal cover, and the normality demonstration.

The conjugation decompositions, and the chains ``dilate`` builds from
them, write a parameter s^e * c, c in the numerator ring (R, or R[X], or
R[Y][X] for the two-variable case), as the graded pair (e, c) of
``_Graded``. Their atoms are ``ABCDAtom``s and ``UnitAtom``s over such
pairs, built by the ``identities`` builders verify-tables checks
(``bracket_atoms``, ``bracket_unit``, ``unit_commutator_word`` and
``composite_pieces``); ``conj_abcd_atom`` is the det-1 conjugation row of
``normality_demo``. So no closed form is read here but through the
builder its table's items check. Every produced word is verified against
its defining identity.

Every check here compares two words with ``same_value``, and the element
a word must equal is always given as a word. Where one word is the image
of another under a ring homomorphism phi, the image is phi applied to
every parameter, which is exact since eval(phi o w) = phi(eval w). The
final checks go through ``rewrite._same``, whose failure names the rule,
the ring and n and lists both words: ``conj_decompose`` against g h g^-1
(rule ``conj``), ``dilate`` against its input at X -> s^m X (rule
``dilate``), ``patch`` against alpha (rule ``patch``) and
``normality_demo`` against gamma h gamma^-1 (rule ``normality``). A
homotopy's value at X = 0 is read off its word at X -> 0, merged atom by
atom by ``rewrite._push_shape``, each merge checked: a merged word that
is empty is the identity, and any other is compared with the empty word.
No dense matrix is multiplied or inverted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AlphabetViolation,
    BadIndices,
    CoverNotComaximal,
    ExponentTooSmall,
    LocalWordMismatch,
    NotHomotopy,
    ParseError,
    StepVerificationFailed,
)
from . import identities as idn
from .rewrite import (_push_shape, _same, decompose_full, eliminate_units_inplace,
                      simplify_shape_word)
from .rings import Localized, PolyRing, parse_element
from .words import ABCDAtom, CornerMatrixAtom, UnitAtom, Word, same_value

DEFAULT_FUEL = 64      # largest dilation exponent m that dilate tries
MAX_ATOMS = 200_000    # longest conjugation chain dilate builds for one step


# ---------------------------------------------------------------------------
# conjugation decompositions: parameters s^e * c as graded pairs (e, c)
# ---------------------------------------------------------------------------

class _Graded:
    """Parameters s^e * c as pairs (e, c), c in the numerator ring ``num``.

    Atoms whose parameters are such pairs are built by the ``identities``
    builders verify-tables checks. Those only multiply, negate and scale
    by integers, which is all this offers: a sum has no exponent, so a
    stray ``add`` fails with AttributeError."""

    def __init__(self, num):
        self.num = num

    def mul(self, p, q):
        return p[0] + q[0], self.num.mul(p[1], q[1])

    def neg(self, p):
        return p[0], self.num.neg(p[1])

    def scale_int(self, k, p):
        return p[0], self.num.scale_int(k, p[1])


def _shape_atoms(G, atoms, i):
    """Graded shape and unit atoms as graded shape atoms, zero parameters
    dropped. A unit sh(s^e c) is the bracket [g1(s^e1 c/4), g2(s^e2)] of
    ``unit_bracket_shapes`` at its position, a corner unit at i, with
    e2 = e // 2 for e >= 2 and 0 otherwise: split so, both exponents stay
    above the denominators ``dilate`` conjugates the word through."""
    num = G.num
    out = []
    for atom in atoms:
        e, c = atom.e
        if num.is_zero(c):
            continue
        if isinstance(atom, ABCDAtom):
            out.append(atom)
            continue
        e2 = e // 2 if e >= 2 else 0
        g1, g2 = idn.unit_bracket_shapes(atom.shape, atom.pos)
        p = i if atom.pos == 1 else atom.pos
        u = num.mul(c, num.mul(num.inv2, num.inv2))
        out += idn.bracket_atoms(G, [ABCDAtom(g1, p, (e - e2, u))],
                                 [ABCDAtom(g2, p, (e2, num.one))])
    return out


def conj_decompose(locring, n, Xshape, i, a, k, Yshape, j, m, x):
    """Word for E(X_i)(a/s^k) E(Y_j)(s^m x) E(X_i)(a/s^k)^-1 over R_s,
    together with its graded atoms: the same word with each parameter
    s^e c as the pair (e, c). Requires m > k, and both in
    -DEFAULT_FUEL..DEFAULT_FUEL, as the cost grows with m - k; the usage
    errors name k and m as the conj command's flags."""
    if m <= k:
        raise ExponentTooSmall(f"--m {m} must be greater than --k {k}")
    if max(abs(k), abs(m)) > DEFAULT_FUEL:
        raise ValueError(f"--k {k} and --m {m} must lie in -{DEFAULT_FUEL}..{DEFAULT_FUEL}")
    g, h = ABCDAtom(Xshape, i, (-k, a)), ABCDAtom(Yshape, j, (m, x))
    graded = _conj_decompose_ctx(locring.base, locring.s, n, g, h)
    over = lambda p: locring.s_power_mul(locring.embed(p[1]), p[0])  # (e, c) -> s^e c
    word = Word(locring, n, [atom._map(over) for atom in graded])
    g_loc = g._map(over)
    _same(locring, n, "conj", [g_loc, h._map(over), g_loc._inverse(locring)], word.atoms)
    return word, graded


def _conj_decompose_ctx(num, s_num, n, g, h):
    """The graded shape atoms of the word for g h g^-1, where g and h are
    shape atoms with graded parameters over the numerator ring ``num``
    and s = ``s_num``."""
    X, i, Y, j = g.shape, g.pos, h.shape, h.pos
    if not (2 <= i <= n and 2 <= j <= n):
        raise BadIndices("positions must lie in 2..n")
    G = _Graded(num)

    if num.is_zero(g.e[1]) or num.is_zero(h.e[1]) or idn.commutes(X, i, Y, j):
        atoms = _shape_atoms(G, [h], i)
    elif i != j or (X, Y) not in idn.CROSSING_PAIRS:
        # [g, h] is read off the product of the two parameters: split the
        # exponent m - k of that product across the pair
        q = (h.e[0] + g.e[0]) // 2
        p = h.e[0] + g.e[0] - q
        atoms = idn.bracket_atoms(G, [ABCDAtom(X, i, (p, g.e[1]))],
                                  [ABCDAtom(Y, j, (q, h.e[1]))]) + [h]
    else:
        atoms = _case3_same_position(G, s_num, n, g, h)

    if len(atoms) > 45:
        raise StepVerificationFailed(f"decomposition length {len(atoms)} exceeds 45")
    return atoms


def _case3_same_position(G, s_num, n, g, h):
    """g h g^-1 for a same-position crossing pair, through its composite
    row.

    With h = E(Y_i)(s^m x), y = s^m3, z = 4u s^(2 m3) and
    u = s^(m - 3 m3) x / 8, h = E(Y_i)(2yz) is y_g [z_g, w_g] as
    ``composite_pieces`` builds it: y_g, w_g placed units and z_g a block
    generator. The group identity
    [g, h[k,l]] = [g,h] h [[g,k]k, [g,l]l] [l,k] h^-1,
    after the final [l,k] h^-1 h [k,l] cancels, leaves
    [g,y_g] y_g [P, Q] with P = [g,z_g] z_g and Q = [g,w_g] w_g. Each
    bracket with g is read from ``unit_commutator_word`` for a unit and
    from ``bracket_unit`` for z_g.
    """
    num, X, i = G.num, g.shape, g.pos
    m, x = h.e
    m3 = m // 3
    u = num.mul(num.mul(num.pow_int(num.inv2, 3), x), num.pow_int(s_num, m - 3 * m3))

    def conj(z):
        """[g, z] z as graded shape atoms."""
        if isinstance(z, UnitAtom):
            bracket = idn.unit_commutator_word(G, n, X, i, g.e, z.shape, z.pos, z.e).atoms
        else:
            bracket = (idn.bracket_unit(G, X, i, g.e, z.shape, z.e),)
        return _shape_atoms(G, [*bracket, z], i)

    yc, pc, qc = map(conj, idn.composite_pieces(G, n, X, h.shape, i, (m3, num.one),
                                                (2 * m3, num.scale_int(4, u))))
    return yc + idn.bracket_atoms(G, pc, qc)


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------

def _param_valuation(Rs, c, cap):
    """Exponent e and numerator x with c = s^e x for c in R_s[X], where e is
    the largest exponent up to cap that leaves x in R[X]; None if that e is
    below -cap. c s^-e is integral exactly when e is at most the valuation
    of every coefficient."""
    if not c:
        return 0, ()
    e = min(Rs.valuation_floor(v, cap) for _, v in c)
    if e < -cap:
        return None
    return e, tuple((ee, Rs.s_power_mul(v, -e)[0]) for ee, v in c)


def _embed_poly(RsX, p):
    """Map an R[X] polynomial representation into R_s[X]."""
    Rs = RsX.base
    return tuple((e, Rs.embed(c)) for e, c in p)


def _identity_at_zero(word, base):
    """Whether ``word``, over base[X], evaluates to the identity at X = 0.
    Its atoms at X -> 0 are merged as they are read, each merge checked,
    and only what the merges leave is evaluated."""
    left, merges = [], []
    for atom in word.atoms:
        _push_shape(base, word.n, left, atom._map(word.ring.eval_at_zero), merges)
    return not left or same_value(base, word.n, left, ())


def dilate(base_ring, s, n, word):
    """Clear the localization denominators of a homotopy word.

    ``word`` is over R_s[X] and must evaluate to the identity at X = 0.
    Returns (m, word over R[X]) with the output evaluating (embedded) to
    the input at X replaced by s^m X. A parameter's coefficient c/s^k on
    X^d, d >= 1, becomes s^(md) c/s^k, so no m below ceil(k/d) can work:
    the search starts at the largest such bound and refuses one above
    DEFAULT_FUEL (``ExponentTooSmall``, naming the m needed). Each
    candidate m is accepted only if every parameter of the reassembled
    word lands in R[X]; if none up to DEFAULT_FUEL is, the word needs a
    larger m (``ExponentTooSmall``, naming DEFAULT_FUEL). The output is
    merged by ``simplify_shape_word``, each merge checked.

    The word is read once: its constant terms, merged as they are read by
    ``rewrite._push_shape``, each merge checked, form the prefixes its
    linear parts are conjugated through, and the merged prefix of the
    whole word, its image at X -> 0, must be empty or equal the empty word
    (``NotHomotopy``). The output, its parameters embedded into R_s[X],
    which is injective because s is not a zero divisor, must equal
    ``word`` at X -> s^m X (rule ``dilate``).
    """
    RsX = word.ring
    if not (isinstance(RsX, PolyRing) and RsX.nvars == 1 and isinstance(RsX.base, Localized)):
        raise TypeError("dilate needs a word over R_s[X]")
    Rs = RsX.base
    Xvar = RsX.names[0]
    RX = PolyRing(Rs.base, RsX.names)
    s_num = RX.const(Rs.s)
    G = _Graded(RX)
    graded = lambda b: (-b[1], RX.const(b[0]))  # b = num/s^k in R_s -> (-k, num)

    # the constant parts form the conjugating prefixes, merged as they are
    # read (inverse pairs cancel, which is what keeps the conjugation
    # chains short for words built from bracket expansions). The prefix's
    # leading run of denominator-free constants wraps a step as it stands;
    # the step is conjugated through the rest, innermost first
    steps = []    # (shape, pos, linear part, wrap, rest, wrap^-1)
    prefix, merges = [], []
    den_cap = lowest = 0
    for atom in word.atoms:
        if not isinstance(atom, ABCDAtom):
            raise AlphabetViolation(
                f"dilate needs a pure shape word, got {atom._text(RsX)!r}")
        b0 = RsX.eval_at_zero(atom.e)
        bp = RsX.shift_down(atom.e)
        den_cap = max(den_cap, b0[1], max((v[1] for _, v in bp), default=0))
        lowest = max([lowest] + [-(-v[1] // (d + 1)) for (d,), v in bp])
        if bp:
            pre = [b._map(graded) for b in prefix]
            lead = next((idx for idx, b in enumerate(pre) if b.e[0]), len(pre))
            wrap = pre[:lead]
            steps.append((atom.shape, atom.pos, bp, wrap, pre[lead:],
                          [b._inverse(G) for b in reversed(wrap)]))
        _push_shape(Rs, n, prefix, ABCDAtom(atom.shape, atom.pos, b0), merges)
    if prefix and not same_value(Rs, n, prefix, ()):
        raise NotHomotopy("word does not evaluate to the identity at X = 0")
    if lowest > DEFAULT_FUEL:
        raise ExponentTooSmall(f"dilation needs m >= {lowest}; dilate tries m up to "
                               f"{DEFAULT_FUEL}")

    def dilated(m):
        """The checked output at X -> s^m X, or None where m does not clear:
        a parameter keeps a denominator, a chain exponent is too small, a
        chain outgrows MAX_ATOMS or a negative exponent survives."""
        smx = RsX.mul(RsX.const(Rs.embed(base_ring.pow_int(s, m))), RsX.var(Xvar))
        out_atoms = []
        for shape, pos, bp, wrap, rest, unwrap in steps:
            got = _param_valuation(Rs, RsX.mul(smx, RsX.subst(bp, {Xvar: smx})), m + den_cap + 4)
            if got is None:
                return None
            chain = [ABCDAtom(shape, pos, got)]
            for b in reversed(rest):
                new_chain = []
                for z in chain:
                    if z.e[0] <= -b.e[0] and not (idn.commutes(b.shape, b.pos, z.shape, z.pos)
                                              or RX.is_zero(z.e[1])):
                        return None
                    new_chain.extend(_conj_decompose_ctx(RX, s_num, n, b, z))
                chain = new_chain
                if len(chain) > MAX_ATOMS:
                    return None
            out_atoms.extend(wrap + chain + unwrap)
        # all parameters must land in R[X]
        if any(a.e[0] < 0 for a in out_atoms):
            return None
        final = [a._map(lambda p: RX.mul(RX.const(base_ring.pow_int(s, p[0])), p[1]))
                 for a in out_atoms]
        out, _ = simplify_shape_word(Word(RX, n, final))
        _same(RsX, n, "dilate", word.map_params(lambda p: RsX.subst(p, {Xvar: smx})).atoms,
              out.map_params(lambda p: _embed_poly(RsX, p), RsX).atoms)
        return out

    for m in range(lowest, DEFAULT_FUEL + 1):
        out = dilated(m)
        if out is not None:
            return m, out
    raise ExponentTooSmall(f"no dilation exponent found up to {DEFAULT_FUEL}; "
                           f"dilation needs m > {DEFAULT_FUEL}")


# ---------------------------------------------------------------------------
# comaximal covers and patching
# ---------------------------------------------------------------------------

def _checked_exponent(N):
    """N if it lies in 0..DEFAULT_FUEL, else ValueError. ``patch`` divides
    b by s at most DEFAULT_FUEL times, and at a unit s every division
    succeeds, so checking b in (s^N) for a larger N divides for nothing,
    for as long as N says."""
    if not 0 <= N <= DEFAULT_FUEL:
        raise ValueError(f"N={N} must lie in 0..{DEFAULT_FUEL}, the dilation exponents "
                         "patch tries")
    return N


@dataclass
class CoverData:
    """Finitely many (s_i, c_i, b_i, N_i) with sum c_i b_i = 1 and
    b_i in (s_i^{N_i}), 0 <= N_i <= DEFAULT_FUEL."""

    entries: list  # (s, c, b, N)

    def validate(self, ring):
        total = ring.zero
        for idx, (_, c, b, N) in enumerate(self.entries):
            _checked_exponent(N)
            total = ring.add(total, ring.mul(c, b))
            self.cofactor(ring, idx, N)
        if not ring.is_one(total):
            raise CoverNotComaximal("sum of c_i b_i is not 1")

    def cofactor(self, ring, idx, power):
        """v with b_idx = s_idx^power * v, by exact division."""
        s, _, b, _ = self.entries[idx]
        w = b
        for _ in range(power):
            w = ring.try_exact_div(w, s)
            if w is None:
                raise CoverNotComaximal(
                    f"b={ring.show(b)} is not in (s^{power}) for s={ring.show(s)}")
        return w

    @staticmethod
    def from_text(ring, text):
        entries = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = {}
            for tok in line.split():
                key, eq, value = tok.partition("=")
                if not eq:
                    raise ParseError(f"cover token {tok!r} is not key=value", line=lineno)
                fields[key] = value
            missing = [key for key in ("s", "c", "b", "N") if key not in fields]
            if missing:
                raise ParseError(f"cover line needs s=, c=, b= and N=; missing "
                                 f"{', '.join(missing)}", line=lineno)
            try:
                entries.append((parse_element(ring, fields["s"]),
                                parse_element(ring, fields["c"]),
                                parse_element(ring, fields["b"]),
                                _checked_exponent(int(fields["N"]))))
            except (ParseError, ValueError) as exc:
                raise ParseError(str(exc), line=lineno) from None
        return CoverData(entries)


def _pull_back(base_ring, s_inv, p):
    """Map an R_s[X] polynomial representation into R[X] when s is a unit
    with inverse ``s_inv``: num/s^k -> num * s_inv^k is then a ring
    isomorphism, the inverse of the embedding. A unit times a nonzero num
    is nonzero, so the terms stay those of a canonical polynomial."""
    return tuple((e, base_ring.mul(num, base_ring.pow_int(s_inv, k))) for e, (num, k) in p)


def patch(base_ring, n, alpha, cover, local_words):
    """Assemble a global homotopy word from local ones.

    ``alpha`` is a word over R[X] that evaluates to the identity at X = 0;
    each local word lives over R_{s_i}[X] (or, at a unit s_i, over alpha's
    own ring R[X]) and must have alpha's value there. The output word is
    over R[X] and has alpha's value exactly. Every check compares words.

    Every local word is checked, in cover order, before anything is
    built. Where s_i is a unit of R, R -> R_{s_i} is an isomorphism: the
    local word is pulled back along R_{s_i}[X] -> R[X], a word over R[X]
    being its own pull-back, and compared with alpha over R[X]. Elsewhere
    it is compared with alpha, its parameters embedded into R_{s_i}[X]. A
    pulled-back word equal to one already compared is not evaluated
    again. If some s_i is a unit, the first pulled-back word is already a
    global word for alpha, and it is the one returned: no local word is
    dilated.
    Otherwise each local word w gives beta(X, Y) = w(X + Y) w(Y)^-1 over
    (R[Y])_s[X], ``dilate`` clears its denominators, and the factors,
    substituted so that they telescope, are concatenated. Either way the
    word is merged by ``simplify_shape_word``, each merge checked, and
    compared with alpha (rule ``patch``), unless it is a pulled-back word
    compared already.
    """
    RX = alpha.ring
    if not (isinstance(RX, PolyRing) and RX.nvars == 1):
        raise TypeError("alpha must live over R[X]")
    Xvar = RX.names[0]
    cover.validate(base_ring)
    if not _identity_at_zero(alpha, base_ring):
        raise NotHomotopy("alpha(0) must be the identity")

    k = len(cover.entries)
    if len(local_words) != k:
        raise LocalWordMismatch("need one local word per cover entry")

    global_word = None  # the first local word at a unit s, pulled back to R[X]
    pulled_checked = set()  # atoms of the pulled-back words already compared
    for idx, ((s, _, _, _), local) in enumerate(zip(cover.entries, local_words)):
        RsX = PolyRing(Localized(base_ring, s), (Xvar,))
        s_inv = base_ring.try_invert(s)
        own = s_inv is not None and local.ring is RX  # at a unit s, its own pull-back
        if not own and local.ring.descriptor() != RsX.descriptor():
            raise LocalWordMismatch(f"local word {idx} is over {local.ring.descriptor()}")
        if s_inv is None:
            ok = same_value(RsX, n, local.atoms,
                            alpha.map_params(lambda p: _embed_poly(RsX, p), RsX).atoms)
        else:
            pulled = local if own else local.map_params(
                lambda p: _pull_back(base_ring, s_inv, p), RX)
            # equal words have equal values, so a repeat needs no evaluation
            ok = pulled.atoms in pulled_checked or same_value(RX, n, pulled.atoms, alpha.atoms)
            pulled_checked.add(pulled.atoms)
            if global_word is None:
                global_word = pulled
        if not ok:
            raise LocalWordMismatch(f"local word {idx} does not evaluate to alpha")
        for pos, atom in enumerate(local.atoms, start=1):
            if not isinstance(atom, ABCDAtom):
                raise AlphabetViolation(f"local word {idx} must be a shape word; "
                                        f"atom {pos} is {atom._text(local.ring)!r}")

    if global_word is not None:
        factors = [global_word]
    else:
        factors = _dilated_factors(base_ring, n, alpha, cover, local_words)
    out, _ = simplify_shape_word(Word(RX, n, [a for f in factors for a in f.atoms]))
    if out.atoms not in pulled_checked:
        _same(RX, n, "patch", alpha.atoms, out.atoms)
    return out


def _dilated_factors(base_ring, n, alpha, cover, local_words):
    """Words over R[X] whose product has alpha's value, one per cover
    entry, for a cover with no unit s_i. The local word w_i has alpha's
    value over R_{s_i}[X]; ``dilate`` turns beta_i = w_i(X + Y) w_i(Y)^-1
    into a word for beta_i(s_i^m X, Y) over R[Y][X], and factor i is that
    word at X -> c_i v_i X, Y -> T_i, where b_i = s_i^m v_i and T_i is the
    sum of c_j b_j X over j > i. The factors telescope to
    alpha(X) alpha(0)^-1."""
    RX = alpha.ring
    Xvar = RX.names[0]
    # two-variable tower: R[Y] as the spectator base, then localize, then [X]
    yvar = "Y" if Xvar != "Y" else "W"
    RY = PolyRing(base_ring, (yvar,))
    over_rx = PolyRing(RX, (yvar,))  # evaluates polynomials with R[X] coefficients

    factors = []
    for idx, ((s, c, _, _), local) in enumerate(zip(cover.entries, local_words)):
        # beta(X, Y) = w(X + Y) w(Y)^-1 over (R[Y])_s [X]
        RYs = Localized(RY, RY.const(s))
        RYsX = PolyRing(RYs, (Xvar,))

        # R_s[X] -> (R[Y])_s[X], then X -> x
        w_lift = local.map_params(lambda p: tuple((e, (RY.const(v[0]), v[1])) for e, v in p), RYsX)
        at = lambda x: w_lift.map_params(lambda p: RYsX.subst(p, {Xvar: x}))
        y_const = RYsX.const(RYs.embed(RY.var(yvar)))
        beta = at(RYsX.add(RYsX.var(Xvar), y_const)).concat(at(y_const).inverse())

        try:
            m, w_global = dilate(RY, RY.const(s), n, beta)
        except NotHomotopy as exc:  # beta(0, Y) = I: beta is built here, not given
            raise StepVerificationFailed(f"beta of local word {idx}: {exc}") from None
        v = cover.cofactor(base_ring, idx, m)

        # substitute X -> c*v*X and Y -> T_idx, landing in R[X]
        T = RX.zero
        for (s2, c2, b2, _) in cover.entries[idx + 1:]:
            T = RX.add(T, RX.mul(RX.const(base_ring.mul(c2, b2)), RX.var(Xvar)))
        cvx = RX.mul(RX.const(base_ring.mul(c, v)), RX.var(Xvar))

        def to_global(p):  # (R[Y])[X] -> R[X]: Y -> T in each coefficient, then X -> cvX
            return over_rx.eval_at(tuple(
                (e, over_rx.eval_at(tuple((ey, RX.const(cc)) for ey, cc in cy), T)) for e, cy in p),
                cvx)

        factors.append(w_global.map_params(to_global, RX))
    return factors


# ---------------------------------------------------------------------------
# normality demonstration
# ---------------------------------------------------------------------------

def normality_demo(base_ring, n, gamma_word, h_word, cover):
    """Word for gamma * eval(h) * gamma^-1 over the shape alphabet.

    gamma is a generator word or a single det-1 corner block; h is a shape
    word. gamma h(T) gamma^-1 is built once over R[T] (a corner block
    conjugates h atom by atom, by the det-1 conjugation row with its units
    expanded, each expansion checked; any other gamma is decomposed over
    R). At a unit s it is itself the local word, as R_s[T] = R[T];
    elsewhere it is mapped into R_s[T], which is injective, as s is no
    zero divisor.
    The local words are patched along the cover, against alpha, the word
    gamma h(T) gamma^-1 as given, and evaluated at T = 1.
    """
    for idx, atom in enumerate(h_word.atoms, start=1):
        if not isinstance(atom, ABCDAtom):
            raise AlphabetViolation(f"h must be a shape word (A, B, C, D atoms only); "
                                    f"atom {idx} is {atom._text(base_ring)!r}")
    for idx, atom in enumerate(gamma_word.atoms, start=1):
        if isinstance(atom, CornerMatrixAtom) and len(gamma_word) > 1:
            raise AlphabetViolation(f"a CORNER atom must be gamma's only atom; "
                                    f"atom {idx} is {atom._text(base_ring)!r}")
    RT = PolyRing(base_ring, ("T",))
    h_t = h_word.map_params(lambda p: RT.mul(RT.const(p), RT.var("T")), RT)
    gamma_t = gamma_word.map_params(RT.const, RT)
    alpha = gamma_t.concat(h_t).concat(gamma_t.inverse())

    if len(gamma_t) == 1 and isinstance(gamma_t.atoms[0], CornerMatrixAtom):
        conj, _ = eliminate_units_inplace(Word(RT, n, [
            a for atom in h_t.atoms for a in idn.conj_abcd_atom(RT, gamma_t.atoms[0].rows, atom)]))
    else:
        g_abcd = decompose_full(gamma_word).output_word.map_params(RT.const, RT)
        conj = g_abcd.concat(h_t).concat(g_abcd.inverse())
    # merged here, where it is still one word over R[T], patch's own merge
    # finds nothing to merge and does not evaluate the word again
    conj, _ = simplify_shape_word(conj)

    local_words = []
    for (s, _, _, _) in cover.entries:
        RsT = PolyRing(Localized(base_ring, s), ("T",))
        local_words.append(conj if base_ring.try_invert(s) is not None
                           else conj.map_params(lambda p: _embed_poly(RsT, p), RsT))

    try:
        patched = patch(base_ring, n, alpha, cover, local_words)
    except (NotHomotopy, LocalWordMismatch) as exc:  # alpha and the local words are built here
        raise StepVerificationFailed(f"normality homotopy: {exc}") from None
    out, _ = simplify_shape_word(
        patched.map_params(lambda p: patched.ring.eval_at(p, base_ring.one), base_ring))
    _same(base_ring, n, "normality",
          gamma_word.concat(h_word).concat(gamma_word.inverse()).atoms, out.atoms)
    return out
