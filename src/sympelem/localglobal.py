"""Conjugation decompositions over localizations, the dilation argument,
patching along a comaximal cover, and the normality demonstration.

Everything here works with parameters written as s^e * c where c lives in
the numerator ring (R, or R[X], or R[Y][X] for the two-variable case);
the exponent bookkeeping is what the valuation traces report. Every
produced word is verified against its defining identity, and every
closed form used is read from the tables verify-tables checks, through
the same builders (``conj_abcd_atom`` is the det-1 conjugation row).

Where the element a word must equal is itself a word, the two are
compared with ``same_value``: ``conj_decompose`` against g h g^-1, and
``normality_demo`` against gamma h gamma^-1. Otherwise each produced word
is evaluated in full, once, over the smallest ring it lives in, and the
matrix it must equal is derived from a matrix that was already checked,
mapped through a ring homomorphism, which is exact since
eval(phi o w) = phi(eval w):

* ``dilate`` evaluates its input word once (or takes that matrix as
  ``value``), checks its image under X -> 0 is the identity, and compares
  the output, evaluated over R[X] and embedded into R_s[X], with its image
  under X -> s^m X;
* ``patch`` checks each local word against alpha: where s is a unit of R
  it pulls the word back along the isomorphism R_s[X] -> R[X] and compares
  over R[X], elsewhere it compares over R_s[X]. A cover with a unit s
  needs no dilation: the first pulled-back word is returned. Otherwise
  ``patch`` passes dilate beta's matrix, alpha(X + Y) alpha(Y)^-1 over
  (R[Y])_s[X], the one dense product of this module. Either way the
  patched word is compared with alpha itself.
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
    StepBudgetExceeded,
    StepVerificationFailed,
)
from .identities import (
    _COMPOSITE,
    _CROSSING,
    _PLACED,
    _UNIT_BRACKET,
    _UNIT_COMMUTATOR,
    conj_abcd_atom,
    tag_pos,
    unit_bracket_shapes,
    unit_rel,
)
from .rewrite import decompose_full, eliminate_units_inplace, simplify_shape_word
from .rings import Localized, PolyRing, parse_element
from .symplectic import symp_inverse
from .words import ABCDAtom, CornerMatrixAtom, Word, same_value

DEFAULT_FUEL = 64      # largest dilation exponent m that dilate tries
MAX_ATOMS = 200_000    # longest conjugation chain dilate builds for one step


# ---------------------------------------------------------------------------
# conjugation decompositions: entries s^e * c with c in a numerator ring
# ---------------------------------------------------------------------------

@dataclass
class ValuationTrace:
    entries: list  # (shape, pos, exponent, coeff)

    def min_exponent(self):
        return min((e for _, _, e, _ in self.entries), default=None)


class _Emitter:
    """Collects the (shape, pos, exponent, coeff) entries of a shape word
    whose parameters are s^exponent * coeff, coeff in the numerator ring."""

    def __init__(self, num):
        self.num = num
        self.entries = []

    def shape(self, sh, pos, e, c):
        if not self.num.is_zero(c):
            self.entries.append((sh, pos, e, c))

    def unit(self, sh, pos, i_for_corner, e, c):
        """Expand I perp (I_2 + sh(s^e c)) perp I as a 4-atom commutator,
        splitting the exponent between the two bracket parameters."""
        num = self.num
        if num.is_zero(c):
            return
        if e >= 2:
            e2 = e // 2
            e1 = e - e2
        else:
            e1, e2 = e, 0
        quarter = num.mul(num.inv2, num.inv2)
        u = num.mul(c, quarter)
        s1, s2 = unit_bracket_shapes(sh, pos)
        p = i_for_corner if pos == 1 else pos
        self.shape(s1, p, e1, u)
        self.shape(s2, p, e2, num.one)
        self.shape(s1, p, e1, num.neg(u))
        self.shape(s2, p, e2, num.neg(num.one))

    def emit_inverse_of(self, entries):
        for sh, pos, e, c in reversed(entries):
            self.shape(sh, pos, e, self.num.neg(c))


def conj_decompose(locring, n, Xshape, i, a, k, Yshape, j, m, x):
    """Word for E(X_i)(a/s^k) E(Y_j)(s^m x) E(X_i)(a/s^k)^-1 over R_s,
    together with its valuation trace. Requires m > k, and both in
    -DEFAULT_FUEL..DEFAULT_FUEL, as the cost grows with m - k; the usage
    errors name k and m as the conj command's flags."""
    if m <= k:
        raise ExponentTooSmall(f"--m {m} must be greater than --k {k}")
    if max(abs(k), abs(m)) > DEFAULT_FUEL:
        raise ValueError(f"--k {k} and --m {m} must lie in -{DEFAULT_FUEL}..{DEFAULT_FUEL}")
    entries = _conj_decompose_ctx(locring.base, locring.s, n, Xshape, i, a, k, Yshape, j, m, x)

    def atom(sh, pos, e, c):
        return ABCDAtom(sh, pos, locring.s_power_mul(locring.embed(c), e))

    word = Word(locring, n, [atom(*entry) for entry in entries])
    g = atom(Xshape, i, -k, a)
    if not same_value(locring, n, word.atoms, [g, atom(Yshape, j, m, x), g._inverse(locring)]):
        raise StepVerificationFailed("conjugation decomposition is off")
    return word, ValuationTrace(entries)


def _conj_decompose_ctx(num, s_num, n, Xshape, i, a, k, Yshape, j, m, x):
    """Entries (shape, pos, exponent, coeff) of the conjugation word, with
    a, x and every coeff in the numerator ring ``num`` and s = ``s_num``."""
    if not (2 <= i <= n and 2 <= j <= n):
        raise BadIndices("positions must lie in 2..n")
    em = _Emitter(num)

    if Xshape == Yshape or num.is_zero(a) or num.is_zero(x) \
            or (i != j and (Xshape, Yshape) not in _PLACED):
        # g commutes with h: pairs absent from _PLACED commute at different positions
        em.shape(Yshape, j, m, x)
    elif i != j or (Xshape, Yshape) not in _CROSSING:
        # the commutator word with the exponent split across the pair
        q = (m - k) // 2
        p = (m - k) - q
        em.shape(Xshape, i, p, a)
        em.shape(Yshape, j, q, x)
        em.shape(Xshape, i, p, num.neg(a))
        em.shape(Yshape, j, q, num.neg(x))
        em.shape(Yshape, j, m, x)
    else:
        _case3_same_position(num, s_num, em, Xshape, Yshape, i, a, k, m, x)

    if len(em.entries) > 45:
        raise StepVerificationFailed(f"decomposition length {len(em.entries)} exceeds 45")
    return em.entries


def _case3_same_position(num, s_num, em, X, Y, i, a, k, m, x):
    """Same-position crossing pairs, via the composite commutator route.

    With y = s^m3, z = 4u s^(2 m3) and u = s^(m - 3 m3) x / 8, the
    conjugated element E(Y_i)(s^m x) = E(Y_i)(2yz) is y_g [z_g, w_g] as
    _COMPOSITE tabulates it: y_g, w_g placed units and z_g a block
    generator. The group identity
    [g, h[k,l]] = [g,h] h [[g,k]k, [g,l]l] [l,k] h^-1,
    after the final [l,k] h^-1 h [k,l] cancels, leaves
    [g,y_g] y_g [P, Q] with P = [g,z_g] z_g and Q = [g,w_g] w_g.
    Each bracket with g = E(X_i)(a/s^k) is read from _UNIT_BRACKET or
    _UNIT_COMMUTATOR: a bracketed parameter s^e c gives
    s^(e-k) on a c and s^(e-2k) on a^2 c.
    """
    m3 = m // 3
    u = num.mul(num.mul(num.pow_int(num.inv2, 3), x), num.pow_int(s_num, m - 3 * m3))
    (ysh, ytag, yc), (zsh, zc), (wsh, wtag, wc) = _COMPOSITE[(X, Y)]
    sc = num.scale_int

    def conj_unit(sh, pos, e, c):
        """[g, U] U for the unit U = sh(s^e c) at pos; returns its entries."""
        start = len(em.entries)
        ush, utag, uc, esh, ec = _UNIT_COMMUTATOR[(X, sh, unit_rel(i, pos))]
        em.unit(ush, tag_pos(utag, i), i, e - 2 * k, sc(uc, num.mul(num.mul(a, a), c)))
        em.shape(esh, i, e - k, sc(ec, num.mul(a, c)))
        em.unit(sh, pos, i, e, c)
        return em.entries[start:]

    def conj_shape(sh, e, c):
        """[g, Z] Z for Z = E(sh_i)(s^e c); returns its entries."""
        start = len(em.entries)
        ush, utag, uc = _UNIT_BRACKET[(X, sh)]
        em.unit(ush, tag_pos(utag, i), i, e - k, sc(uc, num.mul(a, c)))
        em.shape(sh, i, e, c)
        return em.entries[start:]

    conj_unit(ysh, tag_pos(ytag, i), 4 * m3, sc(4 * yc, u))
    p_entries = conj_shape(zsh, m3, sc(zc, num.one))
    q_entries = conj_unit(wsh, tag_pos(wtag, i), 2 * m3, sc(4 * wc, u))
    em.emit_inverse_of(p_entries)
    em.emit_inverse_of(q_entries)


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


def dilate(base_ring, s, n, word, *, value=None):
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

    ``value`` is the matrix ``word`` evaluates to, for a caller that has
    already checked it; it defaults to ``word.eval()``. Both checks read
    it through ring homomorphisms: the homotopy check maps it by X -> 0,
    and the target is its image under X -> s^m X. The output word is
    evaluated over R[X] and its matrix embedded into R_s[X], which is
    injective because s is not a zero divisor. The output is built from
    the atoms of ``word`` alone, so a wrong ``value`` cannot give a wrong
    word: it ends in ``NotHomotopy`` or ``StepVerificationFailed``.
    """
    RsX = word.ring
    if not (isinstance(RsX, PolyRing) and RsX.nvars == 1 and isinstance(RsX.base, Localized)):
        raise TypeError("dilate needs a word over R_s[X]")
    Rs = RsX.base
    Xvar = RsX.names[0]
    RX = PolyRing(Rs.base, RsX.names)
    s_num = RX.const(Rs.s)

    if value is None:
        value = word.eval()
    if not value.map(RsX.eval_at_zero, Rs).is_identity():
        raise NotHomotopy("word does not evaluate to the identity at X = 0")

    # the constant parts form the conjugating prefixes; keep them as
    # peephole-merged words (inverse pairs cancel, which is what keeps the
    # conjugation chains short for words built from bracket expansions)
    steps = []    # (shape, pos, simplified prefix snapshot, linear part)
    prefix = []   # simplified list of (shape, pos, b0)
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
            steps.append((atom.shape, atom.pos, list(prefix), bp))
        if not Rs.is_zero(b0):
            prefix.append((atom.shape, atom.pos, b0))
            while len(prefix) >= 2 and prefix[-1][0] == prefix[-2][0] \
                    and prefix[-1][1] == prefix[-2][1]:
                merged = Rs.add(prefix[-2][2], prefix[-1][2])
                sh_m, pos_m, _ = prefix[-2]
                prefix[-2:] = [] if Rs.is_zero(merged) else [(sh_m, pos_m, merged)]

    if lowest > DEFAULT_FUEL:
        raise ExponentTooSmall(f"dilation needs m >= {lowest}; dilate tries m up to "
                               f"{DEFAULT_FUEL}")
    for m in range(lowest, DEFAULT_FUEL + 1):
        smx = RsX.mul(RsX.const(Rs.embed(base_ring.pow_int(s, m))), RsX.var(Xvar))
        try:
            out_atoms = []
            for (shape, pos, pre, bp) in steps:
                param = RsX.mul(smx, RsX.subst(bp, {Xvar: smx}))
                got = _param_valuation(Rs, param, m + den_cap + 4)
                if got is None:
                    raise ExponentTooSmall("parameter does not clear")
                e0, x0 = got
                # the prefix's leading run of denominator-free constants
                # wraps the step as it stands; conjugate through the rest,
                # innermost first
                lead = next((idx for idx, (_, _, b0) in enumerate(pre) if b0[1]), len(pre))
                chain = [(shape, pos, e0, x0)]
                for (bsh, bpos, (a_num, k_den)) in reversed(pre[lead:]):
                    a_lift = RX.const(a_num)
                    new_chain = []
                    for (zsh, zpos, ze, zx) in chain:
                        if ze <= k_den and not (zsh == bsh or RX.is_zero(zx)):
                            raise ExponentTooSmall("chain exponent too small")
                        new_chain.extend(_conj_decompose_ctx(
                            RX, s_num, n, bsh, bpos, a_lift, k_den, zsh, zpos, ze, zx))
                    chain = new_chain
                    if len(chain) > MAX_ATOMS:
                        raise StepBudgetExceeded("dilation chain too long")
                wrap = [(bsh, bpos, 0, RX.const(b0[0])) for (bsh, bpos, b0) in pre[:lead]]
                out_atoms.extend(wrap + chain + [(bsh, bpos, 0, RX.neg(bx))
                                                 for (bsh, bpos, _, bx) in reversed(wrap)])
            # all parameters must land in R[X]
            final = []
            for (osh, opos, oe, ox) in out_atoms:
                if oe < 0:
                    raise ExponentTooSmall("negative exponent survives")
                final.append(ABCDAtom(osh, opos, RX.mul(RX.const(base_ring.pow_int(s, oe)), ox)))
            out, _ = simplify_shape_word(Word(RX, n, final))
            # verification: embed eval(out) into R_s[X], compare with value(s^m X)
            target = value.map(lambda p: RsX.subst(p, {Xvar: smx}))
            if out.eval().map(lambda p: _embed_poly(RsX, p), RsX) != target:
                raise StepVerificationFailed("dilated word does not match")
            return m, out
        except (ExponentTooSmall, StepBudgetExceeded):
            continue
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

    ``alpha`` is a symplectic matrix over R[X] with alpha(0) = I; each
    local word lives over R_{s_i}[X] (or, at a unit s_i, over alpha's own
    ring R[X]) and must evaluate to alpha there. The output word is over
    R[X] and evaluates to alpha exactly.

    Every local word is checked, in cover order, before anything is
    built. Where s_i is a unit of R, R -> R_{s_i} is an isomorphism: the
    local word is pulled back along R_{s_i}[X] -> R[X], a word over R[X]
    being its own pull-back, and compared with alpha over R[X]. Elsewhere
    it is compared with alpha embedded into R_{s_i}[X]. A pulled-back
    word equal to one already compared is not evaluated again. If some
    s_i is a unit, the first pulled-back word is already a global word
    for alpha, and it is the one returned: no local word is dilated.
    Otherwise each local word w gives beta(X, Y) = w(X + Y) w(Y)^-1 over
    (R[Y])_s[X], ``dilate`` clears its denominators, and the factors,
    substituted so that they telescope, are concatenated. Either way the
    word is merged by ``simplify_shape_word``, each merge checked, and
    compared with alpha, unless it is a pulled-back word compared already.
    """
    RX = alpha.ring
    if not (isinstance(RX, PolyRing) and RX.nvars == 1):
        raise TypeError("alpha must live over R[X]")
    Xvar = RX.names[0]
    cover.validate(base_ring)
    if not alpha.map(RX.eval_at_zero, base_ring).is_identity():
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
            ok = local.eval() == alpha.map(lambda p: _embed_poly(RsX, p), RsX)
        else:
            pulled = local if own else local.map_params(
                lambda p: _pull_back(base_ring, s_inv, p), RX)
            # equal words have equal values, so a repeat needs no evaluation
            ok = pulled.atoms in pulled_checked or pulled.eval() == alpha
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
    if out.atoms not in pulled_checked and out.eval() != alpha:
        raise StepVerificationFailed("patched word does not evaluate to alpha")
    return out


def _dilated_factors(base_ring, n, alpha, cover, local_words):
    """Words over R[X] whose product is alpha, one per cover entry, for a
    cover with no unit s_i. The local word w_i evaluates to alpha over
    R_{s_i}[X]; ``dilate`` turns beta_i = w_i(X + Y) w_i(Y)^-1 into a word
    for beta_i(s_i^m X, Y) over R[Y][X], and factor i is that word at
    X -> c_i v_i X, Y -> T_i, where b_i = s_i^m v_i and T_i is the sum of
    c_j b_j X over j > i. The factors telescope to alpha(X) alpha(0)^-1."""
    RX = alpha.ring
    Xvar = RX.names[0]
    # two-variable tower: R[Y] as the spectator base, then localize, then [X]
    yvar = "Y" if Xvar != "Y" else "W"
    RY = PolyRing(base_ring, (yvar,))

    factors = []
    for idx, ((s, c, _, _), local) in enumerate(zip(cover.entries, local_words)):
        # beta(X, Y) = w(X + Y) w(Y)^-1 over (R[Y])_s [X]; w evaluates to
        # alpha, so beta's matrix is the same substitutions of alpha
        RYs = Localized(RY, RY.const(s))
        RYsX = PolyRing(RYs, (Xvar,))

        def lift(p):  # R_s[X] -> (R[Y])_s[X]
            return tuple((e, (RY.const(v[0]), v[1])) for e, v in p)

        y_const = RYsX.const(RYs.embed(RY.var(yvar)))
        x_plus_y = RYsX.add(RYsX.var(Xvar), y_const)

        def at_xy(p):
            return RYsX.subst(p, {Xvar: x_plus_y})

        def at_y(p):
            return RYsX.subst(p, {Xvar: y_const})

        w_lift = local.map_params(lift, RYsX)
        beta = w_lift.map_params(at_xy).concat(w_lift.map_params(at_y).inverse())
        a_lift = alpha.map(lambda p: tuple((e, RYs.embed(RY.const(x))) for e, x in p), RYsX)
        beta_value = a_lift.map(at_xy).mul(symp_inverse(a_lift.map(at_y)))

        try:
            m, w_global = dilate(RY, RY.const(s), n, beta, value=beta_value)
        except NotHomotopy as exc:  # beta(0, Y) = I: beta is built here, not given
            raise StepVerificationFailed(f"beta of local word {idx}: {exc}") from None
        v = cover.cofactor(base_ring, idx, m)

        # substitute X -> c*v*X and Y -> T_idx, landing in R[X]
        T = RX.zero
        for (s2, c2, b2, _) in cover.entries[idx + 1:]:
            T = RX.add(T, RX.mul(RX.const(base_ring.mul(c2, b2)), RX.var(Xvar)))
        cvx = RX.mul(RX.const(base_ring.mul(c, v)), RX.var(Xvar))

        def to_global(p):  # (R[Y])[X] -> R[X] with X -> cvX, Y -> T
            out = RX.zero
            for (e,), coeff_y in p:  # coeff_y in R[Y]
                cy = RX.zero
                for (ey,), cc in coeff_y:
                    cy = RX.add(cy, RX.mul(RX.const(cc), RX.pow_int(T, ey)))
                out = RX.add(out, RX.mul(cy, RX.pow_int(cvx, e)))
            return out

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
    gamma h(T) gamma^-1 evaluated once, and evaluated at T = 1.
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
    alpha = gamma_t.concat(h_t).concat(gamma_t.inverse()).eval()

    if len(gamma_t) == 1 and isinstance(gamma_t.atoms[0], CornerMatrixAtom):
        conj, _ = eliminate_units_inplace(Word(RT, n, [
            a for atom in h_t.atoms for a in conj_abcd_atom(RT, gamma_t.atoms[0].rows, atom)]))
    else:
        g_abcd = decompose_full(gamma_word).output_word.map_params(RT.const, RT)
        conj = g_abcd.concat(h_t).concat(g_abcd.inverse())

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
    if not same_value(base_ring, n, out.atoms,
                      gamma_word.concat(h_word).concat(gamma_word.inverse()).atoms):
        raise StepVerificationFailed("normality conjugation is off")
    return out
