"""Commutative rings with exact arithmetic, canonical representations and
decidable equality.

Every ring here guarantees an invertible 2 (residue rings must have odd
modulus) and represents elements canonically, so equality is plain ``==``
on representations:

* ``Zmod(m)``      -- ints in ``[0, m)``
* ``Rationals()``  -- reduced int pairs ``(numerator, denominator)``,
                      denominator > 0
* ``PolyRing``     -- tuple of ``(monomial_key, coeff)`` pairs, keys
                      descending, zero coefficients dropped
* ``Localized``    -- pairs ``(numerator, k)`` standing for ``num / s^k``
                      with ``k`` minimal

Representations are immutable and hashable. Rings are immutable after
construction and safe to share: nothing is cached on a ring object.
Besides the ring operations, every ring answers ``addmul(acc, lam, v)``,
acc + lam * v, the one way a sum of products is accumulated here. Its
default is an ``add`` of a ``mul``; ``Zmod``, ``Rationals`` and
``PolyRing`` (for a single-term lam) compute it in one step. Q's is the
one place Q reduces, by one gcd over the common denominator: every
rational sum and product is an ``addmul``. ``half(a)``
defaults to ``mul(inv2, a)``; Q halves by parity, with no gcd, and
``PolyRing`` halves each coefficient in its base.

``PolyRing`` stores a monomial x_1^e_1 ... x_v^e_v by its key, the tuple
(e_1 + ... + e_v, e_1, ..., e_{v-1}); the last exponent is implied by the
total, and a univariate key is (e,). Plain tuple order on keys is
graded-lex order, and the key of a product is the sum of the keys. The
arithmetic relies on one invariant: the keys of a polynomial are strictly
descending and no coefficient is zero. ``add`` and ``sub`` merge two such
tuples in one pass; ``addmul`` with a single-term lam adds lam's key to
v's keys, which keeps their order because graded-lex is a monomial order,
and merges the products into acc in the same pass. Every product is a
run of such passes: ``mul`` makes one per term of its shorter factor, and
``try_exact_div`` subtracts each quotient term times the divisor in one,
so the remainder's leading key falls and the quotient comes out in order.
Only ``freeze``, the constructor that ``sample`` and the tests use,
sorts. Every operation returns a tuple with the same invariant. Only
``var``, ``sample``, ``show``, ``subst`` and ``try_exact_div`` read
exponents back from keys.
"""

from __future__ import annotations

import math
import operator

from .errors import EvenModulus, ParseError, ZeroDivisorS


class Ring:
    """Base class; every subclass defines ``zero``, ``one``, ``inv2``, ``add``,
    ``sub``, ``neg``, ``mul``, ``from_int`` and ``try_invert`` on raw
    representations, and may replace the default ``addmul``."""

    def is_zero(self, a):
        return a == self.zero

    def is_one(self, a):
        return a == self.one

    def half(self, a):
        return self.mul(self.inv2, a)

    def pow_int(self, a, e):
        if e < 0:
            raise ValueError("negative power")
        acc = self.one
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return acc

    def addmul(self, acc, lam, v):
        """acc + lam * v; a zero acc costs no ``add``."""
        p = self.mul(lam, v)
        return p if self.is_zero(acc) else self.add(acc, p)

    def scale_int(self, k, a):
        return self.mul(self.from_int(k), a)

    def try_exact_div(self, a, d):
        """Return q with q*d == a, or None."""
        inv = self.try_invert(d)
        if inv is not None:
            return self.mul(a, inv)
        return None

    def is_zero_divisor_elem(self, a):
        """Exact: whether a is a zero divisor, 0 included. The default, the
        zero test, is exact for Q, a field."""
        return self.is_zero(a)

    def sample(self, rng, small=False):
        raise NotImplementedError

    def show(self, a):
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    def __repr__(self):
        return f"<ring {self.descriptor()}>"


class Zmod(Ring):
    def __init__(self, m):
        if m % 2 == 0:
            raise EvenModulus(f"modulus {m} is even, 2 is not invertible")
        if m < 3:
            raise ValueError("modulus must be >= 3")
        self.m = m
        self.zero = 0
        self.one = 1 % m
        self.inv2 = pow(2, -1, m)

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def is_zero(self, a):
        return not a

    def mul(self, a, b):
        return (a * b) % self.m

    def addmul(self, acc, lam, v):
        return (acc + lam * v) % self.m

    def from_int(self, k):
        return k % self.m

    def try_invert(self, a):
        if math.gcd(a, self.m) != 1:
            return None
        return pow(a, -1, self.m)

    def try_exact_div(self, a, d):
        """Least q in [0, m) with q*d == a, or None. With g = gcd(d, m) a
        solution exists iff g divides a, and the solutions are
        (a/g) * (d/g)^-1 modulo m/g."""
        g = math.gcd(d, self.m)
        if a % g:
            return None
        mg = self.m // g
        return (a // g) * pow(d // g, -1, mg) % mg

    def is_zero_divisor_elem(self, a):
        return math.gcd(a % self.m, self.m) != 1

    def sample(self, rng, small=False):
        return rng.randrange(self.m)

    def show(self, a):
        return str(a)

    def descriptor(self):
        return f"zmod:{self.m}"


class Rationals(Ring):
    """Q as reduced pairs ``(numerator, denominator)`` of ints with
    denominator > 0, so equal values have equal pairs. Every sum and
    product reduces once, in ``addmul``: ``add`` and ``sub`` add b times
    1 or -1, and ``mul`` adds a times b to 0. That costs one gcd, none
    when both factors are integers (denominator 1), and ``half`` takes
    none."""

    def __init__(self):
        self.zero = (0, 1)
        self.one = (1, 1)
        self.inv2 = (1, 2)

    def add(self, a, b):
        return self.addmul(a, (1, 1), b)

    def sub(self, a, b):
        return self.addmul(a, (-1, 1), b)

    def neg(self, a):
        return (-a[0], a[1])

    def mul(self, a, b):
        return self.addmul((0, 1), a, b)

    def addmul(self, acc, lam, v):
        """One reduction: an integer product added to a reduced nc/dc
        keeps it reduced, and only dc = 1 lets it vanish."""
        na, da = lam
        nb, db = v
        nc, dc = acc
        if da == 1 and db == 1:
            return (nc + na * nb * dc, dc)
        num, den = nc * da * db + na * nb * dc, dc * da * db
        g = math.gcd(num, den)
        return (num // g, den // g)

    def half(self, a):
        """Reduced by parity alone, with no gcd."""
        n, d = a
        return (n, 2 * d) if n & 1 else (n >> 1, d)

    def from_int(self, k):
        return (k, 1)

    def is_zero(self, a):
        return not a[0]

    def try_invert(self, a):
        n, d = a
        if not n:
            return None
        return (d, n) if n > 0 else (-d, -n)

    def sample(self, rng, small=False):
        if small:
            return (rng.randint(-3, 3), 1)
        return self.mul((rng.randint(-9, 9), 1), (1, rng.randint(1, 9)))

    def show(self, a):
        n, d = a
        return str(n) if d == 1 else f"{n}/{d}"

    def descriptor(self):
        return "q"


def monomial_key(exps):
    """The key (total degree, e_1, ..., e_{v-1}) of the exponent tuple e_1..e_v."""
    return (sum(exps),) + exps[:-1]


def key_exponents(key):
    """The exponents e_1..e_v of the monomial with key ``key``."""
    rest = key[1:]
    return rest + (key[0] - sum(rest),)


class PolyRing(Ring):
    """Sparse polynomials over an arbitrary base ring, in named variables.

    One implementation serves both the multivariate symbol rings used by
    the identity tables and the univariate extensions R[X] used by the
    localization machinery; towers arise by nesting.
    """

    def __init__(self, base, names):
        names = tuple(names)
        if not names:
            raise ValueError("need at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.base = base
        self.names = names
        self.nvars = len(names)
        self.zero = ()
        zexp = (0,) * self.nvars
        self.one = ((zexp, base.one),)
        self.inv2 = ((zexp, base.inv2),)
        self._zexp = zexp

    # -- construction helpers -------------------------------------------------
    def const(self, c):
        if self.base.is_zero(c):
            return ()
        return ((self._zexp, c),)

    def var(self, name):
        i = self.names.index(name)
        e = monomial_key(tuple(1 if j == i else 0 for j in range(self.nvars)))
        return ((e, self.base.one),)

    def freeze(self, d):
        """The polynomial with the terms of the dict ``d``, key -> coeff."""
        items = [(e, c) for e, c in d.items() if not self.base.is_zero(c)]
        items.sort(key=operator.itemgetter(0), reverse=True)
        return tuple(items)

    # -- ring operations ------------------------------------------------------
    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        return self._merge(a, b, self.base.add, None)

    def sub(self, a, b):
        if not b:
            return a
        if not a:
            return self.neg(b)
        return self._merge(a, b, self.base.sub, self.base.neg)

    def _merge(self, a, b, combine, bneg):
        """Terms of a + b, or of a - b when ``bneg`` negates b's
        coefficients, by one two-pointer pass over both descending tuples.
        Only coinciding exponents combine, and only their sums can be 0.
        Two single terms are combined directly: one base operation when
        the exponents coincide, else the pair in descending order."""
        if len(a) == 1 == len(b):
            (ea, ca), = a
            (eb, cb), = b
            if ea == eb:
                c = combine(ca, cb)
                return () if self.base.is_zero(c) else ((ea, c),)
            tb = b[0] if bneg is None else (eb, bneg(cb))
            return (a[0], tb) if ea > eb else (tb, a[0])
        is_zero = self.base.is_zero
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            ta, tb = a[i], b[j]
            x, y = ta[0], tb[0]
            if x > y:
                out.append(ta)
                i += 1
            elif x < y:
                out.append(tb if bneg is None else (y, bneg(tb[1])))
                j += 1
            else:
                c = combine(ta[1], tb[1])
                if not is_zero(c):
                    out.append((x, c))
                i += 1
                j += 1
        if i < na:
            out.extend(a[i:])
        if j < nb:
            out.extend(b[j:] if bneg is None else ((e, bneg(c)) for e, c in b[j:]))
        return tuple(out)

    def neg(self, a):
        bneg = self.base.neg
        return tuple((e, bneg(c)) for e, c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        if len(a) == 1 == len(b):
            (ea, ca), = a
            (eb, cb), = b
            c = self.base.mul(ca, cb)
            if self.base.is_zero(c):
                return ()
            # a one-element key is added by hand, cheaper than map
            return (((ea[0] + eb[0],) if len(ea) == 1 else tuple(map(operator.add, ea, eb)), c),)
        if a == self.one:
            return b
        if b == self.one:
            return a
        if len(a) > len(b):
            a, b = b, a
        acc = ()
        for t in a:
            acc = self.addmul(acc, (t,), b)
        return acc

    def addmul(self, acc, lam, v):
        """acc + lam * v in one pass for a single-term lam: a product whose
        key coincides with one of acc's combines through the base's
        ``addmul``, and a product that vanishes over a zero-divisor base is
        dropped. Any other lam takes the default."""
        if len(lam) != 1:
            return self.add(acc, self.mul(lam, v))
        (em, cm), = lam
        base = self.base
        if len(v) == 1 and len(acc) <= 1:
            (e, c), = v
            e = (e[0] + em[0],) if len(e) == 1 else tuple(map(operator.add, e, em))
            if acc and acc[0][0] == e:
                c = base.addmul(acc[0][1], cm, c)
                return () if base.is_zero(c) else ((e, c),)
            c = base.mul(cm, c)
            if base.is_zero(c):
                return acc
            return (acc[0], (e, c)) if acc and acc[0][0] > e else ((e, c),) + acc
        bmul, baddmul, is_zero = base.mul, base.addmul, base.is_zero
        k = em[0] if len(em) == 1 else None
        out = []
        i, na = 0, len(acc)
        for e, c in v:
            # a one-element key is shifted by hand: map costs about a
            # microsecond per call more, which R[X] words feel
            e = (e[0] + k,) if k is not None else tuple(map(operator.add, e, em))
            while i < na and acc[i][0] > e:
                out.append(acc[i])
                i += 1
            if i < na and acc[i][0] == e:
                c = baddmul(acc[i][1], cm, c)
                i += 1
            else:
                c = bmul(cm, c)
            if not is_zero(c):
                out.append((e, c))
        out.extend(acc[i:])
        return tuple(out)

    def half(self, a):
        """Each coefficient halved in the base; as 2 is a unit, none vanishes."""
        half = self.base.half
        return tuple((e, half(c)) for e, c in a)

    def from_int(self, k):
        return self.const(self.base.from_int(k))

    def try_invert(self, a):
        c = self.as_const(a)
        if c is None:
            return None
        inv = self.base.try_invert(c)
        return None if inv is None else self.const(inv)

    # -- structure helpers ----------------------------------------------------
    def as_const(self, a):
        """Base-ring value of a constant polynomial, else None."""
        if not a:
            return self.base.zero
        if len(a) == 1 and a[0][0] == self._zexp:
            return a[0][1]
        return None

    def subst(self, a, assignment):
        """Substitute variables by elements of this same ring (a ring hom)."""
        values = [self.var(x) for x in self.names]
        for name, v in assignment.items():
            values[self.names.index(name)] = v
        acc = ()
        for e, c in a:
            v = self.one
            for x, p in zip(values, key_exponents(e)):
                if p:
                    v = self.mul(v, self.pow_int(x, p))
            acc = self.addmul(acc, ((self._zexp, c),), v)
        return acc

    def eval_at(self, a, point):
        """Evaluate a univariate polynomial at a base-ring point."""
        if self.nvars != 1:
            raise ValueError("eval_at needs a univariate ring")
        acc = self.base.zero
        for (e,), c in a:
            acc = self.base.addmul(acc, c, self.base.pow_int(point, e))
        return acc

    def eval_at_zero(self, a):
        if self.nvars != 1:
            raise ValueError("eval_at_zero needs a univariate ring")
        for (e,), c in a:
            if e == 0:
                return c
        return self.base.zero

    def shift_down(self, a):
        """Return p' with a == a(0) + X * p' (univariate only)."""
        if self.nvars != 1:
            raise ValueError("shift_down needs a univariate ring")
        return tuple(((e - 1,), c) for (e,), c in a if e > 0)

    def try_exact_div(self, a, d):
        if not d:
            return None
        lead_e, lead_c = d[0]
        lead_exps = key_exponents(lead_e)
        rem = a
        quo = []
        while rem:
            e, c = rem[0]
            if any(ei < di for ei, di in zip(key_exponents(e), lead_exps)):
                return None
            q = self.base.try_exact_div(c, lead_c)
            if q is None:
                return None
            qe = tuple(map(operator.sub, e, lead_e))
            quo.append((qe, q))
            rem = self.addmul(rem, ((qe, self.base.neg(q)),), d)
            # refuse a leading term that did not cancel; otherwise the leading
            # monomial of rem strictly decreases in grlex, a well-order, so the loop ends
            if rem and rem[0][0] == e:
                return None
        return tuple(quo)

    def is_zero_divisor_elem(self, a):
        """Exact, by McCoy's theorem: a polynomial is a zero divisor iff a
        nonzero constant annihilates it. Over a tower rooted at Z/m that
        means m shares a factor p with every root-level coefficient (the
        polynomial vanishes mod p); localized numerators count as they
        stand, because an s that is no zero divisor is nonzero mod every
        such p. A tower rooted at Q is a domain."""
        if not a:
            return True
        root = self.base
        while isinstance(root, (PolyRing, Localized)):
            root = root.base
        if not isinstance(root, Zmod):
            return False
        return math.gcd(root.m, *_root_coefficients(self, a)) > 1

    def sample(self, rng, small=False):
        nterms = rng.randint(0, 2)
        d = {}
        maxdeg = 1 if small else 2
        for _ in range(nterms):
            e = monomial_key(tuple(rng.randint(0, maxdeg) for _ in range(self.nvars)))
            c = self.base.sample(rng, small=True)
            if not self.base.is_zero(c):
                d[e] = self.base.add(d.get(e, self.base.zero), c)
        return self.freeze(d)

    def show(self, a):
        if not a:
            return "0"
        parts = []
        for e, c in a:
            cs = self.base.show(c)
            if any(op in cs for op in "+-*/^") and not (cs.startswith("-") and _is_simple(cs[1:])):
                if not _is_simple(cs):
                    cs = f"({cs})"
            factors = []
            for name, p in zip(self.names, key_exponents(e)):
                if p == 1:
                    factors.append(name)
                elif p > 1:
                    factors.append(f"{name}^{p}")
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            elif cs == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append(cs + "*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def descriptor(self):
        return f"poly:{self.base.descriptor()}:{','.join(self.names)}"


def _root_coefficients(ring, a):
    """The coefficients of ``a`` in the ring at the root of its tower, read
    through every polynomial coefficient and localized numerator."""
    if isinstance(ring, PolyRing):
        for _, c in a:
            yield from _root_coefficients(ring.base, c)
    elif isinstance(ring, Localized):
        yield from _root_coefficients(ring.base, a[0])
    else:
        yield a


def _is_simple(s):
    return all(ch.isalnum() or ch in "._/" for ch in s)


class Localized(Ring):
    """Ring of fractions a / s^k for an s that is no zero divisor (so in
    particular not nilpotent: s * s^(j-1) = 0 would make it one).

    Representations keep k minimal (powers of s are divided out of the
    numerator whenever the base ring can decide divisibility), so equality
    is structural; cross-multiplication would agree since s is not a zero
    divisor.
    """

    def __init__(self, base, s):
        if base.is_zero_divisor_elem(s):
            raise ZeroDivisorS(f"{base.show(s)} is a zero divisor")
        # dividing by s divides by its leading coefficient at every poly level
        ring, lead = base, s
        while isinstance(ring, PolyRing):
            ring, lead = ring.base, lead[0][1]
            if ring.is_zero_divisor_elem(lead):
                raise ZeroDivisorS(f"{base.show(s)} has the zero-divisor leading "
                                   f"coefficient {ring.show(lead)}")
        self.base = base
        self.s = s
        self.zero = (base.zero, 0)
        self.one = (base.one, 0)
        self.inv2 = (base.inv2, 0)

    def _divide_s(self, num, limit):
        """(q, j) with num = s^j q: s divided out of num at most limit times."""
        j = 0
        while j < limit:
            q = self.base.try_exact_div(num, self.s)
            if q is None:
                break
            num, j = q, j + 1
        return num, j

    def normalize(self, num, k):
        if self.base.is_zero(num):
            return (self.base.zero, 0)
        if k > 0:
            num, j = self._divide_s(num, k)
            k -= j
        return (num, k)

    def embed(self, a):
        return self.normalize(a, 0)

    def frac(self, a, k):
        return self.normalize(a, k)

    def add(self, a, b):
        (na, ka), (nb, kb) = a, b
        if ka == kb:
            return self.normalize(self.base.add(na, nb), ka)
        if ka < kb:
            (na, ka), (nb, kb) = b, a
        return self.normalize(self.base.addmul(na, nb, self.base.pow_int(self.s, ka - kb)), ka)

    def sub(self, a, b):
        if a[1] == b[1]:
            return self.normalize(self.base.sub(a[0], b[0]), a[1])
        return self.add(a, self.neg(b))

    def neg(self, a):
        return (self.base.neg(a[0]), a[1])

    def mul(self, a, b):
        return self.normalize(self.base.mul(a[0], b[0]), a[1] + b[1])

    def from_int(self, k):
        return (self.base.from_int(k), 0)

    def s_power_mul(self, a, e):
        """Multiply by s^e, where e may be negative."""
        num, k = a
        if e >= 0:
            return self.normalize(self.base.mul(num, self.base.pow_int(self.s, e)), k)
        return self.normalize(num, k - e)

    def try_exact_div(self, a, d):
        """q with q*d == a, or None. (na/s^ka) / (nd/s^kd) is
        (na/nd) * s^(kd - ka) where nd divides na in the base, which lets
        a localization over a localization divide out its own s; else it
        is a times the inverse of d."""
        q = self.base.try_exact_div(a[0], d[0])
        if q is None:
            return super().try_exact_div(a, d)
        return self.s_power_mul((q, 0), d[1] - a[1])

    def valuation_floor(self, a, cap):
        """Largest e <= cap with a in s^e * (base embedded); None for zero.
        The cap also bounds the search when s is a unit, where every
        element divides arbitrarily."""
        num, k = a
        if self.base.is_zero(num):
            return None
        if k > 0:
            return -k  # canonical form already divided out all it could
        return self._divide_s(num, cap)[1]

    def try_invert(self, a):
        num, k = a
        if self.base.is_zero(num):
            return None
        # a unit s divides every element, so dividing it out would never
        # stop; then R_s = R, and a is invertible exactly when num is
        unit_s = self.base.try_invert(self.s) is not None
        num, j = self._divide_s(num, 0 if unit_s else math.inf)
        inv = self.base.try_invert(num)
        if inv is None:
            return None
        if k >= j:
            return self.normalize(self.base.mul(inv, self.base.pow_int(self.s, k - j)), 0)
        return self.normalize(inv, j - k)

    def is_zero_divisor_elem(self, a):
        # s^k is a unit and s is no zero divisor, so a/s^k is one iff a is
        return self.base.is_zero_divisor_elem(a[0])

    def sample(self, rng, small=False):
        num = self.base.sample(rng, small=small)
        k = 0 if small else rng.randint(0, 2)
        return self.normalize(num, k)

    def show(self, a):
        num, k = a
        ns = self.base.show(num)
        if k == 0:
            return ns
        if not _is_simple(ns):
            ns = f"({ns})"
        ss = self.base.show(self.s)
        if not _is_simple(ss):
            ss = f"({ss})"
        return f"{ns}/{ss}^{k}" if k > 1 else f"{ns}/{ss}"

    def descriptor(self):
        return f"loc:{self.base.descriptor()}:s={self.base.show(self.s)}"


# ---------------------------------------------------------------------------
# descriptor and element parsing (the CLI's textual surface)
# ---------------------------------------------------------------------------

# The most poly: and loc: levels a descriptor may nest. Ring arithmetic
# recurses through the levels, a few frames each. Measured on Python 3.11
# with the default recursion limit of 1000 and 100 caller frames on the
# stack: every subcommand ran at 290 levels, and dilate raised
# RecursionError from 300.
MAX_TOWER_DEPTH = 290


def ring_from_descriptor(text):
    toks = text.strip().split(":")
    try:
        ring, rest = _parse_descriptor(toks)
    except RecursionError:
        raise ParseError("ring descriptor is nested too deeply") from None
    if rest:
        raise ParseError(f"trailing descriptor tokens: {':'.join(rest)}")
    depth, level = 0, ring
    while isinstance(level, (PolyRing, Localized)):
        depth, level = depth + 1, level.base
    if depth > MAX_TOWER_DEPTH:
        raise ParseError(f"ring descriptor nests {depth} poly/loc levels; "
                         f"at most {MAX_TOWER_DEPTH} are supported")
    return ring


def _parse_descriptor(toks):
    if not toks:
        raise ParseError("empty ring descriptor")
    head, rest = toks[0], toks[1:]
    if head == "q":
        return Rationals(), rest
    if head == "zmod":
        if not rest:
            raise ParseError("zmod needs a modulus")
        try:
            m = int(rest[0])
        except ValueError:
            raise ParseError(f"bad modulus {rest[0]!r}") from None
        return Zmod(m), rest[1:]
    if head == "poly":
        base, rest = _parse_descriptor(rest)
        if not rest:
            raise ParseError("poly needs a variable list")
        names = [v.strip() for v in rest[0].split(",") if v.strip()]
        return PolyRing(base, names), rest[1:]
    if head == "loc":
        base, rest = _parse_descriptor(rest)
        if not rest or not rest[0].startswith("s="):
            raise ParseError("loc needs s=<element>")
        s = parse_element(base, rest[0][2:])
        return Localized(base, s), rest[1:]
    raise ParseError(f"unknown ring kind {head!r}")


_TOKEN_CHARS = set("+-*/^()")

# largest exponent times operand size that a parsed power may have, so that
# no element text expands into an unbounded amount of arithmetic
MAX_POWER_SIZE = 64


def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_CHARS:
            toks.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j]))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in element")
    return toks


class _ElementParser:
    def __init__(self, ring, toks):
        self.ring = ring
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def expr(self):
        t = self.peek()
        neg = False
        if t == "-":
            self.take()
            neg = True
        elif t == "+":
            self.take()
        acc = self.term()
        if neg:
            acc = self.ring.neg(acc)
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            acc = self.ring.add(acc, rhs) if op == "+" else self.ring.sub(acc, rhs)
        return acc

    def term(self):
        acc = self.power()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.power()
            if op == "*":
                acc = self.ring.mul(acc, rhs)
            else:
                inv = self.ring.try_invert(rhs)
                if inv is None:
                    raise ParseError("division by a non-invertible element")
                acc = self.ring.mul(acc, inv)
        return acc

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            t = self.take()
            if not (isinstance(t, tuple) and t[0] == "int"):
                raise ParseError("exponent must be an integer literal")
            size = sum(1 for _ in _root_coefficients(self.ring, base))
            if t[1] * size > MAX_POWER_SIZE:
                raise ParseError(f"power ^{t[1]} of a {size}-term element "
                                 f"exceeds the size bound {MAX_POWER_SIZE}")
            return self.ring.pow_int(base, t[1])
        return base

    def atom(self):
        t = self.take()
        if t == "(":
            v = self.expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return v
        if t == "-":
            return self.ring.neg(self.atom())
        if isinstance(t, tuple) and t[0] == "int":
            return self.ring.from_int(t[1])
        if isinstance(t, tuple) and t[0] == "name":
            return self.lookup(t[1])
        raise ParseError(f"unexpected token {t!r}")

    def lookup(self, name):
        ring = self.ring
        lifts = []
        while True:
            if isinstance(ring, PolyRing) and name in ring.names:
                v = ring.var(name)
                for lift in reversed(lifts):
                    v = lift(v)
                return v
            if name == "s" and isinstance(ring, Localized):
                v = ring.embed(ring.s)
                for lift in reversed(lifts):
                    v = lift(v)
                return v
            if isinstance(ring, PolyRing):
                lifts.append(ring.const)
                ring = ring.base
            elif isinstance(ring, Localized):
                lifts.append(ring.embed)
                ring = ring.base
            else:
                raise ParseError(f"unknown variable {name!r}")


def parse_element(ring, text):
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty element")
    p = _ElementParser(ring, toks)
    try:
        v = p.expr()
    except RecursionError:
        raise ParseError("element is nested too deeply") from None
    if p.peek() is not None:
        raise ParseError(f"trailing tokens in element {text!r}")
    return v
