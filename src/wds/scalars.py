"""Exact scalar arithmetic: Q, and the field Q(p1, ..., pk) of rational functions.

A ParamRing with no parameters is Q: its constants are plain Fractions.
Over k >= 1 parameters they are Scalars, quotients num/den of sparse
multivariate polynomials with Fraction coefficients over a fixed,
lexicographically ordered tuple of parameter names.  Canonical form:
gcd(num, den) = 1 and den monic under graded-lex monomial order, so
equality of values is equality of representations.  Fraction and Scalar
share the operations the engine uses: + - * /, ==, bool and str.

Every canonical quotient pays one polynomial gcd (`mp_gcd`).  It splits off
the shared monomial, then runs the heuristic gcd over Z of Char, Geddes and
Gonnet (1989), which accepts a candidate only when it divides both operands
exactly, and falls back to the primitive PRS (`mp_gcd_prs`) when the
heuristic gives up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Expo = tuple  # exponent tuple, one entry per parameter
MP = dict  # sparse polynomial {exponent tuple: Fraction}
ZP = dict  # sparse integer polynomial {exponent tuple: int}


class ParamRing:
    """A fixed ordered set of parameter names (possibly empty): Q(names)."""

    __slots__ = ("names", "nvars", "_zero_expo", "_zero", "_one")

    def __init__(self, names: Iterable[str] = ()):
        ordered = tuple(sorted(set(names)))
        self.names = ordered
        self.nvars = len(ordered)
        self._zero_expo = (0,) * self.nvars
        # elements are never mutated, so 0 and 1 are built once and shared
        self._zero, self._one = self.const(0), self.const(1)

    def __eq__(self, other):
        return isinstance(other, ParamRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"ParamRing{self.names}"

    # -- constructors ------------------------------------------------

    def zero(self) -> Scalar | Fraction:
        return self._zero

    def one(self) -> Scalar | Fraction:
        return self._one

    def const(self, q) -> Scalar | Fraction:
        """q in this ring: a Fraction over Q, a Scalar over Q(p)."""
        q = Fraction(q)
        if not self.nvars:
            return q
        num = {self._zero_expo: q} if q else {}
        return Scalar(self, num, {self._zero_expo: Fraction(1)}, True)

    def coerce(self, c) -> Scalar | Fraction:
        """c in this ring: a Scalar of this ring as it is, a rational through
        `const`; a Scalar of another ring raises ValueError."""
        if c.__class__ is Scalar:
            if c.ring is not self and c.ring != self:
                raise ValueError("scalars from different parameter rings")
            return c
        return self.const(c)

    def param(self, name: str) -> "Scalar":
        i = self.names.index(name)
        expo = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Scalar(self, {expo: Fraction(1)}, {self._zero_expo: Fraction(1)}, True)


# ---------------------------------------------------------------------------
# polynomial helpers, operating on raw dicts
# ---------------------------------------------------------------------------


def _grlex_key(e: Expo):
    return (sum(e), e)


def mp_add(a: MP, b: MP) -> MP:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e)
        if v is None:
            out[e] = c
        else:
            v = v + c
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def mp_neg(a: MP) -> MP:
    return {e: -c for e, c in a.items()}

def mp_mul(a: MP, b: MP) -> MP:
    if not a or not b:
        return {}
    out: MP = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e)
            if v is None:
                out[e] = ca * cb
            else:
                v = v + ca * cb
                if v:
                    out[e] = v
                else:
                    del out[e]
    return out


def mp_is_const(a: MP) -> bool:
    return len(a) == 0 or (len(a) == 1 and not any(next(iter(a))))


def mp_leading(a: MP) -> tuple[Expo, Fraction]:
    e = max(a, key=_grlex_key)
    return e, a[e]


def _min_expo(a: MP) -> Expo:
    """The componentwise minimum exponent over the terms of a nonzero a."""
    return tuple(map(min, zip(*a)))


def _mono_shift(a: MP, m: Expo) -> MP:
    """a / x^m, for a monomial x^m that divides every term of a."""
    return {tuple(x - y for x, y in zip(e, m)): c for e, c in a.items()}


def mp_div_exact(a: MP, b: MP) -> MP:
    """Exact division a / b; raises ArithmeticError if not divisible."""
    if not a:
        return {}
    if len(b) == 1:  # a monomial divisor: one pass over the exponents
        (eb, cb), = b.items()
        if any(x < y for x, y in zip(_min_expo(a), eb)):
            raise ArithmeticError("inexact polynomial division")
        return {e: c / cb for e, c in _mono_shift(a, eb).items()}
    eb, cb = mp_leading(b)
    rem = dict(a)
    quo: MP = {}
    while rem:
        ea, ca = mp_leading(rem)
        de = tuple(x - y for x, y in zip(ea, eb))
        if any(x < 0 for x in de):
            raise ArithmeticError("inexact polynomial division")
        q = ca / cb
        quo[de] = quo.get(de, Fraction(0)) + q
        rem = mp_add(rem, mp_neg(mp_mul({de: q}, b)))
    return {e: c for e, c in quo.items() if c}


def _degree_in(a: MP, v: int) -> int:
    return max((e[v] for e in a), default=-1)


def _to_uni(a: MP, v: int) -> list[MP]:
    """View a as a polynomial in variable v with MP coefficients."""
    d = _degree_in(a, v)
    coeffs: list[MP] = [{} for _ in range(d + 1)]
    for e, c in a.items():
        rest = e[:v] + (0,) + e[v + 1 :]
        coeffs[e[v]][rest] = coeffs[e[v]].get(rest, Fraction(0)) + c
    return [{e: c for e, c in p.items() if c} for p in coeffs]


def _from_uni(coeffs: list[MP], v: int) -> MP:
    out: MP = {}
    for k, p in enumerate(coeffs):
        for e, c in p.items():
            ee = e[:v] + (k,) + e[v + 1 :]
            out[ee] = out.get(ee, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _uni_trim(p: list[MP]) -> list[MP]:
    while p and not p[-1]:
        p.pop()
    return p


def _uni_prem(a: list[MP], b: list[MP]) -> list[MP]:
    """Pseudo-remainder of a by b (univariate over MP coefficients)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _uni_trim(a):
        da, la = len(a) - 1, a[-1]
        a = [mp_mul(c, lb) for c in a]
        shift = da - db
        for i, c in enumerate(b):
            a[i + shift] = mp_add(a[i + shift], mp_neg(mp_mul(c, la)))
        _uni_trim(a)
        if len(a) - 1 == da and a:  # no progress should be impossible
            raise ArithmeticError("pseudo-division failed")
    return a


def _content(p: list[MP]) -> MP:
    g: MP = {}
    for c in p:
        if c:
            g = mp_gcd(g, c)
    return g


def mp_gcd(a: MP, b: MP) -> MP:
    """Monic gcd over Q; returns {(): 1}-style unit for coprime input.

    The monomial part is split off first: x^m, with m the componentwise
    minimum exponent over both operands, is the gcd when either operand is a
    single term, and otherwise multiplies the gcd of the two monomial-free
    parts.  That gcd comes from the heuristic gcd over Z (`_heu_gcd`), and
    from the primitive PRS (`mp_gcd_prs`) when the heuristic gives up.  A
    monomial factor keeps grlex leading terms, so the result is monic.
    """
    if not a or not b:
        return mp_gcd_prs(a, b)
    ma, mb = _min_expo(a), _min_expo(b)
    m = tuple(map(min, ma, mb))
    if len(a) == 1 or len(b) == 1:
        return {m: Fraction(1)}
    if any(ma):
        a = _mono_shift(a, ma)
    if any(mb):
        b = _mono_shift(b, mb)
    g = _heu_gcd(_zz_clear(a), _zz_clear(b), len(m) - 1)
    if g is None:
        g = mp_gcd_prs(a, b)
    else:
        g = _mp_monic({e: Fraction(c) for e, c in g.items()})
    if any(m):
        g = {tuple(x + y for x, y in zip(e, m)): c for e, c in g.items()}
    return g


# -- the heuristic gcd over Z (GCDHEU; Char, Geddes and Gonnet, 1989) ------
#
# Evaluating the main variable at an integer xi maps a gcd problem over Z
# to one in a variable fewer, down to an integer gcd; the symmetric xi-adic
# digits of that gcd, read as coefficients of the main variable, give a
# candidate.  For xi >= 2 min(|a|, |b|) + 2 (max norms of the primitive
# parts; the code adds 29), a candidate that divides both primitive parts is
# their gcd.  That needs the evaluated gcd to be the whole gcd of the
# evaluated polynomials, integer content included, so each level returns
# its content with it; a constant candidate needs no division check.

_HEU_TRIES = 6


def _zz_clear(a: MP) -> ZP:
    """The integer polynomial L*a, for L the lcm of a's denominators."""
    lcm = math.lcm(*(c.denominator for c in a.values()))
    return {e: c.numerator * (lcm // c.denominator) for e, c in a.items()}


def _heu_gcd(a: ZP, b: ZP, v: int) -> ZP | None:
    """The gcd over Z of integer polynomials a, b in variables 0..v, not
    both zero, with the gcd of their contents as its content (sign free);
    None when the heuristic gives up."""
    if not a or not b:  # an evaluation at xi can vanish
        return a or b
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    c = math.gcd(ca, cb)
    if mp_is_const(a) or mp_is_const(b):
        return {(0,) * len(next(iter(a))): c}
    while not any(e[v] for e in a) and not any(e[v] for e in b):
        v -= 1
    if ca != 1:
        a = {e: x // ca for e, x in a.items()}
    if cb != 1:
        b = {e: x // cb for e, x in b.items()}
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(_HEU_TRIES):
        g = _heu_gcd(_zz_eval(a, v, xi), _zz_eval(b, v, xi), v - 1)
        if g is None:
            return None
        g = _zz_interp(g, v, xi)
        if mp_is_const(g) or (_zz_divides(a, g) and _zz_divides(b, g)):
            return {e: c * x for e, x in g.items()} if c != 1 else g
        # a larger xi, by the paper's odd factor 73794/27011 and xi^(1/4)
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _zz_eval(a: ZP, v: int, xi: int) -> ZP:
    """a with variable v set to xi (its exponent becomes 0)."""
    out: ZP = {}
    for e, c in a.items():
        k = e[v]
        if k:
            c *= xi**k
            e = e[:v] + (0,) + e[v + 1 :]
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _zz_interp(g: ZP, v: int, xi: int) -> ZP:
    """The primitive part of the polynomial whose coefficients in variable v
    are the symmetric xi-adic digits of g's coefficients."""
    half = xi // 2
    out: ZP = {}
    for e, c in g.items():
        k = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[e[:v] + (k,) + e[v + 1 :]] = d
            c = (c - d) // xi
            k += 1
    cont = math.gcd(*out.values())
    return {e: d // cont for e, d in out.items()} if cont != 1 else out


def _zz_divides(a: ZP, g: ZP) -> bool:
    """Whether g divides a over Z: division by lex leading terms."""
    eg, cg = max(g.items())
    rem = dict(a)
    while rem:
        ea = max(rem)
        de = tuple(x - y for x, y in zip(ea, eg))
        q, r = divmod(rem[ea], cg)
        if r or min(de) < 0:
            return False
        for e, c in g.items():
            e = tuple(x + y for x, y in zip(e, de))
            x = rem.get(e, 0) - q * c
            if x:
                rem[e] = x
            else:
                del rem[e]
    return True


def mp_gcd_prs(a: MP, b: MP) -> MP:
    """Monic gcd over Q by the recursive primitive PRS (Brown, 1971).

    The general path of `mp_gcd`, and its oracle in the tests.
    """
    if not a and not b:
        return {}
    if not a:
        return _mp_monic(b)
    if not b:
        return _mp_monic(a)
    if mp_is_const(a) or mp_is_const(b):
        e = next(iter(a))
        return {(0,) * len(e): Fraction(1)}
    # main variable: highest index occurring in either
    nv = len(next(iter(a)))
    v = max(
        i for i in range(nv) if _degree_in(a, i) > 0 or _degree_in(b, i) > 0
    )
    ua, ub = _to_uni(a, v), _to_uni(b, v)
    ca, cb = _content(ua), _content(ub)
    pa = [mp_div_exact(c, ca) if c else {} for c in ua]
    pb = [mp_div_exact(c, cb) if c else {} for c in ub]
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while any(pb):
        r = _uni_prem(pa, pb)
        if not any(r):
            pa, pb = pb, []
            break
        cr = _content(r)
        pa, pb = pb, [mp_div_exact(c, cr) if c else {} for c in r]
    cpart = mp_gcd(ca, cb)
    return _mp_monic(mp_mul(_from_uni(pa, v), cpart))


def _mp_monic(a: MP) -> MP:
    if not a:
        return a
    _, lc = mp_leading(a)
    if lc == 1:
        return a
    inv = 1 / lc
    return {e: c * inv for e, c in a.items()}


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------


class Scalar:
    """Element of Q(p1,...,pk), k >= 1, in canonical form."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: ParamRing, num: MP, den: MP, _canonical: bool = False):
        self.ring = ring
        if _canonical:
            self.num = num
            self.den = den
            return
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num = {}
            self.den = {ring._zero_expo: Fraction(1)}
            return
        if not mp_is_const(den):
            g = mp_gcd(num, den)
            if not mp_is_const(g):
                num = mp_div_exact(num, g)
                den = mp_div_exact(den, g)
        _, lc = mp_leading(den)
        if lc != 1:
            inv = 1 / lc
            num = {e: c * inv for e, c in num.items()}
            den = {e: c * inv for e, c in den.items()}
        self.num = num
        self.den = den

    # -- predicates ---------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_const(self) -> bool:
        return mp_is_const(self.num) and mp_is_const(self.den)

    # -- arithmetic ---------------------------------------------------

    # Products with a constant are built directly in canonical form, without
    # the canonicalising constructor: gcd(q*num, den) = gcd(num, den) = 1,
    # and den stays monic.

    def _scaled(self, q: Fraction) -> "Scalar":
        return Scalar(self.ring, {e: c * q for e, c in self.num.items()},
                      self.den, True)

    def __add__(self, other):
        if other.__class__ is not Scalar or other.ring is not self.ring:
            other = self.ring.coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            return Scalar(self.ring, mp_add(self.num, other.num), dict(self.den))
        num = mp_add(mp_mul(self.num, other.den), mp_mul(other.num, self.den))
        return Scalar(self.ring, num, mp_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ring, mp_neg(self.num), self.den, True)

    def __sub__(self, other):
        return self + (-self.ring.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not Scalar or other.ring is not self.ring:
            other = self.ring.coerce(other)
        a, b = self.num, other.num
        if not a or not b:
            return self.ring.zero()
        if other.is_const():
            return self._scaled(b[self.ring._zero_expo])
        if self.is_const():
            return other._scaled(a[self.ring._zero_expo])
        return Scalar(self.ring, mp_mul(a, b), mp_mul(self.den, other.den))

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("inverting zero scalar")
        return Scalar(self.ring, dict(self.den), dict(self.num))

    def __truediv__(self, other):
        return self * self.ring.coerce(other).inv()

    def __rtruediv__(self, other):
        return self.ring.coerce(other) * self.inv()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(
            (
                tuple(sorted(self.num.items())),
                tuple(sorted(self.den.items())),
            )
        )

    # -- rendering ----------------------------------------------------

    def _poly_str(self, p: MP) -> str:
        if not p:
            return "0"
        parts = []
        for e in sorted(p, key=_grlex_key, reverse=True):
            c = p[e]
            factors = []
            for name, k in zip(self.ring.names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __str__(self):
        ns = self._poly_str(self.num)
        if mp_is_const(self.den):
            return ns
        ds = self._poly_str(self.den)
        if len(self.num) > 1:
            ns = f"({ns})"
        return f"{ns}/({ds})"

    def __repr__(self):
        return f"Scalar({self})"


Q = ParamRing()  # the plain rational field, shared default

ScalarLike = Union[Scalar, int, Fraction]
