"""Exact scalar arithmetic: Q, and the field Q(p1, ..., pk) of rational functions.

A ParamRing with no parameters is Q: its constants are plain Fractions.
Over k >= 1 parameters they are Scalars, quotients num/den of sparse
multivariate polynomials with integer coefficients over a fixed,
lexicographically ordered tuple of parameter names.  Canonical form:
gcd(num, den) = 1 in Z[p], so their integer contents are coprime too, and
den has a positive leading coefficient under graded-lex monomial order;
equality of values is equality of representations.  Fraction and Scalar
share the operations the engine uses: + - * /, ==, bool and str.  `str`
prints the quotient with a monic denominator over Q.

Each Scalar carries the factorization of its denominator,
den = k * prod f^e (`Scalar.fac`), with k a positive integer and each f a
primitive polynomial with a positive leading coefficient from the ring's
base: distinct base elements are coprime (a coprime base in the sense of
Bach, Driscoll and Shallit, "Factor refinement", J. Algorithms 15, 1993).
Sums follow Henrici (1956; Knuth, TAOCP vol. 2, 4.5.1): with g = gcd(d, e),
a/d + b/e = (t/g2) / ((d/g)(e/g2)) for t = a(e/g) + b(d/g) and
g2 = gcd(t, g).  Products cancel across, a/d * b/e =
(a/g1)(b/g2) / ((d/g2)(e/g1)) for g1 = gcd(a, e) and g2 = gcd(b, d), and a
product with a rational needs only integer gcds.  Over a coprime base,
gcd(d, e) = gcd(k_d, k_e) prod f^min(x, y), and the gcd of a numerator t
with a denominator is the integer gcd with k times each f of the
denominator divided out of t up to its exponent (`_strip`).

Most base elements are certified irreducible: a variable, whose power in t
is read off t's least exponents, or an f of degree 1 in some variable x
and primitive in x (Gauss's lemma), linear f included.  Such an f is
divided out only after t vanishes at a zero of f mod a prime, since a
nonzero value proves that f does not divide t.  Any other base element is
divided out by its polynomial gcd with t; a gcd that is a proper divisor
refines the element into coprime parts (`ParamRing._refine`).  A new
denominator, from `inv` or the general constructor, is factored over its
monomial part and the ring's base; what is left enters the base
(`ParamRing._factorize`).

The one polynomial gcd is `mp_gcd`, the shared monomial split off and the
subresultant PRS (`mp_gcd_prs`) on the rest, and only the factorization
code calls it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Expo = tuple  # exponent tuple, one entry per parameter
MP = dict  # sparse polynomial {exponent tuple: int}


class ParamRing:
    """A fixed ordered set of parameter names (possibly empty): Q(names).

    Over Q(p) the ring also keeps the coprime base of its Scalars'
    denominators: `_factors` maps the key of each base element met so far,
    its coefficient vector when linear (`_lin_key`) and its sorted items
    otherwise, to (v, f, point), where f is the polynomial, v the index of
    the variable when f is one (else -1) and point a zero of f mod _P when
    f is certified irreducible (`_root`), else None; `_refined` maps each
    refined element to its parts; `_products` memoizes expanded
    denominators k * prod f^e, which measured faster than expanding them on
    each use.  All three only grow.  A Scalar of an equal ring is factored
    over this ring's base when it enters its arithmetic (`coerce`)."""

    __slots__ = ("names", "nvars", "_zero_expo", "_unit", "_zero", "_one",
                 "_factors", "_refined", "_products")

    def __init__(self, names: Iterable[str] = ()):
        ordered = tuple(sorted(set(names)))
        self.names = ordered
        self.nvars = len(ordered)
        self._zero_expo = (0,) * self.nvars
        self._unit = {self._zero_expo: 1}  # the polynomial 1
        self._factors: dict = {}
        self._refined: dict = {}
        self._products: dict = {}
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
        if q.__class__ is not Fraction:
            q = Fraction(q)
        if not self.nvars:
            return q
        if not q:
            return _scalar(self, {}, self._unit, (1, {}))
        return _scalar(self, {self._zero_expo: q.numerator},
                       {self._zero_expo: q.denominator}, (q.denominator, {}))

    def coerce(self, c) -> Scalar | Fraction:
        """c in this ring: a Scalar of this ring as it is, one of an equal
        ring with den factored over this ring's base, a rational through
        `const`; a Scalar of another ring raises ValueError."""
        if c.__class__ is Scalar:
            if c.ring is not self:
                if c.ring != self:
                    raise ValueError("scalars from different parameter rings")
                return _scalar(self, c.num, c.den, self._factorize(c.den))
            return c
        return self.const(c)

    def param(self, name: str) -> "Scalar":
        i = self.names.index(name)
        expo = tuple(1 if j == i else 0 for j in range(self.nvars))
        return _scalar(self, {expo: 1}, self._unit, (1, {}))

    # -- denominators over a coprime base -----------------------------

    def _lin_key(self, f: MP) -> tuple:
        """The coefficient vector (a_1, ..., a_n, b) of a linear polynomial
        f = a_1 p_1 + ... + a_n p_n + b."""
        key = [0] * (self.nvars + 1)
        for e, c in f.items():
            key[e.index(1) if any(e) else self.nvars] = c
        return tuple(key)

    def _factor(self, key: tuple) -> tuple:
        """(v, f, point) of the base element with this key, entered into
        `_factors` on first use."""
        info = self._factors.get(key)
        if info is None:
            if key[0].__class__ is tuple:  # the items of a nonlinear f
                f, v = dict(key), -1
            else:
                n = self.nvars
                f = {tuple(int(j == i) for j in range(n)): a
                     for i, a in enumerate(key[:n]) if a}
                if key[-1]:
                    f[self._zero_expo] = key[-1]
                # a primitive monomial is the variable itself
                v = key.index(1) if len(f) == 1 and not key[-1] else -1
            info = self._factors[key] = (v, f, _root(f) if v < 0 else None)
        return info

    def _den(self, k: int, fs: dict) -> MP:
        """The expanded denominator k * prod f^e over fs = {key: e}."""
        memo = (k, frozenset(fs.items()))
        p = self._products.get(memo)
        if p is None:
            p = {self._zero_expo: k}
            for key, x in fs.items():
                f = self._factor(key)[1]
                for _ in range(x):
                    p = mp_mul(p, f)
            self._products[memo] = p
        return p

    def _rebase(self, fs: dict) -> dict:
        """fs = {key: e} with each refined key replaced by its parts."""
        out = {}
        for key, x in fs.items():
            for part, y in self._refined.get(key, {key: 1}).items():
                out[part] = out.get(part, 0) + x * y
        return out

    def _factorize(self, p: MP) -> tuple[int, dict]:
        """(k, {key: e}) with p = k * prod f^e over the base, for p with a
        positive leading coefficient: its content, its monomial part, the
        base elements that divide it, and new base elements for the rest."""
        k = math.gcd(*p.values())
        if k != 1:
            p = {e: c // k for e, c in p.items()}
        n = max(map(sum, p))  # no factor divides p more often
        variables = (tuple(int(j == i) for j in range(self.nvars + 1))
                     for i in range(self.nvars))
        p, _, fs = _strip(self, p, 1, {key: n for key in (*variables, *self._factors)
                                       if key not in self._refined})
        if len(p) > 1:
            self._enter(p, 1, fs)
        return k, fs

    def _enter(self, p: MP, x: int, fs: dict) -> None:
        """Add the factors of p^x to fs as new base elements, for p
        nonconstant, primitive, with a positive leading coefficient, no
        monomial factor and no factor in common with the base.

        Where p = a y + b has degree 1 in a variable y, its content
        gcd(a, b) in y is entered first and p divided by it; the rest is
        primitive of degree 1 in y, so irreducible.  A p of degree 0 or at
        least 2 in every variable enters as it is, uncertified."""
        for i in range(self.nvars):
            if max(e[i] for e in p) == 1:
                a = {e[:i] + (0,) + e[i + 1:]: c for e, c in p.items() if e[i]}
                b = {e: c for e, c in p.items() if not e[i]}
                # a single term in a or b leaves p, primitive and without a
                # monomial factor, content 1
                if len(a) > 1 and len(b) > 1:
                    g = mp_gcd(a, b)
                    if len(g) > 1:
                        self._enter(g, x, fs)
                        p = mp_quo(p, g)
                break
        key = (self._lin_key(p) if all(sum(e) <= 1 for e in p)
               else tuple(sorted(p.items())))
        self._factor(key)
        fs[key] = fs.get(key, 0) + x

    def _gcd_strip(self, t: MP, key: tuple, n: int) -> tuple[MP, dict]:
        """(t/g, {key: e}) for g = gcd(t, f^n), f the base element `key`,
        over the current base: f is divided out while gcd(t, f) = f, and a
        gcd that is a proper divisor of f refines f."""
        out = {}
        work = [(key, n)]
        while work:
            key, n = work.pop()
            parts = self._refined.get(key)
            if parts is not None:
                work.extend((part, n * y) for part, y in parts.items())
                continue
            f = self._factors[key][1]
            j = 0
            while j < n and len(t) > 1:
                g = mp_gcd(t, f)
                if g == f:
                    t, j = mp_quo(t, f), j + 1
                    continue
                if len(g) > 1:
                    self._refine(key, g)
                    work.append((key, n - j))
                break
            if j:
                out = _fmul(out, self._rebase({key: j}))
        return t, out

    def _refine(self, key: tuple, g: MP) -> None:
        """Replace the base element f of `key` by coprime parts of
        f = g (f/g), for a proper divisor g of f: two parts a^x b^y with a
        common factor d become d^(x+y) (a/d)^x (b/d)^y until no two share
        one, and each part enters the base (`_enter`)."""
        f = self._factors[key][1]
        parts, done = [(g, 1), (mp_quo(f, g), 1)], []
        while parts:
            a, x = parts.pop()
            for i, (b, y) in enumerate(done):
                d = mp_gcd(a, b)
                if len(d) > 1:
                    del done[i]
                    parts += [(q, e) for q, e in ((d, x + y), (mp_quo(a, d), x),
                                                  (mp_quo(b, d), y)) if len(q) > 1]
                    break
            else:
                done.append((a, x))
        fs = {}
        for a, x in done:
            self._enter(a, x, fs)
        self._refined[key] = fs
        for old, m in self._refined.items():
            if key in m:  # an earlier refinement with f among its parts
                self._refined[old] = self._rebase(m)


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
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:  # a monomial factor: one pass, no collisions
        (eb, cb), = b.items()
        if not any(eb):
            return a if cb == 1 else {e: c * cb for e, c in a.items()}
        return {tuple(x + y for x, y in zip(e, eb)): c * cb for e, c in a.items()}
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


def _mp_pow(a: MP, k: int) -> MP:
    out = {(0,) * len(next(iter(a))): 1}
    for _ in range(k):
        out = mp_mul(out, a)
    return out


def mp_is_const(a: MP) -> bool:
    return len(a) == 0 or (len(a) == 1 and not any(next(iter(a))))


def mp_leading(a: MP) -> tuple[Expo, int]:
    e = max(a, key=_grlex_key)
    return e, a[e]


def _positive(a: MP) -> MP:
    """a or -a, whichever has a positive leading coefficient."""
    return mp_neg(a) if a and mp_leading(a)[1] < 0 else a


def _min_expo(a: MP) -> Expo:
    """The componentwise minimum exponent over the terms of a nonzero a."""
    return tuple(map(min, zip(*a)))


def _mono_shift(a: MP, m: Expo) -> MP:
    """a / x^m, for a monomial x^m that divides every term of a."""
    return {tuple(x - y for x, y in zip(e, m)): c for e, c in a.items()}


def mp_quo(a: MP, b: MP) -> MP | None:
    """a / b over Z when b divides a, else None; b nonzero.

    Division by lex leading terms.  A quotient term whose degree in some
    variable exceeds deg(a) - deg(b) in that variable shows that b does not
    divide a; the check also bounds the number of steps."""
    if not a:
        return {}
    if len(b) == 1:  # a monomial divisor: one pass over the terms
        (eb, cb), = b.items()
        if any(x < y for x, y in zip(_min_expo(a), eb)):
            return None
        out: MP = {}
        for e, c in a.items():
            q, r = divmod(c, cb)
            if r:
                return None
            out[tuple(x - y for x, y in zip(e, eb))] = q
        return out
    bound = [x - y for x, y in zip(map(max, zip(*a)), map(max, zip(*b)))]
    eb, cb = max(b.items())
    rem = dict(a)
    quo: MP = {}
    while rem:
        ea = max(rem)
        de = tuple(x - y for x, y in zip(ea, eb))
        q, r = divmod(rem[ea], cb)
        if r or any(x < 0 or x > m for x, m in zip(de, bound)):
            return None
        quo[de] = q
        for e, c in b.items():
            e = tuple(x + y for x, y in zip(e, de))
            x = rem.get(e, 0) - q * c
            if x:
                rem[e] = x
            else:
                del rem[e]
    return quo


def _zz_clear(a: MP) -> tuple[MP, int]:
    """(L*a, L) for a polynomial a with rational coefficients, L the lcm of
    their denominators."""
    lcm = math.lcm(*(c.denominator for c in a.values()))
    return {e: int(c * lcm) for e, c in a.items()}, lcm


def mp_gcd(a: MP, b: MP) -> MP:
    """The gcd in Z[p] of a and b, not both zero, with a positive leading
    coefficient; its integer content is the gcd of theirs.

    The monomial part is split off first: x^m, with m the componentwise
    minimum exponent over both operands, times the gcd of all coefficients
    is the gcd when either operand is a single term, and otherwise
    multiplies the subresultant PRS gcd (`mp_gcd_prs`) of the two
    monomial-free parts.
    """
    if not a or not b:
        return _positive(a or b)
    ma, mb = _min_expo(a), _min_expo(b)
    m = tuple(map(min, ma, mb))
    if len(a) == 1 or len(b) == 1:
        return {m: math.gcd(*a.values(), *b.values())}
    if any(ma):
        a = _mono_shift(a, ma)
    if any(mb):
        b = _mono_shift(b, mb)
    g = mp_gcd_prs(a, b)
    if any(m):
        g = {tuple(x + y for x, y in zip(e, m)): c for e, c in g.items()}
    return g


# -- the subresultant PRS over Z[p] (Collins 1967; Brown, J. ACM 18, 1971) -
#
# A polynomial is viewed in its main variable v as a list of coefficients
# in the other variables (exponent tuples with 0 at v), lowest degree first.


def _to_uni(a: MP, v: int) -> list[MP]:
    coeffs: list[MP] = [{} for _ in range(max(e[v] for e in a) + 1)]
    for e, c in a.items():
        coeffs[e[v]][e[:v] + (0,) + e[v + 1 :]] = c
    return coeffs


def _from_uni(coeffs: list[MP], v: int) -> MP:
    return {e[:v] + (k,) + e[v + 1 :]: c
            for k, p in enumerate(coeffs) for e, c in p.items()}


def _uni_prem(a: list[MP], b: list[MP]) -> list[MP]:
    """The exact pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b, with
    trailing zero coefficients dropped; deg a >= deg b."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    k = len(a) - db
    while len(a) > db:
        la, shift = a.pop(), len(a) - db
        a = [mp_mul(c, lb) for c in a]
        for i, c in enumerate(b[:-1]):
            a[i + shift] = mp_add(a[i + shift], mp_neg(mp_mul(c, la)))
        k -= 1
        while a and not a[-1]:
            a.pop()
    if k and a:
        f = _mp_pow(lb, k)
        a = [mp_mul(c, f) for c in a]
    return a


def _content(p: list[MP]) -> MP:
    """The gcd of the coefficients, positive leading coefficient."""
    g: MP = {}
    for c in p:
        if c:
            g = mp_gcd_prs(g, c)
            if mp_is_const(g) and next(iter(g.values())) == 1:
                break
    return g


def mp_gcd_prs(a: MP, b: MP) -> MP:
    """The gcd of `mp_gcd`, by the recursive subresultant PRS (Knuth, TAOCP
    vol. 2, 4.6.1, algorithm C); the contents recurse into mp_gcd_prs, so
    it is also the oracle of `mp_gcd`'s monomial split in the tests.
    """
    if not a or not b:
        return _positive(a or b)
    if mp_is_const(a) or mp_is_const(b):
        return {(0,) * len(next(iter(a))): math.gcd(*a.values(), *b.values())}
    # main variable: highest index occurring in either
    v = max(i for i, (x, y) in enumerate(zip(map(max, zip(*a)), map(max, zip(*b))))
            if x or y)
    ua, ub = _to_uni(a, v), _to_uni(b, v)
    ca, cb = _content(ua), _content(ub)
    u = [mp_quo(c, ca) for c in ua]
    w = [mp_quo(c, cb) for c in ub]
    if len(u) < len(w):
        u, w = w, u
    g = h = {(0,) * len(next(iter(a))): 1}
    while len(w) > 1:
        delta = len(u) - len(w)
        r = _uni_prem(u, w)
        if not r:
            break
        q = mp_mul(g, _mp_pow(h, delta))
        u, w = w, [mp_quo(c, q) for c in r]
        g = u[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = mp_quo(_mp_pow(g, delta), _mp_pow(h, delta - 1))
    d = mp_gcd_prs(ca, cb)
    if len(w) == 1:  # the primitive parts are coprime
        return d
    return _positive(mp_mul(mp_quo(_from_uni(w, v), _content(w)), d))


# ---------------------------------------------------------------------------
# denominators over a coprime base
# ---------------------------------------------------------------------------

_P = (1 << 61) - 1  # a prime; trial points lie in (Z/_P)^n


def _value(t: MP, point: tuple) -> int:
    """t at point, mod _P: nonzero proves that no factor vanishing there
    divides t."""
    s = 0
    for e, c in t.items():
        for x, k in zip(point, e):
            if k == 1:
                c *= x
            elif k:
                c *= x**k
        s += c
    return s % _P


def _root(f: MP) -> tuple | None:
    """A zero of f mod _P: x_j = 3^(j+40), except for the first variable x_i
    in which f = a x_i + b has degree 1 and a is nonzero there, solved for;
    None when there is no such variable."""
    n = len(next(iter(f)))
    for i in range(n):
        if max(e[i] for e in f) == 1:
            x = [pow(3, j + 40, _P) for j in range(n)]
            x[i] = 0
            b = _value(f, x)
            x[i] = 1
            a = (_value(f, x) - b) % _P
            if a:
                x[i] = -b * pow(a, -1, _P) % _P
                return tuple(x)
    return None


def _strip(ring: ParamRing, t: MP, k: int, fs: dict) -> tuple[MP, int, dict]:
    """(t/g, c, mu) for g = gcd(t, k * prod f^e over fs = {key: e}) =
    c * prod f^mu[key], mu over the current base.  A variable's power is
    read off t's least exponents; any other certified f is divided out
    while t vanishes at f's point and the division is exact, up to its
    exponent in fs, and the rest by polynomial gcds (`_gcd_strip`)."""
    c = math.gcd(k, *t.values()) if k != 1 else 1
    if c != 1:
        t = {e: x // c for e, x in t.items()}
    mu = {}
    m = None
    for key, n in fs.items():
        v, f, point = ring._factor(key)
        if v >= 0:
            if m is None:
                m = _min_expo(t)
            j = min(m[v], n)
            if j:
                t = {e[:v] + (e[v] - j,) + e[v + 1:]: x for e, x in t.items()}
        elif point is None:
            t, got = ring._gcd_strip(t, key, n)
            mu.update(got)
            continue
        else:
            j = 0
            while j < n and not _value(t, point):
                q = mp_quo(t, f)
                if q is None:
                    break
                t, j = q, j + 1
        if j:
            mu[key] = j
    return t, c, mu


def _fmul(fs: dict, gs: dict) -> dict:
    """The exponents of a product of two factorizations."""
    out = dict(fs)
    for key, x in gs.items():
        out[key] = out.get(key, 0) + x
    return out


def _fdiv(fs: dict, gs: dict) -> dict:
    """The exponents of fs divided by gs, which divides it."""
    if not gs:
        return fs
    out = dict(fs)
    for key, x in gs.items():
        y = out[key] - x
        if y:
            out[key] = y
        else:
            del out[key]
    return out


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------


def _scalar(ring: ParamRing, num: MP, den: MP, fac) -> "Scalar":
    """The Scalar num/den, already canonical, with den's factorization fac."""
    s = object.__new__(Scalar)
    s.ring, s.num, s.den, s.fac = ring, num, den, fac
    return s


def _over(ring: ParamRing, num: MP, k: int, fs: dict, mu: dict = None) -> "Scalar":
    """num / (k * prod f^e over fs, divided by prod f^e over mu), num
    coprime to that denominator.  Once the ring has refined an element, fs
    and mu are read over the current base: a strip can refine one."""
    if ring._refined:
        fs, mu = ring._rebase(fs), mu and ring._rebase(mu)
    if mu:
        fs = _fdiv(fs, mu)
    return _scalar(ring, num, ring._den(k, fs), (k, fs))


class Scalar:
    """Element of Q(p1,...,pk), k >= 1, in canonical form.

    `fac` is (k, {key: e}), den = k * prod f^e over elements f of the
    ring's base (`ParamRing._factors`); a key that the ring has refined
    since stands for its parts (`ParamRing._rebase`)."""

    __slots__ = ("ring", "num", "den", "fac")

    def __init__(self, ring: ParamRing, num: MP, den: MP):
        """num/den for polynomials with rational coefficients, den nonzero."""
        self.ring = ring
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den, self.fac = {}, ring._unit, (1, {})
            return
        (num, ln), (den, ld) = _zz_clear(num), _zz_clear(den)
        if ld != 1:
            num = {e: c * ld for e, c in num.items()}
        if ln != 1:
            den = {e: c * ln for e, c in den.items()}
        if mp_leading(den)[1] < 0:
            num, den = mp_neg(num), mp_neg(den)
        k, fs = ring._factorize(den)
        num, c, mu = _strip(ring, num, k, fs)
        fs = _fdiv(ring._rebase(fs), mu)
        self.num, self.den, self.fac = num, ring._den(k // c, fs), (k // c, fs)

    # -- predicates ---------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_const(self) -> bool:
        """num and den are constants: den is one exactly when `fac` lists
        no factor."""
        num = self.num
        return not self.fac[1] and (
            not num or (len(num) == 1 and self.ring._zero_expo in num))

    # -- arithmetic ---------------------------------------------------

    # gcd(a, d) = gcd(b, e) = 1 for self = a/d and other = b/e, and d, e
    # have positive leading coefficients.  A quotient of two polynomials with
    # positive leading coefficients has one, as has their product, so no
    # result below needs a sign fix.  Factorizations are read over the
    # current base once the ring has refined an element.

    def _scaled(self, n: int, d: int) -> "Scalar":
        """self * n/d, for coprime integers n != 0 and d > 0: only integer
        gcds with the contents of num and den."""
        num, den, (k, fs) = self.num, self.den, self.fac
        if n != 1 and n != -1:
            g = math.gcd(n, k)
            if g != 1:
                n, k = n // g, k // g
                den = {e: c // g for e, c in den.items()}
        if d != 1:
            g = math.gcd(d, *num.values())
            if g != 1:
                d //= g
                num = {e: c // g for e, c in num.items()}
        if n != 1:
            num = {e: c * n for e, c in num.items()}
        if d != 1:
            k *= d
            den = {e: c * d for e, c in den.items()}
        return _scalar(self.ring, num, den, (k, fs))

    def __add__(self, other):
        if other.__class__ is not Scalar or other.ring is not self.ring:
            other = self.ring.coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other
        ring = self.ring
        (kd, fd), (ke, fe) = self.fac, other.fac
        if ring._refined:
            fd, fe = ring._rebase(fd), ring._rebase(fe)
        kg = math.gcd(kd, ke)
        common = {key: min(x, fe[key]) for key, x in fd.items() if key in fe}
        if kg == 1 and not common:
            t = mp_add(mp_mul(self.num, other.den), mp_mul(other.num, self.den))
            if not t:
                return ring._zero
            return _over(ring, t, kd * ke, _fmul(fd, fe))
        dg = _fdiv(fd, common)
        t = mp_add(mp_mul(self.num, ring._den(ke // kg, _fdiv(fe, common))),
                   mp_mul(other.num, ring._den(kd // kg, dg)))
        if not t:
            return ring._zero
        t, c, mu = _strip(ring, t, kg, common)
        return _over(ring, t, kd // kg * (ke // c), _fmul(dg, fe), mu)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.ring, mp_neg(self.num), self.den, self.fac)

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
        ring = self.ring
        z = ring._zero_expo
        if other.is_const():
            return self._scaled(b[z], other.den[z])
        if self.is_const():
            return other._scaled(a[z], self.den[z])
        (kd, fd), (ke, fe) = self.fac, other.fac
        if ring._refined:
            fd, fe = ring._rebase(fd), ring._rebase(fe)
        a, c1, mu1 = _strip(ring, a, ke, fe)
        b, c2, mu2 = _strip(ring, b, kd, fd)
        return _over(ring, mp_mul(a, b), kd // c2 * (ke // c1), _fmul(fd, fe),
                     _fmul(mu1, mu2))

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("inverting zero scalar")
        num, den = self.den, self.num
        if mp_leading(den)[1] < 0:
            num, den = mp_neg(num), mp_neg(den)
        return _scalar(self.ring, num, den, self.ring._factorize(den))

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
        """num/den with den monic over Q."""
        num, den = self.num, self.den
        _, lc = mp_leading(den)
        if lc != 1:
            num = {e: Fraction(c, lc) for e, c in num.items()}
            den = {e: Fraction(c, lc) for e, c in den.items()}
        ns = self._poly_str(num)
        if mp_is_const(den):
            return ns
        ds = self._poly_str(den)
        if len(num) > 1:
            ns = f"({ns})"
        return f"{ns}/({ds})"

    def __repr__(self):
        return f"Scalar({self})"


Q = ParamRing()  # the plain rational field, shared default

ScalarLike = Union[Scalar, int, Fraction]
