"""Differential polynomials in variables u_i^(n) and polynomials in lambda.

A monomial is a sorted tuple of ints, one per variable and repeated for
powers: u_g^(n) is g << B | n, which keeps the (g, n) order and makes d of
a variable its code plus one (an order reaching 2**B raises OrderOverflow).
Only this module reads the codes; every way out decodes them to (g, n).  A
DiffPoly is kept in numerator form: `terms` maps each monomial of nonzero
coefficient to its numerator over one common denominator `den`, so the
polynomial is sum(terms[m] / den * m).  Over Q the numerators are ints and
den is a positive int with gcd(den, all numerators) = 1; over Q(p) they are
Scalars and den is 1, since a Scalar absorbs any rational factor.  The form
is canonical, so equality of values is equality of representations.  A
coefficient becomes an element of the context's ParamRing (a Fraction over
Q, a Scalar over Q(p)) only on its way out: `coeffs`, `const_term` and the
renderers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Sequence

from .scalars import ParamRing, Scalar, ScalarLike

B = 16  # bits of the derivative order in a variable's code
MAX_ORDER = (1 << B) - 1  # the highest derivative order a monomial holds


# how the renderers write an order past 3, a power and a product:
# u^(4), u^2 and u*v as text; u^{(4)}, (u)^{2} and u v in LaTeX
_TEXT = ("{}^({})", "{}^{}", "*")
_LATEX = ("{}^{{({})}}", "({})^{{{}}}", " ")


def _is_sum(cs: str) -> bool:
    """Whether the written coefficient cs is a sum or a difference, which
    needs parentheses before a product; a fraction a/b and a leading minus
    do not."""
    return "+" in cs or ("-" in cs[1:] and "/" not in cs)


class OrderOverflow(ArithmeticError):
    """A derivative order past the 2**B - 1 a monomial can hold."""


def _code(g: int, n: int) -> int:
    if not 0 <= n <= MAX_ORDER:
        raise OrderOverflow(f"derivative order {n} is outside 0..{MAX_ORDER}")
    return g << B | n


def _decode(m: tuple) -> tuple:
    """A monomial as its ((gen, order), ...) pairs."""
    return tuple((x >> B, x & MAX_ORDER) for x in m)


def numerator_form(c) -> tuple:
    """A ring element as (numerator, den): the reduced numerator and
    denominator of a rational, and (c, 1) for a Scalar.  The one place that
    reads which ring a coefficient is in; the kernel runs on the pairs."""
    if c.__class__ is Scalar:
        return c, 1
    return c.numerator, c.denominator


def _join(ring: ParamRing, n, den: int):
    """The ring element n / den; over Q(p), den is always 1."""
    return ring.coerce(n) if den == 1 else Fraction(n, den)


def common_denominator(values) -> tuple:
    """Ring elements as (L, numerators) over their least common denominator
    L; the numerators of rationals are then coprime to L as a whole, and
    over Q(p) L is 1."""
    parts = [numerator_form(c) for c in values]
    L = math.lcm(*(d for _, d in parts))
    return L, [n if d == L else n * (L // d) for n, d in parts]


class Context:
    """Generator context: labels and conformal weights over a parameter ring."""

    __slots__ = ("ring", "labels", "weights")

    def __init__(
        self,
        ring: ParamRing,
        labels: Sequence[str],
        weights: Sequence[Fraction] | None = None,
    ):
        self.ring = ring
        self.labels = tuple(labels)
        self.weights = tuple(weights) if weights is not None else None

    @property
    def ngens(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        return (
            isinstance(other, Context)
            and self.ring == other.ring
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.ring, self.labels))

    def __repr__(self):
        return f"Context({list(self.labels)})"

    # -- element builders --------------------------------------------

    def zero(self) -> "DiffPoly":
        return DiffPoly(self, {})

    def one(self) -> "DiffPoly":
        return self.const(1)

    def const(self, c: ScalarLike) -> "DiffPoly":
        c = self.ring.coerce(c)
        if not c:
            return self.zero()
        n, den = numerator_form(c)
        return DiffPoly(self, {(): n}, den)

    def gen(self, i: int, order: int = 0) -> "DiffPoly":
        if not 0 <= i < self.ngens:
            raise IndexError(f"no generator {i} in {self}")
        return DiffPoly(self, {(_code(i, order),): numerator_form(self.ring.one())[0]})

    def linear(self, coeffs: dict[int, ScalarLike], order: int = 0) -> "DiffPoly":
        """sum c u_i^(order) over the {i: c} of coeffs, each c nonzero."""
        L, nums = common_denominator(map(self.ring.coerce, coeffs.values()))
        return DiffPoly(
            self, {(_code(i, order),): n for i, n in zip(coeffs, nums)}, L)


class ContextMismatch(ValueError):
    pass


def _check_ctx(a: "DiffPoly", b: "DiffPoly"):
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatch(f"{a.ctx} vs {b.ctx}")


def _accumulate(out: dict, items, s=1) -> None:
    """out[m] += v * s for the (m, v) of items; s = 1 multiplies nothing."""
    if s != 1:
        items = [(m, v * s) for m, v in items]
    for m, v in items:
        got = out.get(m)
        out[m] = v if got is None else got + v


def _mul_into(out: dict, items_a, items_b) -> None:
    """out[m] += the numerator products of items_a by items_b, on the
    product monomials m."""
    for ma, va in items_a:
        for mb, vb in items_b:
            m = tuple(sorted(ma + mb))
            v = va * vb
            got = out.get(m)
            out[m] = v if got is None else got + v


def gather(ctx: "Context", jobs) -> dict:
    """{key: sum c * a * b} over the jobs (a, b, [(key, c), ...]), b None
    for 1 and each c a ring element: the one sum of scaled products of the
    engine.  Keys whose sum vanishes are left out; the others keep the
    order in which they first appear.  Each product a * b is formed once on
    numerators and shared by its keys.  Each key sums its numerators over
    the lcm of the denominators met so far, rescaled when a term's
    denominator does not divide it, and is normalised once."""
    sums: dict = {}  # key -> [denominator, {monomial: numerator}]
    for a, b, scaled in jobs:
        items, den = a.terms.items(), a.den
        if b is not None:
            den *= b.den
            if len(scaled) > 1:  # the product once, then one sum per key
                pq: dict = {}
                _mul_into(pq, items, b.terms.items())
                items, b = pq.items(), None
        for key, c in scaled:
            n, d = numerator_form(c)
            d *= den
            slot = sums.get(key)
            if slot is None:
                slot = sums[key] = [d, {}]
            D, out = slot
            if D % d:  # the sum moves to the lcm of D and d
                L = slot[0] = math.lcm(D, d)
                s = L // D
                for m in out:
                    out[m] *= s
                D = L
            if D != d:
                n *= D // d
            if b is None:
                _accumulate(out, items, n)
            else:
                _mul_into(out, [(m, v * n) for m, v in items] if n != 1
                          else items, b.terms.items())
    got = {}
    for key, (D, out) in sums.items():
        p = DiffPoly.collect(ctx, {D: out})
        if p:
            got[key] = p
    return got


def dot(ctx: "Context", pairs) -> "DiffPoly":
    """sum a * b over the (a, b) of pairs: gather with one key."""
    got = gather(ctx, [(a, b, ((0, 1),)) for a, b in pairs])
    return got[0] if got else ctx.zero()


class DiffPoly:
    __slots__ = ("ctx", "terms", "den")

    def __init__(self, ctx: Context, terms: dict, den: int = 1):
        """terms and den already in numerator form; `collect` builds one
        from any numerators."""
        self.ctx = ctx
        self.terms = terms
        self.den = den

    @classmethod
    def collect(cls, ctx: Context, slots: dict) -> "DiffPoly":
        """The sum over d of slots[d] / d, each slots[d] a {monomial:
        numerator} map, in numerator form: over the lcm of the d, with zero
        numerators dropped and the gcd with den divided out."""
        if len(slots) == 1:
            (den, nums), = slots.items()
        else:
            den = math.lcm(*slots)
            (d, first), *rest = slots.items()
            s = den // d
            nums = dict(first) if s == 1 else {m: v * s for m, v in first.items()}
            for d, slot in rest:
                _accumulate(nums, slot.items(), den // d)
        nums = {m: v for m, v in nums.items() if v}
        if not nums:
            return cls(ctx, {})
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {m: v // g for m, v in nums.items()}
        return cls(ctx, nums, den)

    def coeffs(self) -> dict:
        """{((gen, order), ...): coefficient}, with coefficients in the
        context's ring."""
        ring, den = self.ctx.ring, self.den
        return {_decode(m): _join(ring, v, den) for m, v in self.terms.items()}

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if other.__class__ is not DiffPoly:
            other = self.ctx.const(other)
        _check_ctx(self, other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        if self.den != other.den:
            return DiffPoly.collect(
                self.ctx, {self.den: self.terms, other.den: other.terms})
        out = dict(self.terms)
        _accumulate(out, other.terms.items())
        return DiffPoly.collect(self.ctx, {self.den: out})

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly(self.ctx, {m: -v for m, v in self.terms.items()},
                        self.den)

    def __sub__(self, other):
        if other.__class__ is not DiffPoly:
            other = self.ctx.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        _check_ctx(self, other)
        out: dict = {}
        _mul_into(out, self.terms.items(), other.terms.items())
        return DiffPoly.collect(self.ctx, {self.den * other.den: out})

    __rmul__ = __mul__

    def scale(self, c: ScalarLike) -> "DiffPoly":
        c = self.ctx.ring.coerce(c)
        if not c:
            return self.ctx.zero()
        n, d = numerator_form(c)
        nums = self.terms if n == 1 else {
            m: v * n for m, v in self.terms.items()}
        return DiffPoly.collect(self.ctx, {self.den * d: nums})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ctx.const(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return (self.ctx == other.ctx and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        # the monomials only: __eq__ still compares ctx, den and numerators
        return hash(frozenset(self.terms))

    # -- calculus ------------------------------------------------------

    def total_derivative(self) -> "DiffPoly":
        """The derivation with d(u_i^(n)) = u_i^(n+1) and d(const) = 0: for
        each power x^c in a monomial, its last copy bumped, times c."""
        out: dict = {}
        for m, v in self.terms.items():
            for k, x in enumerate(m):
                if k and m[k - 1] == x:
                    continue  # a power: its copies are counted at the first
                if x & MAX_ORDER == MAX_ORDER:
                    raise OrderOverflow(
                        f"d(u_{x >> B}^({MAX_ORDER})) past the bound")
                c = m.count(x)
                dm = m[:k + c - 1] + (x + 1,) + m[k + c:]
                cv = v * c if c > 1 else v
                got = out.get(dm)
                out[dm] = cv if got is None else got + cv
        return DiffPoly.collect(self.ctx, {self.den: out})

    def d(self, times: int = 1) -> "DiffPoly":
        p = self
        for _ in range(times):
            p = p.total_derivative()
        return p

    def partials(self) -> dict:
        """{gen: [d/d(u_gen^(0)), ..., d/d(u_gen^(top))] of self} for each
        generator of self, top its highest order there, gens in increasing
        order: every plain partial derivative, in one pass over the terms."""
        slots: dict = {}  # variable code -> {monomial: numerator}
        for m, v in self.terms.items():
            for k, x in enumerate(m):
                if k and m[k - 1] == x:
                    continue  # a power: its copies are counted at the first
                # distinct monomials with this factor stay distinct without it
                c = m.count(x)
                slots.setdefault(x, {})[m[:k] + m[k + 1:]] = v * c if c > 1 else v
        zero = self.ctx.zero()
        out: dict = {}
        for x in sorted(slots):
            ps = out.setdefault(x >> B, [])
            ps += [zero] * ((x & MAX_ORDER) - len(ps))
            ps.append(DiffPoly.collect(self.ctx, {self.den: slots[x]}))
        return out

    def gradient(self) -> dict:
        """{gen: delta self/delta u_gen} for each generator of self, with
        delta/delta u = sum_n (-d)^n d/d(u^(n)) in Horner form:
        acc = d/d(u^(n)) - d(acc), from the top order n down."""
        out = {}
        for g, ps in self.partials().items():
            acc = self.ctx.zero()
            for p in reversed(ps):
                acc = p - acc.total_derivative()
            out[g] = acc
        return out

    def const_term(self) -> Scalar:
        v = self.terms.get(())
        ring = self.ctx.ring
        return ring.zero() if v is None else _join(ring, v, self.den)

    # -- grading --------------------------------------------------------

    def conformal_weight(self):
        """Weight if homogeneous (constants have weight 0), else None."""
        w = self.ctx.weights
        if w is None:
            raise ValueError("context has no weights")
        found = None
        for m in self.terms:
            d = sum((Fraction(w[g]) + n) for g, n in _decode(m))
            if found is None:
                found = d
            elif found != d:
                return None
        return Fraction(0) if found is None else found

    # -- substitution ----------------------------------------------------

    def map_generators(
        self, target: Context, images: Sequence["DiffPoly"]
    ) -> "DiffPoly":
        """Differential-algebra homomorphism sending u_i to images[i].

        Derivatives map equivariantly: u_i^(n) goes to d^n(images[i]),
        derived in a loop from the highest order below n already mapped.
        """
        cache: dict = {}

        def img(x: int) -> DiffPoly:
            got = cache.get(x)
            if got is None:
                y = x
                while y & MAX_ORDER and y not in cache:
                    y -= 1
                got = cache.get(y)
                if got is None:
                    got = cache[y] = images[y >> B]
                while y < x:
                    y += 1
                    got = cache[y] = got.total_derivative()
            return got

        # sum_m v_m * image(m) / den, one numerator map per image denominator
        slots: dict = {}
        for m, v in self.terms.items():
            p = None
            for x in m:
                p = img(x) if p is None else p * img(x)
            if p is None:
                p = target.one()
            _accumulate(slots.setdefault(p.den * self.den, {}),
                        p.terms.items(), v)
        return DiffPoly.collect(target, slots) if slots else target.zero()

    # -- rendering --------------------------------------------------------

    def _ordered(self) -> list:
        """(decoded monomial, coefficient) pairs, by degree and then
        monomial."""
        return sorted(self.coeffs().items(), key=lambda t: (len(t[0]), t[0]))

    def _mono_str(self, m: tuple, style: tuple) -> str:
        """m with each run of one variable written once: orders up to 3 as
        primes, a higher order, a power and the product as style (_TEXT or
        _LATEX) writes them; the empty monomial is "1"."""
        high, power, sep = style
        parts = []
        for (g, n), run in itertools.groupby(m):
            s = self.ctx.labels[g]
            s = s + "'" * n if n <= 3 else high.format(s, n)
            k = len(list(run))
            parts.append(power.format(s, k) if k > 1 else s)
        return sep.join(parts) or "1"

    def _render(self, style: tuple) -> str:
        """The terms in _ordered order, each monomial as _mono_str writes it
        in style, times its coefficient; a constant term is written bare and
        a coefficient that is a sum in parentheses."""
        if not self.terms:
            return "0"
        parts = []
        for m, c in self._ordered():
            ms = self._mono_str(m, style)
            if not m:
                parts.append(str(c))
            elif c == 1:
                parts.append(ms)
            elif c == -1:
                parts.append(f"-{ms}")
            else:
                cs = str(c)
                if _is_sum(cs):
                    cs = f"({cs})"
                parts.append(f"{cs}{style[2]}{ms}")
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        return self._render(_TEXT)

    def __repr__(self):
        return f"DiffPoly({self})"

    def latex(self) -> str:
        return self._render(_LATEX)

    def to_json(self) -> list:
        return [{"coeff": str(c),
                 "monomial": [[self.ctx.labels[g], n] for g, n in m]}
                for m, c in self._ordered()]


# ---------------------------------------------------------------------------
# local functionals
# ---------------------------------------------------------------------------


def functional_equal(f: DiffPoly, g: DiffPoly) -> bool:
    """Equality of the local functionals int(f) and int(g).

    The kernel of the variational derivative on a differential polynomial
    algebra is constants + total derivatives, so int(f) = int(g) iff all
    variational derivatives of f - g vanish and constant terms agree.
    """
    d = f - g
    return not d.const_term() and not any(d.gradient().values())


# ---------------------------------------------------------------------------
# polynomials in lambda
# ---------------------------------------------------------------------------


class LambdaPoly:
    """Polynomial in lambda with DiffPoly coefficients, low power first."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: Context, coeffs: Sequence[DiffPoly]):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @classmethod
    def of(cls, p: DiffPoly) -> "LambdaPoly":
        return cls(p.ctx, (p,))

    @classmethod
    def zero(cls, ctx: Context) -> "LambdaPoly":
        return cls(ctx, ())

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, k: int) -> DiffPoly:
        return self.coeffs[k] if k < len(self.coeffs) else self.ctx.zero()

    def at_zero(self) -> DiffPoly:
        return self.coeff(0)

    def __add__(self, other):
        if isinstance(other, DiffPoly):
            other = LambdaPoly.of(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return LambdaPoly(
            self.ctx, [self.coeff(k) + other.coeff(k) for k in range(n)]
        )

    def __neg__(self):
        return LambdaPoly(self.ctx, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, DiffPoly):
            other = LambdaPoly.of(other)
        return self + (-other)

    def __eq__(self, other):
        if isinstance(other, DiffPoly):
            other = LambdaPoly.of(other)
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def mul_poly(self, p: DiffPoly) -> "LambdaPoly":
        return LambdaPoly(self.ctx, [p * c for c in self.coeffs])

    def shift(self, k: int = 1) -> "LambdaPoly":
        """Multiply by lambda^k."""
        if not self.coeffs:
            return self
        return LambdaPoly(
            self.ctx, [self.ctx.zero()] * k + list(self.coeffs)
        )

    def apply_d_plus_lambda(self, times: int = 1) -> "LambdaPoly":
        """Apply the operator (d + lambda)."""
        out = self
        for _ in range(times):
            dcoeffs = [c.total_derivative() for c in out.coeffs]
            out = LambdaPoly(self.ctx, dcoeffs) + out.shift()
        return out

    def map_coeffs(self, fn: Callable[[DiffPoly], DiffPoly], target: Context | None = None) -> "LambdaPoly":
        return LambdaPoly(target or self.ctx, [fn(c) for c in self.coeffs])

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            body = str(c)
            if k == 0:
                parts.append(body)
            else:
                lam = "lam" if k == 1 else f"lam^{k}"
                if len(c.terms) > 1 or (() in c.terms and _is_sum(body)):
                    body = f"({body})"
                parts.append(f"{body}*{lam}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"LambdaPoly({self})"


def subst_minus_lambda_d(x: LambdaPoly) -> LambdaPoly:
    """Substitute lambda -> -lambda - d, moving d to act on coefficients:
    sum_m (-lambda - d)^m x_m, in Horner form acc = x_m - (d + lambda) acc
    from the top power m down.

    This realizes the right side of PVA skew-symmetry {h_{-lambda-d} g}.
    """
    acc = LambdaPoly.zero(x.ctx)
    for c in reversed(x.coeffs):
        acc = -acc.apply_d_plus_lambda() + c
    return acc
