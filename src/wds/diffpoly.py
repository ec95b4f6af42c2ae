"""Differential polynomials in variables u_i^(n) and polynomials in lambda.

A monomial is a sorted tuple of (generator index, derivative order) pairs,
with repetition for powers; coefficients are exact elements of the
context's ParamRing (Fractions over Q, Scalars over Q(p)).  The canonical
sorted/sparse representation makes equality of values representational.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .scalars import ParamRing, Scalar, ScalarLike

Monomial = tuple  # ((gen, order), ...) sorted


def monomial_derivative(m: Monomial) -> list:
    """The monomials of d(m) by the Leibniz rule, one per factor of m (a
    power contributes once per copy)."""
    return [tuple(sorted(m[:k] + ((g, n + 1),) + m[k + 1 :]))
            for k, (g, n) in enumerate(m)]


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
        return DiffPoly(self, {(): c} if c else {})

    def gen(self, i: int, order: int = 0) -> "DiffPoly":
        if not 0 <= i < self.ngens:
            raise IndexError(f"no generator {i} in {self}")
        return DiffPoly(self, {((i, order),): self.ring.one()})

    def linear(self, coeffs: Sequence[ScalarLike], order: int = 0) -> "DiffPoly":
        terms = {}
        for i, c in enumerate(coeffs):
            c = self.ring.coerce(c)
            if c:
                terms[((i, order),)] = c
        return DiffPoly(self, terms)


class ContextMismatch(ValueError):
    pass


def _check_ctx(a: "DiffPoly", b: "DiffPoly"):
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatch(f"{a.ctx} vs {b.ctx}")


class DiffPoly:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict):
        self.ctx = ctx
        self.terms = terms

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ctx.const(other)
        _check_ctx(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            if v is None:
                out[m] = c
            else:
                v = v + c
                if v:
                    out[m] = v
                else:
                    del out[m]
        return DiffPoly(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ctx.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        _check_ctx(self, other)
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(sorted(ma + mb))
                c = ca * cb
                v = out.get(m)
                if v is None:
                    out[m] = c
                else:
                    v = v + c
                    if v:
                        out[m] = v
                    else:
                        del out[m]
        return DiffPoly(self.ctx, out)

    __rmul__ = __mul__

    def scale(self, c: ScalarLike) -> "DiffPoly":
        c = self.ctx.ring.coerce(c)
        if not c:
            return self.ctx.zero()
        return DiffPoly(self.ctx, {m: c * v for m, v in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ctx.const(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms))))

    # -- calculus ------------------------------------------------------

    def total_derivative(self) -> "DiffPoly":
        """The derivation with d(u_i^(n)) = u_i^(n+1) and d(const) = 0."""
        out: dict = {}
        for m, c in self.terms.items():
            for bumped in monomial_derivative(m):
                v = out.get(bumped)
                out[bumped] = c if v is None else v + c
        return DiffPoly(self.ctx, {m: c for m, c in out.items() if c})

    def d(self, times: int = 1) -> "DiffPoly":
        p = self
        for _ in range(times):
            p = p.total_derivative()
        return p

    def partial(self, gen: int, order: int) -> "DiffPoly":
        """d/d(u_gen^(order)), a plain algebra partial derivative."""
        out: dict = {}
        key = (gen, order)
        for m, c in self.terms.items():
            mult = m.count(key)
            if not mult:
                continue
            idx = m.index(key)
            reduced = m[:idx] + m[idx + 1 :]
            v = c * mult
            prev = out.get(reduced)
            out[reduced] = v if prev is None else prev + v
        return DiffPoly(self.ctx, {m: c for m, c in out.items() if c})

    def max_order(self, gen: int | None = None) -> int:
        mo = -1
        for m in self.terms:
            for g, n in m:
                if gen is None or g == gen:
                    mo = max(mo, n)
        return mo

    def variational(self, gen: int) -> "DiffPoly":
        """delta/delta(u_gen) = sum_n (-d)^n d/d(u_gen^(n)), in Horner form:
        acc = d/d(u_gen^(n)) - d(acc), from the top order n down."""
        acc = self.ctx.zero()
        for n in range(self.max_order(gen), -1, -1):
            acc = self.partial(gen, n) - acc.total_derivative()
        return acc

    def gens_used(self) -> set:
        return {g for m in self.terms for g, _ in m}

    def const_term(self) -> Scalar:
        return self.terms.get((), self.ctx.ring.zero())

    # -- grading --------------------------------------------------------

    def conformal_weight(self):
        """Weight if homogeneous (constants have weight 0), else None."""
        w = self.ctx.weights
        if w is None:
            raise ValueError("context has no weights")
        found = None
        for m in self.terms:
            d = sum((Fraction(w[g]) + n) for g, n in m)
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

        Derivatives map equivariantly: u_i^(n) goes to d^n(images[i]).
        """
        cache: dict = {}

        def img(g: int, n: int) -> DiffPoly:
            got = cache.get((g, n))
            if got is None:
                got = images[g] if n == 0 else img(g, n - 1).total_derivative()
                cache[(g, n)] = got
            return got

        out: dict = {}
        for m, c in self.terms.items():
            p = target.const(c)
            for g, n in m:
                p = p * img(g, n)
            for pm, v in p.terms.items():
                got = out.get(pm)
                out[pm] = v if got is None else got + v
        return DiffPoly(target, {m: c for m, c in out.items() if c})

    # -- rendering --------------------------------------------------------

    def _mono_str(self, m: Monomial, prime: bool = True) -> str:
        if not m:
            return "1"
        parts = []
        i = 0
        while i < len(m):
            j = i
            while j < len(m) and m[j] == m[i]:
                j += 1
            g, n = m[i]
            base = self.ctx.labels[g]
            if n == 0:
                s = base
            elif prime and n <= 3:
                s = base + "'" * n
            else:
                s = f"{base}^({n})"
            if j - i > 1:
                s = f"{s}^{j - i}"
            parts.append(s)
            i = j
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[m]
            ms = self._mono_str(m)
            if ms == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(ms)
            elif c == -1:
                parts.append(f"-{ms}")
            else:
                cs = str(c)
                if "+" in cs or ("-" in cs[1:] and "/" not in cs):
                    cs = f"({cs})"
                parts.append(f"{cs}*{ms}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"DiffPoly({self})"

    def latex(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[m]
            factors = []
            i = 0
            while i < len(m):
                j = i
                while j < len(m) and m[j] == m[i]:
                    j += 1
                g, n = m[i]
                s = self.ctx.labels[g]
                if n:
                    s = rf"{s}^{{({n})}}" if n > 3 else s + "'" * n
                if j - i > 1:
                    s = f"({s})^{{{j - i}}}"
                factors.append(s)
                i = j
            body = " ".join(factors) or "1"
            cs = str(c)
            if cs == "1" and factors:
                parts.append(body)
            elif cs == "-1" and factors:
                parts.append(f"-{body}")
            else:
                parts.append(f"{cs} {body}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> list:
        out = []
        for m in sorted(self.terms, key=lambda m: (len(m), m)):
            out.append(
                {
                    "coeff": str(self.terms[m]),
                    "monomial": [[self.ctx.labels[g], n] for g, n in m],
                }
            )
        return out


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
    if d.const_term():
        return False
    return all(not d.variational(i) for i in sorted(d.gens_used()))


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

    def degree(self) -> int:
        return len(self.coeffs) - 1

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

    def scale(self, c) -> "LambdaPoly":
        return LambdaPoly(self.ctx, [x.scale(c) for x in self.coeffs])

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
                body = f"({body})*{lam}" if len(c.terms) > 1 else f"{body}*{lam}"
                parts.append(body)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"LambdaPoly({self})"

    def to_json(self) -> list:
        return [
            {"lambda_power": k, "terms": c.to_json()}
            for k, c in enumerate(self.coeffs)
            if c
        ]


def neg_lambda_d_power(p: DiffPoly, m: int) -> LambdaPoly:
    """(-lambda - d)^m applied to p, as a LambdaPoly."""
    out = LambdaPoly.of(p)
    for _ in range(m):
        out = -(out.apply_d_plus_lambda())
    return out


def subst_minus_lambda_d(x: LambdaPoly) -> LambdaPoly:
    """Substitute lambda -> -lambda - d, moving d to act on coefficients.

    This realizes the right side of PVA skew-symmetry {h_{-lambda-d} g}.
    """
    out = LambdaPoly.zero(x.ctx)
    for m, c in enumerate(x.coeffs):
        out = out + neg_lambda_d_power(c, m)
    return out
