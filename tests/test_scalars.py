import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wds import scalars as scalars_mod
from wds.scalars import (ParamRing, Q, Scalar, _zz_clear, mp_add, mp_gcd,
                         mp_gcd_prs, mp_leading, mp_mul, mp_neg, mp_quo)


def test_rational_arithmetic():
    """Over Q the ring's elements are plain Fractions."""
    a = Q.const(Fraction(3, 4))
    b = Q.const(Fraction(-2, 5))
    assert all(type(x) is Fraction for x in (a, Q.const(3), Q.zero(), Q.one()))
    assert (Q.zero(), Q.one(), ParamRing().const(3)) == (0, 1, 3)
    assert a + b == Fraction(7, 20)
    assert a * b == Fraction(-3, 10)
    assert a / b == Fraction(-15, 8)
    assert not (a - a)
    assert (1 / a) * a == Q.one()


def test_param_ordering_is_lexicographic():
    r = ParamRing(["s2", "c", "s1"])
    assert r.names == ("c", "s1", "s2")


def test_canonical_cancellation():
    r = ParamRing(["x", "y"])
    x, y = r.param("x"), r.param("y")
    # (x^2 - y^2)/(x - y) reduces to x + y
    num = (x + y) * (x - y)
    q = num / (x - y)
    assert q == x + y
    # num and den are coprime in Z[x, y]: (2x)/(2y) stores x/y
    q2 = (x + x) / (y + y)
    assert q2.den == y.num
    assert q2.num == x.num
    # integer coefficients, contents coprime, den's leading coefficient > 0
    q3 = (x * Fraction(-2, 3) + 1) / (y * Fraction(-4, 9) + x * y)
    assert (q3.num, q3.den) == ({(1, 0): -6, (0, 0): 9}, {(1, 1): 9, (0, 1): -4})
    assert str(q3) == "(-2/3*x + 1)/(x*y - 4/9*y)"


def test_zero_is_unique():
    r = ParamRing(["t"])
    t = r.param("t")
    z = (t - t) / (t * t + 1)
    assert z == r.zero()
    assert not z
    with pytest.raises(ZeroDivisionError):
        z.inv()


def test_cross_ring_operations_rejected():
    a = ParamRing(["a"]).param("a")
    b = ParamRing(["b"]).param("b")
    with pytest.raises(ValueError):
        a + b


def test_multivariate_gcd():
    r = ParamRing(["x", "y"])
    x, y = r.param("x"), r.param("y")
    p = ((x + y) * (x * y + 1)).num
    q = ((x + y) * (y + 2)).num
    g = mp_gcd(p, q)
    assert g == (x + y).num
    assert mp_quo(p, g) == (x * y + 1).num
    assert mp_gcd({(0, 0): 6, (1, 0): 4}, {(0, 1): -8, (1, 1): 12}) == {(0, 0): 2}


fracs = st.fractions(
    min_value=-10, max_value=10, max_denominator=12).filter(lambda f: True)


@settings(max_examples=120, deadline=None)
@given(fracs, fracs, fracs)
def test_field_axioms_on_rationals(a, b, c):
    A, B, C = Q.const(a), Q.const(b), Q.const(c)
    assert (A + B) * C == A * C + B * C
    assert (A * B) * C == A * (B * C)
    assert A + B == B + A
    if b:
        assert (A / B) * B == A


@settings(max_examples=60, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-5, 5))
def test_field_axioms_on_rational_functions(p0, p1, q0, q1):
    r = ParamRing(["t"])
    t = r.param("t")
    A = r.const(p0) + t * p1
    B = r.const(q0) + t * q1
    assert A + (B - A) == B
    if B:
        assert (A / B) * B == A
        assert B * B.inv() == r.one()


def test_str_rendering():
    r = ParamRing(["s1", "s2"])
    s1, s2 = r.param("s1"), r.param("s2")
    e = (s1 + s2) / (s1 * s1 - s2)
    assert str(e) == "(s1 + s2)/(s1^2 - s2)"
    assert str(r.const(Fraction(-1, 2))) == "-1/2"


# -- the fast paths against a gcd reference ---------------------------------
#
# Scalar sums (Henrici's), products (cancelled across), products with a
# constant and inverses are built directly in canonical form.  Their
# reference is `canonical`, which clears denominators and divides by one
# polynomial gcd, as the engine did before it factored every denominator:
# the two must agree on num, den and hash.

RINGS = [ParamRing(["t"]), ParamRing(["x", "y"]), ParamRing(["c", "s1", "s2"])]
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def canonical(ring, num, den):
    """num/den divided by gcd(num, den) after clearing rational
    coefficients, with den's leading coefficient positive; the general
    constructor must leave that pair as it is."""
    (num, ln), (den, ld) = _zz_clear(num), _zz_clear(den)
    num = {e: c * ld for e, c in num.items()}
    den = {e: c * ln for e, c in den.items()} if num else {ring._zero_expo: 1}
    if num:
        g = mp_gcd(num, den)
        num, den = mp_quo(num, g), mp_quo(den, g)
    if mp_leading(den)[1] < 0:
        num, den = mp_neg(num), mp_neg(den)
    s = Scalar(ring, num, den)
    assert (s.num, s.den) == (num, den)
    return s


def mul_oracle(a, b):
    return canonical(a.ring, mp_mul(a.num, b.num), mp_mul(a.den, b.den))


def add_oracle(a, b):
    num = mp_add(mp_mul(a.num, b.den), mp_mul(b.num, a.den))
    return canonical(a.ring, num, mp_mul(a.den, b.den))


def assert_same(got, want):
    assert (got.num, got.den, hash(got)) == (want.num, want.den, hash(want))


@st.composite
def polys(draw, ring, degree=2):
    expos = st.tuples(*[st.integers(0, degree)] * ring.nvars)
    terms = draw(st.dictionaries(expos, small, min_size=1, max_size=3))
    return {e: c for e, c in terms.items() if c}


def shared_factors(ring):
    """A monomial and a binomial, c and s1 - s2 over Q(c, s1, s2): the
    factors the denominators of the symbolic sl4 hierarchy share."""
    x = ring.param(ring.names[0])
    if ring.nvars == 1:
        return x.num, (x + 1).num
    return x.num, (ring.param(ring.names[-2]) - ring.param(ring.names[-1])).num


@st.composite
def scalars(draw, ring):
    """Zero, a constant, a polynomial or a quotient, each in canonical form;
    a "shared" quotient has up to one power of each of the `shared_factors`
    in its numerator and up to three in its denominator before cancelling."""
    kind = draw(st.sampled_from(["zero", "const", "poly", "ratio", "shared"]))
    if kind == "zero":
        return ring.zero()
    if kind == "const":
        return ring.const(draw(small.filter(bool)))
    num = draw(polys(ring))
    den = draw(polys(ring)) if kind != "poly" else {}
    den = den or {ring._zero_expo: Fraction(1)}
    if kind == "shared":
        for f in shared_factors(ring):
            for _ in range(draw(st.integers(0, 1))):
                num = mp_mul(num, f)
            for _ in range(draw(st.integers(0, 3))):
                den = mp_mul(den, f)
    return Scalar(ring, num, den)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fast_paths_match_canonicalising_constructor(data):
    """Also (a + b) - b, where the sum's numerator shares a factor with the
    gcd of the two denominators, (a * b) / b, which cancels across, and
    inverses."""
    ring = data.draw(st.sampled_from(RINGS))
    a, b = data.draw(scalars(ring)), data.draw(scalars(ring))
    assert_same(a * b, mul_oracle(a, b))
    assert_same(b * a, mul_oracle(b, a))
    assert_same(a + b, add_oracle(a, b))
    assert_same(b + a, add_oracle(b, a))
    assert_same(a - b, add_oracle(a, -b))
    total = a + b
    assert_same(total - b, add_oracle(total, -b))
    assert total - b == a
    if b:
        assert_same(b.inv(), canonical(ring, b.den, b.num))
        prod = a * b
        assert_same(prod / b, mul_oracle(prod, b.inv()))
        assert prod / b == a


def monic_str(s):
    """str(s) from num/den over Q with den monic, built in this test."""
    lc = mp_leading(s.den)[1]
    num = {e: Fraction(c, lc) for e, c in s.num.items()}
    den = {e: Fraction(c, lc) for e, c in s.den.items()}
    ns = s._poly_str(num)
    if list(den) == [s.ring._zero_expo]:
        return ns
    if len(num) > 1:
        ns = f"({ns})"
    return f"{ns}/({s._poly_str(den)})"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_str_divides_by_leading_coefficient(data):
    """str prints the quotient with a monic denominator over Q, as it did
    when num and den had Fraction coefficients."""
    ring = data.draw(st.sampled_from(RINGS))
    a, b = data.draw(scalars(ring)), data.draw(scalars(ring))
    for s in (a, a + b, a * b, -a):
        assert str(s) == monic_str(s)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fast_paths_with_int_and_fraction_operands(data):
    ring = data.draw(st.sampled_from(RINGS))
    a = data.draw(scalars(ring))
    q = data.draw(st.one_of(st.integers(-3, 3), small))
    c = ring.const(q)
    for got in (a * q, q * a):
        assert_same(got, mul_oracle(a, c))
    for got in (a + q, q + a):
        assert_same(got, add_oracle(a, c))
    assert_same(a - q, add_oracle(a, -c))


def test_equal_but_distinct_rings_combine():
    """Also with factors that each ring met in another form: r1 keeps
    (a^2 + 1)(a^2 + 2) whole, r2 has met a^2 + 1 alone."""
    r1, r2 = ParamRing(["a"]), ParamRing(["a"])
    assert r1 is not r2 and r1 == r2
    a1, a2 = r1.param("a"), r2.param("a")
    for x in (((a1 * a1 + 1) * (a1 * a1 + 2)).inv(), a1):
        for y in ((a2 * a2 + 1).inv(), a2 + 1, r2.const(3), r2.zero(), (a2 + 2).inv()):
            got = [x * y, y * x, x + y, y + x]  # before the references meet r1
            for s, want in zip(got, [mul_oracle(x, y), mul_oracle(y, x),
                                     add_oracle(x, y), add_oracle(y, x)]):
                assert_same(s, want)
            assert x * y == y * x and x + y == y + x


def test_distinct_rings_rejected_on_every_path():
    """Scalars of distinct parameter rings do not mix; an element of Q, a
    Fraction, coerces into any Q(p), which contains Q."""
    a, b = ParamRing(["a"]), ParamRing(["b"])
    two = a.const(2)
    for y in (a.param("a"), a.const(5)):
        assert (Q.const(2) + y, y + Q.const(2)) == (two + y, two + y)
        assert (Q.const(2) * y, y * Q.const(2)) == (two * y, two * y)
        assert (Q.const(2) - y, y - Q.const(2)) == (two - y, y - two)
    pairs = [(a.param("a"), b.param("b")), (a.const(2), b.const(3)),
             (a.const(2), b.param("b")), (a.zero(), b.zero())]
    for x, y in pairs:
        for u, v in ((x, y), (y, x)):
            with pytest.raises(ValueError):
                u + v
            with pytest.raises(ValueError):
                u * v
            with pytest.raises(ValueError):
                u - v


# each entry point, and the coefficient it stores for c
ENTRY_POINTS = {
    "context_const": lambda ctx, g, c: ctx.const(c).const_term(),
    "context_linear": lambda ctx, g, c: ctx.linear({0: 1, 1: c}).coeffs()[((1, 0),)],
    "diffpoly_scale": lambda ctx, g, c: ctx.gen(0).scale(c).coeffs()[((0, 0),)],
    "lie_parse": lambda ctx, g, c: g.parse({"E12": c})[g.labels.index("E12")],
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("ring", [Q, ParamRing(["c"])], ids=["Q", "Qc"])
def test_scalar_entry_points_refuse_foreign_rings(entry, ring):
    """Context.const, Context.linear, DiffPoly.scale and LieAlgebra.parse
    take rationals and Scalars of their own ring (or an equal one), and
    refuse a Scalar of another parameter ring."""
    from wds import build_sl
    from wds.diffpoly import Context
    ctx = Context(ring, ["u", "v"])
    g = build_sl(2, params=ring.names)
    call = ENTRY_POINTS[entry]
    own = [Fraction(2, 3), 5]
    if ring.nvars:
        own += [ring.param("c"), ParamRing(["c"]).param("c") + 1]
    for c in own:
        got = call(ctx, g, c)
        assert got == ring.coerce(c) and type(got) is type(ring.one())
    for foreign in (ParamRing(["a"]).param("a"), ParamRing(["a"]).const(2)):
        with pytest.raises(ValueError, match="different parameter rings"):
            call(ctx, g, foreign)


# -- mp_gcd against the subresultant PRS ----------------------------------
#
# mp_gcd splits off the monomial content x^m of its operands, then takes the
# gcd of the two monomial-free parts by the subresultant PRS.  The oracle is
# mp_gcd_prs, whose contents recurse into itself, so no part of it goes
# through the split.  Operands are integer polynomials.

GCD_RINGS = [ParamRing(["x", "y"]), ParamRing(["c", "s1", "s2"])]


def integral(p):
    """p times the lcm of its coefficients' denominators."""
    return _zz_clear(p)[0]


@st.composite
def monomials(draw, ring):
    e = draw(st.tuples(*[st.integers(0, 2)] * ring.nvars))
    return {e: draw(st.integers(-4, 4).filter(bool))}


@st.composite
def gcd_operands(draw, ring):
    """monomial x random polynomial x an optional shared factor with two or
    more terms, for both operands; sometimes one operand is a monomial."""
    shared = draw(st.one_of(st.just({ring._zero_expo: 1}),
                            polys(ring).filter(lambda p: len(p) > 1)))
    ops = []
    for _ in range(2):
        body = draw(st.one_of(polys(ring), monomials(ring)).filter(bool))
        p = mp_mul(draw(monomials(ring)), body)
        if draw(st.booleans()):
            p = mp_mul(p, shared)
        ops.append(integral(p))
    if draw(st.booleans()):
        ops[draw(st.integers(0, 1))] = draw(monomials(ring))
    return ops


# Operands over Q(c, s1, s2) on which the primitive PRS, with its content
# recursion, ran for over a minute; their gcd is c*s1.
STALLED = [{(4, 3, 3): -10, (3, 1, 2): 24, (4, 1, 4): -2, (5, 4, 1): 15,
            (4, 2, 0): -36, (5, 2, 2): 3},
           {(3, 2, 3): 2, (1, 2, 2): -2, (2, 1, 2): -6}]


@example(ops=STALLED)
@settings(max_examples=150, deadline=None)
@given(ops=st.sampled_from(GCD_RINGS).flatmap(gcd_operands))
def test_gcd_monomial_split_matches_prs(ops):
    a, b = ops
    g = mp_gcd(a, b)
    assert g == mp_gcd_prs(a, b)
    assert mp_leading(g)[1] > 0
    for p in (a, b):
        assert mp_mul(mp_quo(p, g), g) == p
    if len(a) == 1 or len(b) == 1:
        m = tuple(map(min, zip(*a, *b)))
        assert g == {m: math.gcd(*a.values(), *b.values())}


# Wider inputs: coefficients up to 10^6 over denominators up to 60,
# cleared; negative leading coefficients; a shared factor in every
# variable; a one-variable ring.

WIDE_RINGS = [ParamRing(["t"]), ParamRing(["x", "y"]), ParamRing(["c", "s1", "s2"])]
wide = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=60)


@st.composite
def wide_polys(draw, ring, every_variable=False):
    """Two or three terms of degree <= 2 in each variable, coefficients from
    `wide` with their denominators cleared, a negative leading coefficient
    half the time; with every_variable, each variable of the ring occurs."""
    expos = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    p = draw(st.dictionaries(expos, wide.filter(bool), min_size=2, max_size=3)
             .filter(lambda p: not every_variable
                     or all(any(e[i] for e in p) for i in range(ring.nvars))))
    if (mp_leading(p)[1] > 0) == draw(st.booleans()):
        p = mp_neg(p)
    return integral(p)


def assert_gcd(a, b, want):
    """mp_gcd(a, b) is `want`, with a positive leading coefficient."""
    assert mp_gcd(a, b) == want
    assert mp_leading(want)[1] > 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_gcd_on_wide_coefficients_matches_prs(data):
    ring = data.draw(st.sampled_from(WIDE_RINGS))
    shared = data.draw(wide_polys(ring, every_variable=True))
    a, b = (mp_mul(shared, data.draw(st.one_of(wide_polys(ring), monomials(ring))))
            for _ in range(2))
    want = mp_gcd_prs(a, b)
    assert mp_quo(want, shared) is not None
    assert_gcd(a, b, want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gcd_of_symbolic_denominators(data):
    """Products c^k (s1 - s2)^m s2^n, the denominators of the symbolic sl4
    short hierarchy over Q(c, s1, s2): exponents up to 3 alone, and up to
    2 times a small polynomial of degree <= 1 in each variable."""
    ring = GCD_RINGS[1]
    c, s1, s2 = (ring.param(n).num for n in ring.names)
    diff = mp_add(s1, mp_neg(s2))

    def denominator(k, m, n):
        out = {ring._zero_expo: 1}
        for p, e in ((c, k), (diff, m), (s2, n)):
            for _ in range(e):
                out = mp_mul(out, p)
        return out

    ks = [data.draw(st.tuples(*[st.integers(0, 3)] * 3)) for _ in range(2)]
    a, b = (denominator(*k) for k in ks)
    assert_gcd(a, b, denominator(*map(min, *ks)))
    ks = [data.draw(st.tuples(*[st.integers(0, 2)] * 3)) for _ in range(2)]
    a, b = (mp_mul(denominator(*k),
                   integral(data.draw(polys(ring, degree=1).filter(bool))))
            for k in ks)
    assert_gcd(a, b, mp_gcd_prs(a, b))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_div_exact_by_a_monomial(data):
    """mp_quo by a monomial, and by a polynomial q: p*q / q is p, and
    p*q + 1 / q is None for q nonconstant."""
    ring = data.draw(st.sampled_from(GCD_RINGS))
    p = integral(data.draw(polys(ring).filter(bool)))
    mono = data.draw(monomials(ring))
    assert mp_quo(mp_mul(p, mono), mono) == p
    (e, c), = mono.items()
    divides = all(min(t[i] for t in p) >= e[i] for i in range(ring.nvars)) and all(
        x % c == 0 for x in p.values())
    assert (mp_quo(p, mono) is not None) == divides
    q = integral(data.draw(polys(ring).filter(bool)))
    assert mp_quo(mp_mul(p, q), q) == p
    if len(q) > 1 or any(next(iter(q))):
        assert mp_quo(mp_add(mp_mul(p, q), {ring._zero_expo: 1}), q) is None


# -- denominators over a coprime base ------------------------------------------
#
# A Scalar carries den = k * prod f^e over the ring's base (`fac`).  Sums and
# products of Scalars whose factors are all certified (a variable, or
# irreducible with a zero mod the prime) take no polynomial gcd; any gcd
# comes from the factorization code.  The factor pools hold linear factors
# with a coefficient +-1 and without one (2t + 3, 2x + 3y, 2s1 + 3s2),
# factors of degree 1 in a variable (x^2 + y, x*y + 1, c*s1 + 2,
# s1^2 + s2), products that factor at once ((x + 1)(y + 1)), uncertified
# ones (t^2 + 1, t^2 + 2) and powers and products of those, which the ring
# refines when it meets a proper divisor ((x*y + 1)^2, (t^2 + 1)(t^2 + 2)).

FACTOR_POOLS = {
    ("t",): lambda t: [t, t + 1, 2 * t + 3, t * t + 1, t * t + 2,
                       (t * t + 1) * (t * t + 2)],
    ("x", "y"): lambda x, y: [x, y, x - y, 2 * x + 3 * y, x + y + 1, x * x + y,
                              x * y + 1, (x * y + 1) * (x * y + 1),
                              (x + 1) * (y + 1)],
    ("c", "s1", "s2"): lambda c, s1, s2: [c, s2, s1 - s2, s1 + s2, 2 * s1 + 3 * s2,
                                          c * s1 + 2, s1 * s1 + s2],
}

# the methods of ParamRing that factor denominators: the only callers of
# mp_gcd in the engine
FACTORING = {"ParamRing._enter", "ParamRing._gcd_strip", "ParamRing._refine"}


def poly_from_key(ring, key):
    """The polynomial of a factor key: the coefficient vector
    (a_1, ..., a_n, b) of a linear one, the sorted items of any other."""
    if isinstance(key[0], tuple):
        return dict(key)
    n = ring.nvars
    f = {tuple(int(j == i) for j in range(n)): a for i, a in enumerate(key[:n]) if a}
    if key[n]:
        f[ring._zero_expo] = key[n]
    return f


def certified(ring, key):
    """The ring divides by this factor without a polynomial gcd."""
    v, _, point = ring._factor(key)
    return v >= 0 or point is not None


def assert_factored(s):
    """s.fac is (k, {key: e}) with den == k * prod f^e, k > 0, each f read
    from the ring as its key says, primitive, with a positive leading
    coefficient; a linear f is keyed by its coefficients, and a certified
    one vanishes at its point.  True when every factor is certified."""
    k, fs = s.fac
    assert type(k) is int and k > 0
    prod = {s.ring._zero_expo: k}
    for key, x in fs.items():
        f = poly_from_key(s.ring, key)
        assert type(x) is int and x > 0
        assert any(any(e) for e in f)
        assert isinstance(key[0], tuple) != all(sum(e) <= 1 for e in f)
        assert math.gcd(*f.values()) == 1 and mp_leading(f)[1] > 0
        v, got, point = s.ring._factor(key)
        assert got == f
        if point is not None:
            assert scalars_mod._value(f, point) == 0
        for _ in range(x):
            prod = mp_mul(prod, f)
    assert prod == s.den
    return all(certified(s.ring, key) for key in fs)


@contextmanager
def gcd_callers():
    """mp_gcd patched to record the qualified name of each caller."""
    callers = []

    def spy(a, b):
        callers.append(sys._getframe(1).f_code.co_qualname)
        return mp_gcd(a, b)

    with mock.patch.object(scalars_mod, "mp_gcd", spy):
        yield callers


@st.composite
def factored_scalars(draw, ring):
    """A Scalar built from a small polynomial, powers of pool factors and of
    their inverses, and a rational: through the engine's own arithmetic, or
    through the constructor from the expanded product."""
    pool = FACTOR_POOLS[ring.names](*map(ring.param, ring.names))
    kind = draw(st.sampled_from(["zero", "const", "engine", "constructor"]))
    if kind == "zero":
        return ring.zero()
    if kind == "const":
        return ring.const(draw(small.filter(bool)))
    ups = draw(st.lists(st.sampled_from(pool), max_size=2))
    downs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    body = Scalar(ring, draw(polys(ring, degree=1)) or {ring._zero_expo: 1},
                  {ring._zero_expo: 1}) * draw(small.filter(bool))
    if kind == "engine":
        out = body
        for f in ups:
            out = out * f
        for f in downs:
            out = out / f
        return out
    num, den = body.num, {ring._zero_expo: 1}
    for f in ups:
        num = mp_mul(num, f.num)
    for f in downs:
        den = mp_mul(den, f.num)
    return Scalar(ring, num, den)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_factored_denominators_match_canonicalising_constructor(data):
    """+ - * / and inv over the factor pools, in a fresh ring (no factor
    known yet) or in one that has met the pools already, against the gcd
    reference; every result's factorization is checked.  Only the
    factorization code calls mp_gcd, and + - * of two Scalars with
    certified factors call it not at all."""
    names = data.draw(st.sampled_from(sorted(FACTOR_POOLS)))
    ring = ParamRing(names) if data.draw(st.booleans()) else RINGS[len(names) - 1]
    a, b = data.draw(factored_scalars(ring)), data.draw(factored_scalars(ring))
    plain = assert_factored(a) & assert_factored(b)
    with gcd_callers() as callers:
        got = [a + b, b + a, a - b, a * b, b * a]
    assert set(callers) <= FACTORING
    assert not (plain and callers)
    for s, want in zip(got, [add_oracle(a, b), add_oracle(b, a), add_oracle(a, -b),
                             mul_oracle(a, b), mul_oracle(b, a)]):
        assert_same(s, want)
        assert_factored(s)
    total = a + b
    assert_same(total - b, add_oracle(total, -b))
    assert_factored(total - b)
    if b:
        inv = b.inv()
        assert_same(inv, canonical(ring, b.den, b.num))
        assert_factored(inv)
        for s, want in ((a / b, mul_oracle(a, inv)), ((a * b) / b, a)):
            assert_same(s, want)
            assert_factored(s)


def items_key(f):
    return tuple(sorted(f.num.items()))


def test_factorization_of_new_denominators():
    """inv and the constructor factor a new denominator over the monomial
    part, the ring's base and new base elements, and sums and products of
    the results equal the gcd reference."""
    r = ParamRing(["x", "y"])
    x, y = r.param("x"), r.param("y")
    q = (4 * x + 6 * y).inv()
    assert q.fac == (2, {(2, 3, 0): 1})
    v, f, point = r._factor((2, 3, 0))
    assert (v, f) == (-1, {(1, 0): 2, (0, 1): 3})
    assert (2 * point[0] + 3 * point[1]) % scalars_mod._P == 0
    assert r._factor((0, 1, 0))[:2] == (1, {(0, 1): 1})
    s = Scalar(r, {(0, 0): 1}, mp_mul((x * x * y).num, (2 * x + 3 * y).num))
    assert s.fac == (1, {(1, 0, 0): 2, (0, 1, 0): 1, (2, 3, 0): 1})
    # two new linear factors at once: y + 1 is the content of the
    # denominator in x
    u = Scalar(r, {(0, 0): 1}, ((x + 1) * (y + 1)).num)
    assert u.fac == (1, {(0, 1, 1): 1, (1, 0, 1): 1})
    # x*y + 1 and x^2 + y have degree 1 in a variable: irreducible, with a
    # zero mod the prime
    w, odd = (x * y + 1).inv(), (x * x + y).inv()
    for el in (w, odd):
        (key, e), = el.fac[1].items()
        assert (key, e) == (items_key(el.inv()), 1) and certified(r, key)
    for other in (q, s, u, w, x + 1, odd, r.const(3)):
        for got, want in ((odd + other, add_oracle(odd, other)),
                          (odd * other, mul_oracle(odd, other)),
                          (other * odd, mul_oracle(other, odd))):
            assert_same(got, want)
            assert assert_factored(got)


def test_uncertified_factors_and_refinement():
    """A factor of degree 0 or >= 2 in every variable enters the base
    uncertified and is divided out by polynomial gcds; meeting a proper
    divisor of it, in a new denominator or in a strip, refines it into
    coprime parts, and Scalars that carry the old key still combine."""
    r = ParamRing(["t"])
    t = r.param("t")
    a = t * t + 1
    odd = a.inv()
    assert odd.fac == (1, {items_key(a): 1}) and not certified(r, items_key(a))
    square = (a * a).inv()
    assert square.fac == (1, {items_key(a): 2})
    with gcd_callers() as callers:
        got = [odd + (t + 1).inv(), odd * (a * (t + 1)), square + odd]
    assert callers and set(callers) <= FACTORING
    for s, want in zip(got, [add_oracle(odd, (t + 1).inv()), t + 1,
                             add_oracle(square, odd)]):
        assert_same(s, want)
        assert_factored(s)
    # (t^2 + 1)(t^2 + 2) met before t^2 + 1, which refines it as a new
    # denominator or in the strip of a product
    for in_strip in (False, True):
        r = ParamRing(["t"])
        t = r.param("t")
        a, b = t * t + 1, t * t + 2
        big = (a * b).inv()
        old = items_key(a * b)
        assert big.fac == (1, {old: 1})
        if in_strip:
            assert_same(big * a, canonical(r, {(0,): 1}, b.num))
        else:
            a.inv()
        assert r._refined == {old: {items_key(a): 1, items_key(b): 1}}
        for other in (a.inv(), b.inv(), big, a, (t + 1).inv()):
            for got, want in ((big + other, add_oracle(big, other)),
                              (big * other, mul_oracle(big, other)),
                              (other * big, mul_oracle(other, big))):
                assert_same(got, want)
                assert_factored(got)
                assert old not in got.fac[1]
    # (x*y + 1)^2 met before x*y + 1: the square enters uncertified, and x*y + 1
    # refines it into its certified root
    r = ParamRing(["x", "y"])
    x, y = r.param("x"), r.param("y")
    f = x * y + 1
    sq = (f * f).inv()
    assert not certified(r, items_key(f * f))
    assert f.inv().fac == (1, {items_key(f): 1})
    assert r._refined == {items_key(f * f): {items_key(f): 2}}
    assert certified(r, items_key(f))
    for got, want in ((sq + f.inv(), add_oracle(sq, f.inv())), (sq * f, f.inv()),
                      (sq * (x + 1), mul_oracle(sq, x + 1))):
        assert_same(got, want)
        assert assert_factored(got)


def test_only_factorization_calls_gcd():
    """Every mp_gcd call during mixed arithmetic, inverses and constructor
    calls over the pools comes from ParamRing's factorization methods."""
    callers = []
    for names, pool in FACTOR_POOLS.items():
        r = ParamRing(names)
        fs = pool(*map(r.param, names))
        with gcd_callers() as seen:
            acc = r.one()
            for i, f in enumerate(fs):
                acc = acc * f.inv() + fs[i - 1] / f
                Scalar(r, mp_mul(acc.num, f.num), mp_mul(acc.den, f.den))
        callers += seen
    assert callers and set(callers) <= FACTORING


def test_symbolic_sl4_solve_takes_no_gcd():
    """The symbolic sl4 short dressing over Q(c, s1, s2) to degree 4 calls
    no polynomial gcd, and every Scalar in its frame, generator table and
    U and h parts carries den's factorization."""
    from wds import SHORT, GradedSetup, ReductionFrame, WGenerators, build_sl
    from wds.hierarchy import solve_dressing
    with gcd_callers() as callers:
        g = build_sl(4, params=["s1", "s2"], form_scale="c")
        s1, s2 = g.ring.param("s1"), g.ring.param("s2")
        s = g.parse({"E13": s1, "E24": s2})
        frame = ReductionFrame(GradedSetup(g, g.parse({"E31": 1, "E42": 1}), SHORT), s)
        entries = WGenerators(frame).table.entries
        dr = solve_dressing(frame, 4)
    assert not callers
    found = [c for row in frame.struct for entry in row for c in entry.values()]
    found += [c for row in frame.gram for c in row.values()]
    polys = [p for pair in entries.values() for lam in pair for p in lam.coeffs]
    polys += [p for parts in (dr.U, dr.h) for el in parts.values() for p in el.terms.values()]
    found += [c for p in polys for c in p.coeffs().values()]
    assert found and all(type(c) is Scalar and assert_factored(c) for c in found)
    assert any(c.fac[1] for c in found)


# -- a generic symbolic s ------------------------------------------------------
#
# The paper's formulas hold for every s in g_1 with f + zs semisimple.  Over
# Q(c, p11, p12, p21, p22), the top block s = p11 E13 + p12 E14 + p21 E23 +
# p22 E24 on sl4 short puts det s, the discriminant of s and their products
# with linear factors into the denominators.  No CLI flag builds this s.

GENERIC_S_GOLDEN = Path(__file__).resolve().parent / "golden" / "dressing_sl4_short_generic_s.out"


def generic_s_frame():
    from wds import SHORT, GradedSetup, ReductionFrame, build_sl
    names = ["p11", "p12", "p21", "p22"]
    g = build_sl(4, params=names, form_scale="c")
    s = g.parse({f"E{name[1]}{int(name[2]) + 2}": g.ring.param(name)
                 for name in names})
    return ReductionFrame(GradedSetup(g, g.parse({"E31": 1, "E42": 1}), SHORT), s)


def test_generic_symbolic_s_dressing():
    """The dressing to degree 2 with the generic top-block s: h as in the
    golden, the one-shot exp(ad U) oracle gives zero, every coefficient of
    h carries a factorization over certified factors, and the whole run
    takes few polynomial gcds (26,744 when the engine still fell back to
    gcd arithmetic for denominators it could not factor)."""
    from wds.hierarchy import dressing_defect, solve_dressing
    with gcd_callers() as callers:
        frame = generic_s_frame()
        dr = solve_dressing(frame, 2)
        defect = dressing_defect(dr)
    h = dr.h
    got = "".join(f"deg {d}: {h[d]}\n" for d in sorted(h))
    assert got == GENERIC_S_GOLDEN.read_text()
    assert not defect.terms
    coeffs = [c for el in h.values() for p in el.terms.values()
              for c in p.coeffs().values()]
    assert coeffs and all(assert_factored(c) for c in coeffs)
    assert len(callers) <= 10
