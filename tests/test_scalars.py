import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wds import scalars as scalars_mod
from wds.scalars import (ParamRing, Q, Scalar, _positive, _zz_clear, mp_add,
                         mp_gcd, mp_gcd_prs, mp_leading, mp_mul, mp_neg, mp_quo)


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


# -- the fast paths against the canonicalising constructor -----------------
#
# Scalar sums (Henrici's), products (cancelled across), products with a
# constant and inverses are built directly in canonical form.  The general
# constructor, which clears denominators and runs one gcd, is the oracle of
# every sum and product: the two must agree on num, den and hash.

RINGS = [ParamRing(["t"]), ParamRing(["x", "y"]), ParamRing(["c", "s1", "s2"])]
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def mul_oracle(a, b):
    return Scalar(a.ring, mp_mul(a.num, b.num), mp_mul(a.den, b.den))


def add_oracle(a, b):
    num = mp_add(mp_mul(a.num, b.den), mp_mul(b.num, a.den))
    return Scalar(a.ring, num, mp_mul(a.den, b.den))


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
        assert_same(b.inv(), Scalar(ring, b.den, b.num))
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
    r1, r2 = ParamRing(["a"]), ParamRing(["a"])
    assert r1 is not r2 and r1 == r2
    x = r1.param("a")
    for y in (r2.param("a") + 1, r2.const(3), r2.zero(), (r2.param("a") + 2).inv()):
        assert_same(x * y, mul_oracle(x, y))
        assert_same(y * x, mul_oracle(y, x))
        assert_same(x + y, add_oracle(x, y))
        assert_same(y + x, add_oracle(y, x))
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
    "context_linear": lambda ctx, g, c: ctx.linear([1, c]).coeffs()[((1, 0),)],
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
# gcd of the two monomial-free parts by the heuristic gcd over Z, and by the
# subresultant PRS when the heuristic gives up.  The oracle is mp_gcd_prs,
# whose contents recurse into itself, so no part of it goes through the
# split or the heuristic.  Operands are integer polynomials.

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


# The heuristic on wider inputs: coefficients up to 10^6 over denominators
# up to 60, cleared, so that an evaluated gcd spans several xi-adic digits;
# negative leading coefficients; a shared factor in every variable; a
# one-variable ring.

HEU_RINGS = [ParamRing(["t"]), ParamRing(["x", "y"]), ParamRing(["c", "s1", "s2"])]
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
    """mp_gcd(a, b) is `want`, with a positive leading coefficient, and so,
    up to sign, is the heuristic alone on a and b, monomial factors
    included."""
    assert mp_gcd(a, b) == want
    assert mp_leading(want)[1] > 0
    h = scalars_mod._heu_gcd(a, b, len(next(iter(a))) - 1)
    if h is not None:
        assert _positive(h) == want


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_gcd_heuristic_matches_prs(data):
    ring = data.draw(st.sampled_from(HEU_RINGS))
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


def test_gcd_falls_back_to_prs():
    """When the heuristic gives up, mp_gcd returns the PRS gcd."""
    r = GCD_RINGS[1]
    c, s1, s2 = (r.param(n) for n in r.names)
    a = ((s1 - s2) * (s1 - s2) * c * (s2 + 3)).num
    b = ((s1 - s2) * c * c * (c * s1 + 2)).num
    with mock.patch.object(scalars_mod, "_heu_gcd", return_value=None) as heu:
        got = mp_gcd(a, b)
    assert heu.called
    assert got == mp_gcd_prs(a, b) == ((s1 - s2) * c).num


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
