import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wds.diffpoly import Context, ContextMismatch, functional_equal
from wds.scalars import ParamRing, Q

UV = Context(Q, ["u", "v"], [Fraction(1), Fraction(1)])
u, v = UV.gen(0), UV.gen(1)


def test_product_and_canonical_form():
    assert (u + v) * (u - v) == u * u - v * v
    assert u * UV.zero() == UV.zero()
    up, upp = UV.gen(0, 1), UV.gen(0, 2)
    m = (u * up) * upp
    assert m.coeffs() == {((0, 0), (0, 1), (0, 2)): Q.one()}


def test_total_derivative():
    up, upp = UV.gen(0, 1), UV.gen(0, 2)
    assert (u * u).total_derivative() == 2 * u * up
    assert (u * up).total_derivative() == up * up + u * upp
    assert UV.one().total_derivative() == UV.zero()


def test_variational_derivative():
    up = UV.gen(0, 1)
    assert (u * u).variational(0) == 2 * u
    assert (u * up).variational(0) == UV.zero()  # exact: (u^2/2)'
    upp = UV.gen(0, 2)
    assert (u * upp).variational(0) == 2 * upp


def test_variational_kills_total_derivatives():
    rng = random.Random(11)
    from wds.pva import random_element
    for _ in range(25):
        p = random_element(UV, rng, max_degree=4, max_order=2)
        dp = p.total_derivative()
        assert dp.variational(0) == UV.zero()
        assert dp.variational(1) == UV.zero()


def variational_oracle(p, gen):
    """delta p / delta u_gen as sum_n (-d)^n dp/du_gen^(n), each order
    differentiated n times over."""
    out = p.ctx.zero()
    for n in range(p.max_order(gen) + 1):
        out = out + p.partial(gen, n).d(n).scale((-1) ** n)
    return out


UV_C = Context(ParamRing(["c"]), ["u", "v"])


@st.composite
def diffpolys(draw, ctx):
    """A sum of up to five monomials of degree up to 3 and order up to 3;
    over Q(c) the coefficients are a + b c."""
    q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    p = ctx.zero()
    for _ in range(draw(st.integers(0, 5))):
        coeff = ctx.ring.const(draw(q))
        if ctx.ring.nvars:
            coeff = coeff + draw(q) * ctx.ring.param("c")
        mono = ctx.const(coeff)
        for _ in range(draw(st.integers(0, 3))):
            mono = mono * ctx.gen(draw(st.integers(0, 1)), draw(st.integers(0, 3)))
        p = p + mono
    return p


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_variational_horner_matches_oracle(data):
    """The Horner form of the variational derivative equals the sum of
    (-d)^n d/du^(n), over Q and over Q(c), also on total derivatives."""
    ctx = data.draw(st.sampled_from([UV, UV_C]))
    p = data.draw(diffpolys(ctx))
    for f in (p, p.total_derivative()):
        for gen in range(ctx.ngens):
            assert f.variational(gen) == variational_oracle(f, gen)


def test_functional_equality():
    up, vp = UV.gen(0, 1), UV.gen(1, 1)
    assert functional_equal(u * up, UV.zero())
    assert functional_equal(UV.gen(0, 2), UV.zero())
    # integration by parts: int(u dv) = -int(v du)
    assert functional_equal(u * vp, -(v * up))
    assert not functional_equal(u * u, UV.zero())
    # constants are not total derivatives
    assert not functional_equal(UV.one(), UV.zero())
    assert functional_equal(u * up + v, v)


def test_conformal_weight():
    w = Context(Q, ["a", "p"], [Fraction(1), Fraction(3, 2)])
    a, p = w.gen(0), w.gen(1)
    assert a.conformal_weight() == 1
    assert p.conformal_weight() == Fraction(3, 2)
    assert (a * p.d()).conformal_weight() == Fraction(7, 2)
    assert (a + a * a).conformal_weight() is None
    assert w.one().conformal_weight() == 0
    assert (a.d().total_derivative()).conformal_weight() == 3


def test_weight_additivity():
    rng = random.Random(5)
    from wds.pva import random_element
    for _ in range(20):
        p = random_element(UV, rng, max_degree=2, max_order=1, terms=1)
        q = random_element(UV, rng, max_degree=2, max_order=1, terms=1)
        wp, wq = p.conformal_weight(), q.conformal_weight()
        if p and q and wp is not None and wq is not None:
            assert (p * q).conformal_weight() == wp + wq


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2),
       st.integers(0, 2))
def test_leibniz_rule(c1, c2, n1, n2):
    p = u.scale(c1) + UV.gen(1, n1) * UV.gen(0, n2)
    q = v.scale(c2) + UV.gen(0, n1)
    lhs = (p * q).total_derivative()
    rhs = p.total_derivative() * q + p * q.total_derivative()
    assert lhs == rhs


def test_context_mismatch_errors():
    """Contexts differing in labels, or only in their ring, do not mix."""
    for other in (Context(Q, ["w"]), Context(ParamRing(["a"]), ["u", "v"])):
        with pytest.raises(ContextMismatch):
            u + other.gen(0)
        with pytest.raises(ContextMismatch):
            u * other.gen(0)


def test_substitution_homomorphism():
    target = Context(Q, ["w"])
    w = target.gen(0)
    images = [w * w, target.one()]
    p = u * v + UV.gen(0, 1)
    got = p.map_generators(target, images)
    assert got == w * w + (w * w).total_derivative()


def test_renderers():
    up = UV.gen(0, 1)
    p = u * up.scale(Fraction(-1, 2)) + v
    assert str(p) == "v - 1/2*u*u'"
    js = p.to_json()
    assert js[0] == {"coeff": "1", "monomial": [["v", 0]]}
    assert js[1] == {"coeff": "-1/2", "monomial": [["u", 0], ["u", 1]]}
    assert "u" in p.latex()


def test_lambda_poly_operations():
    from wds.diffpoly import LambdaPoly, subst_minus_lambda_d
    x = LambdaPoly(UV, [u, v])
    assert x.degree() == 1
    y = x.apply_d_plus_lambda()
    assert y.coeff(0) == u.d()
    assert y.coeff(1) == u + v.d()
    assert y.coeff(2) == v
    # substituting lambda -> -lambda-d twice is the identity
    assert subst_minus_lambda_d(subst_minus_lambda_d(x)) == x


# ---------------------------------------------------------------------------
# the numerator kernel against a plain {monomial: coefficient} reference
# ---------------------------------------------------------------------------
#
# The reference keeps one ring element per monomial (a Fraction over Q, a
# Scalar over Q(a)) and does every operation coefficient by coefficient.

QA = ParamRing(["a"])
KERNEL_CTXS = [Context(Q, ["u", "v"]), Context(QA, ["u", "v"])]
TARGETS = {ring: Context(ring, ["w", "x"]) for ring in (Q, QA)}
RATIONALS = [Fraction(1, 3), Fraction(-1, 3), Fraction(7, 4), Fraction(-7, 4),
             Fraction(1, 6), Fraction(2), Fraction(-2), Fraction(5)]


def kernel_values(ring):
    if not ring.nvars:
        return RATIONALS
    a, one = ring.param("a"), ring.one()
    return [ring.const(q) for q in RATIONALS] + [
        a, -a, a * Fraction(-2, 3), one / (a + one), (a + Fraction(1, 2)) / (a - 3)]


def ref_clean(ref):
    return {m: c for m, c in ref.items() if c}


def ref_add(x, y, s=1):
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, 0) + c * s
    return ref_clean(out)


def ref_mul(x, y):
    out = {}
    for mx, cx in x.items():
        for my, cy in y.items():
            m = tuple(sorted(mx + my))
            out[m] = out.get(m, 0) + cx * cy
    return ref_clean(out)


def ref_scale(x, c):
    return ref_clean({m: v * c for m, v in x.items()})


def ref_derivative(x):
    out = {}
    for m, c in x.items():
        for k, (g, n) in enumerate(m):
            dm = tuple(sorted(m[:k] + ((g, n + 1),) + m[k + 1:]))
            out[dm] = out.get(dm, 0) + c
    return ref_clean(out)


def ref_partial(x, gen, order):
    out = {}
    for m, c in x.items():
        k = m.count((gen, order))
        if k:
            i = m.index((gen, order))
            out[m[:i] + m[i + 1:]] = out.get(m[:i] + m[i + 1:], 0) + c * k
    return ref_clean(out)


def ref_variational(x, gen):
    out = {}
    top = max((n for m in x for g, n in m if g == gen), default=-1)
    for n in range(top + 1):
        t = ref_partial(x, gen, n)
        for _ in range(n):
            t = ref_derivative(t)
        out = ref_add(out, t, (-1) ** n)
    return out


def ref_map(x, images):
    out = {}
    for m, c in x.items():
        p = {(): c}
        for g, n in m:
            img = images[g]
            for _ in range(n):
                img = ref_derivative(img)
            p = ref_mul(p, img)
        out = ref_add(out, p)
    return out


def rebuild(ctx, ref):
    """The DiffPoly of a reference, summed term by term from the last
    monomial to the first: another path to the same value."""
    p = ctx.zero()
    for m, c in sorted(ref.items(), reverse=True):
        term = ctx.const(c)
        for g, n in m:
            term = ctx.gen(g, n) * term
        p = term + p
    return p


def assert_matches(p, ref):
    """p has the reference's coefficients, is in canonical numerator form,
    and equals (with the same hash) the value rebuilt along another path."""
    assert p.coeffs() == ref
    nums = list(p.terms.values())
    assert all(nums)
    if p.ctx.ring.nvars:
        assert p.den == 1
    else:
        assert {type(v) for v in nums} <= {int} and type(p.den) is int
        assert p.den > 0 and math.gcd(p.den, *nums) == 1
    q = rebuild(p.ctx, ref)
    assert p == q and hash(p) == hash(q) and q.terms == p.terms


@st.composite
def poly_with_ref(draw, ctx):
    """A DiffPoly of up to five terms, built by DiffPoly arithmetic, and its
    reference built coefficient by coefficient; terms may repeat and cancel."""
    values = kernel_values(ctx.ring)
    p, ref = ctx.zero(), {}
    for _ in range(draw(st.integers(0, 5))):
        c = draw(st.sampled_from(values))
        m = tuple(sorted((draw(st.integers(0, ctx.ngens - 1)),
                          draw(st.integers(0, 2)))
                         for _ in range(draw(st.integers(0, 2)))))
        term = ctx.const(c)
        for g, n in m:
            term = term * ctx.gen(g, n)
        p = p + term
        ref[m] = ref.get(m, 0) + c
    return p, ref_clean(ref)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_reference(data):
    """+, -, *, scale, total_derivative, partial, variational and
    map_generators equal the coefficient-wise reference over Q and over
    Q(a), in canonical form; == and hash agree with the reference's
    equality, also on equal values built along different paths."""
    ctx = data.draw(st.sampled_from(KERNEL_CTXS))
    (p, P), (q, Q_) = data.draw(poly_with_ref(ctx)), data.draw(poly_with_ref(ctx))
    c = data.draw(st.sampled_from(kernel_values(ctx.ring) + [0]))
    assert_matches(p, P)
    assert_matches(p + q, ref_add(P, Q_))
    assert_matches(p - q, ref_add(P, Q_, -1))
    assert_matches(p * q, ref_mul(P, Q_))
    assert_matches(p.scale(c), ref_scale(P, c))
    assert_matches(p.total_derivative(), ref_derivative(P))
    for gen in range(ctx.ngens):
        assert_matches(p.variational(gen), ref_variational(P, gen))
        for order in range(4):
            assert_matches(p.partial(gen, order), ref_partial(P, gen, order))
    target = TARGETS[ctx.ring]
    images = [data.draw(poly_with_ref(target)) for _ in range(ctx.ngens)]
    assert_matches(p.map_generators(target, [i for i, _ in images]),
                   ref_map(P, [r for _, r in images]))
    # equal values along different paths, and unequal values
    assert (p == q) == (P == Q_)
    for x, y in ((p + q, q + p), ((p + q) - q, p), (p * q, q * p),
                 (p.scale(2), p + p), (p.scale(c) * q, p * q.scale(c))):
        assert x == y and hash(x) == hash(y) and x.terms == y.terms
