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
    assert list(m.terms.values())[0] == Q.one()
    assert len(m.terms) == 1


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
