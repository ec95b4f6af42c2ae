import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wds.diffpoly import (B, Context, ContextMismatch, OrderOverflow,
                          functional_equal)
from wds.scalars import ParamRing, Q

UV = Context(Q, ["u", "v"], [Fraction(1), Fraction(1)])
u, v = UV.gen(0), UV.gen(1)
QS = ParamRing(["s1", "s2"])
s1, s2 = QS.param("s1"), QS.param("s2")
UVS = Context(QS, ["u", "v"], [Fraction(1), Fraction(1)])
us, vs = UVS.gen(0), UVS.gen(1)


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


def variational(p, gen):
    """delta p / delta u_gen, read from gradient()."""
    return p.gradient().get(gen, p.ctx.zero())


def test_variational_derivative():
    up = UV.gen(0, 1)
    assert variational(u * u, 0) == 2 * u
    assert variational(u * up, 0) == UV.zero()  # exact: (u^2/2)'
    upp = UV.gen(0, 2)
    assert variational(u * upp, 0) == 2 * upp


def test_variational_kills_total_derivatives():
    rng = random.Random(11)
    from wds.pva import random_element
    for _ in range(25):
        p = random_element(UV, rng, max_degree=4, max_order=2)
        dp = p.total_derivative()
        assert variational(dp, 0) == UV.zero()
        assert variational(dp, 1) == UV.zero()


def partial(p, gen, order):
    """d p / d u_gen^(order), read from partials()."""
    ps = p.partials().get(gen, ())
    return ps[order] if order < len(ps) else p.ctx.zero()


def variational_oracle(p, gen):
    """delta p / delta u_gen as sum_n (-d)^n dp/du_gen^(n), each order
    differentiated n times over."""
    out = p.ctx.zero()
    top = max((n for m in p.coeffs() for g, n in m if g == gen), default=-1)
    for n in range(top + 1):
        out = out + partial(p, gen, n).d(n).scale((-1) ** n)
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
            assert variational(f, gen) == variational_oracle(f, gen)


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


def test_substitution_derives_each_order_from_d():
    """u_g^(n) maps to images[g].d(n), also when one call maps several
    orders of a generator, in any order of the terms."""
    target = Context(Q, ["w", "x"])
    w, x = target.gen(0), target.gen(1)
    images = [w * x + target.gen(0, 1), w * w.scale(Fraction(1, 3)) + x]
    for orders in ([3, 1, 5], [0, 2], [6, 4, 0, 1], [2, 2]):
        p, want = UV.zero(), target.zero()
        for i, n in enumerate(orders):
            g, m = i % 2, orders[-1 - i]
            p = p + UV.gen(g, n) * UV.gen(1 - g, m)
            want = want + images[g].d(n) * images[1 - g].d(m)
        assert p.map_generators(target, images) == want


def test_substitution_at_high_order():
    """Orders far past the interpreter's recursion limit map too: u^(1200)
    goes to w^(1200)."""
    target = Context(Q, ["w"])
    w = target.gen(0)
    p = UV.gen(0, 1200) * UV.gen(1, 2) + UV.gen(0, 1199)
    got = p.map_generators(target, [w, w * w])
    assert got == target.gen(0, 1200) * (w * w).d(2) + target.gen(0, 1199)


def test_renderers():
    up = UV.gen(0, 1)
    p = u * up.scale(Fraction(-1, 2)) + v
    assert str(p) == "v - 1/2*u*u'"
    js = p.to_json()
    assert js[0] == {"coeff": "1", "monomial": [["v", 0]]}
    assert js[1] == {"coeff": "-1/2", "monomial": [["u", 0], ["u", 1]]}
    assert "u" in p.latex()
    # a constant lambda coefficient that is a sum is put in parentheses
    from wds.diffpoly import LambdaPoly
    x = LambdaPoly(UVS, [us, UVS.const(s1 + 1), UVS.const(-s1 - 1)])
    assert str(x) == "u + (s1 + 1)*lam + (-s1 - 1)*lam^2"


@pytest.mark.parametrize("p, text, latex", [
    (UV.const(Fraction(1, 2)), "1/2", "1/2"),
    (UV.one(), "1", "1"),
    (UV.const(-3), "-3", "-3"),
    (u + UV.one(), "1 + u", "1 + u"),
    (u * v.scale(Fraction(1, 2)) - UV.const(3), "-3 + 1/2*u*v",
     "-3 + 1/2 u v"),
    (UV.one() - u * u * UV.gen(1, 4), "1 - u^2*v^(4)", "1 - (u)^{2} v^{(4)}"),
    (us.scale(s1 + s2) + vs.scale(s1 - s2) + (us * vs).scale(-s1 - s2)
     + UVS.const(s1 + 1),
     "s1 + 1 + (s1 + s2)*u + (s1 - s2)*v + (-s1 - s2)*u*v",
     "s1 + 1 + (s1 + s2) u + (s1 - s2) v + (-s1 - s2) u v"),
])
def test_latex_writes_constant_terms_bare(p, text, latex):
    """A constant term is its coefficient alone, in LaTeX as in text; a
    coefficient that is a sum stands in parentheses before its monomial."""
    assert str(p) == text
    assert p.latex() == latex


def test_lambda_poly_operations():
    from wds.diffpoly import LambdaPoly, subst_minus_lambda_d
    x = LambdaPoly(UV, [u, v])
    assert len(x.coeffs) - 1 == 1  # the lambda-degree
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
    """+, -, *, scale, total_derivative, partials, variational and
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
        assert_matches(variational(p, gen), ref_variational(P, gen))
        for order in range(4):
            assert_matches(partial(p, gen, order), ref_partial(P, gen, order))
    target = TARGETS[ctx.ring]
    images = [data.draw(poly_with_ref(target)) for _ in range(ctx.ngens)]
    assert_matches(p.map_generators(target, [i for i, _ in images]),
                   ref_map(P, [r for _, r in images]))
    # equal values along different paths, and unequal values
    assert (p == q) == (P == Q_)
    for x, y in ((p + q, q + p), ((p + q) - q, p), (p * q, q * p),
                 (p.scale(2), p + p), (p.scale(c) * q, p * q.scale(c))):
        assert x == y and hash(x) == hash(y) and x.terms == y.terms


# ---------------------------------------------------------------------------
# the calculus on powers and near the order bound, against the reference
# ---------------------------------------------------------------------------

TOP = 2 ** B - 1  # the highest derivative order a monomial holds


@st.composite
def powers_with_ref(draw, ctx, orders):
    """A DiffPoly of up to four terms of degree up to 4, whose monomials
    repeat variables (up to the third power, or the fourth when a variable
    is drawn twice) at orders drawn from orders, and its reference."""
    values = kernel_values(ctx.ring)
    p, ref = ctx.zero(), {}
    for _ in range(draw(st.integers(1, 4))):
        c = draw(st.sampled_from(values))
        m = ()
        while len(m) < 4 and (not m or draw(st.booleans())):
            var = (draw(st.integers(0, ctx.ngens - 1)),
                   draw(st.sampled_from(orders)))
            m += (var,) * min(draw(st.integers(1, 3)), 4 - len(m))
        m = tuple(sorted(m))
        term = ctx.const(c)
        for g, n in m:
            term = term * ctx.gen(g, n)
        p = p + term
        ref[m] = ref.get(m, 0) + c
    return p, ref_clean(ref)


def assert_partials_match(p, ref):
    """partials() lists every plain partial of each generator up to its
    top order in p, each equal to the reference."""
    got = p.partials()
    for gen in range(p.ctx.ngens):
        top = max((n for m in ref for g, n in m if g == gen), default=-1)
        assert len(got.get(gen, ())) == top + 1
        for order, q in enumerate(got.get(gen, ())):
            assert_matches(q, ref_partial(ref, gen, order))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_calculus_on_powers_matches_reference(data):
    """total_derivative (once and twice), partials, gradient and
    map_generators on monomials with powers equal the pair-monomial
    reference, over Q and over Q(a)."""
    ctx = data.draw(st.sampled_from(KERNEL_CTXS))
    p, P = data.draw(powers_with_ref(ctx, [0, 1, 2]))
    dP = ref_derivative(P)
    assert_matches(p.total_derivative(), dP)
    assert_matches(p.d(2), ref_derivative(dP))
    assert_partials_match(p, P)
    grad = p.gradient()
    for gen in range(ctx.ngens):
        assert_matches(grad.get(gen, ctx.zero()), ref_variational(P, gen))
    target = TARGETS[ctx.ring]
    images = [data.draw(poly_with_ref(target)) for _ in range(ctx.ngens)]
    assert_matches(p.map_generators(target, [i for i, _ in images]),
                   ref_map(P, [r for _, r in images]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_calculus_near_the_order_bound(data):
    """Orders up to the bound differentiate, take partials and substitute
    as the reference does; one more derivative raises OrderOverflow.  The
    substitution sends u_g to the order TOP - 2 derivative of a target
    generator, so u_g'' reaches the bound."""
    ctx = data.draw(st.sampled_from(KERNEL_CTXS))
    q, Q_ = data.draw(powers_with_ref(ctx, [0, 1, 2]))
    target = TARGETS[ctx.ring]
    images = [target.gen(g, TOP - 2) for g in range(ctx.ngens)]
    assert_matches(q.map_generators(target, images),
                   ref_map(Q_, [{((g, TOP - 2),): 1} for g in range(ctx.ngens)]))
    p, P = data.draw(powers_with_ref(ctx, [0, TOP - 3, TOP - 2, TOP - 1]))
    dP = ref_derivative(P)
    assert_matches(p.total_derivative(), dP)
    for gen in range(ctx.ngens):
        for order in (0, TOP - 1, TOP):
            assert_matches(partial(p, gen, order), ref_partial(P, gen, order))
    if any(n == TOP - 1 for m in P for _, n in m):
        with pytest.raises(OrderOverflow):
            p.d(2)
    else:
        assert_matches(p.d(2), ref_derivative(dP))


def test_leibniz_on_powers():
    """(u^3)' = 3 u^2 u' and (u'^2 v)'' by hand."""
    up, upp, uppp = UV.gen(0, 1), UV.gen(0, 2), UV.gen(0, 3)
    vp, vpp = UV.gen(1, 1), UV.gen(1, 2)
    assert (u * u * u).total_derivative() == 3 * u * u * up
    assert (up * up * v).d(2) == (2 * upp * upp * v + 2 * up * uppp * v
                                  + 4 * up * upp * vp + up * up * vpp)
    assert (u * u * u).partials()[0][0] == 3 * u * u


def test_order_past_the_bound_raises():
    """An order of 2**B is refused where it would be made: by gen, by
    linear and by a derivative of an order-TOP variable, also inside a
    power, a product and map_generators."""
    with pytest.raises(OrderOverflow):
        UV.gen(0, TOP + 1)
    with pytest.raises(OrderOverflow):
        UV.linear({0: 1, 1: 2}, TOP + 1)
    with pytest.raises(OrderOverflow):
        UV.gen(0, -1)
    top = UV.gen(1, TOP)
    assert top.coeffs() == {((1, TOP),): 1}
    for p in (top, top * top, u * top * v, top.scale(Fraction(-1, 3))):
        with pytest.raises(OrderOverflow):
            p.total_derivative()
    target = Context(Q, ["w"])
    with pytest.raises(OrderOverflow):
        UV.gen(0, 1).map_generators(target, [target.gen(0, TOP), target.one()])


def test_only_diffpoly_reads_monomials():
    """No module of wds but diffpoly builds or unpacks monomials: no
    tuple(sorted(...)), no bit shift, and no import of the monomial
    format's names from diffpoly.  scalars is exempt from the first rule:
    its Q(p) polynomials are exponent tuples of its own, and it imports
    nothing from diffpoly."""
    private = {"B", "_code", "_decode"}
    src = Path(__file__).resolve().parent.parent / "src" / "wds"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "diffpoly.py":
            continue
        tree = ast.parse(path.read_text())
        if path.name == "scalars.py":
            assert "diffpoly" not in path.read_text()
            tree = ast.Module(body=[], type_ignores=[])
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "tuple" and node.args
                    and isinstance(node.args[0], ast.Call)
                    and isinstance(node.args[0].func, ast.Name)
                    and node.args[0].func.id == "sorted"):
                found.append(f"{where} tuple(sorted(...))")
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, (ast.LShift, ast.RShift)):
                found.append(f"{where} bit shift")
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").endswith("diffpoly"):
                found += [f"{where} imports {a.name}" for a in node.names
                          if a.name in private]
    assert not found, found


def test_only_diffpoly_reads_numerator_form():
    """No module of wds but diffpoly reads a DiffPoly's numerator form: no
    use of the numerator kernel's names (imported from diffpoly or read as
    its attributes), and no `.den`.  scalars is exempt: a Scalar's `den` is
    its own denominator, and it imports nothing from diffpoly."""
    private = {"_accumulate", "_mul_into", "numerator_form",
               "common_denominator"}
    src = Path(__file__).resolve().parent.parent / "src" / "wds"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in ("diffpoly.py", "scalars.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Attribute) and node.attr in private | {"den"}:
                found.append(f"{where} reads .{node.attr}")
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").endswith("diffpoly"):
                found += [f"{where} imports {a.name}" for a in node.names
                          if a.name in private]
    assert not found, found
