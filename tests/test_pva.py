import collections
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involution_oracle import integrand
from pva_oracle import jacobi_defect, skew_defect
from wds import MINIMAL, GradedSetup, WGenerators, build_sl, linalg, pva
from wds.diffpoly import ContextMismatch, LambdaPoly, functional_equal
from wds.lie import GradeMismatch
from wds.pva import (BracketTable, LeftBracket, ReductionFrame,
                     check_pva_axioms, master_bracket, random_element)

HALF = Fraction(1, 2)


def affine_pair(cfg, a, b):
    fr = cfg.frame
    return master_bracket(fr.full_table, fr.full_lin(a), fr.full_lin(b))


def rho_pair(cfg, a, b):
    fr = cfg.frame
    h, k = affine_pair(cfg, a, b)
    return (h.map_coeffs(fr.rho, fr.coord_ctx),
            k.map_coeffs(fr.rho, fr.coord_ctx))


def test_minimal_affine_bracket_table(sl3_min):
    """rho{x_lam y}_z over all grade pairs against the closed forms."""
    cfg = sl3_min
    g, s, fr = cfg.algebra, cfg.setup, cfg.frame
    ring = g.ring
    xx = s.xx()
    zero = fr.coord_ctx.zero()

    def lin(v):
        return fr.coord_lin(v)

    def pair_lam(*coeffs):
        return LambdaPoly(fr.coord_ctx, list(coeffs))

    def expected(a, ga, b, gb):
        """All 25 grade-pair entries of the printed bracket table, s = e."""
        br = g.bracket(a, b)
        no_k = pair_lam()
        if (ga, gb) in ((-1, -1), (-1, -HALF), (-HALF, -1),
                        (HALF, 1), (1, HALF), (1, 1)):
            return pair_lam(), no_k
        if (ga, gb) == (-1, 0):
            c = g.pair(s.x, b)
            return (pair_lam(lin(s.f).scale(c / xx)),
                    pair_lam(fr.coord_ctx.const(-2 * c)))
        if (ga, gb) == (0, -1):
            c = g.pair(s.x, a)
            return (pair_lam(lin(s.f).scale(-(c / xx))),
                    pair_lam(fr.coord_ctx.const(2 * c)))
        if (ga, gb) in ((-1, 1), (1, -1)):
            sign = -2 if ga == -1 else 2
            return (pair_lam(lin(s.x).scale(sign),
                             fr.coord_ctx.const(2 * xx)), no_k)
        if (ga, gb) == (-HALF, -HALF):
            om = s.omega_minus(a, b)
            return (pair_lam(lin(s.f).scale(om / (2 * xx))),
                    pair_lam(fr.coord_ctx.const(-om)))
        if (ga, gb) in ((-HALF, HALF), (HALF, -HALF), (0, 0)):
            return (pair_lam(lin(br), fr.coord_ctx.const(g.pair(a, b))),
                    no_k)
        if (ga, gb) == (HALF, HALF):
            return (pair_lam(fr.coord_ctx.const(s.omega_plus(a, b))), no_k)
        if (ga, gb) == (0, 1):
            return (pair_lam(fr.coord_ctx.const(2 * g.pair(s.x, a))), no_k)
        if (ga, gb) == (1, 0):
            return (pair_lam(fr.coord_ctx.const(-2 * g.pair(s.x, b))), no_k)
        # remaining entries are plain brackets landing inside g_<=1/2:
        # (f, v1) -> [f, v1]; (u, b), (b, u1); (u, e) -> -[e, u];
        # (e, u1) -> [e, u1]; (a, v1), (v, b)
        assert (ga, gb) in ((-1, HALF), (HALF, -1), (-HALF, 0), (0, -HALF),
                            (-HALF, 1), (1, -HALF), (0, HALF), (HALF, 0))
        return pair_lam(lin(br)), no_k

    grades = sorted(s.grading)
    for ga, gb in itertools.product(grades, grades):
        for ia in s.eig_indices(ga):
            for ib in s.eig_indices(gb):
                a, b = s.basis[ia], s.basis[ib]
                got = rho_pair(cfg, a, b)
                want = expected(a, ga, b, gb)
                assert got[0] == want[0], (ga, gb, str(got[0]), str(want[0]))
                assert got[1] == want[1], (ga, gb, str(got[1]), str(want[1]))


def test_f_e_entry_printed_form(sl3_min):
    cfg = sl3_min
    g, s, fr = cfg.algebra, cfg.setup, cfg.frame
    h, k = rho_pair(cfg, s.f, s.e)
    want = LambdaPoly(
        fr.coord_ctx,
        [fr.coord_lin(s.x).scale(-2), fr.coord_ctx.const(2 * s.xx())],
    )
    assert h == want and not k


def test_master_formula_leibniz_shortcut(sl3_min):
    """{u lam u^2} = 2u {u lam u} for a one-generator table with {u,u}=lam."""
    from wds.diffpoly import Context
    from wds.scalars import Q
    ctx = Context(Q, ["u"])
    u = ctx.gen(0)
    table = BracketTable(ctx)
    table.set(0, 0, LambdaPoly(ctx, [ctx.zero(), ctx.one()]),
              LambdaPoly.zero(ctx))
    h, k = master_bracket(table, u, u * u)
    assert h == LambdaPoly(ctx, [ctx.zero(), u.scale(2)])
    assert not k


def test_sesquilinearity_exact(sl3_min):
    fr = sl3_min.frame
    rng = random.Random(1)
    for _ in range(10):
        p = random_element(fr.full_ctx, rng)
        q = random_element(fr.full_ctx, rng)
        hp, kp = master_bracket(fr.full_table, p.total_derivative(), q)
        h, k = master_bracket(fr.full_table, p, q)
        assert hp == -(h.shift()) and kp == -(k.shift())


def test_jacobi_on_affine_table(sl3_min):
    fr = sl3_min.frame
    rng = random.Random(2)
    for _ in range(4):
        g1 = random_element(fr.full_ctx, rng, max_degree=2)
        g2 = random_element(fr.full_ctx, rng, max_degree=1)
        g3 = random_element(fr.full_ctx, rng, max_degree=1)
        for parts in ((0, 0), (1, 1), (0, 1)):
            assert jacobi_defect(fr.full_table, g1, g2, g3, parts) == {}


def test_corrupted_table_fails_skew(sl3_min):
    fr = sl3_min.frame
    ctx = fr.full_ctx
    table = BracketTable(ctx)
    table.entries = dict(fr.full_table.entries)
    (i, j), (h, k) = next(iter(table.entries.items()))
    table.entries[(i, j)] = (-h, k)  # flip one sign
    bad = []
    for a in range(ctx.ngens):
        for b in range(ctx.ngens):
            dh, dk = skew_defect(table, ctx.gen(a), ctx.gen(b))
            if dh or dk:
                bad.append((a, b))
    assert bad


def test_rho_action_annihilates_w(sl3_min):
    cfg = sl3_min
    s, fr, gens = cfg.setup, cfg.frame, cfg.gens
    for i in fr.ann_idx:
        a = fr.basis[i]
        for b in cfg.setup.g0f_indices:
            assert not fr.rho_action(a, gens.phi(s.basis[b]))
        for u in gens.psi_args:
            assert not fr.rho_action(a, gens.psi(u))
    assert not fr.rho_action(s.e, fr.coord_ctx.one())


def test_rho_action_z_independence(sl3_min):
    fr = sl3_min.frame
    rng = random.Random(9)
    for _ in range(12):
        p = random_element(fr.coord_ctx, rng)
        for i in fr.ann_idx:
            fr.rho_action(fr.basis[i], p)  # raises on any z-dependence


def test_rho_action_rejects_bad_domain(sl3_min):
    fr = sl3_min.frame
    with pytest.raises(GradeMismatch):
        fr.rho_action(fr.setup.f, fr.coord_ctx.one())


def test_rho_map_values(sl3_min):
    cfg = sl3_min
    g, s, fr = cfg.algebra, cfg.setup, cfg.frame
    assert fr.rho(fr.full_lin(s.e)) == fr.coord_ctx.const(2 * s.xx())
    u = fr.full_lin(g.parse({"E21": 1}))
    assert fr.rho(u) == fr.coord_lin(g.parse({"E21": 1}))
    assert fr.rho(fr.full_lin(s.e).d()) == fr.coord_ctx.zero()


def test_is_in_w_examples(sl3_min):
    cfg = sl3_min
    fr, gens = cfg.frame, cfg.gens
    assert fr.is_in_w(gens.L)
    assert fr.is_in_w(fr.coord_ctx.one())
    assert not fr.is_in_w(fr.coord_lin(cfg.setup.x))
    assert not fr.is_in_w(fr.coord_lin(cfg.setup.basis[
        cfg.setup.eig_indices(HALF)[0]]))


@pytest.mark.parametrize("name", ["sl3_min", "sl4_min", "sl4_short"])
def test_is_in_w_matches_rho_action(name, request):
    """is_in_w (p embedded and differentiated once for all annihilating
    generators) agrees with the per-generator rho_action oracle on the
    generators of W, which are members, and on each of them perturbed by a
    coordinate or its derivative, a product with a coordinate, or a random
    element, which are mostly not."""
    cfg = request.getfixturevalue(name)
    fr = cfg.frame

    def oracle(p):
        return all(not fr.rho_action(fr.basis[i], p) for i in fr.ann_idx)

    rng = random.Random(7)
    coords = [fr.coord_ctx.gen(i, n) for i in range(fr.coord_ctx.ngens)
              for n in (0, 1)]
    outside = 0
    for name, p in cfg.gens.all_generators():
        assert fr.is_in_w(p) and oracle(p), name
        for q in (p + rng.choice(coords), p * rng.choice(coords[::2]),
                  p + random_element(fr.coord_ctx, rng)):
            got = fr.is_in_w(q)
            assert got == oracle(q), name
            outside += not got
    assert outside >= len(cfg.gens.all_generators())


def test_bracket_closes_in_w(sl3_min):
    """Coefficients of {g lam h} for g, h in W pass membership again."""
    cfg = sl3_min
    fr, gens = cfg.frame, cfg.gens
    rng = random.Random(23)
    for _ in range(3):
        p = gens.pi_inverse(random_element(fr.w_ctx, rng, max_degree=2,
                                           max_order=1))
        q = gens.pi_inverse(random_element(fr.w_ctx, rng, max_degree=1,
                                           max_order=1))
        h, k = fr.w_bracket(p, q)
        for coeff in list(h.coeffs) + list(k.coeffs):
            assert fr.is_in_w(coeff)


def test_weight_bookkeeping(sl3_min):
    """g_(n,H) h sits in weight D1+D2-n-1; the K-part shifts by the depth."""
    cfg = sl3_min
    fr, gens = cfg.frame, cfg.gens
    d = cfg.setup.depth
    pairs = [(gens.L, Fraction(2)), (gens.phis[0], Fraction(1)),
             (gens.psis[0], Fraction(3, 2))]
    for (p, wp), (q, wq) in itertools.product(pairs, pairs):
        h, k = fr.w_bracket(p, q)
        for n, c in enumerate(h.coeffs):
            got = c.conformal_weight()
            if got is not None and c:
                assert got == wp + wq - n - 1
        for n, c in enumerate(k.coeffs):
            if c:
                assert c.conformal_weight() == wp + wq - n - 2 - d


def test_energy_momentum_property(sl3_min):
    """{L lam w}_H = (d + Delta lam) w + O(lam^2) for every generator."""
    cfg = sl3_min
    fr, gens = cfg.frame, cfg.gens
    for w, delta in [(gens.L, Fraction(2)), (gens.phis[0], Fraction(1)),
                     (gens.psis[0], Fraction(3, 2)),
                     (gens.psis[1], Fraction(3, 2))]:
        h, _ = fr.w_bracket(gens.L, w)
        assert h.coeff(0) == w.total_derivative()
        assert h.coeff(1) == w.scale(delta)


def test_axiom_scan_full_table(sl3_min, monkeypatch):
    """The scan passes; it builds the g side of the master formula once per
    distinct left operand g, and the h side once per distinct pair (g, h)."""
    built = collections.Counter()
    applied = collections.Counter()

    class Counted(pva.LeftBracket):
        def __init__(self, table, g):
            built[g] += 1
            super().__init__(table, g)

        def __call__(self, h):
            applied[(self.g, h)] += 1
            return super().__call__(h)

    monkeypatch.setattr(pva, "LeftBracket", Counted)
    bad = check_pva_axioms(sl3_min.frame.full_table, samples=6, gens_cap=8)
    assert bad == []
    assert built and max(built.values()) == 1
    assert applied and max(applied.values()) == 1
    # left operands are shared: far fewer g sides than pairs
    assert len(built) < len(applied)


@pytest.mark.parametrize("part", [0, 1], ids=["h_sign_flipped", "k_perturbed"])
def test_scan_failures_match_oracle(sl3_min, part):
    """On a table with one corrupted entry, the scan's skew and Jacobi lines
    are, in order, those the memo-free skew_defect and jacobi_defect give."""
    ctx = sl3_min.frame.full_ctx
    table = BracketTable(ctx)
    table.entries = dict(sl3_min.frame.full_table.entries)
    key, (h, k) = next((key, e) for key, e in table.entries.items() if e[part])
    table.entries[key] = ((-h, k) if part == 0
                          else (h, k + LambdaPoly.of(ctx.one())))
    got = [line for line in check_pva_axioms(table, samples=2, gens_cap=8)
           if line.startswith(("skew (", "jacobi ("))]
    n, lab = ctx.ngens, ctx.labels
    gens = [ctx.gen(i) for i in range(n)]
    want = [f"skew ({lab[i]},{lab[j]})" for i in range(n) for j in range(i, n)
            if any(skew_defect(table, gens[i], gens[j]))]
    want += [f"jacobi ({lab[i]},{lab[j]},{lab[k]}) parts={parts}"
             for i, j, k in itertools.product(range(n), repeat=3)
             for parts in ((0, 0), (1, 1), (0, 1))
             if jacobi_defect(table, gens[i], gens[j], gens[k], parts)]
    assert n == 8
    assert any(line.startswith("skew") for line in want)
    assert any(line.startswith("jacobi") for line in want)
    assert got == want


def test_short_affine_bracket_table(sl4_short):
    """The short twisted table: rho{a lam v} = (f|[a,v]),
    rho{u lam b} = [u,b] + z(s|[u,b]), rho{u lam v} = [u,v] + (u|v)lam."""
    cfg = sl4_short
    g, s, fr = cfg.algebra, cfg.setup, cfg.frame

    def rho_pair_short(a, b):
        h, k = master_bracket(fr.full_table, fr.full_lin(a), fr.full_lin(b))
        return (h.map_coeffs(fr.rho, fr.coord_ctx),
                k.map_coeffs(fr.rho, fr.coord_ctx))

    zeros = s.eig_indices(0)
    ones = s.eig_indices(1)
    negs = s.eig_indices(-1)
    for ia in zeros:
        for iv in ones:
            a, v = s.basis[ia], s.basis[iv]
            h, k = rho_pair_short(a, v)
            want = fr.coord_ctx.const(g.pair(s.f, g.bracket(a, v)))
            assert h == LambdaPoly.of(want) or (not h and not want)
            assert not k
    for iu in negs:
        for ib in zeros:
            u, b = s.basis[iu], s.basis[ib]
            h, k = rho_pair_short(u, b)
            assert h == LambdaPoly.of(fr.coord_lin(g.bracket(u, b))) \
                or (not h and not any(g.bracket(u, b)))
            want_k = -g.pair(fr.s, g.bracket(u, b))
            assert k == LambdaPoly.of(fr.coord_ctx.const(want_k)) \
                or (not k and not want_k)
    for iu in negs:
        for iv in ones:
            u, v = s.basis[iu], s.basis[iv]
            h, k = rho_pair_short(u, v)
            want = LambdaPoly(fr.coord_ctx, [
                fr.coord_ctx.zero() + fr.rho(fr.full_lin(g.bracket(u, v))),
                fr.coord_ctx.const(g.pair(u, v))])
            assert h == want
            assert not k
    for iu in negs:
        for iu1 in negs:
            h, k = rho_pair_short(s.basis[iu], s.basis[iu1])
            assert not h and not k


def test_isotropic_quotient_pi_l(sl3_iso):
    """pi_l keeps g^f, sends g_0 through sharp, kills l, l' and g_1."""
    fr = sl3_iso.frame

    def pi_l(v):
        return linalg.combine(fr.to_adapted(v), fr.quotient_images)

    for i, b in enumerate(fr.basis):
        img = pi_l(b)
        assert pi_l(img) == img
        if i in fr.w_idx:
            assert img == b
        elif fr.eig_of[i] == 0:
            assert img == fr.setup.sharp(b)
        else:
            assert img == {}
    # pi on the coordinate generators is pi_l in V(g^f) coordinates
    for pos, i in enumerate(fr.coord_idx):
        assert fr.pi(fr.coord_ctx.gen(pos)) == fr.w_lin(pi_l(fr.basis[i]))


# ---------------------------------------------------------------------------
# one left operand, many right operands: LeftBracket against master_bracket
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def oracle_tables(ring: str) -> tuple:
    """The affine table and the W table of sl3 minimal: over Q, or over
    Q(a) with the trace form scaled by a, so that a enters the entries."""
    g = build_sl(3) if ring == "Q" else build_sl(3, form_scale="a")
    setup = GradedSetup(g, g.parse({"E31": 1}), MINIMAL)
    fr = ReductionFrame(setup, setup.e)
    return fr.full_table, WGenerators(fr).table


@st.composite
def operands(draw, ctx):
    """Up to three monomials of degree up to 2 and order up to 2; over Q(a)
    the coefficients include a, a^2 - 1 and 1/(a + 1)."""
    ring = ctx.ring
    values = [ring.const(1), ring.const(-2), ring.const(Fraction(1, 3))]
    if ring.nvars:
        a = ring.param("a")
        values += [a, a * a - 1, ring.one() / (a + 1)]
    p = ctx.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = ctx.const(draw(st.sampled_from(values)))
        for _ in range(draw(st.integers(0, 2))):
            term = term * ctx.gen(draw(st.integers(0, ctx.ngens - 1)),
                                  draw(st.integers(0, 2)))
        p = p + term
    return p


@st.composite
def left_and_rights(draw):
    """A table (affine or W, over Q or Q(a)), a left operand g and three
    right operands."""
    ring = draw(st.sampled_from(["Q", "Q(a)"]))
    table = oracle_tables(ring)[draw(st.integers(0, 1))]
    g = draw(operands(table.ctx))
    hs = [draw(operands(table.ctx)) for _ in range(3)]
    return table, g, hs


def gradient(h):
    used = {j for m in h.coeffs() for j, _ in m}
    grad = h.gradient()
    return {j: grad.get(j, h.ctx.zero()) for j in sorted(used)}


@settings(max_examples=40, deadline=None)
@given(left_and_rights(), st.permutations(range(3)), st.data())
def test_left_bracket_matches_fresh_master_bracket(case, order, data):
    """One LeftBracket applied to several h, in any order and interleaved
    with its lambda^0 methods, equals a fresh master_bracket per pair."""
    table, g, hs = case
    left = LeftBracket(table, g)
    for k in order:
        if data.draw(st.booleans()):
            left.at_zero(hs[k], data.draw(st.integers(0, 1)))
        assert left(hs[k]) == master_bracket(table, g, hs[k])


@settings(max_examples=40, deadline=None)
@given(left_and_rights())
def test_at_zero_matches_lambda_path(case):
    """at_zero(h, part), built from R0_j with no power of lambda, equals the
    lambda^0 coefficient of the full master formula, part by part; the
    oracle's integrand has the same integral."""
    table, g, hs = case
    left = LeftBracket(table, g)
    for h in hs:
        full = master_bracket(table, g, h)
        for part in (0, 1):
            want = full[part].at_zero()
            assert left.at_zero(h, part) == want
            assert functional_equal(integrand(left, gradient(h), part),
                                    want)


def test_left_bracket_rejects_foreign_context(sl3_min):
    table = sl3_min.frame.full_table
    other = sl3_min.frame.coord_ctx.gen(0)
    with pytest.raises(ValueError):
        LeftBracket(table, other)
    left = LeftBracket(table, table.ctx.gen(0))
    for method in (left, left.at_zero):
        with pytest.raises(ValueError):
            method(other)


def test_foreign_context_is_a_context_mismatch(sl3_min):
    """A coordinate-ring polynomial bracketed on the generator table of W
    raises the engine's one wrong-context error, naming both contexts."""
    table = sl3_min.gens.table
    p = sl3_min.frame.coord_ctx.gen(0)
    for left, right in ((p, table.ctx.gen(0)), (table.ctx.gen(0), p)):
        with pytest.raises(ContextMismatch) as e:
            master_bracket(table, left, right)
        assert str(e.value) == f"{p.ctx} is not the table's {table.ctx}"
