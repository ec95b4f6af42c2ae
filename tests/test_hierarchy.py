import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wds import MINIMAL, SHORT, GradedSetup, build_sl, linalg
from wds.diffpoly import Context
from wds.hierarchy import (HDecomposition, InvalidCenter, LoopElement,
                           NotSemisimple, WindowOverflow,
                           _apply_rows, _num_rows, build_q,
                           center_of_h, check_central, conserved_densities,
                           dressing_defect, hierarchy_equation,
                           loop_from_zmap, loop_fzs, reduce_mod_jk,
                           solve_dressing, verify_lenard_magri)
from wds.pva import ReductionFrame
from wds.scalars import ParamRing, Q, Scalar


# ---------------------------------------------------------------------------
# the coefficient-wise oracle of the loop arithmetic: sums, brackets and
# derivatives on DiffPoly coefficients, one coefficient at a time
# ---------------------------------------------------------------------------


def add_term(el, i, k, p):
    """el[(i, k)] += p, dropping a coefficient that cancels."""
    if not p:
        return
    got = el.terms.get((i, k))
    got = p if got is None else got + p
    if got:
        el.terms[(i, k)] = got
    else:
        el.terms.pop((i, k), None)


def loop_add(X, Y, s=1):
    """X + s Y."""
    out = LoopElement(X.frame, X.ctx, dict(X.terms))
    for (i, k), p in Y.terms.items():
        add_term(out, i, k, p if s == 1 else p.scale(s))
    return out


def loop_sub(X, Y):
    return loop_add(X, Y, -1)


def loop_scale(X, c):
    if not c:
        return LoopElement(X.frame, X.ctx)
    return LoopElement(X.frame, X.ctx,
                       {key: p.scale(c) for key, p in X.terms.items()})


def map_coeffs(X, fn, ctx):
    """fn applied to every coefficient of X, into ctx."""
    out = LoopElement(X.frame, ctx)
    for (i, k), p in X.terms.items():
        add_term(out, i, k, fn(p))
    return out


def slice_loop(dec, deg, coeffs, ctx):
    """The LoopElement with DiffPoly coordinates coeffs on slice(deg)."""
    out = LoopElement(dec.frame, ctx)
    for (i, k), p in zip(dec.slices[deg], coeffs):
        add_term(out, i, k, p)
    return out


def expected_loop(cfg, pieces, ctx=None):
    """Assemble sum of vec z^k (x) coeff into a LoopElement."""
    fr = cfg.frame
    out = LoopElement(fr, ctx or fr.w_ctx)
    for vec, k, coeff in pieces:
        for i, c in enumerate(fr.to_adapted(vec)):
            if c:
                add_term(out, i, k, coeff.scale(c))
    return out


def loop_bracket(X, Y, max_deg=None):
    """[X, Y] of two LoopElements in DiffPoly arithmetic, dropping products
    of loop degree above max_deg."""
    struct = X.frame.struct
    out = LoopElement(X.frame, X.ctx)
    for (i, k1), p in X.terms.items():
        for (j, k2), q in Y.terms.items():
            if max_deg is not None and \
                    X.degree_of((i, k1)) + Y.degree_of((j, k2)) > max_deg:
                continue
            for r, c in struct[i][j]:
                add_term(out, r, k1 + k2, (p * q).scale(c))
    return out


def loop_derivative(X):
    out = LoopElement(X.frame, X.ctx)
    for (i, k), p in X.terms.items():
        add_term(out, i, k, p.total_derivative())
    return out


def exp_ad_oracle(U, D, max_deg):
    """Loop part of exp(ad U)(d + D) - d up to max_deg: the series of
    [U, .]/n, with [U, d] = -U'."""
    base = loop_sub(loop_bracket(U, D, max_deg),
                    loop_derivative(U.trim(max_deg)))
    acc = loop_add(D.trim(max_deg), base)
    cur, n = base, 2
    while cur:
        cur = loop_scale(loop_bracket(U, cur, max_deg), F(1, n))
        acc = loop_add(acc, cur)
        n += 1
    return acc


def lin_comb(row, coeffs):
    """sum_j row[j] * coeffs[j], one DiffPoly scale and sum per entry."""
    acc = coeffs[0].ctx.zero()
    for c, p in zip(row, coeffs):
        if c and p:
            acc = acc + p.scale(c)
    return acc


def dense(rows, ncols):
    """Numerator rows (R, [(column, numerator)]) as rows of ring elements."""
    out = []
    for R, entries in rows:
        row = [F(0)] * ncols
        for j, n in entries:
            row[j] = F(1, R) * n
        out.append(row)
    return out


def central_g0f_element(cfg):
    g, s = cfg.algebra, cfg.setup
    base = [s.basis[i] for i in s.g0f_indices]
    rows = [[x for v2 in base for x in g.bracket(v1, v2)] for v1 in base]
    ker = linalg.kernel(linalg.transpose(rows), g.ring, len(base))
    c = g.zero_vec()
    for co, v in zip(ker[0], base):
        c = linalg.vec_add(c, linalg.vec_scale(v, co))
    return c


# ---------------------------------------------------------------------------
# grading of the loop algebra and the kernel/image decomposition
# ---------------------------------------------------------------------------


def test_z_degree(sl3_min, sl4_short, sl3_iso):
    assert sl3_min.frame.z_degree == -2
    assert sl4_short.frame.z_degree == -2
    assert sl3_iso.frame.z_degree == F(-3, 2)


def test_minimal_h_slices(sl3_min):
    """No kernel at half-integer degrees; g_0^f at even, f+ze line at odd."""
    dec = HDecomposition(sl3_min.frame, F(-1), F(3))
    s = sl3_min.setup
    for d, K in dec.h_basis.items():
        if d.denominator == 2:
            assert K == []
        elif int(d) % 2 == 0:
            assert len(K) == len(s.g0f_indices)
        else:
            assert len(K) == 1
    # f + ze spans the odd part at degree 1
    fr = sl3_min.frame
    el = loop_from_zmap(fr, fr.w_ctx, {-1: s.f, 0: s.e})
    co = dec.coeffs_of(F(1), el)
    K = dec.h_basis[F(1)]
    assert len(K) == 1
    ratio = None
    for c, kc in zip(co, K[0]):
        if kc:
            ratio = c.const_term() / kc if ratio is None else ratio
    for c, kc in zip(co, K[0]):
        assert c.const_term() == ratio * kc


def test_short_h_slices(sl4_short):
    """Odd kernel = ((ad f)^2 - 2z) g_1; image side gets ((ad f)^2 + 2z) g_1."""
    cfg = sl4_short
    g, s, fr = cfg.algebra, cfg.setup, cfg.frame
    dec = HDecomposition(fr, F(-1), F(3))
    for i in s.eig_indices(1):
        v = s.basis[i]
        adf2 = g.bracket(s.f, g.bracket(s.f, v))
        el = loop_from_zmap(fr, fr.w_ctx, {-1: adf2}) \
            + loop_from_zmap(fr, fr.w_ctx, {0: [(-2) * c for c in v]})
        h_el, u_el = dec.split(F(1), el)
        assert h_el.terms == el.terms and not u_el
        el2 = loop_from_zmap(fr, fr.w_ctx, {-1: adf2}) \
            + loop_from_zmap(fr, fr.w_ctx, {0: [2 * c for c in v]})
        h_el, u_el = dec.split(F(1), el2)
        assert not h_el and u_el


def test_generic_s_h_structure(sl4_generic):
    """Kernel elements have commuting diagonal blocks: [S,A] = [S,B] = 0."""
    cfg = sl4_generic
    g, fr = cfg.algebra, cfg.frame
    dec = HDecomposition(fr, F(-1), F(2))
    # at degree 0 the kernel is 1-dimensional: the A11 direction
    K0 = dec.h_basis[F(0)]
    assert len(K0) == 1
    vecs = dec.slices[F(0)]
    v = g.zero_vec()
    for c, (i, k) in zip(K0[0], vecs):
        assert k == 0
        v = linalg.vec_add(v, linalg.vec_scale(fr.basis[i], c))
    want = g.parse({"H1": 1, "H3": 1})
    ratio = next(c / w for c, w in zip(v, want) if w)
    assert v == linalg.vec_scale(want, ratio)
    # odd kernel at degree 1 is 2-dimensional (diagonal B blocks)
    assert len(dec.h_basis[F(1)]) == 2


def test_not_semisimple_rejected(sl3_min):
    setup = sl3_min.setup
    fr = ReductionFrame(setup, setup.f)  # f + f is not semisimple
    with pytest.raises(NotSemisimple):
        HDecomposition(fr, F(-1), F(1))


def test_q_expansion_minimal(sl3_min):
    """pi q = sum a_i (x) a^i + sum v^k (x) [f,v_k] + e/(2(x|x)) (x) f."""
    cfg = sl3_min
    g, s, fr = cfg.algebra, cfg.setup, cfg.frame
    q = build_q(fr, projected=True)
    xx = s.xx()
    pieces = []
    a_basis, a_dual = s.a_pairs
    for b, bd in zip(a_basis, a_dual):
        pieces.append((b, 0, fr.pi(fr.coord_lin(bd))))
    vs, vds = s.v_pairs
    for vk, vdk in zip(vs, vds):
        pieces.append((vdk, 0, fr.w_lin(g.bracket(s.f, vk))))
    pieces.append((linalg.vec_scale(s.e, 1 / (2 * xx)), 0, fr.w_lin(s.f)))
    assert not loop_sub(q, expected_loop(cfg, pieces))


def test_q_expansion_short(sl4_short):
    cfg = sl4_short
    g, s, fr = cfg.algebra, cfg.setup, cfg.frame
    q = build_q(fr, projected=True)
    pieces = []
    a_basis, a_dual = s.a_pairs
    for b, bd in zip(a_basis, a_dual):
        pieces.append((b, 0, fr.w_lin(bd)))
    us, uds = s.u_pairs
    for uk, ukd in zip(us, uds):
        pieces.append((ukd, 0, fr.w_lin(uk)))
    assert not loop_sub(q, expected_loop(cfg, pieces))


def test_q_completeness_unprojected(sl3_min):
    """(first factor | coordinate vector) reconstructs each coordinate."""
    cfg = sl3_min
    g, fr = cfg.algebra, cfg.frame
    q = build_q(fr, projected=False)
    for pos, b in enumerate(fr.coord_idx):
        acc = fr.coord_ctx.zero()
        for (i, k), coeff in q.terms.items():
            assert k == 0
            c = g.pair(fr.basis[i], fr.basis[b])
            if c:
                acc += coeff.scale(c)
        assert acc == fr.coord_ctx.gen(pos)


# ---------------------------------------------------------------------------
# the dressing recursion: frozen projected values
# ---------------------------------------------------------------------------


def test_minimal_dressing_low_degrees(sl3_min, sl4_min):
    for cfg in (sl3_min, sl4_min):
        g, s, fr = cfg.algebra, cfg.setup, cfg.frame
        U, h, dec = cfg.dressing(4)
        xx = s.xx()
        one = fr.w_ctx.one()
        assert F(1, 2) not in U and F(1) not in U  # pi U_1/2 = pi U_1 = 0
        a_basis, a_dual = s.a_pairs
        want_h0 = expected_loop(
            cfg, [(b, 0, fr.w_lin(bd)) for b, bd in zip(a_basis, a_dual)])
        assert not loop_sub(h[F(0)], want_h0)
        vs, vds = s.v_pairs
        want_u32 = expected_loop(
            cfg,
            [(g.bracket(s.f, vdk), -1, fr.w_lin(g.bracket(s.f, vk)))
             for vk, vdk in zip(vs, vds)])
        assert not loop_sub(U[F(3, 2)], want_u32)
        want_h1 = expected_loop(cfg, [
            (s.f, -1, fr.w_lin(s.f).scale(1 / (4 * xx))),
            (s.e, 0, fr.w_lin(s.f).scale(1 / (4 * xx))),
        ])
        assert not loop_sub(h[F(1)], want_h1)
        want_u2 = expected_loop(cfg, [
            (s.x, -1, fr.w_lin(s.f).scale(-1 / (4 * xx)))])
        assert not loop_sub(U[F(2)], want_u2)
        # pi U_5/2 = -sum v^k (x) d[f,v_k] - sum [a^i, v^k] (x) a_i [f,v_k]
        pieces = []
        for vk, vdk in zip(vs, vds):
            pieces.append((vdk, -1, -fr.w_lin(g.bracket(s.f, vk), 1)))
            for b, bd in zip(a_basis, a_dual):
                pieces.append((
                    g.bracket(bd, vdk), -1,
                    -(fr.w_lin(b) * fr.w_lin(g.bracket(s.f, vk)))))
        assert not loop_sub(U[F(5, 2)], expected_loop(cfg, pieces))
        # pi h_2 = 1/2 sum [[f,v^h],v^k]# (x) [f,v_h][f,v_k]
        pieces = []
        for vh, vdh in zip(vs, vds):
            for vk, vdk in zip(vs, vds):
                head = s.sharp(g.bracket(g.bracket(s.f, vdh), vdk))
                tail = (fr.w_lin(g.bracket(s.f, vh))
                        * fr.w_lin(g.bracket(s.f, vk))).scale(F(1, 2))
                pieces.append((head, -1, tail))
        assert not loop_sub(h[F(2)], expected_loop(cfg, pieces))
        # pi U_3 = (f - ze) z^-2 (x) df / (16(x|x))
        want_u3 = expected_loop(cfg, [
            (s.f, -2, fr.w_lin(s.f, 1).scale(1 / (16 * xx))),
            (s.e, -1, fr.w_lin(s.f, 1).scale(-1 / (16 * xx))),
        ])
        assert not loop_sub(U[F(3)], want_u3)
        # pi h_3 = (f+ze) z^-2 (x) (-f^2/(32(x|x)^2)
        #          - sum [f,v^k] d[f,v_k]/(8(x|x))
        #          - sum [a^i,[f,v^k]] a_i [f,v_k] / (8(x|x)))
        coeff = (fr.w_lin(s.f) * fr.w_lin(s.f)).scale(-1 / (32 * xx * xx))
        for vk, vdk in zip(vs, vds):
            coeff -= (fr.w_lin(g.bracket(s.f, vdk))
                      * fr.w_lin(g.bracket(s.f, vk), 1)).scale(1 / (8 * xx))
            for b, bd in zip(a_basis, a_dual):
                coeff -= (
                    fr.w_lin(g.bracket(bd, g.bracket(s.f, vdk)))
                    * fr.w_lin(b) * fr.w_lin(g.bracket(s.f, vk))
                ).scale(1 / (8 * xx))
        want_h3 = expected_loop(cfg, [(s.f, -2, coeff), (s.e, -1, coeff)])
        assert not loop_sub(h[F(3)], want_h3)


def test_short_dressing_values(sl4_short):
    cfg = sl4_short
    g, s, fr = cfg.algebra, cfg.setup, cfg.frame
    U, h, dec = cfg.dressing(4)
    us, uds = s.u_pairs

    def adf2(v):
        return g.bracket(s.f, g.bracket(s.f, v))

    # pi h_1 = -1/4 sum ((ad f)^2 - 2z) u^k z^-1 (x) u_k
    pieces = []
    for uk, ukd in zip(us, uds):
        pieces.append((adf2(ukd), -1, fr.w_lin(uk).scale(F(-1, 4))))
        pieces.append((ukd, 0, fr.w_lin(uk).scale(F(1, 2))))
    assert not loop_sub(h[F(1)], expected_loop(cfg, pieces))
    # pi U_2 = 1/4 sum [f, u^k] z^-1 (x) u_k
    pieces = [(g.bracket(s.f, ukd), -1, fr.w_lin(uk).scale(F(1, 4)))
              for uk, ukd in zip(us, uds)]
    assert not loop_sub(U[F(2)], expected_loop(cfg, pieces))
    # pi h_2 = 0
    assert F(2) not in h or not h[F(2)]
    # pi h_3 = 1/32 sum_k ((ad f)^2 - 2z) u^k z^-2 (x) sum_h [[f,u^h],u_k] u_h
    pieces = []
    for uk, ukd in zip(us, uds):
        tail = fr.w_ctx.zero()
        for uh, uhd in zip(us, uds):
            tail += fr.w_lin(g.bracket(g.bracket(s.f, uhd), uk)) * fr.w_lin(uh)
        tail = tail.scale(F(1, 32))
        pieces.append((adf2(ukd), -2, tail))
        pieces.append((ukd, -1, tail.scale(-2)))
    assert not loop_sub(h[F(3)], expected_loop(cfg, pieces))


def test_isotropic_dressing_values(sl3_iso):
    cfg = sl3_iso
    g, s, fr = cfg.algebra, cfg.setup, cfg.frame
    U, h, dec = cfg.dressing(3)
    xx = s.xx()
    sv = fr.s
    s_star = s.find_embeddable(sv)
    from wds.lie import EmbeddableData
    data = EmbeddableData(s, sv, s_star)
    gs_half_dual = s._dual_in(data.gs_half, data.gs_half, data.chi)
    # no g_0^s part on sl3, so pi h_0 = 0 and pi h_3/2 = 0
    assert F(0) not in h and F(3, 2) not in h
    # pi U_1 = sum [f,u_k] z^-1 (x) [s,[f,u^k]]
    pieces = [
        (g.bracket(s.f, uk), -1,
         fr.w_lin(g.bracket(sv, g.bracket(s.f, ukd))))
        for uk, ukd in zip(data.gs_half, gs_half_dual)
    ]
    assert not loop_sub(U[F(1)], expected_loop(cfg, pieces))
    # pi h_1/2 = (f + zs) z^-1 (x) s^* / (6(x|x))
    want = expected_loop(cfg, [
        (s.f, -1, fr.w_lin(s_star).scale(1 / (6 * xx))),
        (sv, 0, fr.w_lin(s_star).scale(1 / (6 * xx))),
    ])
    assert not loop_sub(h[F(1, 2)], want)
    # pi U_3/2 = -x z^-1 (x) s^*/(6(x|x)) - sum [s,[f,u^k]] z^-1 (x) [f,u_k]
    pieces = [(s.x, -1, fr.w_lin(s_star).scale(-1 / (6 * xx)))]
    for uk, ukd in zip(data.gs_half, gs_half_dual):
        pieces.append((g.bracket(sv, g.bracket(s.f, ukd)), -1,
                       -fr.w_lin(g.bracket(s.f, uk))))
    assert not loop_sub(U[F(3, 2)], expected_loop(cfg, pieces))
    # pi h_1 = (e + z^-1 s*) (x) (f/(6(x|x))
    #          + sum [s,[f,u_k]][s,[f,u^k]] / (12(x|x)))
    coeff = fr.w_lin(s.f).scale(1 / (6 * xx))
    for uk, ukd in zip(data.gs_half, gs_half_dual):
        coeff += (
            fr.w_lin(s.sharp(g.bracket(sv, g.bracket(s.f, uk))))
            * fr.w_lin(s.sharp(g.bracket(sv, g.bracket(s.f, ukd))))
        ).scale(1 / (12 * xx))
    want = expected_loop(cfg, [(s.e, 0, coeff), (s_star, -1, coeff)])
    assert not loop_sub(h[F(1)], want)


def test_conjugation_oracle(sl3_min, sl4_short, sl3_iso):
    for cfg, deg in ((sl3_min, 4), (sl4_short, 4), (sl3_iso, 3)):
        U, h, dec = cfg.dressing(deg)
        assert not dressing_defect(cfg.frame, U, h, deg)


def test_conjugation_oracle_catches_errors(sl3_min, sl4_short):
    """The oracle's defect is nonzero once any U part is scaled or loses a
    term, and once any h part is dropped."""
    for cfg in (sl3_min, sl4_short):
        fr = cfg.frame
        U, h, dec = cfg.dressing(4)
        for deg, u in U.items():
            first = next(iter(u.terms))
            rest = LoopElement(fr, u.ctx, {key: p for key, p in u.terms.items()
                                           if key != first})
            for bad in (u.scale(2), rest):
                assert dressing_defect(fr, {**U, deg: bad}, h, 4), deg
        for deg in h:
            assert dressing_defect(
                fr, U, {d: el for d, el in h.items() if d != deg}, 4), deg


def reexpanding_solve(frame, max_deg, dec):
    """The solve that re-expands exp(ad U) from scratch at every degree and
    keeps its degree-d component, all in DiffPoly arithmetic: the oracle of
    the incremental series and of the numerator kernel."""
    ctx = frame.w_ctx
    fzs = loop_fzs(frame, ctx)
    D = loop_add(fzs, build_q(frame))
    U_parts, h_parts = {}, {}
    Usum = LoopElement(frame, ctx)
    deg = F(-1, 2)
    while deg <= max_deg:
        if dec.slices.get(deg):
            R = loop_sub(exp_ad_oracle(Usum, D, deg), fzs).component(deg)
            coeffs = [R.terms.get(key, ctx.zero()) for key in dec.slices[deg]]
            h_el, u_el = (
                slice_loop(dec, d, [lin_comb(row, coeffs) for row in
                                    dense(rows, len(coeffs))], ctx)
                for d, rows in ((deg, dec._proj[deg]),
                                (deg + 1, dec._solve[deg])))
            if h_el:
                h_parts[deg] = h_el
            if u_el:
                U_parts[deg + 1] = u_el
                Usum = loop_add(Usum, u_el)
        deg += F(1, 2)
    return U_parts, h_parts


def assert_parts_equal(got, want):
    assert got.keys() == want.keys()
    for deg in want:
        assert got[deg].terms == want[deg].terms, deg


@pytest.mark.parametrize("name, window", [
    ("sl3_min", 6), ("sl3_iso", 4), ("sl4_short", 5), ("sl4_generic", 2),
], ids=["sl3_min", "sl3_iso", "sl4_short", "sl4_generic"])
def test_incremental_solve_matches_reexpansion(name, window, request):
    """solve_dressing forms each degree of each series order once, in
    numerator form; U and h equal, term for term and with canonical
    coefficients, those of the per-degree re-expansion done coefficient by
    coefficient (brackets, -U', the 1/n series and the slice matrices on
    DiffPolys), over Q and over Q(c, s1, s2); and the solve at window m is a
    prefix of the one at window m + 2."""
    cfg = request.getfixturevalue(name)
    U, h, dec = cfg.dressing(window)
    U_ref, h_ref = reexpanding_solve(cfg.frame, window, dec)
    assert_parts_equal(U, U_ref)
    assert_parts_equal(h, h_ref)
    for parts in (U, h):
        for el in parts.values():
            assert_canonical(el.terms.values())
    U_low, h_low, _ = cfg.dressing(window - 2)
    assert_parts_equal(U_low, {d: u for d, u in U.items() if d <= window - 1})
    assert_parts_equal(h_low, {d: v for d, v in h.items() if d <= window - 2})


SPECS = {
    "sl3_min": (3, {"E31": 1}, MINIMAL, None),
    "sl3_iso": (3, {"E31": 1}, MINIMAL, {"E12": 1, "E23": 1}),
    "sl4_short": (4, {"E31": 1, "E42": 1}, SHORT, None),
}


def frame_over_qa(name):
    """The reduction frame of the fixture `name`, built over Q(a) with the
    parameter a unused: every constant a Scalar of Q(a)."""
    n, f_labels, kind, s = SPECS[name]
    g = build_sl(n, params=["a"])
    setup = GradedSetup(g, g.parse(f_labels), kind)
    if s is None:
        return ReductionFrame(setup, setup.e)
    return ReductionFrame(setup, g.parse(s), isotropic=True)


@pytest.mark.parametrize("name, window", [
    ("sl3_min", 6), ("sl3_iso", 4), ("sl4_short", 5),
])
def test_solve_dressing_same_on_scalar_path(name, window, request):
    """solve_dressing agrees term for term, with canonical coefficients,
    whether the numerator kernel runs on integer numerators over Q or on
    Scalar numerators over Q(a) (the path every parameter ring takes), for
    the same reduction with a unused."""
    U, h, _ = request.getfixturevalue(name).dressing(window)
    fr = frame_over_qa(name)
    ring = fr.ring
    U_a, h_a, _ = solve_dressing(fr, window)
    assert U and h and not dressing_defect(fr, U_a, h_a, window)
    for parts, parts_a in ((U, U_a), (h, h_a)):
        assert parts.keys() == parts_a.keys()
        for deg, el in parts.items():
            got = parts_a[deg].terms
            assert got.keys() == el.terms.keys(), deg
            for key, p in el.terms.items():
                assert got[key].coeffs() == {
                    m: ring.const(c) for m, c in p.coeffs().items()}, (deg, key)
            assert_canonical(got.values())


def test_unprojected_solve_matches_projection(sl3_min):
    cfg = sl3_min
    fr = cfg.frame
    U, h, dec = cfg.dressing(3)
    U2, h2, _ = solve_dressing(fr, 3, projected=False, dec=dec)
    assert not dressing_defect(fr, U2, h2, 3, projected=False)
    for parts, parts2 in ((h, h2), (U, U2)):
        for deg, el in parts2.items():
            want = parts.get(deg)
            pied = map_coeffs(el, fr.pi, fr.w_ctx)
            assert dict(pied.terms) == dict(want.terms if want else {})


@pytest.mark.parametrize("name, window", [
    ("sl3_min", 4), ("sl4_short", 4), ("sl4_generic", 2),
], ids=["sl3_min", "sl4_short", "sl4_generic"])
def test_homogeneity_of_solution(name, window, request):
    """Each U part lies in hperp and each h part in the kernel of its slice,
    over Q and over Q(c, s1, s2)."""
    U, h, dec = request.getfixturevalue(name).dressing(window)
    for deg, el in U.items():
        assert not (el - el.component(deg))
        h_el, _ = dec.split(deg, el)
        assert not h_el
    for deg, el in h.items():
        assert not loop_sub(el, el.component(deg))
        h_el, u_el = dec.split(deg, el)
        assert h_el.terms == el.terms and not u_el


def test_window_overflow_error(sl3_min):
    fr = sl3_min.frame
    dec = HDecomposition(fr, F(-1), F(1))
    with pytest.raises(WindowOverflow):
        solve_dressing(fr, 4, dec=dec)


def test_densities_past_the_window_refused(sl2_min, sl3_iso):
    """g_n needs h up to loop degree d_0 + |z_degree| n: past the solved
    window conserved_densities refuses, and with n_max=None it stops at the
    last density the window resolves."""
    cfg = sl2_min
    s = cfg.setup
    U, h, dec = cfg.dressing(4)
    a_z = {0: s.f, 1: s.e}
    with pytest.raises(WindowOverflow) as e:
        conserved_densities(cfg.frame, h, a_z, n_max=2, dec=dec)
    assert e.value.needed == 5
    assert len(conserved_densities(cfg.frame, h, a_z, dec=dec)) == 2
    with pytest.raises(TypeError):  # the window is never optional
        conserved_densities(cfg.frame, h, a_z, n_max=2)
    U, h, dec = cfg.dressing(5)
    dens = conserved_densities(cfg.frame, h, a_z, n_max=2, dec=dec)
    assert dens[2] and dens == conserved_densities(cfg.frame, h, a_z, dec=dec)
    # isotropic: z has loop degree -3/2, so the needed degree is fractional
    cfg = sl3_iso
    U, h, dec = cfg.dressing(4)
    a_z = {0: cfg.setup.f, 1: cfg.frame.s}
    last = len(conserved_densities(cfg.frame, h, a_z, dec=dec)) - 1
    with pytest.raises(WindowOverflow) as e:
        conserved_densities(cfg.frame, h, a_z, n_max=last + 1, dec=dec)
    assert 4 < e.value.needed <= 4 + F(3, 2)


# ---------------------------------------------------------------------------
# the numerator kernel against the coefficient-wise oracle
# ---------------------------------------------------------------------------

MIXED = [F(1, 3), F(-7, 4), F(2, 5), F(1), F(-2), F(3)]
QC = ParamRing(["c"])


def ring_values(ring):
    """Nonzero values of ring: rationals of mixed denominators, and over
    Q(p) also parameters and quotients of them."""
    if not ring.nvars:
        return MIXED
    x, y = ring.param(ring.names[0]), ring.param(ring.names[-1])
    one = ring.one()
    return [ring.const(q) for q in MIXED] + [
        x, y * F(-2, 3), one / (x + one),
        (x + F(1, 2)) / (y - 3), x * y / 5]


def random_poly(draw, ctx, values, min_terms=0):
    """A DiffPoly on ctx, a sum of min_terms to 3 small monomials."""
    p = ctx.zero()
    for _ in range(draw(st.integers(min_terms, 3))):
        mono = ctx.const(draw(st.sampled_from(values)))
        for _ in range(draw(st.integers(0, 2))):
            mono = mono * ctx.gen(draw(st.integers(0, ctx.ngens - 1)),
                                  draw(st.integers(0, 2)))
        p = p + mono
    return p


@st.composite
def loop_elements(draw, frame):
    """A LoopElement on V(g^f) with small monomials and coefficients of
    mixed denominators, and over Q(p) of mixed parameters."""
    ctx = frame.w_ctx
    values = ring_values(frame.ring)
    el = LoopElement(frame, ctx)
    for _ in range(draw(st.integers(1, 5))):
        add_term(el, draw(st.integers(0, len(frame.basis) - 1)),
                 draw(st.integers(-1, 1)), random_poly(draw, ctx, values, 1))
    return el


def assert_canonical(polys):
    """Every DiffPoly is in canonical numerator form: no zero numerator;
    over Q int numerators over a positive int den coprime to them as a
    whole (1 for 0); over Q(p) den 1 and every Scalar numerator in the form
    the canonicalising constructor gives."""
    for p in polys:
        nums = list(p.terms.values())
        assert all(nums)
        if not p.ctx.ring.nvars:
            assert {type(v) for v in nums} <= {int} and type(p.den) is int
            assert math.gcd(p.den, *nums) == 1 and p.den > 0
            continue
        assert p.den == 1
        for c in nums:
            want = Scalar(c.ring, dict(c.num), dict(c.den))
            assert (c.num, c.den, hash(c)) == (want.num, want.den, hash(want))


@pytest.mark.parametrize("name, window, kind", [
    ("sl3_min", 4, F), ("sl4_short", 4, F), ("sl4_generic", 2, Scalar),
])
def test_one_representation_per_ring(name, window, kind, request):
    """Over Q every coefficient is a Fraction, and over Q(c, s1, s2) every
    one is a Scalar: the frame's structure constants and Gram matrix, the
    generator table of W, and the U and h parts of the dressing."""
    cfg = request.getfixturevalue(name)
    fr = cfg.frame
    found = [c for row in fr.struct for entry in row for _, c in entry]
    found += [c for row in fr.gram for c in row]
    polys = [p for pair in cfg.gens.table.entries.values()
             for lam in pair for p in lam.coeffs]
    U, h, _ = cfg.dressing(window)
    polys += [p for parts in (U, h) for el in parts.values()
              for p in el.terms.values()]
    found += [c for p in polys for c in p.coeffs().values()]
    assert polys and found
    assert {type(c) for c in found} == {kind}


@pytest.mark.parametrize("name", ["sl3_min", "sl3_iso", "sl4_short",
                                  "sl4_generic"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_q_bracket_matches_scalar_oracle(name, data, request):
    """The fused bracket and the derivative of LoopElement equal the
    coefficient-wise ones, over Q and over Q(c, s1, s2), drop what cancels,
    and build every coefficient in canonical form.  A drawn element whose
    terms all cancel is empty, and so is its bracket."""
    fr = request.getfixturevalue(name).frame
    X = data.draw(loop_elements(fr))
    Y = data.draw(loop_elements(fr))
    degs = sorted(X.degree_of(a) + Y.degree_of(b)
                  for a in X.terms for b in Y.terms)
    for max_deg in (None, degs[len(degs) // 2]) if degs else (None,):
        got = X.bracket(Y, max_deg)
        assert got.terms == loop_bracket(X, Y, max_deg).terms
        assert_canonical(got.terms.values())
    if not degs:
        assert not got.terms
    got = X.derivative()
    assert got.terms == loop_derivative(X).terms
    assert_canonical(got.terms.values())
    assert not X.bracket(X).terms
    assert not loop_bracket(X, X).terms


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_int_rows_match_lin_comb(data):
    """A slice matrix applied as numerator rows gives the DiffPolys of
    lin_comb, with canonical coefficients, over Q and over Q(c): rows of
    mixed denominators, zero rows, zero entries and coefficients, and rows
    whose contributions cancel."""
    ring = data.draw(st.sampled_from([Q, QC]))
    values = ring_values(ring)
    ctx = Context(ring, ["u", "v"])
    n = data.draw(st.integers(1, 4))
    coeffs = [random_poly(data.draw, ctx, values) for _ in range(n)]
    entry = st.sampled_from(values + [ring.zero()])
    rows = [[data.draw(entry) for _ in range(n)]
            for _ in range(data.draw(st.integers(0, 3)))]
    rows.append([ring.zero()] * n)
    vanish = [len(rows) - 1]
    if n > 1:  # coeffs[1] a multiple of coeffs[0], weighted to cancel it
        q = data.draw(st.sampled_from(values))
        c = data.draw(st.sampled_from(values))
        coeffs[1] = coeffs[0].scale(q)
        rows.append([c, -c / q] + [ring.zero()] * (n - 2))
        vanish.append(len(rows) - 1)
    got = _apply_rows(_num_rows(rows), coeffs)
    assert got == [lin_comb(row, coeffs) for row in rows]
    assert_canonical(got)
    assert not any(got[i] for i in vanish)


def test_scale_by_zero_keeps_no_zero_term(sl3_min):
    """Scaling by 0 leaves no zero term, in the engine's loop arithmetic and
    in the oracle's: the series stops at the first empty order
    (`while cur:`) and the solve keeps only nonempty pieces."""
    fr = sl3_min.frame
    z = loop_fzs(fr, fr.w_ctx)
    zero = loop_scale(z, 0)
    for el in (zero, loop_sub(zero, zero), loop_scale(z, fr.ring.zero()),
               loop_sub(z, z)):
        assert not el and el.terms == {}
    for el in (z.scale(0), -z.scale(0), z - z, z.derivative()):
        assert not el and el.terms == {}
    assert z.scale(F(-2, 3)).terms == loop_scale(z, F(-2, 3)).terms


# ---------------------------------------------------------------------------
# centers, densities and equations
# ---------------------------------------------------------------------------


def test_center_of_h_minimal(sl3_min):
    cfg = sl3_min
    fr, s = cfg.frame, cfg.setup
    U, h, dec = cfg.dressing(4)
    z = center_of_h(fr, dec, [F(0), F(1)])
    assert len(z[F(0)]) == 1  # Z(g_0^f) is one-dimensional for sl_n
    assert len(z[F(1)]) == 1  # the f + ze line
    assert check_central(fr, dec, {0: central_g0f_element(cfg)})
    assert check_central(fr, dec, {0: s.f, 1: s.e})
    assert not check_central(fr, dec, {0: s.x})
    with pytest.raises(InvalidCenter):
        conserved_densities(fr, h, {0: s.x}, dec=dec)


def test_center_of_h_sl2_trivial_even_part(sl2_min):
    cfg = sl2_min
    U, h, dec = cfg.dressing(4)
    z = center_of_h(cfg.frame, dec, [F(0)])
    assert z[F(0)] == []  # g_0^f = 0 for sl2
    assert check_central(cfg.frame, dec, {0: cfg.setup.f, 1: cfg.setup.e})


def test_center_contains_claimed_elements_short(sl4_short):
    cfg = sl4_short
    U, h, dec = cfg.dressing(4)
    assert check_central(cfg.frame, dec, {0: cfg.setup.f, 1: cfg.setup.e})


def test_center_isotropic_cases(sl3_iso):
    cfg = sl3_iso
    s = cfg.setup
    sv = cfg.frame.s
    s_star = s.find_embeddable(sv)
    U, h, dec = cfg.dressing(3)
    assert check_central(cfg.frame, dec, {0: s.f, 1: sv})
    assert check_central(cfg.frame, dec, {0: s.e, -1: s_star})


def test_sl3_densities_and_flows(sl3_min):
    """The full worked example: both density families and all four systems."""
    cfg = sl3_min
    g, s, fr, gens = cfg.algebra, cfg.setup, cfg.frame, cfg.gens
    U, h, dec = cfg.dressing(4)
    a1 = s.basis[s.g0f_indices[0]]  # a1 = -(E11 - 2 E22 + E33)
    dens_a = conserved_densities(fr, h, {0: a1}, n_max=1, dec=dec)
    dens_b = conserved_densities(fr, h, {0: s.f, 1: s.e}, n_max=1, dec=dec)
    wl = fr.w_lin
    A = wl(a1)
    Psi_p, Psi_m = wl(g.parse({"E21": 1})), wl(g.parse({"E32": 1}))
    Lt = wl(s.f)
    assert dens_a[0] == A
    assert dens_a[1] == (Psi_p * Psi_m).scale(-3)
    assert dens_b[0] == Lt
    # int g_1 for f + ze: (psi+ dpsi- - psi- dpsi+)/(4xx)
    #                     - phi psi+ psi- /(8xx^2) - Lt^2/(8xx); phi = -a1
    from wds.diffpoly import functional_equal
    want = (Psi_p * Psi_m.d() - Psi_m * Psi_p.d()).scale(F(1, 2)) \
        + (A * Psi_p * Psi_m).scale(F(1, 2)) - (Lt * Lt).scale(F(1, 4))
    assert functional_equal(dens_b[1], want)

    def flow(n, w, fam, use_k=False):
        dens = dens_a if fam == "a" else dens_b
        return hierarchy_equation(fr, gens, dens[n], w, use_k=use_k)

    L, phi = gens.L, gens.phis[0]
    psi_p, psi_m = gens.psi(g.parse({"E21": 1})), gens.psi(g.parse({"E32": 1}))
    # case a, t_0  (c = a1 = -a flips the sign of the printed system)
    assert flow(0, phi, "a") == fr.w_ctx.zero()
    assert flow(0, L, "a") == fr.w_ctx.zero()
    assert flow(0, psi_p, "a") == Psi_p.scale(3)
    assert flow(0, psi_m, "a") == Psi_m.scale(-3)
    # case a, t_1
    assert flow(1, phi, "a") == fr.w_ctx.zero()
    assert flow(1, L, "a") == (Psi_p * Psi_m).scale(-6).total_derivative()
    got = flow(1, psi_p, "a")
    want = Psi_p.d(2).scale(3) - (Lt * Psi_p).scale(3) \
        - (Psi_p * A.d()).scale(F(3, 2)) - (Psi_p.d() * A).scale(3) \
        + (Psi_p * A * A).scale(F(3, 4))
    assert got == want
    # case b, t_0
    assert flow(0, phi, "b") == fr.w_ctx.zero()
    assert flow(0, L, "b") == Lt.d()
    assert flow(0, psi_p, "b") == Psi_p.d() - (A * Psi_p).scale(F(1, 2))
    assert flow(0, psi_m, "b") == Psi_m.d() + (A * Psi_m).scale(F(1, 2))
    # case b, t_1: the printed system with phi = -a1, Ltilde = Lt
    got = flow(1, psi_p, "b")
    want = (Psi_p.d(3)
            - (A * Psi_p.d(2)).scale(F(3, 2))
            - (Psi_p * A.d(2)).scale(F(1, 2))
            - (A.d() * Psi_p.d()).scale(F(3, 2))
            + (A * A * Psi_p.d()).scale(F(3, 4))
            - (Lt * Psi_p.d()).scale(F(3, 2))
            - (Psi_p * Lt.d()).scale(F(3, 4))
            + (Psi_p * A * A.d()).scale(F(3, 4))
            + (A * Psi_p * Lt).scale(F(3, 4))
            + (Psi_p * Psi_p * Psi_m).scale(F(3, 2))
            - (A * A * A * Psi_p).scale(F(1, 8)))
    assert got == want
    got = flow(1, L, "b")
    want = (Lt.d(3).scale(F(1, 4)) - (Lt * Lt.d()).scale(F(3, 2))
            + (Psi_p * Psi_m.d(2)).scale(F(3, 2))
            - (Psi_p.d(2) * Psi_m).scale(F(3, 2))
            + ((A * Psi_p * Psi_m).total_derivative()).scale(F(3, 2)))
    assert got == want


def test_sl3_reduced_systems(sl3_min):
    """Coupled KdV: the J_K-reduced t_1 system, c = 3/(4(x|x)) = 3/2."""
    cfg = sl3_min
    g, s, fr, gens = cfg.algebra, cfg.setup, cfg.frame, cfg.gens
    U, h, dec = cfg.dressing(4)
    dens_b = conserved_densities(fr, h, {0: s.f, 1: s.e}, n_max=1, dec=dec)
    wl = fr.w_lin
    Psi_p, Psi_m = wl(g.parse({"E21": 1})), wl(g.parse({"E32": 1}))
    Lred = wl(s.f)
    c = F(3, 2)
    got = reduce_mod_jk(fr, hierarchy_equation(
        fr, gens, dens_b[1], gens.psi(g.parse({"E21": 1}))))
    want = Psi_p.d(3) - (Lred * Psi_p.d()).scale(c) \
        - (Psi_p * Lred.d()).scale(c / 2) \
        + (Psi_p * Psi_p * Psi_m).scale(F(2, 3) * c * c)
    assert got == want
    got = reduce_mod_jk(fr, hierarchy_equation(fr, gens, dens_b[1], gens.L))
    want = Lred.d(3).scale(F(1, 4)) - (Lred * Lred.d()).scale(c) \
        + (Psi_p * Psi_m.d(2) - Psi_m * Psi_p.d(2)).scale(c)
    assert got == want
    # K-brackets descend to constants on the quotient:
    # {psi+ psi-}_K = -omega_-(u1,u2) = 2(x|x), {L L}_K = -4(x|x) lambda
    h1, k1 = fr.w_bracket(gens.psi(g.parse({"E21": 1})),
                          gens.psi(g.parse({"E32": 1})))
    kq = reduce_mod_jk(fr, fr.pi(k1.coeff(0)))
    assert kq == fr.w_ctx.one()
    h2, k2 = fr.w_bracket(gens.L, gens.L)
    assert fr.pi(k2.coeff(1)) == fr.w_ctx.const(-2)
    assert not k2.coeff(0)


def test_reduced_case_a_system(sl3_min):
    cfg = sl3_min
    g, s, fr, gens = cfg.algebra, cfg.setup, cfg.frame, cfg.gens
    U, h, dec = cfg.dressing(4)
    a1 = s.basis[s.g0f_indices[0]]
    dens_a = conserved_densities(fr, h, {0: a1}, n_max=1, dec=dec)
    wl = fr.w_lin
    Psi_p, Lred = wl(g.parse({"E21": 1})), wl(s.f)
    got = reduce_mod_jk(fr, hierarchy_equation(
        fr, gens, dens_a[1], gens.psi(g.parse({"E21": 1}))))
    # reduction of psi([c,u])'' - L psi([c,u])/(2(x|x)) with c = -a
    want = Psi_p.d(2).scale(3) - (Lred * Psi_p).scale(3)
    assert got == want


def test_lenard_magri_all_configurations(sl3_min, sl4_min, sl4_short, sl3_iso):
    from wds.hierarchy import involution_cross
    # sl3 minimal, both families + cross involutivity
    for cfg, window in ((sl3_min, 4), (sl4_min, 4)):
        fr, gens, s = cfg.frame, cfg.gens, cfg.setup
        U, h, dec = cfg.dressing(window)
        dens_a = conserved_densities(
            fr, h, {0: central_g0f_element(cfg)}, n_max=1, dec=dec)
        dens_b = conserved_densities(
            fr, h, {0: s.f, 1: s.e}, n_max=1, dec=dec)
        assert verify_lenard_magri(fr, gens, dens_a) == []
        assert verify_lenard_magri(fr, gens, dens_b) == []
        assert involution_cross(fr, gens, dens_a, dens_b) == []
    cfg = sl4_short
    U, h, dec = cfg.dressing(4)
    dens = conserved_densities(
        cfg.frame, h, {0: cfg.setup.f, 1: cfg.setup.e}, n_max=1, dec=dec)
    assert verify_lenard_magri(cfg.frame, cfg.gens, dens) == []
    cfg = sl3_iso
    U, h, dec = cfg.dressing(3)
    s_star = cfg.setup.find_embeddable(cfg.frame.s)
    dens_b = conserved_densities(
        cfg.frame, h, {0: cfg.setup.e, -1: s_star}, n_max=1, dec=dec)
    dens_c = conserved_densities(
        cfg.frame, h, {0: cfg.setup.f, 1: cfg.frame.s}, n_max=1, dec=dec)
    assert verify_lenard_magri(cfg.frame, cfg.gens, dens_b) == []
    assert verify_lenard_magri(cfg.frame, cfg.gens, dens_c) == []
    assert involution_cross(cfg.frame, cfg.gens, dens_b, dens_c) == []


def test_short_svinolupov_reduction(sl4_short):
    cfg = sl4_short
    g, s, fr, gens = cfg.algebra, cfg.setup, cfg.frame, cfg.gens
    U, h, dec = cfg.dressing(4)
    dens = conserved_densities(fr, h, {0: s.f, 1: s.e}, n_max=1, dec=dec)
    us, uds = s.u_pairs
    for i in s.eig_indices(-1):
        u = s.basis[i]
        got = reduce_mod_jk(fr, hierarchy_equation(
            fr, gens, dens[1], gens.psi(u)))
        want = fr.w_lin(u, 3).scale(F(1, 4))
        for uh, uhd in zip(us, uds):
            for uk, ukd in zip(us, uds):
                cstar = g.pair(s.jordan(ukd, uhd, eigen=1), u)
                if cstar:
                    want += (fr.w_lin(uh) * fr.w_lin(uk, 1)).scale(
                        F(3, 4) * cstar)
        assert got == want
        # t_0 flow reduces to a plain translation
        t0 = reduce_mod_jk(fr, hierarchy_equation(fr, gens, dens[0],
                                                  gens.psi(u)))
        assert t0 == fr.w_lin(u, 1)


def test_short_t1_unreduced_phi_is_constant(sl4_short):
    cfg = sl4_short
    U, h, dec = cfg.dressing(4)
    dens = conserved_densities(
        cfg.frame, h, {0: cfg.setup.f, 1: cfg.setup.e}, n_max=1, dec=dec)
    for a in cfg.gens.phi_args:
        for n in (0, 1):
            assert hierarchy_equation(
                cfg.frame, cfg.gens, dens[n], cfg.gens.phi(a)
            ) == cfg.frame.w_ctx.zero()


def test_sl2_kdv(sl2_min):
    """For sl2 both reductions collapse to the KdV equation."""
    cfg = sl2_min
    g, s, fr, gens = cfg.algebra, cfg.setup, cfg.frame, cfg.gens
    U, h, dec = cfg.dressing(4)
    dens = conserved_densities(fr, h, {0: s.f, 1: s.e}, n_max=1, dec=dec)
    Lv = fr.w_lin(s.f)
    got = hierarchy_equation(fr, gens, dens[1], gens.L)
    assert got == Lv.d(3).scale(F(1, 4)) - (Lv * Lv.d()).scale(F(3, 2))
    assert verify_lenard_magri(fr, gens, dens) == []


def test_generic_s_case_c(sl4_generic):
    cfg = sl4_generic
    g, fr, gens = cfg.algebra, cfg.frame, cfg.gens
    U, h, dec = cfg.dressing(2)
    A11v = g.parse({"H1": 1, "H3": 1})
    dens = conserved_densities(fr, h, {0: A11v}, n_max=1, dec=dec)
    assert dens[0] == fr.w_lin(A11v)
    assert verify_lenard_magri(fr, gens, dens) == []



@pytest.mark.parametrize("name, window", [("sl3_min", 5), ("sl3_iso", 4),
                                          ("sl4_short", 5)])
def test_table_path_matches_lift_oracle(name, window, request):
    """The bracket on V(g^f) through the generator table of W equals the
    slow path: lift with pi_inverse, bracket in the coordinate ring, then
    apply pi.  Flows of g_0, g_1, g_2 on every generator, both parts, and
    the full lambda-brackets {g_m lambda g_n} for m + n <= 2 (the lifted
    (1,2) and (2,2) brackets take minutes)."""
    from wds.pva import master_bracket
    from wds.walgebra import _pi_pair
    cfg = request.getfixturevalue(name)
    fr, gens = cfg.frame, cfg.gens
    U, h, dec = cfg.dressing(window)
    dens = conserved_densities(fr, h, {0: cfg.setup.f, 1: fr.s},
                               n_max=2, dec=dec)
    assert len(dens) == 3 and all(dens)
    lifted = [gens.pi_inverse(g) for g in dens]
    for G, g in zip(lifted, dens):
        for wname, w in gens.all_generators():
            slow = fr.w_bracket(G, w)
            for part in (0, 1):
                want = fr.pi(slow[part].at_zero())
                got = hierarchy_equation(fr, gens, g, w, use_k=bool(part))
                assert got == want, (wname, part)
    for m in range(3):
        for n in range(3 - m):
            want = _pi_pair(fr, fr.w_bracket(lifted[m], lifted[n]))
            assert master_bracket(gens.table, dens[m], dens[n]) == want, (m, n)
