import copy
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dense_la
from dense_oracle import dense_of, sparse_of
from involution_oracle import integrand, involution_cross, involutivity
from wds import MINIMAL, SHORT, GradedSetup, build_sl, linalg
from wds.diffpoly import Context, LambdaPoly, dot, gather
from wds.hierarchy import (HDecomposition, InvalidCenter, LoopElement,
                           NotSemisimple, WindowOverflow, bracket_sum, build_q,
                           center_of_h, check_central, conserved_densities,
                           dressing_defect, hierarchy_flow,
                           loop_from_zmap, loop_fzs, reduce_mod_jk,
                           solve_dressing, verify_lenard_magri)
from wds.pva import BracketTable, ReductionFrame
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
    for (i, k), p in zip(dec.slice(deg), coeffs):
        add_term(out, i, k, p)
    return out


def expected_loop(cfg, pieces, ctx=None):
    """Assemble sum of vec z^k (x) coeff into a LoopElement."""
    fr = cfg.frame
    out = LoopElement(fr, ctx or fr.w_ctx)
    for vec, k, coeff in pieces:
        for i, c in fr.to_adapted(vec).items():
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
            for r, c in struct[i][j].items():
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


def dense(cols, nrows):
    """The matrix with the column Vecs cols, as nrows rows of ring
    elements."""
    return [[col.get(i, F(0)) for col in cols] for i in range(nrows)]


def central_g0f_element(cfg):
    g, s = cfg.algebra, cfg.setup
    base = [s.basis[i] for i in s.g0f_indices]
    return linalg.kernel_span(
        base, lambda v: [g.bracket(v, w) for w in base], g.ring)[0]


# ---------------------------------------------------------------------------
# grading of the loop algebra and the kernel/image decomposition
# ---------------------------------------------------------------------------


def test_z_degree(sl3_min, sl4_short, sl3_iso):
    assert sl3_min.frame.z_degree == -2
    assert sl4_short.frame.z_degree == -2
    assert sl3_iso.frame.z_degree == F(-3, 2)


def test_minimal_h_slices(sl3_min):
    """No kernel at half-integer degrees; g_0^f at even, f+ze line at odd."""
    dec = HDecomposition(sl3_min.frame)
    s = sl3_min.setup
    for d in (F(j, 2) for j in range(-2, 9)):
        K = dec.h_basis(d)
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
    K = dec.h_basis(F(1))
    assert len(K) == 1
    k0 = dense_of(K[0], len(co), fr.ring.zero())
    ratio = None
    for c, kc in zip(co, k0):
        if kc:
            ratio = c.const_term() / kc if ratio is None else ratio
    for c, kc in zip(co, k0):
        assert c.const_term() == ratio * kc


def test_short_h_slices(sl4_short):
    """Odd kernel = ((ad f)^2 - 2z) g_1; image side gets ((ad f)^2 + 2z) g_1."""
    cfg = sl4_short
    g, s, fr = cfg.algebra, cfg.setup, cfg.frame
    dec = HDecomposition(fr)
    for i in s.eig_indices(1):
        v = s.basis[i]
        adf2 = g.bracket(s.f, g.bracket(s.f, v))
        el = loop_from_zmap(fr, fr.w_ctx, {-1: adf2}) \
            + loop_from_zmap(fr, fr.w_ctx, {0: linalg.scale(v, F(-2))})
        h_el, u_el = dec.split(F(1), el)
        assert h_el.terms == el.terms and not u_el
        el2 = loop_from_zmap(fr, fr.w_ctx, {-1: adf2}) \
            + loop_from_zmap(fr, fr.w_ctx, {0: linalg.scale(v, F(2))})
        h_el, u_el = dec.split(F(1), el2)
        assert not h_el and u_el


def test_generic_s_h_structure(sl4_generic):
    """Kernel elements have commuting diagonal blocks: [S,A] = [S,B] = 0."""
    cfg = sl4_generic
    g, fr = cfg.algebra, cfg.frame
    dec = HDecomposition(fr)
    # at degree 0 the kernel is 1-dimensional: the A11 direction
    K0 = dec.h_basis(F(0))
    assert len(K0) == 1
    vecs = dec.slice(F(0))
    assert all(k == 0 for _, k in vecs)
    v = linalg.combine(K0[0], [fr.basis[i] for i, _ in vecs])
    want = g.parse({"H1": 1, "H3": 1})
    ratio = next(v[i] / w for i, w in want.items())
    assert v == linalg.scale(want, ratio)
    # odd kernel at degree 1 is 2-dimensional (diagonal B blocks)
    assert len(dec.h_basis(F(1))) == 2


def test_not_semisimple_rejected(sl3_min):
    setup = sl3_min.setup
    fr = ReductionFrame(setup, setup.f)  # f + f is not semisimple
    with pytest.raises(NotSemisimple):
        HDecomposition(fr)


class WindowedDecomposition:
    """The per-degree split of ad(f+zs), the oracle of HDecomposition's one
    split per residue class: for every degree d of the window
    [-1, max_deg + 1] its own slice and ad(f+zs) matrices, the kernel of
    the matrix on slice(d), hperp(d+1) from the pivot columns of the matrix
    on slice(d+2), and one inverse.  h_basis[d], proj[d] and solve[d] are
    dense."""

    def __init__(self, frame, max_deg):
        ring, zd = frame.ring, frame.z_degree
        ad_fzs = ((frame.ad_adapted(frame.setup.f), 0),
                  (frame.ad_adapted(frame.s), 1))
        degs = [F(j, 2) for j in range(-4, 2 * max_deg + 7)]
        self.slices = {d: [(i, int((e - d) / -zd))
                           for i, e in enumerate(frame.eig_of)
                           if ((e - d) / -zd).denominator == 1]
                       for d in degs}
        mats = {}
        for d in degs[2:]:
            dst = {key: p for p, key in enumerate(self.slices[d - 1])}
            cols = []
            for i, k in self.slices[d]:
                col = [ring.zero()] * len(dst)
                for ad, dz in ad_fzs:
                    for r, c in ad[i].items():
                        col[dst[(r, k + dz)]] += c
                cols.append(col)
            mats[d] = dense_la.transpose(cols)
        self.h_basis, self.proj, self.solve = {}, {}, {}
        for d in degs[2:-4]:
            m = len(self.slices[d])
            K = dense_la.kernel(mats[d], ring, m)
            hperp = []  # a greedy rank test on the image columns
            for v in dense_la.transpose(mats[d + 2]):
                if dense_la.rank(hperp + [v]) > len(hperp):
                    hperp.append(v)
            cols = K + [dense_la.mat_vec(mats[d + 1], v, ring) for v in hperp]
            assert len(cols) == m
            T = dense_la.inverse(dense_la.transpose(cols), ring)

            def lift(vecs, rows, n):
                return [[sum((v[i] * r[j] for v, r in zip(vecs, rows)),
                             ring.zero()) for j in range(m)]
                        for i in range(n)]

            self.h_basis[d] = K
            self.proj[d] = lift(K, T[:len(K)], m)
            self.solve[d] = lift(hperp, T[len(K):], len(self.slices[d + 1]))


def sl4_generic_over_q():
    """sl4 short with the generic s = E13 + 3 E24 over Q."""
    g = build_sl(4)
    setup = GradedSetup(g, g.parse({"E31": 1, "E42": 1}), SHORT)
    return ReductionFrame(setup, g.parse({"E13": 1, "E24": 3}))


def columns_of(rows, ncols):
    """The column Vecs of a dense matrix with ncols columns, given by its
    rows."""
    return [sparse_of([row[j] for row in rows]) for j in range(ncols)]


@pytest.mark.parametrize("name", [
    "sl3_min", "sl4_short", "sl3_iso", "sl4_generic", "sl4_generic_q"])
def test_periodic_split_matches_per_degree_split(name, request):
    """At every loop degree -1 .. 9 the split shifted in z from its residue
    class has the slice keys, the kernel basis and the projection and solve
    rows of the split built at that degree, exactly; over Q and over
    Q(c, s1, s2), with period 2 and, isotropic, 3/2."""
    fr = (sl4_generic_over_q() if name == "sl4_generic_q"
          else request.getfixturevalue(name).frame)
    dec = HDecomposition(fr)
    oracle = WindowedDecomposition(fr, 8)
    assert len(dec.classes) == 2 * -fr.z_degree
    assert sorted(oracle.h_basis) == [F(j, 2) for j in range(-2, 19)]
    for d in oracle.h_basis:
        _, proj, solve = dec._splits[dec.residue(d)[0]]
        assert dec.slice(d) == oracle.slices[d], d
        assert [dense_of(v, len(dec.slice(d)), fr.ring.zero())
                for v in dec.h_basis(d)] == oracle.h_basis[d], d
        assert proj == columns_of(oracle.proj[d], len(dec.slice(d))), d
        assert solve == columns_of(oracle.solve[d], len(dec.slice(d))), d


def test_decomposition_does_not_grow_with_depth(sl2_min, sl3_min, sl4_short,
                                                sl3_iso, monkeypatch):
    """HDecomposition makes one split, one inverse, per residue class: 4
    for s in g_1 and 3 for the isotropic s in g_1/2; solves of any depth
    that share it make no further split."""
    calls = []
    inverse = linalg.inverse
    monkeypatch.setattr(linalg, "inverse",
                        lambda cols, ring: calls.append(1) or inverse(cols, ring))
    for cfg, splits in ((sl4_short, 4), (sl3_min, 4), (sl3_iso, 3)):
        calls.clear()
        HDecomposition(cfg.frame)
        assert len(calls) == splits
    fr = sl2_min.frame
    calls.clear()
    dec = HDecomposition(fr)
    for max_deg in (4, 8):
        assert solve_dressing(fr, max_deg, dec=dec).dec is dec
    assert len(calls) == 4


@pytest.mark.parametrize("name", ["sl2_min", "sl4_short"])
@pytest.mark.parametrize("deg", [F(-1, 2), F(1, 2)],
                         ids=["deg_minus_half", "deg_half"])
def test_split_of_an_empty_slice(name, deg, request):
    """A degree whose slice is empty splits into two empty loop elements
    over the element's context."""
    fr = request.getfixturevalue(name).frame
    dec = HDecomposition(fr)
    assert dec.slice(deg) == []
    h, u = dec.split(deg, LoopElement(fr, fr.w_ctx))
    assert (h.ctx, h.terms, u.ctx, u.terms) == (fr.w_ctx, {}, fr.w_ctx, {})


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
    pieces.append((linalg.scale(s.e, 1 / (2 * xx)), 0, fr.w_lin(s.f)))
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
        dr = cfg.dressing(4)
        xx = s.xx()
        one = fr.w_ctx.one()
        assert F(1, 2) not in dr.U and F(1) not in dr.U  # pi U_1/2 = pi U_1 = 0
        a_basis, a_dual = s.a_pairs
        want_h0 = expected_loop(
            cfg, [(b, 0, fr.w_lin(bd)) for b, bd in zip(a_basis, a_dual)])
        assert not loop_sub(dr.h[F(0)], want_h0)
        vs, vds = s.v_pairs
        want_u32 = expected_loop(
            cfg,
            [(g.bracket(s.f, vdk), -1, fr.w_lin(g.bracket(s.f, vk)))
             for vk, vdk in zip(vs, vds)])
        assert not loop_sub(dr.U[F(3, 2)], want_u32)
        want_h1 = expected_loop(cfg, [
            (s.f, -1, fr.w_lin(s.f).scale(1 / (4 * xx))),
            (s.e, 0, fr.w_lin(s.f).scale(1 / (4 * xx))),
        ])
        assert not loop_sub(dr.h[F(1)], want_h1)
        want_u2 = expected_loop(cfg, [
            (s.x, -1, fr.w_lin(s.f).scale(-1 / (4 * xx)))])
        assert not loop_sub(dr.U[F(2)], want_u2)
        # pi U_5/2 = -sum v^k (x) d[f,v_k] - sum [a^i, v^k] (x) a_i [f,v_k]
        pieces = []
        for vk, vdk in zip(vs, vds):
            pieces.append((vdk, -1, -fr.w_lin(g.bracket(s.f, vk), 1)))
            for b, bd in zip(a_basis, a_dual):
                pieces.append((
                    g.bracket(bd, vdk), -1,
                    -(fr.w_lin(b) * fr.w_lin(g.bracket(s.f, vk)))))
        assert not loop_sub(dr.U[F(5, 2)], expected_loop(cfg, pieces))
        # pi h_2 = 1/2 sum [[f,v^h],v^k]# (x) [f,v_h][f,v_k]
        pieces = []
        for vh, vdh in zip(vs, vds):
            for vk, vdk in zip(vs, vds):
                head = s.sharp(g.bracket(g.bracket(s.f, vdh), vdk))
                tail = (fr.w_lin(g.bracket(s.f, vh))
                        * fr.w_lin(g.bracket(s.f, vk))).scale(F(1, 2))
                pieces.append((head, -1, tail))
        assert not loop_sub(dr.h[F(2)], expected_loop(cfg, pieces))
        # pi U_3 = (f - ze) z^-2 (x) df / (16(x|x))
        want_u3 = expected_loop(cfg, [
            (s.f, -2, fr.w_lin(s.f, 1).scale(1 / (16 * xx))),
            (s.e, -1, fr.w_lin(s.f, 1).scale(-1 / (16 * xx))),
        ])
        assert not loop_sub(dr.U[F(3)], want_u3)
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
        assert not loop_sub(dr.h[F(3)], want_h3)


def test_short_dressing_values(sl4_short):
    cfg = sl4_short
    g, s, fr = cfg.algebra, cfg.setup, cfg.frame
    dr = cfg.dressing(4)
    us, uds = s.u_pairs

    def adf2(v):
        return g.bracket(s.f, g.bracket(s.f, v))

    # pi h_1 = -1/4 sum ((ad f)^2 - 2z) u^k z^-1 (x) u_k
    pieces = []
    for uk, ukd in zip(us, uds):
        pieces.append((adf2(ukd), -1, fr.w_lin(uk).scale(F(-1, 4))))
        pieces.append((ukd, 0, fr.w_lin(uk).scale(F(1, 2))))
    assert not loop_sub(dr.h[F(1)], expected_loop(cfg, pieces))
    # pi U_2 = 1/4 sum [f, u^k] z^-1 (x) u_k
    pieces = [(g.bracket(s.f, ukd), -1, fr.w_lin(uk).scale(F(1, 4)))
              for uk, ukd in zip(us, uds)]
    assert not loop_sub(dr.U[F(2)], expected_loop(cfg, pieces))
    # pi h_2 = 0
    assert F(2) not in dr.h or not dr.h[F(2)]
    # pi h_3 = 1/32 sum_k ((ad f)^2 - 2z) u^k z^-2 (x) sum_h [[f,u^h],u_k] u_h
    pieces = []
    for uk, ukd in zip(us, uds):
        tail = fr.w_ctx.zero()
        for uh, uhd in zip(us, uds):
            tail += fr.w_lin(g.bracket(g.bracket(s.f, uhd), uk)) * fr.w_lin(uh)
        tail = tail.scale(F(1, 32))
        pieces.append((adf2(ukd), -2, tail))
        pieces.append((ukd, -1, tail.scale(-2)))
    assert not loop_sub(dr.h[F(3)], expected_loop(cfg, pieces))


def test_isotropic_dressing_values(sl3_iso):
    cfg = sl3_iso
    g, s, fr = cfg.algebra, cfg.setup, cfg.frame
    dr = cfg.dressing(3)
    xx = s.xx()
    sv = fr.s
    s_star = s.find_embeddable(sv)
    from wds.lie import EmbeddableData
    data = EmbeddableData(s, sv, s_star)
    gs_half_dual = s.dual_of_gram(
        [{h: c for h, p in enumerate(data.gs_half) if (c := data.chi(p, q))}
         for q in data.gs_half], data.gs_half)
    # no g_0^s part on sl3, so pi h_0 = 0 and pi h_3/2 = 0
    assert F(0) not in dr.h and F(3, 2) not in dr.h
    # pi U_1 = sum [f,u_k] z^-1 (x) [s,[f,u^k]]
    pieces = [
        (g.bracket(s.f, uk), -1,
         fr.w_lin(g.bracket(sv, g.bracket(s.f, ukd))))
        for uk, ukd in zip(data.gs_half, gs_half_dual)
    ]
    assert not loop_sub(dr.U[F(1)], expected_loop(cfg, pieces))
    # pi h_1/2 = (f + zs) z^-1 (x) s^* / (6(x|x))
    want = expected_loop(cfg, [
        (s.f, -1, fr.w_lin(s_star).scale(1 / (6 * xx))),
        (sv, 0, fr.w_lin(s_star).scale(1 / (6 * xx))),
    ])
    assert not loop_sub(dr.h[F(1, 2)], want)
    # pi U_3/2 = -x z^-1 (x) s^*/(6(x|x)) - sum [s,[f,u^k]] z^-1 (x) [f,u_k]
    pieces = [(s.x, -1, fr.w_lin(s_star).scale(-1 / (6 * xx)))]
    for uk, ukd in zip(data.gs_half, gs_half_dual):
        pieces.append((g.bracket(sv, g.bracket(s.f, ukd)), -1,
                       -fr.w_lin(g.bracket(s.f, uk))))
    assert not loop_sub(dr.U[F(3, 2)], expected_loop(cfg, pieces))
    # pi h_1 = (e + z^-1 s*) (x) (f/(6(x|x))
    #          + sum [s,[f,u_k]][s,[f,u^k]] / (12(x|x)))
    coeff = fr.w_lin(s.f).scale(1 / (6 * xx))
    for uk, ukd in zip(data.gs_half, gs_half_dual):
        coeff += (
            fr.w_lin(s.sharp(g.bracket(sv, g.bracket(s.f, uk))))
            * fr.w_lin(s.sharp(g.bracket(sv, g.bracket(s.f, ukd))))
        ).scale(1 / (12 * xx))
    want = expected_loop(cfg, [(s.e, 0, coeff), (s_star, -1, coeff)])
    assert not loop_sub(dr.h[F(1)], want)


def test_conjugation_oracle(sl3_min, sl4_short, sl3_iso):
    for cfg, deg in ((sl3_min, 4), (sl4_short, 4), (sl3_iso, 3)):
        assert not dressing_defect(cfg.dressing(deg))


def test_conjugation_oracle_catches_errors(sl3_min, sl4_short):
    """The oracle's defect is nonzero once any U part is scaled or loses a
    term, and once any h part is dropped."""
    for cfg in (sl3_min, sl4_short):
        fr = cfg.frame
        dr = cfg.dressing(4)
        for deg, u in dr.U.items():
            first = next(iter(u.terms))
            rest = LoopElement(fr, u.ctx, {key: p for key, p in u.terms.items()
                                           if key != first})
            for bad in (loop_scale(u, 2), rest):
                assert dressing_defect(dr._replace(U={**dr.U, deg: bad})), deg
        for deg in dr.h:
            assert dressing_defect(dr._replace(
                h={d: el for d, el in dr.h.items() if d != deg})), deg


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
        if dec.slice(deg):
            R = loop_sub(exp_ad_oracle(Usum, D, deg), fzs).component(deg)
            coeffs = [R.terms.get(key, ctx.zero()) for key in dec.slice(deg)]
            _, proj, solve = dec._splits[dec.residue(deg)[0]]
            h_el, u_el = (
                slice_loop(dec, d, [lin_comb(row, coeffs) for row in
                                    dense(cols, len(dec.slice(d)))], ctx)
                for d, cols in ((deg, proj), (deg + 1, solve)))
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
    dr = cfg.dressing(window)
    U_ref, h_ref = reexpanding_solve(cfg.frame, window, dr.dec)
    assert_parts_equal(dr.U, U_ref)
    assert_parts_equal(dr.h, h_ref)
    for parts in (dr.U, dr.h):
        for el in parts.values():
            assert_canonical(el.terms.values())
    low = cfg.dressing(window - 2)
    assert_parts_equal(low.U, {d: u for d, u in dr.U.items()
                               if d <= window - 1})
    assert_parts_equal(low.h, {d: v for d, v in dr.h.items()
                               if d <= window - 2})


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
    dr = request.getfixturevalue(name).dressing(window)
    fr = frame_over_qa(name)
    ring = fr.ring
    dr_a = solve_dressing(fr, window)
    assert dr.U and dr.h and not dressing_defect(dr_a)
    for parts, parts_a in ((dr.U, dr_a.U), (dr.h, dr_a.h)):
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
    dr = cfg.dressing(3)
    dr2 = solve_dressing(fr, 3, projected=False, dec=dr.dec)
    assert dr2.ctx is fr.coord_ctx and not dressing_defect(dr2)
    for parts, parts2 in ((dr.h, dr2.h), (dr.U, dr2.U)):
        for deg, el in parts2.items():
            want = parts.get(deg)
            pied = map_coeffs(el, fr.pi, fr.w_ctx)
            assert dict(pied.terms) == dict(want.terms if want else {})


def test_unprojected_densities_match_projection(sl3_min):
    """The densities of an unprojected Dressing are paired in its coordinate
    ring, where they print, and pi maps them onto the projected ones, for
    both families of sl3 minimal."""
    cfg = sl3_min
    fr = cfg.frame
    dr, dr2 = cfg.dressing(4), cfg.dressing(4, projected=False)
    for a_z in ({0: central_g0f_element(cfg)}, {0: fr.setup.f, 1: fr.s}):
        want = conserved_densities(dr, a_z)
        got = conserved_densities(dr2, a_z)
        assert len(want) >= 2 and all(want)
        assert all(g.ctx is fr.coord_ctx and str(g) for g in got)
        assert [fr.pi(g) for g in got] == want


def test_solve_dressing_keeps_h_at_index_1(sl2_min):
    """A Dressing is a tuple with h at index 1: the benchmark's tracer
    (perfbench/tracer.py, h_terms) reads the solve's h as result[1]."""
    dr = solve_dressing(sl2_min.frame, 2)
    assert dr[1] is dr.h and dr.max_deg == 2


@pytest.mark.parametrize("name, window", [
    ("sl3_min", 4), ("sl4_short", 4), ("sl4_generic", 2),
], ids=["sl3_min", "sl4_short", "sl4_generic"])
def test_homogeneity_of_solution(name, window, request):
    """Each U part lies in hperp and each h part in the kernel of its slice,
    over Q and over Q(c, s1, s2)."""
    dr = request.getfixturevalue(name).dressing(window)
    for deg, el in dr.U.items():
        assert not (el - el.component(deg))
        h_el, _ = dr.dec.split(deg, el)
        assert not h_el
    for deg, el in dr.h.items():
        assert not loop_sub(el, el.component(deg))
        h_el, u_el = dr.dec.split(deg, el)
        assert h_el.terms == el.terms and not u_el


def test_densities_check_the_solved_degree(sl2_min):
    """conserved_densities checks n_max against the degree h was solved to,
    not against a decomposition that a deeper solve shares."""
    cfg = sl2_min
    fr, s = cfg.frame, cfg.setup
    a_z = {0: s.f, 1: s.e}
    dec = HDecomposition(fr)
    solve_dressing(fr, 6, dec=dec)
    dr = solve_dressing(fr, 4, dec=dec)
    with pytest.raises(WindowOverflow) as e:
        conserved_densities(dr, a_z, n_max=2)
    assert e.value.needed == 5
    dr = solve_dressing(fr, 5, dec=dec)
    g2 = conserved_densities(dr, a_z, n_max=2)[2]
    E = fr.w_lin(s.f)
    assert g2 == (E * E.d(2)).scale(F(-1, 16)) + (E * E * E).scale(F(1, 8))


def test_densities_refuse_a_window_past_the_solve(sl3_min):
    """An n_max past dr.max_deg raises WindowOverflow: g_2 of f + ze on sl3
    minimal needs h up to loop degree 5, and a solve to 3 has none of it,
    so it is refused rather than read as 0."""
    fr = sl3_min.frame
    dr = sl3_min.dressing(3)
    a_z = {0: fr.setup.f, 1: fr.s}
    with pytest.raises(WindowOverflow) as e:
        conserved_densities(dr, a_z, n_max=2)
    assert e.value.needed > dr.max_deg
    assert len(conserved_densities(dr, a_z)) == 2


def test_densities_past_the_window_refused(sl2_min, sl3_iso):
    """g_n needs h up to loop degree d_0 + |z_degree| n: past the solved
    window conserved_densities refuses, and with n_max=None it stops at the
    last density the window resolves."""
    cfg = sl2_min
    s = cfg.setup
    dr = cfg.dressing(4)
    a_z = {0: s.f, 1: s.e}
    with pytest.raises(WindowOverflow) as e:
        conserved_densities(dr, a_z, n_max=2)
    assert e.value.needed == 5
    assert len(conserved_densities(dr, a_z)) == 2
    dr = cfg.dressing(5)
    dens = conserved_densities(dr, a_z, n_max=2)
    assert dens[2] and dens == conserved_densities(dr, a_z)
    # isotropic: z has loop degree -3/2, so the needed degree is fractional
    cfg = sl3_iso
    dr = cfg.dressing(4)
    a_z = {0: cfg.setup.f, 1: cfg.frame.s}
    last = len(conserved_densities(dr, a_z)) - 1
    with pytest.raises(WindowOverflow) as e:
        conserved_densities(dr, a_z, n_max=last + 1)
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
    found = [c for row in fr.struct for entry in row for c in entry.values()]
    found += [c for row in fr.gram for c in row.values()]
    polys = [p for pair in cfg.gens.table.entries.values()
             for lam in pair for p in lam.coeffs]
    dr = cfg.dressing(window)
    polys += [p for parts in (dr.U, dr.h) for el in parts.values()
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


@pytest.mark.parametrize("name", ["sl3_min", "sl4_short", "sl4_generic"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bracket_sum_matches_oracle(name, data, request):
    """The fused sum of several brackets over n equals the sum of the
    coefficient-wise brackets scaled by 1/n, over Q and over Q(c, s1, s2),
    with and without a degree cap, in canonical form; empty operands
    contribute nothing."""
    fr = request.getfixturevalue(name).frame
    pairs = [(data.draw(loop_elements(fr)), data.draw(loop_elements(fr)))
             for _ in range(data.draw(st.integers(1, 3)))]
    pairs.append((LoopElement(fr, fr.w_ctx), pairs[0][1]))
    n = data.draw(st.integers(1, 5))
    degs = sorted(x.degree_of(a) + y.degree_of(b)
                  for x, y in pairs for a in x.terms for b in y.terms)
    for max_deg in (None, degs[len(degs) // 2]) if degs else (None,):
        want = LoopElement(fr, fr.w_ctx)
        for x, y in pairs:
            want = loop_add(want, loop_bracket(x, y, max_deg))
        got = bracket_sum(fr, fr.w_ctx, pairs, n, max_deg)
        assert got.terms == loop_scale(want, F(1, n)).terms
        assert_canonical(got.terms.values())
    assert not bracket_sum(fr, fr.w_ctx, [], n).terms


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gather_matches_diffpoly_arithmetic(data):
    """gather gives, key by key, the sum of c * a * b that DiffPoly
    arithmetic forms one scale, product and sum at a time, with canonical
    coefficients, the keys in the order they first appear and no key whose
    sum vanishes, over Q and over Q(c).  A slice matrix applied by columns
    (b None): rows of mixed denominators, zero rows, zero entries and
    coefficients, and rows whose contributions cancel.  Product jobs on
    several keys, a key repeated, b None and zero operands; and dot, the
    one-key case."""
    ring = data.draw(st.sampled_from([Q, QC]))
    values = ring_values(ring)
    ctx = Context(ring, ["u", "v"])
    zero = ctx.zero()
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
    got = gather(ctx, [(p, None, [(i, row[j]) for i, row in enumerate(rows)])
                       for j, p in enumerate(coeffs)])
    want = [lin_comb(row, coeffs) for row in rows]
    assert got == {i: p for i, p in enumerate(want) if p}
    assert list(got) == [i for i, p in enumerate(want) if p]
    assert_canonical(got.values())
    assert not any(i in got for i in vanish)
    jobs, want = [], {}
    for _ in range(data.draw(st.integers(0, 4))):
        a = random_poly(data.draw, ctx, values)
        b = data.draw(st.sampled_from(
            [None, zero, random_poly(data.draw, ctx, values, 1)]))
        scaled = [(k, data.draw(entry)) for k in data.draw(
            st.lists(st.integers(0, 2), max_size=3))]
        jobs.append((a, b, scaled))
        for k, c in scaled:
            want[k] = want.get(k, zero) + (a if b is None else a * b).scale(c)
    got = gather(ctx, jobs)
    assert list(got.items()) == [(k, p) for k, p in want.items() if p]
    assert_canonical(got.values())
    pairs = [(a, b) for a, b, _ in jobs if b is not None]
    got = dot(ctx, pairs)
    assert got == sum((a * b for a, b in pairs), zero)
    assert_canonical([got])


def test_scale_by_zero_keeps_no_zero_term(sl3_min):
    """Loop arithmetic that cancels leaves no zero term: the oracle's
    scaling by 0 and differences, and the engine's differences, derivative
    of a constant loop and fused brackets, with 1/n, that cancel.  So the
    series stops at the first empty order (`while cur:`) and the solve
    keeps only nonempty pieces."""
    fr = sl3_min.frame
    z = loop_fzs(fr, fr.w_ctx)
    zero = loop_scale(z, 0)
    for el in (zero, loop_sub(zero, zero), loop_scale(z, fr.ring.zero()),
               loop_sub(z, z)):
        assert not el and el.terms == {}
    for el in (z - z, -(z - z), z.derivative(),
               bracket_sum(fr, fr.w_ctx, [(z, z), (z - z, z)], 3)):
        assert not el and el.terms == {}
    q = build_q(fr)
    assert (bracket_sum(fr, fr.w_ctx, [(q, z)], 3).terms
            == loop_scale(loop_bracket(q, z), F(1, 3)).terms)


# ---------------------------------------------------------------------------
# centers, densities and equations
# ---------------------------------------------------------------------------


def test_center_of_h_minimal(sl3_min):
    cfg = sl3_min
    fr, s = cfg.frame, cfg.setup
    dr = cfg.dressing(4)
    dec = dr.dec
    z = center_of_h(fr, dec, [F(0), F(1)])
    assert len(z[F(0)]) == 1  # Z(g_0^f) is one-dimensional for sl_n
    assert len(z[F(1)]) == 1  # the f + ze line
    assert check_central(fr, dec, {0: central_g0f_element(cfg)})
    assert check_central(fr, dec, {0: s.f, 1: s.e})
    assert not check_central(fr, dec, {0: s.x})
    with pytest.raises(InvalidCenter):
        conserved_densities(dr, {0: s.x})


def test_center_of_h_sl2_trivial_even_part(sl2_min):
    cfg = sl2_min
    dec = cfg.dressing(4).dec
    z = center_of_h(cfg.frame, dec, [F(0)])
    assert z[F(0)] == []  # g_0^f = 0 for sl2
    assert check_central(cfg.frame, dec, {0: cfg.setup.f, 1: cfg.setup.e})


def test_center_contains_claimed_elements_short(sl4_short):
    cfg = sl4_short
    dec = cfg.dressing(4).dec
    assert check_central(cfg.frame, dec, {0: cfg.setup.f, 1: cfg.setup.e})


def windowed_center(frame, oracle, d):
    """The center at degree d as the per-degree split finds it: the kernel
    basis of slice(d) against every kernel element of the window."""
    ring, ctx = frame.ring, frame.w_ctx

    def loops(e, vecs):
        return [LoopElement(frame, ctx, {key: ctx.const(c) for key, c in
                                         zip(oracle.slices[e], v) if c})
                for v in vecs]

    all_h = [w for e in sorted(oracle.h_basis)
             for w in loops(e, oracle.h_basis[e])]
    K = oracle.h_basis[d]
    rows = []
    for w in all_h:
        brs = [c.bracket(w).terms for c in loops(d, K)]
        for key in sorted({key for b in brs for key in b}):
            rows.append([b[key].const_term() if key in b else ring.zero()
                         for b in brs])
    return loops(d, [[sum((c * k[i] for c, k in zip(co, K)), ring.zero())
                      for i in range(len(K[0]))]
                     for co in dense_la.kernel(rows, ring, len(K))])


@pytest.mark.parametrize("name", ["sl3_min", "sl4_min"])
def test_center_of_h_at_every_degree(name, request):
    """center_of_h answers at any loop degree, from the kernel bases of one
    period: at 0, 1, 2, 6 and 7 it gives the centers the per-degree split
    over [-1, 9] finds, and those at 6 and 7 are the z^-3 shifts of those
    at 0 and 1."""
    fr = request.getfixturevalue(name).frame
    degs = [F(d) for d in (0, 1, 2, 6, 7)]
    z = center_of_h(fr, HDecomposition(fr), degs)
    assert [len(z[d]) for d in degs] == [1] * 5
    oracle = WindowedDecomposition(fr, 8)
    for d in degs:
        got = [c.terms for c in z[d]]
        assert got == [c.terms for c in windowed_center(fr, oracle, d)], d
        if d >= 6:
            assert got == [{(i, k - 3): p for (i, k), p in c.terms.items()}
                           for c in z[d - 6]]


def test_center_isotropic_cases(sl3_iso):
    cfg = sl3_iso
    s = cfg.setup
    sv = cfg.frame.s
    s_star = s.find_embeddable(sv)
    dec = cfg.dressing(3).dec
    assert check_central(cfg.frame, dec, {0: s.f, 1: sv})
    assert check_central(cfg.frame, dec, {0: s.e, -1: s_star})


def test_sl3_densities_and_flows(sl3_min):
    """The full worked example: both density families and all four systems."""
    cfg = sl3_min
    g, s, fr, gens = cfg.algebra, cfg.setup, cfg.frame, cfg.gens
    dr = cfg.dressing(4)
    a1 = s.basis[s.g0f_indices[0]]  # a1 = -(E11 - 2 E22 + E33)
    dens_a = conserved_densities(dr, {0: a1}, n_max=1)
    dens_b = conserved_densities(dr, {0: s.f, 1: s.e}, n_max=1)
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

    def flow(n, w, fam):
        dens = dens_a if fam == "a" else dens_b
        return hierarchy_flow(fr, gens, dens[n])(w)

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
    dr = cfg.dressing(4)
    dens_b = conserved_densities(dr, {0: s.f, 1: s.e}, n_max=1)
    wl = fr.w_lin
    Psi_p, Psi_m = wl(g.parse({"E21": 1})), wl(g.parse({"E32": 1}))
    Lred = wl(s.f)
    c = F(3, 2)
    got = reduce_mod_jk(fr, hierarchy_flow(fr, gens, dens_b[1])(
        gens.psi(g.parse({"E21": 1}))))
    want = Psi_p.d(3) - (Lred * Psi_p.d()).scale(c) \
        - (Psi_p * Lred.d()).scale(c / 2) \
        + (Psi_p * Psi_p * Psi_m).scale(F(2, 3) * c * c)
    assert got == want
    got = reduce_mod_jk(fr, hierarchy_flow(fr, gens, dens_b[1])(gens.L))
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
    dr = cfg.dressing(4)
    a1 = s.basis[s.g0f_indices[0]]
    dens_a = conserved_densities(dr, {0: a1}, n_max=1)
    wl = fr.w_lin
    Psi_p, Lred = wl(g.parse({"E21": 1})), wl(s.f)
    got = reduce_mod_jk(fr, hierarchy_flow(fr, gens, dens_a[1])(
        gens.psi(g.parse({"E21": 1}))))
    # reduction of psi([c,u])'' - L psi([c,u])/(2(x|x)) with c = -a
    want = Psi_p.d(2).scale(3) - (Lred * Psi_p).scale(3)
    assert got == want


def test_lenard_magri_all_configurations(sl3_min, sl4_min, sl4_short, sl3_iso):
    """verify_lenard_magri passes on both families of each configuration,
    and the pairwise integrals it establishes by Lenard's argument vanish:
    within each family and across the two."""
    for cfg, window in ((sl3_min, 4), (sl4_min, 4)):
        fr, gens, s = cfg.frame, cfg.gens, cfg.setup
        dr = cfg.dressing(window)
        dens_a = conserved_densities(
            dr, {0: central_g0f_element(cfg)}, n_max=1)
        dens_b = conserved_densities(dr, {0: s.f, 1: s.e}, n_max=1)
        for dens in (dens_a, dens_b):
            assert verify_lenard_magri(fr, gens, dens) == []
            assert involutivity(gens, dens) == []
        assert involution_cross(gens, dens_a, dens_b) == []
    cfg = sl4_short
    dr = cfg.dressing(4)
    dens = conserved_densities(dr, {0: cfg.setup.f, 1: cfg.setup.e}, n_max=1)
    assert verify_lenard_magri(cfg.frame, cfg.gens, dens) == []
    assert involutivity(cfg.gens, dens) == []
    cfg = sl3_iso
    dr = cfg.dressing(3)
    s_star = cfg.setup.find_embeddable(cfg.frame.s)
    dens_b = conserved_densities(dr, {0: cfg.setup.e, -1: s_star}, n_max=1)
    dens_c = conserved_densities(dr, {0: cfg.setup.f, 1: cfg.frame.s}, n_max=1)
    for dens in (dens_b, dens_c):
        assert verify_lenard_magri(cfg.frame, cfg.gens, dens) == []
        assert involutivity(cfg.gens, dens) == []
    assert involution_cross(cfg.gens, dens_b, dens_c) == []


@pytest.mark.parametrize("name, window, center", [
    ("sl3_min", 5, "f+zs"), ("sl4_generic", 4, {"H1": 1, "H3": 1})],
    ids=["sl3_min", "sl4_generic"])
def test_lenard_magri_longer_chain(name, window, center, request):
    """On a chain of three densities Lenard's argument reaches past
    adjacent indices, and it agrees with the pairwise oracle: both find
    nothing.  a(z) is f + zs on sl3, and the central H1 + H3 of
    test_generic_s_case_c on the symbolic sl4."""
    cfg = request.getfixturevalue(name)
    fr, gens = cfg.frame, cfg.gens
    dr = cfg.dressing(window)
    a_z = ({0: cfg.setup.f, 1: fr.s} if center == "f+zs"
           else {0: cfg.algebra.parse(center)})
    dens = conserved_densities(dr, a_z)
    assert len(dens) == 3 and all(dens)
    assert verify_lenard_magri(fr, gens, dens) == []
    assert involutivity(gens, dens) == []


def _with_entry(table, i, j, h, k):
    """A copy of the generator table with entry (i, j) set to (h, k)."""
    out = BracketTable(table.ctx)
    out.entries = dict(table.entries)
    out.entries[(i, j)] = (h, k)
    return out


@pytest.mark.parametrize("part", [0, 1])
def test_lenard_magri_names_a_non_skew_entry(sl3_min, part):
    """Entry (j, i) of the W table, moved off the skew of entry (i, j) in
    one part, is named by verify_lenard_magri, and no other pair is."""
    fr, table = sl3_min.frame, sl3_min.gens.table
    dr = sl3_min.dressing(4)
    dens = conserved_densities(dr, {0: fr.setup.f, 1: fr.s}, n_max=1)
    i, j = 0, 1
    moved = list(table.get(j, i))
    moved[part] = moved[part] + LambdaPoly(table.ctx, [table.ctx.gen(i)])
    gens = copy.copy(sl3_min.gens)
    gens.table = _with_entry(table, j, i, *moved)
    want = f"W table skew ({table.ctx.labels[i]},{table.ctx.labels[j]})"
    bad = verify_lenard_magri(fr, gens, dens)
    assert [line for line in bad if "skew" in line] == [want]
    assert verify_lenard_magri(fr, gens, []) == [want]
    assert verify_lenard_magri(fr, sl3_min.gens, dens) == []


def test_lenard_magri_with_no_density(sl3_min):
    """An a(z) whose pairing with h vanishes gives no density, and the chain
    of no density checks only the W table."""
    fr, gens = sl3_min.frame, sl3_min.gens
    dr = sl3_min.dressing(4)
    dens = conserved_densities(dr, {})
    assert dens == []
    assert verify_lenard_magri(fr, gens, dens) == []


@pytest.mark.parametrize("name, window", [
    ("sl2_min", 4), ("sl3_min", 5), ("sl4_min", 4), ("sl4_short", 5),
    ("sl3_iso", 4), ("sl4_generic", 3),
])
def test_left_bracket_oracles_on_densities(name, window, request):
    """On every Tier-1 configuration, for the densities g_n of
    a(z) = f + zs: one LeftBracket per g_n gives exactly the lambda^0
    coefficient of master_bracket(gens.table, g_n, x), both parts, for x
    every density and every generator image, and the oracle's integrand
    sum_j (delta x/delta u_j) R0_j has the same integral."""
    from wds.diffpoly import functional_equal
    from wds.pva import LeftBracket, master_bracket
    cfg = request.getfixturevalue(name)
    fr, gens = cfg.frame, cfg.gens
    dr = cfg.dressing(window)
    dens = conserved_densities(dr, {0: cfg.setup.f, 1: fr.s})
    assert len(dens) >= 2 and all(dens)
    rights = dens + [fr.pi(w) for _, w in gens.all_generators()]
    for g in dens:
        left = LeftBracket(gens.table, g)
        for x in rights:
            full = master_bracket(gens.table, g, x)
            used = {j for m in x.coeffs() for j, _ in m}
            grad = {j: x.gradient().get(j, x.ctx.zero())
                    for j in sorted(used)}
            for part in (0, 1):
                want = full[part].at_zero()
                assert left.at_zero(x, part) == want
                assert functional_equal(integrand(left, grad, part),
                                        want)


def test_lenard_magri_compares_exact_flows(sl3_min):
    """The recursion is checked on flows, which depend on int g_n only:
    adding a total derivative to g_1 keeps every check passing, while
    doubling g_1 breaks the recursion on both sides of it."""
    cfg = sl3_min
    fr, gens = cfg.frame, cfg.gens
    dr = cfg.dressing(5)
    dens = conserved_densities(dr, {0: cfg.setup.f, 1: fr.s})
    assert len(dens) == 3
    assert verify_lenard_magri(fr, gens, dens) == []
    shifted = dens[:1] + [dens[1] + (dens[1] * dens[0]).d(2)] + dens[2:]
    assert verify_lenard_magri(fr, gens, shifted) == []
    bad = verify_lenard_magri(fr, gens, dens[:1] + [dens[1].scale(2)]
                              + dens[2:])
    assert any(line.startswith("recursion n=0 fails") for line in bad)
    assert any(line.startswith("recursion n=1 fails") for line in bad)


def test_short_svinolupov_reduction(sl4_short):
    cfg = sl4_short
    g, s, fr, gens = cfg.algebra, cfg.setup, cfg.frame, cfg.gens
    dr = cfg.dressing(4)
    dens = conserved_densities(dr, {0: s.f, 1: s.e}, n_max=1)
    us, uds = s.u_pairs
    for i in s.eig_indices(-1):
        u = s.basis[i]
        got = reduce_mod_jk(fr, hierarchy_flow(fr, gens, dens[1])(gens.psi(u)))
        want = fr.w_lin(u, 3).scale(F(1, 4))
        for uh, uhd in zip(us, uds):
            for uk, ukd in zip(us, uds):
                cstar = g.pair(s.jordan(ukd, uhd, eigen=1), u)
                if cstar:
                    want += (fr.w_lin(uh) * fr.w_lin(uk, 1)).scale(
                        F(3, 4) * cstar)
        assert got == want
        # t_0 flow reduces to a plain translation
        t0 = reduce_mod_jk(fr, hierarchy_flow(fr, gens, dens[0])(gens.psi(u)))
        assert t0 == fr.w_lin(u, 1)


def test_short_t1_unreduced_phi_is_constant(sl4_short):
    cfg = sl4_short
    dr = cfg.dressing(4)
    dens = conserved_densities(dr, {0: cfg.setup.f, 1: cfg.setup.e}, n_max=1)
    for a in cfg.gens.phi_args:
        for n in (0, 1):
            assert hierarchy_flow(cfg.frame, cfg.gens, dens[n])(
                cfg.gens.phi(a)) == cfg.frame.w_ctx.zero()


def test_sl2_kdv(sl2_min):
    """For sl2 both reductions collapse to the KdV equation."""
    cfg = sl2_min
    g, s, fr, gens = cfg.algebra, cfg.setup, cfg.frame, cfg.gens
    dr = cfg.dressing(4)
    dens = conserved_densities(dr, {0: s.f, 1: s.e}, n_max=1)
    Lv = fr.w_lin(s.f)
    got = hierarchy_flow(fr, gens, dens[1])(gens.L)
    assert got == Lv.d(3).scale(F(1, 4)) - (Lv * Lv.d()).scale(F(3, 2))
    assert verify_lenard_magri(fr, gens, dens) == []


def test_generic_s_case_c(sl4_generic):
    cfg = sl4_generic
    g, fr, gens = cfg.algebra, cfg.frame, cfg.gens
    dr = cfg.dressing(2)
    A11v = g.parse({"H1": 1, "H3": 1})
    dens = conserved_densities(dr, {0: A11v}, n_max=1)
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
    from wds.pva import LeftBracket, master_bracket
    from wds.walgebra import _pi_pair
    cfg = request.getfixturevalue(name)
    fr, gens = cfg.frame, cfg.gens
    dr = cfg.dressing(window)
    dens = conserved_densities(dr, {0: cfg.setup.f, 1: fr.s}, n_max=2)
    assert len(dens) == 3 and all(dens)
    lifted = [gens.pi_inverse(g) for g in dens]
    for G, g in zip(lifted, dens):
        for wname, w in gens.all_generators():
            slow = fr.w_bracket(G, w)
            for part in (0, 1):
                want = fr.pi(slow[part].at_zero())
                got = LeftBracket(gens.table, g).at_zero(fr.pi(w), part)
                assert got == want, (wname, part)
    for m in range(3):
        for n in range(3 - m):
            want = _pi_pair(fr, fr.w_bracket(lifted[m], lifted[n]))
            assert master_bracket(gens.table, dens[m], dens[n]) == want, (m, n)
