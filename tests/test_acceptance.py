"""Acceptance suite: one test per criterion, all with exact (zero-tolerance)
comparisons; a PASS line is printed per criterion."""

import random
from fractions import Fraction as F

import pytest

from wds import linalg
from wds.diffpoly import LambdaPoly, functional_equal
from wds.hierarchy import (conserved_densities, dressing_defect,
                           hierarchy_flow, reduce_mod_jk, solve_dressing,
                           verify_lenard_magri)
from wds.lie import GradedSetup, MINIMAL, build_sl, build_sp
from wds.pva import master_bracket, random_element
from wds.walgebra import verify_table

import test_hierarchy as th
from pva_oracle import jacobi_defect, skew_defect
import test_pva as tp


def ok(n, what):
    print(f"\nACCEPTANCE {n:2d} PASS  {what}")


def test_a01_affine_bracket_table_minimal_sl3(sl3_min):
    tp.test_minimal_affine_bracket_table(sl3_min)
    # the f-e entry in its printed form
    fr, s = sl3_min.frame, sl3_min.setup
    h, k = master_bracket(fr.full_table, fr.full_lin(s.f), fr.full_lin(s.e))
    rho_h = h.map_coeffs(fr.rho, fr.coord_ctx)
    want = LambdaPoly(fr.coord_ctx, [
        fr.coord_lin(s.x).scale(-2), fr.coord_ctx.const(2 * s.xx())])
    assert rho_h == want and not k
    ok(1, "twisted affine bracket table on sl3, all grade pairs")


def test_a02_generator_membership(sl3_min, sl4_min, sl4_short):
    for cfg in (sl3_min, sl4_min):
        fr, gens = cfg.frame, cfg.gens
        assert fr.is_in_w(gens.L)
        assert all(fr.is_in_w(p) for p in gens.phis)
        assert all(fr.is_in_w(p) for p in gens.psis)
    fr, gens = sl4_short.frame, sl4_short.gens
    assert fr.is_in_w(gens.L)
    assert all(fr.is_in_w(p) for p in gens.psis)
    ok(2, "phi/psi/L membership for sl3, sl4 minimal and sl4 short")


def test_a03_bracket_tables(sl3_min, sl4_min, sl4_short, sl3_iso):
    for cfg in (sl3_min, sl4_min, sl4_short, sl3_iso):
        tables = verify_table(cfg.frame, cfg.gens)
        assert all(not bad for rows in tables.values()
                   for bad in rows.values()), list(tables)
    ok(3, "generator bracket tables (minimal, short, isotropic)")


@pytest.fixture(scope="module")
def sl3_worked(sl3_min):
    """Named pieces of the sl3 example: a = E11 - 2E22 + E33, psi+-."""
    cfg = sl3_min
    g = cfg.algebra
    a = g.parse({"H1": 1, "H2": -1})
    data = {
        "a": a,
        "phi": cfg.gens.phi(a),
        "psi_p": cfg.gens.psi(g.parse({"E21": 1})),
        "psi_m": cfg.gens.psi(g.parse({"E32": 1})),
        "A": cfg.frame.w_lin(a),
        "Psi_p": cfg.frame.w_lin(g.parse({"E21": 1})),
        "Psi_m": cfg.frame.w_lin(g.parse({"E32": 1})),
        "Lt": cfg.frame.w_lin(cfg.setup.f),
    }
    dr = cfg.dressing(4)
    data["dens_a"] = conserved_densities(dr, {0: a}, n_max=1)
    data["dens_b"] = conserved_densities(
        dr, {0: cfg.setup.f, 1: cfg.setup.e}, n_max=1)
    return data


def test_a04_sl3_worked_example_brackets(sl3_min, sl3_worked):
    cfg, d = sl3_min, sl3_worked
    fr, gens = cfg.frame, cfg.gens
    wz = fr.w_ctx.zero()
    piL = fr.pi(gens.L)

    def got(p, q):
        h, k = fr.w_bracket(p, q)
        return (h.map_coeffs(fr.pi, fr.w_ctx), k.map_coeffs(fr.pi, fr.w_ctx))

    lam = lambda *cs: LambdaPoly(fr.w_ctx, list(cs))
    half = F(1, 2)
    # {L L} = (d+2lam)L - (x|x)lam^3 + 4(x|x) z lam
    assert got(gens.L, gens.L) == (
        lam(piL.d(), piL.scale(2), wz, fr.w_ctx.const(F(-1, 2))),
        lam(wz, fr.w_ctx.const(-2)))
    # {L psi+-} = (d + 3/2 lam) psi+-
    for p, v in ((d["psi_p"], d["Psi_p"]), (d["psi_m"], d["Psi_m"])):
        assert got(gens.L, p) == (lam(v.d(), v.scale(F(3, 2))), lam())
    # {L phi} = (d + lam) phi
    assert got(gens.L, d["phi"]) == (lam(d["A"].d(), d["A"]), lam())
    # {psi+- psi+-} = 0
    assert got(d["psi_p"], d["psi_p"]) == (lam(), lam())
    assert got(d["psi_m"], d["psi_m"]) == (lam(), lam())
    # {psi+ psi-} = -L + phi^2/(6(x|x)) - (d+2lam)phi/2 + 2(x|x)lam^2 - 2(x|x)z
    A = d["A"]
    assert got(d["psi_p"], d["psi_m"]) == (
        lam(-piL + (A * A).scale(F(1, 3)) - A.d().scale(half),
            -A, fr.w_ctx.one()),
        lam(fr.w_ctx.one()))
    # {psi+- phi} = +-3 psi+-
    assert got(d["psi_p"], d["phi"]) == (lam(d["Psi_p"].scale(3)), lam())
    assert got(d["psi_m"], d["phi"]) == (lam(d["Psi_m"].scale(-3)), lam())
    # {phi phi} = 12(x|x) lam
    assert got(d["phi"], d["phi"]) == (lam(wz, fr.w_ctx.const(6)), lam())
    ok(4, "sl3 worked example: the seven generator brackets (part 1/3)")


def test_a04_sl3_worked_example_densities_and_flows(sl3_min, sl3_worked):
    cfg, d = sl3_min, sl3_worked
    fr, gens = cfg.frame, cfg.gens
    A, Psi_p, Psi_m, Lt = d["A"], d["Psi_p"], d["Psi_m"], d["Lt"]
    dens_a, dens_b = d["dens_a"], d["dens_b"]
    assert dens_a[0] == A
    assert dens_a[1] == (Psi_p * Psi_m).scale(3)
    assert dens_b[0] == Lt
    want_g1 = (Psi_p * Psi_m.d() - Psi_m * Psi_p.d()).scale(half_ := F(1, 2)) \
        - (A * Psi_p * Psi_m).scale(F(1, 2)) - (Lt * Lt).scale(F(1, 4))
    assert functional_equal(dens_b[1], want_g1)

    def flow(dens, n, w):
        return hierarchy_flow(fr, gens, dens[n])(w)

    phi, psi_p, psi_m = d["phi"], d["psi_p"], d["psi_m"]
    z = fr.w_ctx.zero()
    # a-family, t_0 and t_1
    assert flow(dens_a, 0, phi) == z and flow(dens_a, 0, gens.L) == z
    assert flow(dens_a, 0, psi_p) == Psi_p.scale(-3)
    assert flow(dens_a, 0, psi_m) == Psi_m.scale(3)
    assert flow(dens_a, 1, phi) == z
    assert flow(dens_a, 1, gens.L) == (Psi_p * Psi_m).scale(6).total_derivative()
    got = flow(dens_a, 1, psi_p)
    piL = fr.pi(gens.L)
    want = (piL * Psi_p).scale(3) - (A * A * Psi_p) \
        - (Psi_p * A.d()).scale(F(3, 2)) - (A * Psi_p.d()).scale(3) \
        - Psi_p.d(2).scale(3)
    assert got == want
    got = flow(dens_a, 1, psi_m)
    want = -(piL * Psi_m).scale(3) + (A * A * Psi_m) \
        - (Psi_m * A.d()).scale(F(3, 2)) - (A * Psi_m.d()).scale(3) \
        + Psi_m.d(2).scale(3)
    assert got == want
    # b-family, t_0 and t_1
    assert flow(dens_b, 0, phi) == z
    assert flow(dens_b, 0, gens.L) == Lt.d()
    assert flow(dens_b, 0, psi_p) == Psi_p.d() + (A * Psi_p).scale(F(1, 2))
    assert flow(dens_b, 0, psi_m) == Psi_m.d() - (A * Psi_m).scale(F(1, 2))
    assert flow(dens_b, 1, phi) == z
    for sign, psi, Psi in ((1, psi_p, Psi_p), (-1, psi_m, Psi_m)):
        got = flow(dens_b, 1, psi)
        want = (Psi.d(3)
                + (A * Psi.d(2)).scale(F(3, 2) * sign)
                + (Psi * A.d(2)).scale(F(1, 2) * sign)
                + (A.d() * Psi.d()).scale(F(3, 2) * sign)
                + (A * A * Psi.d()).scale(F(3, 4))
                - (Lt * Psi.d()).scale(F(3, 2))
                - (Psi * Lt.d()).scale(F(3, 4))
                + (Psi * A * A.d()).scale(F(3, 4))
                - (A * Psi * Lt).scale(F(3, 4) * sign)
                + (Psi * Psi_p * Psi_m).scale(F(3, 2) * sign)
                + (A * A * A * Psi).scale(F(1, 8) * sign))
        assert got == want
    got = flow(dens_b, 1, gens.L)
    want = (Lt.d(3).scale(F(1, 4)) - (Lt * Lt.d()).scale(F(3, 2))
            + (Psi_p * Psi_m.d(2) - Psi_m * Psi_p.d(2)).scale(F(3, 2))
            - (A * Psi_p * Psi_m).total_derivative().scale(F(3, 2)))
    assert got == want
    ok(4, "sl3 worked example: densities and four evolution systems (2/3)")


def test_a04_sl3_reduced_systems(sl3_min, sl3_worked):
    """The quotient by the K-central weight-1 ideal, c fixed by (x|x)=1/2.

    The constant-bracket display holds with c = -3/(4(x|x)); the third-order
    system with c = +3/(4(x|x)); the first reduced flow's psi-line with
    c = 3/(2(x|x)).
    """
    cfg, d = sl3_min, sl3_worked
    fr, gens = cfg.frame, cfg.gens
    Psi_p, Psi_m, Lt = d["Psi_p"], d["Psi_m"], d["Lt"]
    red = lambda p: reduce_mod_jk(fr, p)
    # the reduced K-brackets: {psi+ psi-} = -3/(2c), {L L} = (3/c) lam
    # with c = -3/(4(x|x)) = -3/2
    c_br = F(-3, 2)
    h1, k1 = fr.w_bracket(d["psi_p"], d["psi_m"])
    assert red(fr.pi(k1.coeff(0))) == fr.w_ctx.const(F(-3, 2) / c_br)
    assert not k1.coeff(1)
    hp, kp = fr.w_bracket(d["psi_p"], d["psi_p"])
    assert not kp
    hL, kL = fr.w_bracket(gens.L, gens.L)
    assert red(fr.pi(kL.coeff(1))) == fr.w_ctx.const(F(3, 1) / c_br)
    hLp, kLp = fr.w_bracket(gens.L, d["psi_p"])
    assert not kLp
    # third-order reduced system, c = 3/(4(x|x)) = 3/2
    c = F(3, 2)
    got = red(hierarchy_flow(fr, gens, d["dens_b"][1])(d["psi_p"]))
    assert got == Psi_p.d(3) - (Lt * Psi_p.d()).scale(c) \
        - (Psi_p * Lt.d()).scale(c / 2) \
        + (Psi_p * Psi_p * Psi_m).scale(F(2, 3) * c * c)
    got = red(hierarchy_flow(fr, gens, d["dens_b"][1])(gens.L))
    assert got == Lt.d(3).scale(F(1, 4)) - (Lt * Lt.d()).scale(c) \
        + (Psi_p * Psi_m.d(2) - Psi_m * Psi_p.d(2)).scale(c)
    # first reduced flow (central-element family), psi lines: c = 3/(2(x|x))
    c1 = F(3, 1)
    got = red(hierarchy_flow(fr, gens, d["dens_a"][1])(d["psi_p"]))
    assert got == (Lt * Psi_p).scale(c1) - Psi_p.d(2).scale(3)
    got = red(hierarchy_flow(fr, gens, d["dens_a"][1])(d["psi_m"]))
    assert got == -(Lt * Psi_m).scale(c1) + Psi_m.d(2).scale(3)
    # its L-line: the self-consistent coefficient is 2c, not c/4
    got = red(hierarchy_flow(fr, gens, d["dens_a"][1])(gens.L))
    assert got == (Psi_p * Psi_m).scale(2 * c1).total_derivative()
    ok(4, "sl3 worked example: reduced systems (3/3)")


@pytest.mark.xfail(strict=True, reason=(
    "the printed constant c/4 in the first reduced flow's L-line is "
    "inconsistent with its own psi-line (which fixes c = 3/(2(x|x))); "
    "the computed coefficient is 2c"))
def test_a04_reduced_L_line_exactly_as_printed(sl3_min, sl3_worked):
    cfg, d = sl3_min, sl3_worked
    fr, gens = cfg.frame, cfg.gens
    c1 = F(3, 1)
    got = reduce_mod_jk(fr, hierarchy_flow(fr, gens, d["dens_a"][1])(gens.L))
    assert got == (d["Psi_p"] * d["Psi_m"]).scale(c1 / 4).total_derivative()


def test_a05_dressing_recursion_values(sl3_min, sl4_min, sl4_short, sl3_iso):
    th.test_minimal_dressing_low_degrees(sl3_min, sl4_min)
    th.test_short_dressing_values(sl4_short)
    th.test_isotropic_dressing_values(sl3_iso)
    ok(5, "projected dressing solutions match the closed forms")


def test_a06_oracle_equivalence(sl3_min):
    fr = sl3_min.frame
    dr = solve_dressing(fr, 4, projected=False)
    assert not dressing_defect(dr)
    hp = sl3_min.dressing(4).h
    for deg, el in hp.items():
        got = th.map_coeffs(dr.h[deg], fr.pi, fr.w_ctx)
        assert dict(got.terms) == dict(el.terms)
    ok(6, "incremental conjugation equals the full-exponential oracle")


def test_a07_lenard_magri_and_involutivity(sl3_min, sl4_min, sl4_short,
                                           sl3_iso):
    th.test_lenard_magri_all_configurations(sl3_min, sl4_min, sl4_short,
                                            sl3_iso)
    ok(7, "Lenard-Magri recursion and pairwise involutivity, all configs")


def test_a08_svinolupov_reduction(sl4_short):
    th.test_short_svinolupov_reduction(sl4_short)
    ok(8, "reduced short-hierarchy flow is the Jordan-algebra equation")


def test_a09_structural_counts():
    for n in (3, 4, 5):
        g = build_sl(n)
        s = GradedSetup(g, g.parse({f"E{n}1": 1}), MINIMAL)
        assert s.dual_coxeter() == g.ring.const(n)
        assert len(s.eig_indices(F(1, 2))) == 2 * n - 4
    sp = build_sp(4)
    s = GradedSetup(sp, sp.parse({"C11": 1}), MINIMAL)
    half = s.eig_indices(F(1, 2))
    for i in half:
        assert s.find_embeddable(s.basis[i]) is None
    rng = random.Random(106)
    for _ in range(100):
        v = linalg.combine([sp.ring.const(rng.randint(-3, 3)) for _ in half],
                           [s.basis[i] for i in half])
        assert s.find_embeddable(v) is None
    ok(9, "dim g_1/2 = 2h^v - 4 for sl3..sl5; sp4 has no embeddable s")


def test_a10_randomized_pva_axioms(sl3_min):
    cfg = sl3_min
    fr, gens = cfg.frame, cfg.gens
    rng = random.Random(8128)
    cases = 0
    for _ in range(40):
        g1 = random_element(fr.full_ctx, rng, max_degree=2, max_order=2)
        g2 = random_element(fr.full_ctx, rng, max_degree=2, max_order=2)
        g3 = random_element(fr.full_ctx, rng, max_degree=1, max_order=1)
        dh, dk = skew_defect(fr.full_table, g1, g2)
        assert not dh and not dk
        hp, kp = master_bracket(fr.full_table, g1.total_derivative(), g2)
        h, k = master_bracket(fr.full_table, g1, g2)
        assert hp == -(h.shift()) and kp == -(k.shift())
        hq, kq = master_bracket(fr.full_table, g1, g2.total_derivative())
        assert hq == h.apply_d_plus_lambda() and kq == k.apply_d_plus_lambda()
        lh, lk = master_bracket(fr.full_table, g1, g2 * g3)
        bh, bk = master_bracket(fr.full_table, g1, g2)
        ch, ck = master_bracket(fr.full_table, g1, g3)
        assert lh == bh.mul_poly(g3) + ch.mul_poly(g2)
        assert lk == bk.mul_poly(g3) + ck.mul_poly(g2)
        cases += 4
    for _ in range(15):
        w1 = gens.pi_inverse(random_element(fr.w_ctx, rng, max_degree=2,
                                            max_order=1))
        w2 = gens.pi_inverse(random_element(fr.w_ctx, rng, max_degree=1,
                                            max_order=1))
        w3 = gens.pi_inverse(random_element(fr.w_ctx, rng, max_degree=1,
                                            max_order=0))
        dh, dk = skew_defect(fr.coord_table, w1, w2)
        assert not dh and not dk
        cases += 1
        for parts in ((0, 0), (1, 1), (0, 1)):
            assert jacobi_defect(fr.coord_table, w1, w2, w3, parts) == {}
            cases += 1
    assert cases >= 200
    ok(10, f"randomized PVA axiom suite, {cases} cases, zero failures")


def test_a11_sl4_generic_s(sl4_generic):
    cfg = sl4_generic
    g, fr, gens = cfg.algebra, cfg.frame, cfg.gens
    ring = g.ring
    s1, s2, c = ring.param("s1"), ring.param("s2"), ring.param("c")
    one = ring.one()
    dr = cfg.dressing(2)

    def wl(labels):
        return fr.w_lin(g.parse(labels))

    def loop_of(pieces):
        return th.expected_loop(cfg, [(g.parse(vec), k, coeff)
                                      for vec, k, coeff in pieces])

    A12, A21, A11 = wl({"E12": 1, "E34": 1}), wl({"E21": 1, "E43": 1}), \
        wl({"H1": 1, "H3": 1})
    # h_0 = A11 (x) A11/(4c)
    assert not th.loop_sub(dr.h[F(0)], loop_of(
        [({"H1": 1, "H3": 1}, 0, A11.scale(one / (4 * c)))]))
    # h_1 over the kernel lines (E13 s1 + E31 z^-1) and (E24 s2 + E42 z^-1);
    # the psi coefficients carry the block-swap-symmetric signs
    co1 = (A12 * A21).scale((3 * s1 + s2) / (8 * c * c * s1 * (s1 - s2))) \
        + wl({"E31": 1}).scale(one / (2 * c * s1))
    co2 = (A12 * A21).scale((s1 + 3 * s2) / (8 * c * c * s2 * (s2 - s1))) \
        + wl({"E42": 1}).scale(one / (2 * c * s2))
    want1 = loop_of([({"E13": 1}, 0, co1.scale(s1)), ({"E31": 1}, -1, co1),
                     ({"E24": 1}, 0, co2.scale(s2)), ({"E42": 1}, -1, co2)])
    assert not th.loop_sub(dr.h[F(1)], want1)
    # h_2 = A11 z^-1 (x) [(s1+s2)(c A12'A21 - c A12 A21' - A11A12A21)
    #                     /(4c^3(s1-s2)^2)
    #                     + (A12 psi(E41) + A21 psi(E32))/(2c^2(s1-s2))]
    coh2 = (A12.d() * A21 - A12 * A21.d()).scale(
        (s1 + s2) / (4 * c * c * (s1 - s2) * (s1 - s2))) \
        - (A11 * A12 * A21).scale(
            (s1 + s2) / (4 * c * c * c * (s1 - s2) * (s1 - s2))) \
        + (A12 * wl({"E41": 1}) + A21 * wl({"E32": 1})).scale(
            one / (2 * c * c * (s1 - s2)))
    assert not th.loop_sub(dr.h[F(2)],
                           loop_of([({"H1": 1, "H3": 1}, -1, coh2)]))

    # case (a): a(z) = f + zs; t_0 system
    dens_a = conserved_densities(dr, {0: cfg.setup.f, 1: fr.s}, n_max=0)
    assert functional_equal(
        dens_a[0],
        wl({"E31": 1, "E42": 1}) + (A12 * A21).scale(one / (2 * c)))

    def flow(dens, w):
        return hierarchy_flow(fr, gens, dens)(w)

    a12v = g.parse({"E12": 1, "E34": 1})
    a21v = g.parse({"E21": 1, "E43": 1})
    a11v = g.parse({"H1": 1, "H3": 1})
    assert flow(dens_a[0], gens.phi(a11v)) == fr.w_ctx.zero()
    assert flow(dens_a[0], gens.phi(a12v)) == \
        A12.d() - (A11 * A12).scale(one / (2 * c))
    # the A21 line has the opposite sign of the A11 coupling, as forced by
    # the adjoint action of A11
    assert flow(dens_a[0], gens.phi(a21v)) == \
        A21.d() + (A11 * A21).scale(one / (2 * c))
    for lab, charge in (("E31", 0), ("E32", -1), ("E41", 1), ("E42", 0)):
        got = flow(dens_a[0], gens.psi(g.parse({lab: 1})))
        want = wl({lab: 1}).d() + (A11 * wl({lab: 1})).scale(
            charge * one / (2 * c))
        assert got == want

    # case (c): a(z) = A11
    dens_c = conserved_densities(dr, {0: a11v}, n_max=1)
    assert dens_c[0] == A11
    want_g1 = (A12.d() * A21).scale(2 * (s1 + s2) / (c * (s1 - s2) ** 2 if False else c * (s1 - s2) * (s1 - s2))) \
        - (A11 * A12 * A21).scale((s1 + s2) / (c * c * (s1 - s2) * (s1 - s2))) \
        + (A12 * wl({"E41": 1}) + A21 * wl({"E32": 1})).scale(
            2 * one / (c * (s1 - s2)))
    assert functional_equal(dens_c[1], want_g1)
    assert flow(dens_c[0], gens.phi(a11v)) == fr.w_ctx.zero()
    assert flow(dens_c[0], gens.phi(a12v)) == A12.scale(2)
    assert flow(dens_c[0], gens.phi(a21v)) == A21.scale(-2)
    assert flow(dens_c[0], gens.psi(g.parse({"E31": 1}))) == fr.w_ctx.zero()
    assert flow(dens_c[0], gens.psi(g.parse({"E42": 1}))) == fr.w_ctx.zero()
    assert flow(dens_c[0], gens.psi(g.parse({"E32": 1}))) == \
        wl({"E32": 1}).scale(2)
    assert flow(dens_c[0], gens.psi(g.parse({"E41": 1}))) == \
        wl({"E41": 1}).scale(-2)

    # case (c) reduced t_1 system (A11 generates the K-central ideal)
    P31, P32, P41, P42 = (wl({l: 1}) for l in ("E31", "E32", "E41", "E42"))
    Pf = P31 + P42
    d2 = (s1 - s2) * (s1 - s2)

    def red_flow(w):
        return reduce_mod_jk(fr, flow(dens_c[1], w))

    got = red_flow(gens.phi(a12v))
    want = A12.d(2).scale(4 * (s1 + s2) / d2) \
        - (A12 * A12 * A21).scale(2 * (s1 + s2) / (c * c * d2)) \
        + P32.d().scale(4 / (s1 - s2)) \
        - (A12 * (P31 - P42)).scale(2 / (c * (s1 - s2)))
    assert got == want
    got = red_flow(gens.phi(a21v))
    want = -A21.d(2).scale(4 * (s1 + s2) / d2) \
        + (A12 * A21 * A21).scale(2 * (s1 + s2) / (c * c * d2)) \
        + P41.d().scale(4 / (s1 - s2)) \
        + (A21 * (P31 - P42)).scale(2 / (c * (s1 - s2)))
    assert got == want
    # psi(E31)/psi(E42) rows; the A'psi coefficient is 4 s_i/(c(s1-s2)^2)
    got = red_flow(gens.psi(g.parse({"E31": 1})))
    want = (A12 * P41.d() + A21 * P32.d()).scale(one / (c * (s1 - s2))) \
        + (A12 * A21.d(2) - A12.d(2) * A21).scale(one / (c * (s1 - s2))) \
        + (A12.d() * P41 + A21.d() * P32).scale(4 * s1 / (c * d2))
    assert got == want
    got = red_flow(gens.psi(g.parse({"E42": 1})))
    want = (A12 * P41.d() + A21 * P32.d()).scale(one / (c * (s1 - s2))) \
        + (A12.d(2) * A21 - A12 * A21.d(2)).scale(one / (c * (s1 - s2))) \
        - (A12.d() * P41 + A21.d() * P32).scale(4 * s2 / (c * d2))
    assert got == want
    # psi(E32)/psi(E41) rows; the cubic A-terms carry 4c (the involutivity
    # checks pin this value; 6c would break them)
    got = red_flow(gens.psi(g.parse({"E32": 1})))
    want = (A12.d() * (P42 - P31)).scale(2 * (s1 + s2) / (c * d2)) \
        - (A12 * A21 * P32).scale(2 * (s1 + s2) / (c * c * d2)) \
        + (-A12.d(3).scale(c * c * c * 8)
           + (A12 * A12 * A21.d()).scale(4 * c)
           + (A12.d() * Pf).scale(16 * c * c)
           + (A12 * Pf.d()).scale(8 * c * c)
           - (A12 * A12.d() * A21).scale(4 * c)
           + (P32 * (P42 - P31)).scale(16 * c * c)).scale(
               one / (8 * c * c * c * (s1 - s2)))
    assert got == want
    got = red_flow(gens.psi(g.parse({"E41": 1})))
    # under the block swap the (psi(E42) - psi(E31)) factor flips sign
    want = (A21.d() * (P42 - P31)).scale(2 * (s1 + s2) / (c * d2)) \
        + (A12 * A21 * P41).scale(2 * (s1 + s2) / (c * c * d2)) \
        + (-A21.d(3).scale(c * c * c * 8)
           + (A12.d() * A21 * A21).scale(4 * c)
           + (A21.d() * Pf).scale(16 * c * c)
           + (A21 * Pf.d()).scale(8 * c * c)
           - (A12 * A21 * A21.d()).scale(4 * c)
           + (P41 * (P31 - P42)).scale(16 * c * c)).scale(
               one / (8 * c * c * c * (s1 - s2)))
    assert got == want
    ok(11, "sl4 generic-s example over Q(c,s1,s2): h-parts and systems")
