"""Explicit generators of the classical W-algebra and its bracket tables.

For a minimal nilpotent the generators are the energy-momentum element L,
weight-1 elements phi(a) for a in g_0^f and weight-3/2 elements psi(u) for
u in g_-1/2; for a short nilpotent they are the bare weight-1 elements of
g_0^f and weight-2 elements psi(u) for u in g_-1.  The quotient map pi onto
V(g^f) restricts to an isomorphism on W; pi_inverse substitutes generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import linalg
from .diffpoly import DiffPoly, LambdaPoly
from .lie import MINIMAL, SHORT, coords_in
from .pva import BracketTable, ReductionFrame


class WGenerators:
    def __init__(self, frame: ReductionFrame):
        self.frame = frame
        self.variant = (
            "minimal_isotropic" if frame.isotropic
            else frame.setup.kind
        )
        self.L = self.build_virasoro()
        half = Fraction(-1, 2) if frame.setup.kind == MINIMAL else Fraction(-1)
        self.psi_args = [
            frame.basis[i] for i in frame.w_idx if frame.eig_of[i] == half
        ]
        self.phi_args = [
            frame.basis[i] for i in frame.w_idx if frame.eig_of[i] == 0
        ]
        self.psis = [self.psi(u) for u in self.psi_args]
        self.phis = [self.phi(a) for a in self.phi_args]
        self.Ltilde = self.build_ltilde()
        self._pi_inv_images = self._pi_inverse_images()

    # -- generator formulas ------------------------------------------------

    def build_virasoro(self) -> DiffPoly:
        """L = f + x' + 1/2 sum a_j a^j (+ the g_1/2 tail when present)."""
        fr = self.frame
        setup = fr.setup
        L = fr.coord_lin(setup.f) + fr.coord_lin(setup.x, order=1)
        g0, g0d = setup.g0_pairs
        for b, bd in zip(g0, g0d):
            L += fr.coord_lin(b) * fr.coord_lin(bd) * Fraction(1, 2)
        if fr.isotropic:
            l_side, lp_side = fr.l_pairs
            for vk, vkd in zip(l_side, lp_side):
                L += fr.coord_lin(setup.algebra.bracket(setup.f, vk)) * fr.coord_lin(vkd)
        elif setup.kind == MINIMAL:
            vs, vds = setup.v_pairs
            for vk, vkd in zip(vs, vds):
                L += fr.coord_lin(vkd) * fr.coord_lin(
                    setup.algebra.bracket(setup.f, vk))
                L += fr.coord_lin(vkd) * fr.coord_lin(vk, order=1) * Fraction(1, 2)
        return L

    def phi(self, a) -> DiffPoly:
        """The weight-1 generator over a in g_0^f."""
        fr = self.frame
        setup = fr.setup
        if linalg.vec_is_zero(a):
            return fr.coord_ctx.zero()
        coords_in(setup, a, setup.g0f_indices, "phi argument must lie in g_0^f")
        out = fr.coord_lin(a)
        if setup.kind == SHORT:
            return out
        if fr.isotropic:
            l_side, lp_side = fr.l_pairs
            for vk, vkd in zip(l_side, lp_side):
                out += fr.p_lin(setup.algebra.bracket(a, vk)) \
                    * fr.coord_lin(vkd) * Fraction(1, 2)
        else:
            vs, vds = setup.v_pairs
            for vk, vkd in zip(vs, vds):
                out += fr.coord_lin(setup.algebra.bracket(a, vk)) \
                    * fr.coord_lin(vkd) * Fraction(1, 2)
        return out

    def psi(self, u) -> DiffPoly:
        fr = self.frame
        setup = fr.setup
        g = setup.algebra
        if setup.kind == SHORT:
            self._check_grade(u, Fraction(-1))
            us, uds = setup.u_pairs
            out = fr.coord_lin(u)
            for uk, ukd in zip(us, uds):
                out -= fr.coord_lin(g.bracket(u, ukd)) \
                    * fr.coord_lin(g.bracket(setup.e, uk)) * Fraction(1, 2)
                circ = setup.jordan(u, uk)
                out -= fr.coord_lin(g.bracket(setup.f, ukd)) \
                    * fr.coord_lin(g.bracket(setup.e, circ)) * Fraction(1, 8)
            out += fr.coord_lin(g.bracket(setup.e, u), order=1) * Fraction(1, 2)
            return out
        self._check_grade(u, Fraction(-1, 2))
        if fr.isotropic:
            l_side, lp_side = fr.l_pairs
            out = fr.coord_lin(u)
            for vh, vhd in zip(l_side, lp_side):
                for vk, vkd in zip(l_side, lp_side):
                    inner = g.bracket(g.bracket(u, vh), vk)
                    out += fr.p_lin(inner) * fr.coord_lin(vhd) \
                        * fr.coord_lin(vkd) * Fraction(1, 3)
            for vk, vkd in zip(l_side, lp_side):
                out += fr.coord_lin(g.bracket(u, vk)) * fr.coord_lin(vkd)
            out += fr.p_lin(g.bracket(setup.e, u), order=1)
            return out
        vs, vds = setup.v_pairs
        out = fr.coord_lin(u)
        for vh, vhd in zip(vs, vds):
            for vk, vkd in zip(vs, vds):
                inner = g.bracket(g.bracket(u, vh), vk)
                out += fr.coord_lin(inner) * fr.coord_lin(vhd) \
                    * fr.coord_lin(vkd) * Fraction(1, 3)
        for vk, vkd in zip(vs, vds):
            out += fr.coord_lin(g.bracket(u, vk)) * fr.coord_lin(vkd)
        out += fr.coord_lin(g.bracket(setup.e, u), order=1)
        return out

    def build_ltilde(self) -> DiffPoly:
        fr = self.frame
        a_basis, a_dual = fr.setup.a_pairs
        out = self.L
        for b, bd in zip(a_basis, a_dual):
            out -= self.phi(b) * self.phi(bd) * Fraction(1, 2)
        return out

    # -- the bracket on W itself -----------------------------------------------

    @cached_property
    def table(self) -> BracketTable:
        """The lambda-brackets of W as a generator table on V(g^f).

        Entry (i, j) is pi{pi^-1(w_i) lambda pi^-1(w_j)}.  Since pi is an
        isomorphism of differential algebras W -> V(g^f) and W is closed
        under both brackets, master_bracket on this table gives
        pi{pi^-1(a) lambda pi^-1(b)} for every a, b in V(g^f), with no lift
        to the coordinate ring.  Built on first use.
        """
        fr = self.frame
        table = BracketTable(fr.w_ctx)
        images = self._pi_inv_images
        for i, wi in enumerate(images):
            for j, wj in enumerate(images):
                table.set(i, j, *_pi_pair(fr, fr.w_bracket(wi, wj)))
        return table

    # -- helpers -------------------------------------------------------------

    def _check_grade(self, v, ev: Fraction):
        setup = self.frame.setup
        coords_in(setup, v, setup.eig_indices(ev),
                  f"argument must lie in the {ev} eigenspace")

    # -- the inverse of pi ----------------------------------------------------

    def _pi_inverse_images(self) -> list[DiffPoly]:
        fr = self.frame
        images = []
        for b in fr.w_idx:
            ev = fr.eig_of[b]
            if ev == 0:
                images.append(self.phi(fr.basis[b]))
            elif fr.setup.kind == MINIMAL and ev == Fraction(-1):
                images.append(self.Ltilde)
            else:
                images.append(self.psi(fr.basis[b]))
        return images

    def pi_inverse(self, p: DiffPoly) -> DiffPoly:
        """Substitute a -> phi(a), u -> psi(u) (and f -> Ltilde, minimal)."""
        return p.map_generators(self.frame.coord_ctx, self._pi_inv_images)

    def all_generators(self) -> list[tuple[str, DiffPoly]]:
        fr = self.frame
        named = [("L", self.L)]
        for a, p in zip(self.phi_args, self.phis):
            named.append((f"phi({fr.algebra.vec_str(a)})", p))
        for u, p in zip(self.psi_args, self.psis):
            named.append((f"psi({fr.algebra.vec_str(u)})", p))
        return named


# ---------------------------------------------------------------------------
# closed-form bracket tables
# ---------------------------------------------------------------------------


def _pi_pair(frame: ReductionFrame, hk) -> tuple[LambdaPoly, LambdaPoly]:
    h, k = hk
    return (
        h.map_coeffs(frame.pi, frame.w_ctx),
        k.map_coeffs(frame.pi, frame.w_ctx),
    )


def _lam(frame, *coeffs) -> LambdaPoly:
    return LambdaPoly(frame.w_ctx, list(coeffs))


def _expected_minimal(frame: ReductionFrame, gens: WGenerators):
    """Closed forms for all generator brackets, minimal nilpotent, s = e."""
    setup = frame.setup
    g = setup.algebra
    xx = setup.xx()
    wz = frame.w_ctx.zero()
    piL = frame.pi(gens.L)
    piLt = frame.pi(gens.Ltilde)
    vs, vds = (frame.l_pairs if frame.isotropic else setup.v_pairs)
    if frame.isotropic:
        vs = vs + vds
        vds = vds + [linalg.vec_scale(v, frame.ring.const(-1)) for v in vs[: len(vds)]]

    def wl(v, order=0):
        return frame.w_lin(v, order)

    rows = {}
    rows[("L", "L")] = (
        _lam(frame, piL.d(), piL.scale(2), wz, frame.w_ctx.const(-xx)),
        _lam(frame, wz, frame.w_ctx.const(
            -2 * g.pair(setup.f, frame.s))),
    )
    for a in gens.phi_args:
        rows[("L", ("phi", g.vec_str(a)))] = (
            _lam(frame, wl(a, 1), wl(a)),
            LambdaPoly.zero(frame.w_ctx),
        )
        rows[(("phi", g.vec_str(a)), "L")] = (
            _lam(frame, wz, wl(a)),
            LambdaPoly.zero(frame.w_ctx),
        )
        for b in gens.phi_args:
            rows[(("phi", g.vec_str(a)), ("phi", g.vec_str(b)))] = (
                _lam(frame, wl(g.bracket(a, b)),
                     frame.w_ctx.const(g.pair(a, b))),
                LambdaPoly.zero(frame.w_ctx),
            )
        for u1 in gens.psi_args:
            rows[(("phi", g.vec_str(a)), ("psi", g.vec_str(u1)))] = (
                _lam(frame, wl(g.bracket(a, u1))),
                _lam(frame, frame.w_ctx.const(
                    -g.pair(frame.s, g.bracket(a, u1)))),
            )
            rows[(("psi", g.vec_str(u1)), ("phi", g.vec_str(a)))] = (
                _lam(frame, wl(g.bracket(u1, a))),
                _lam(frame, frame.w_ctx.const(
                    -g.pair(frame.s, g.bracket(u1, a)))),
            )
    for u in gens.psi_args:
        rows[("L", ("psi", g.vec_str(u)))] = (
            _lam(frame, wl(u, 1), wl(u).scale(Fraction(3, 2))),
            LambdaPoly.zero(frame.w_ctx),
        )
        rows[(("psi", g.vec_str(u)), "L")] = (
            _lam(frame, wl(u, 1).scale(Fraction(1, 2)),
                 wl(u).scale(Fraction(3, 2))),
            LambdaPoly.zero(frame.w_ctx),
        )
        for u1 in gens.psi_args:
            om = setup.omega_minus(u, u1)
            quad = frame.w_ctx.zero()
            for vk, vkd in zip(vs, vds):
                quad += frame.w_lin(setup.sharp(g.bracket(u, vkd))) \
                    * frame.w_lin(setup.sharp(g.bracket(u1, vk)))
            mid = frame.w_lin(
                setup.sharp(g.bracket(u, g.bracket(setup.e, u1))))
            h = LambdaPoly(
                frame.w_ctx,
                [
                    quad + mid.d() + piLt.scale(om / (2 * xx)),
                    mid.scale(2),
                    frame.w_ctx.const(-om),
                ],
            )
            k = _lam(frame, frame.w_ctx.const(
                -om * g.pair(frame.s, setup.f) / (2 * xx)))
            rows[(("psi", g.vec_str(u)), ("psi", g.vec_str(u1)))] = (h, k)
    return rows


def _expected_short(frame: ReductionFrame, gens: WGenerators):
    """Closed forms for a short nilpotent and arbitrary s in g_1."""
    setup = frame.setup
    g = setup.algebra
    s = frame.s
    wz = frame.w_ctx.zero()
    us, uds = setup.u_pairs

    def wl(v, order=0):
        return frame.w_lin(v, order)

    def sharp(v):
        return setup.sharp(v)

    rows = {}
    for a in gens.phi_args:
        for b in gens.phi_args:
            rows[(("phi", g.vec_str(a)), ("phi", g.vec_str(b)))] = (
                _lam(frame, wl(g.bracket(a, b)),
                     frame.w_ctx.const(g.pair(a, b))),
                LambdaPoly.zero(frame.w_ctx),
            )
        for u1 in gens.psi_args:
            rows[(("phi", g.vec_str(a)), ("psi", g.vec_str(u1)))] = (
                _lam(frame, wl(g.bracket(a, u1))),
                _lam(frame, frame.w_ctx.const(-g.pair(s, g.bracket(a, u1)))),
            )
            rows[(("psi", g.vec_str(u1)), ("phi", g.vec_str(a)))] = (
                _lam(frame, wl(g.bracket(u1, a))),
                _lam(frame, frame.w_ctx.const(-g.pair(s, g.bracket(u1, a)))),
            )
    for u in gens.psi_args:
        for u1 in gens.psi_args:
            circ_uu1 = setup.jordan(u, u1)
            ad_e = lambda w: g.bracket(setup.e, w)
            hsum = wz
            for uk, ukd in zip(us, uds):
                hsum += wl(setup.jordan(u, uk)) \
                    * wl(sharp(g.bracket(u1, ukd))).scale(Fraction(1, 2))
                hsum -= wl(setup.jordan(u1, uk)) \
                    * wl(sharp(g.bracket(u, ukd))).scale(Fraction(1, 2))
            for uh, uhd in zip(us, uds):
                for uk, ukd in zip(us, uds):
                    hsum += (
                        wl(g.bracket(ad_e(uh), ad_e(uk)))
                        * wl(sharp(g.bracket(u, uhd)))
                        * wl(sharp(g.bracket(u1, ukd)))
                    ).scale(Fraction(1, 4))
            lam0 = hsum - wl(circ_uu1, 1).scale(Fraction(1, 2))
            lam1 = -wl(circ_uu1).scale(1)
            p_crossed = wz
            for uk, ukd in zip(us, uds):
                p_crossed += wl(g.bracket(ad_e(u), ad_e(uk))) \
                    * wl(sharp(g.bracket(u1, ukd)))
            lam0 += p_crossed.d().scale(Fraction(1, 4))
            lam1 += p_crossed.scale(Fraction(1, 2))
            for uk, ukd in zip(us, uds):
                q = wl(sharp(g.bracket(u, ukd)))
                c = wl(g.bracket(ad_e(u1), ad_e(uk)))
                lam0 += (c * q.d()).scale(Fraction(1, 4))
                lam1 += (c * q).scale(Fraction(1, 4))
            brkt = wl(g.bracket(ad_e(u), ad_e(u1)))
            lam0 -= brkt.d(2).scale(Fraction(1, 4))
            lam1 -= brkt.d().scale(Fraction(3, 4))
            lam2 = -brkt.scale(Fraction(3, 4))
            lam3 = frame.w_ctx.const(
                g.pair(setup.e, circ_uu1) * Fraction(1, 4))
            h = LambdaPoly(frame.w_ctx, [lam0, lam1, lam2, lam3])
            kz0 = (
                wl(sharp(g.bracket(ad_e(u), g.bracket(s, u1))))
                - wl(sharp(g.bracket(ad_e(u1), g.bracket(s, u))))
            ).scale(Fraction(-1, 2))
            k = LambdaPoly(
                frame.w_ctx,
                [kz0, frame.w_ctx.const(g.pair(s, circ_uu1))],
            )
            rows[(("psi", g.vec_str(u)), ("psi", g.vec_str(u1)))] = (h, k)
    # L-brackets; L = psi(f) + 1/2 sum a_i a^i
    piL = frame.pi(gens.L)
    for a in gens.phi_args:
        rows[("L", ("phi", g.vec_str(a)))] = (
            _lam(frame, wl(a, 1), wl(a)), LambdaPoly.zero(frame.w_ctx))
    for u in gens.psi_args:
        # the z-part is 2(s|u)z lambda, as forced by the psi-psi bracket at
        # u1 = f together with skew-symmetry
        rows[("L", ("psi", g.vec_str(u)))] = (
            _lam(frame, wl(u, 1), wl(u).scale(2), wz,
                 frame.w_ctx.const(-g.pair(setup.e, u) / 2)),
            _lam(frame, wz, frame.w_ctx.const(-2 * g.pair(s, u))),
        )
    rows[("L", "L")] = (
        _lam(frame, piL.d(), piL.scale(2), wz,
             frame.w_ctx.const(-setup.xx())),
        _lam(frame, wz, frame.w_ctx.const(-2 * g.pair(setup.f, s))),
    )
    return rows


def _expected_isotropic_k(frame: ReductionFrame, gens: WGenerators):
    """K-brackets for a maximal isotropic l and embeddable s in l."""
    g = frame.algebra
    wz = frame.w_ctx.zero()
    s = frame.s
    rows = {}
    rows[("L", "L")] = _lam(frame, wz)
    for a in gens.phi_args:
        rows[("L", ("phi", g.vec_str(a)))] = _lam(frame, wz)
        rows[(("phi", g.vec_str(a)), "L")] = _lam(frame, wz)
        for b in gens.phi_args:
            rows[(("phi", g.vec_str(a)), ("phi", g.vec_str(b)))] = _lam(frame, wz)
        for u1 in gens.psi_args:
            rows[(("phi", g.vec_str(a)), ("psi", g.vec_str(u1)))] = _lam(
                frame, frame.w_ctx.const(g.pair(s, g.bracket(u1, a))))
            rows[(("psi", g.vec_str(u1)), ("phi", g.vec_str(a)))] = _lam(
                frame, frame.w_ctx.const(g.pair(s, g.bracket(a, u1))))
    for u in gens.psi_args:
        rows[("L", ("psi", g.vec_str(u)))] = _lam(
            frame, wz,
            frame.w_ctx.const(g.pair(s, u) * Fraction(-3, 2)))
        rows[(("psi", g.vec_str(u)), "L")] = _lam(
            frame, wz,
            frame.w_ctx.const(g.pair(s, u) * Fraction(-3, 2)))
        for u1 in gens.psi_args:
            rows[(("psi", g.vec_str(u)), ("psi", g.vec_str(u1)))] = _lam(frame, wz)
    return rows


def verify_table(frame: ReductionFrame, gens: WGenerators, which: str,
                 report: dict | None = None) -> list[str]:
    """Compare computed generator brackets with their closed forms.

    Both sides are pushed through pi into V(g^f) and compared exactly.
    Returns a list of mismatch descriptions; empty means full agreement.
    When a report dict is supplied it receives a PASS/FAIL entry per pair.
    """
    named = {"L": gens.L}
    for a, p in zip(gens.phi_args, gens.phis):
        named[("phi", frame.algebra.vec_str(a))] = p
    for u, p in zip(gens.psi_args, gens.psis):
        named[("psi", frame.algebra.vec_str(u))] = p

    if which in ("minimal_generators", "psi_psi_minimal", "isotropic_h_brackets"):
        expected = _expected_minimal(frame, gens)
    elif which in ("short_generators", "psi_psi_short", "L_brackets_short"):
        expected = _expected_short(frame, gens)
    elif which == "isotropic_k_brackets":
        expected = _expected_isotropic_k(frame, gens)
    else:
        raise ValueError(f"unknown table {which}")

    if which == "psi_psi_minimal" or which == "psi_psi_short":
        expected = {k: v for k, v in expected.items()
                    if k[0][0] == "psi" and k[1][0] == "psi"}
    if which == "L_brackets_short":
        expected = {k: v for k, v in expected.items() if "L" in k}

    bad = []
    for (kg, kh), want in expected.items():
        mismatches = []
        got = _pi_pair(frame, frame.w_bracket(named[kg], named[kh]))
        if which == "isotropic_k_brackets":
            if got[1] != want:
                mismatches.append(
                    f"K-bracket ({kg},{kh}): got {got[1]}, want {want}")
        else:
            if got[0] != want[0]:
                mismatches.append(
                    f"H-bracket ({kg},{kh}): got {got[0]}, want {want[0]}")
            if which != "isotropic_h_brackets" and got[1] != want[1]:
                mismatches.append(
                    f"K-bracket ({kg},{kh}): got {got[1]}, want {want[1]}")
        bad.extend(mismatches)
        if report is not None:
            def tag(k):
                return k if isinstance(k, str) else f"{k[0]}({k[1]})"
            report[f"{{{tag(kg)}, {tag(kh)}}}"] = (
                "PASS" if not mismatches else "FAIL")
    return bad
