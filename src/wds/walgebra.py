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

from .diffpoly import DiffPoly, LambdaPoly
from .lie import MINIMAL, SHORT, coords_in
from .pva import BracketTable, LeftBracket, ReductionFrame, _table_partials


class WGenerators:
    def __init__(self, frame: ReductionFrame):
        self.frame = frame
        self.L = self.build_virasoro()
        half = Fraction(-1, 2) if frame.setup.kind == MINIMAL else Fraction(-1)
        phi_idx = [i for i in frame.w_idx if frame.eig_of[i] == 0]
        psi_idx = [i for i in frame.w_idx if frame.eig_of[i] == half]
        self.psi_args = [frame.basis[i] for i in psi_idx]
        self.phi_args = [frame.basis[i] for i in phi_idx]
        self.psis = [self.psi(u) for u in self.psi_args]
        self.phis = [self.phi(a) for a in self.phi_args]
        self.Ltilde = self.build_ltilde()
        # pi^-1 on the generators of V(g^f): a -> phi(a), u -> psi(u), and
        # f -> Ltilde for a minimal nilpotent
        lifts = dict(zip(phi_idx + psi_idx, self.phis + self.psis))
        self._pi_inv_images = [lifts.get(i, self.Ltilde) for i in frame.w_idx]

    # -- generator formulas ------------------------------------------------

    def build_virasoro(self) -> DiffPoly:
        """L = f + x' + 1/2 sum a_j a^j (+ the g_1/2 tail when minimal)."""
        fr = self.frame
        setup = fr.setup
        L = fr.coord_lin(setup.f) + fr.coord_lin(setup.x, order=1)
        g0, g0d = setup.g0_pairs
        for b, bd in zip(g0, g0d):
            L += fr.coord_lin(b) * fr.coord_lin(bd) * Fraction(1, 2)
        if setup.kind == MINIMAL:
            # v_k' vanishes in the coordinate ring when v_k lies in l
            for vk, vkd in zip(*fr.half_pairs):
                L += fr.coord_lin(vkd) * fr.coord_lin(
                    setup.algebra.bracket(setup.f, vk))
                L += fr.coord_lin(vkd) * fr.p_lin(vk, order=1) * Fraction(1, 2)
        return L

    def phi(self, a) -> DiffPoly:
        """The weight-1 generator over a in g_0^f."""
        fr = self.frame
        setup = fr.setup
        if not a:
            return fr.coord_ctx.zero()
        coords_in(setup, a, setup.g0f_indices, "phi argument must lie in g_0^f")
        out = fr.coord_lin(a)
        if setup.kind == MINIMAL:
            for vk, vkd in zip(*fr.half_pairs):
                out += fr.p_lin(setup.algebra.bracket(a, vk)) \
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
        vs, vds = fr.half_pairs
        out = fr.coord_lin(u)
        for vh, vhd in zip(vs, vds):
            for vk, vkd in zip(vs, vds):
                inner = g.bracket(g.bracket(u, vh), vk)
                out += fr.p_lin(inner) * fr.coord_lin(vhd) \
                    * fr.coord_lin(vkd) * Fraction(1, 3)
        for vk, vkd in zip(vs, vds):
            out += fr.coord_lin(g.bracket(u, vk)) * fr.coord_lin(vkd)
        out += fr.p_lin(g.bracket(setup.e, u), order=1)
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
        to the coordinate ring.  Built on first use, one row per left
        generator, from the partials of each right operand taken once.
        """
        fr = self.frame
        table = BracketTable(fr.w_ctx)
        images = self._pi_inv_images
        partials = [_table_partials(fr.coord_table, wj) for wj in images]
        for i, wi in enumerate(images):
            left = LeftBracket(fr.coord_table, wi)
            for j, dj in enumerate(partials):
                table.set(i, j, *_pi_pair(fr, left.on_partials(dj)))
        return table

    # -- helpers -------------------------------------------------------------

    def _check_grade(self, v, ev: Fraction):
        setup = self.frame.setup
        coords_in(setup, v, setup.eig_indices(ev),
                  f"argument must lie in the {ev} eigenspace")

    # -- the inverse of pi ----------------------------------------------------

    def pi_inverse(self, p: DiffPoly) -> DiffPoly:
        """Substitute a -> phi(a), u -> psi(u) (and f -> Ltilde, minimal)."""
        return p.map_generators(self.frame.coord_ctx, self._pi_inv_images)

    def all_generators(self) -> list[tuple[str, DiffPoly]]:
        names = [n for n, _ in _named(self, "phi") + _named(self, "psi")]
        return [("L", self.L)] + list(zip(names, self.phis + self.psis))


def _named(gens: WGenerators, kind: str) -> list[tuple[str, list]]:
    """(name, argument) of each phi or psi generator."""
    g = gens.frame.algebra
    args = gens.phi_args if kind == "phi" else gens.psi_args
    return [(f"{kind}({g.vec_str(v)})", v) for v in args]


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


# -- the three rules both kinds share ---------------------------------------


def _affine(frame: ReductionFrame, x, y):
    """Every pair with a phi: {x lambda y} = w([x,y]) + (x|y) lambda
    - z (s|[x,y])."""
    g, const = frame.algebra, frame.w_ctx.const
    xy = g.bracket(x, y)
    return (_lam(frame, frame.w_lin(xy), const(g.pair(x, y))),
            _lam(frame, const(-g.pair(frame.s, xy))))


def _l_primary(frame: ReductionFrame, v, skew: bool = False):
    """{L lambda w(v)} = (d + D lambda) w(v) - 1/2 (e|v) lambda^3
    - z D (s|v) lambda, with D = 1 - eig(v) the weight of w(v); with skew,
    its skew {w(v) lambda L}, which is (D - 1) w(v)' + D w(v) lambda with
    the same lambda^3 and z parts."""
    g, const, wz = frame.algebra, frame.w_ctx.const, frame.w_ctx.zero()
    wv = frame.w_lin(v)
    delta = wv.conformal_weight()
    return (_lam(frame, wv.d().scale(delta - 1 if skew else 1),
                 wv.scale(delta), wz, const(-g.pair(frame.setup.e, v) / 2)),
            _lam(frame, wz, const(g.pair(frame.s, v) * -delta)))


def _virasoro(frame: ReductionFrame, gens: WGenerators):
    """{L lambda L} = L' + 2L lambda - (x|x) lambda^3 - 2z (f|s) lambda."""
    g, setup = frame.algebra, frame.setup
    const, wz = frame.w_ctx.const, frame.w_ctx.zero()
    piL = frame.pi(gens.L)
    return (_lam(frame, piL.d(), piL.scale(2), wz, const(-setup.xx())),
            _lam(frame, wz, const(-2 * g.pair(setup.f, frame.s))))


def _phi_rows(frame: ReductionFrame, na: str, a, phis, psis) -> dict:
    """The affine rows of phi(a): {a, b} for each phi, then {a, u} and
    {u, a} for each psi."""
    rows = {(na, nb): _affine(frame, a, b) for nb, b in phis}
    for nu, u in psis:
        rows[(na, nu)] = _affine(frame, a, u)
        rows[(nu, na)] = _affine(frame, u, a)
    return rows


# -- the closed-form table of each kind --------------------------------------


def _expected_minimal(frame: ReductionFrame, gens: WGenerators):
    """Closed forms for a minimal nilpotent, s = e or an embeddable s in an
    isotropic l."""
    setup = frame.setup
    g = setup.algebra
    xx = setup.xx()
    piLt = frame.pi(gens.Ltilde)
    # the omega_+ contraction over g_1/2 does not depend on its basis
    vs, vds = setup.v_pairs
    wl, sharp = frame.w_lin, setup.sharp

    phis, psis = _named(gens, "phi"), _named(gens, "psi")
    # per psi argument u: [e, u], wl(sharp([u, v^k])) and wl(sharp([u, v_k]))
    e_u = {nu: g.bracket(setup.e, u) for nu, u in psis}
    sh_d = {nu: [wl(sharp(g.bracket(u, vkd))) for vkd in vds] for nu, u in psis}
    sh_v = {nu: [wl(sharp(g.bracket(u, vk))) for vk in vs] for nu, u in psis}
    rows = {("L", "L"): _virasoro(frame, gens)}
    for na, a in phis:
        rows[("L", na)] = _l_primary(frame, a)
        rows[(na, "L")] = _l_primary(frame, a, skew=True)
        rows.update(_phi_rows(frame, na, a, phis, psis))
    for nu, u in psis:
        rows[("L", nu)] = _l_primary(frame, u)
        rows[(nu, "L")] = _l_primary(frame, u, skew=True)
        for nu1, u1 in psis:
            om = setup.omega_minus(u, u1)
            quad = frame.w_ctx.zero()
            for p, q in zip(sh_d[nu], sh_v[nu1]):
                quad += p * q
            mid = wl(sharp(g.bracket(u, e_u[nu1])))
            h = _lam(frame, quad + mid.d() + piLt.scale(om / (2 * xx)),
                     mid.scale(2), frame.w_ctx.const(-om))
            k = _lam(frame, frame.w_ctx.const(
                -om * g.pair(frame.s, setup.f) / (2 * xx)))
            rows[(nu, nu1)] = (h, k)
    return rows


def _expected_short(frame: ReductionFrame, gens: WGenerators):
    """Closed forms for a short nilpotent and arbitrary s in g_1."""
    setup = frame.setup
    g = setup.algebra
    s = frame.s
    wz = frame.w_ctx.zero()
    us, uds = setup.u_pairs

    wl, sharp = frame.w_lin, setup.sharp

    phis, psis = _named(gens, "phi"), _named(gens, "psi")
    rows = {}
    for na, a in phis:
        rows.update(_phi_rows(frame, na, a, phis, psis))
    e_us = [g.bracket(setup.e, uk) for uk in us]
    # wl([[e, u_h], [e, u_k]]), and per psi argument u: [e, u], [s, u],
    # wl(sharp([u, u^k])), wl(u o u_k) and wl([[e, u], [e, u_k]])
    ee = [[wl(g.bracket(eh, ek)) for ek in e_us] for eh in e_us]
    e_u, s_u, sh, circ, ee_u = {}, {}, {}, {}, {}
    for nu, u in psis:
        e_u[nu] = g.bracket(setup.e, u)
        s_u[nu] = g.bracket(s, u)
        sh[nu] = [wl(sharp(g.bracket(u, ukd))) for ukd in uds]
        circ[nu] = [wl(setup.jordan(u, uk)) for uk in us]
        ee_u[nu] = [wl(g.bracket(e_u[nu], ek)) for ek in e_us]
    ks = range(len(us))
    for nu, u in psis:
        for nu1, u1 in psis:
            circ_uu1 = setup.jordan(u, u1)
            hsum = wz
            for k in ks:
                hsum += circ[nu][k] * sh[nu1][k].scale(Fraction(1, 2))
                hsum -= circ[nu1][k] * sh[nu][k].scale(Fraction(1, 2))
            for h in ks:
                for k in ks:
                    hsum += (ee[h][k] * sh[nu][h] * sh[nu1][k]
                             ).scale(Fraction(1, 4))
            lam0 = hsum - wl(circ_uu1, 1).scale(Fraction(1, 2))
            lam1 = -wl(circ_uu1).scale(1)
            p_crossed = wz
            for k in ks:
                p_crossed += ee_u[nu][k] * sh[nu1][k]
            lam0 += p_crossed.d().scale(Fraction(1, 4))
            lam1 += p_crossed.scale(Fraction(1, 2))
            for k in ks:
                q = sh[nu][k]
                c = ee_u[nu1][k]
                lam0 += (c * q.d()).scale(Fraction(1, 4))
                lam1 += (c * q).scale(Fraction(1, 4))
            brkt = wl(g.bracket(e_u[nu], e_u[nu1]))
            lam0 -= brkt.d(2).scale(Fraction(1, 4))
            lam1 -= brkt.d().scale(Fraction(3, 4))
            lam2 = -brkt.scale(Fraction(3, 4))
            lam3 = frame.w_ctx.const(
                g.pair(setup.e, circ_uu1) * Fraction(1, 4))
            h = LambdaPoly(frame.w_ctx, [lam0, lam1, lam2, lam3])
            kz0 = (
                wl(sharp(g.bracket(e_u[nu], s_u[nu1])))
                - wl(sharp(g.bracket(e_u[nu1], s_u[nu])))
            ).scale(Fraction(-1, 2))
            k = LambdaPoly(
                frame.w_ctx,
                [kz0, frame.w_ctx.const(g.pair(s, circ_uu1))],
            )
            rows[(nu, nu1)] = (h, k)
    for n, v in phis + psis:
        rows[("L", n)] = _l_primary(frame, v)
    rows[("L", "L")] = _virasoro(frame, gens)
    return rows


def verify_table(frame: ReductionFrame, gens: WGenerators
                 ) -> dict[str, dict[str, list[str]]]:
    """Check the generator table of W against the paper's closed forms.

    Each closed-form entry {a lambda b} is compared exactly, in V(g^f), with
    master_bracket(gens.table, pi(a), pi(b)), computed once per pair by one
    LeftBracket per left generator a, on the partials of pi(b) taken once.
    Each kind has one closed-form table; for the isotropic variant the
    minimal table is reported as the paper's two, its H column and its K
    column.  Returns {table name: {entry:
    mismatches}}; an entry passes when its list is empty.
    """
    kind = frame.setup.kind
    forms = (_expected_minimal if kind == MINIMAL else _expected_short)(
        frame, gens)
    if frame.isotropic:
        tables = {
            "isotropic_h_brackets": {
                key: (h, None) for key, (h, _) in forms.items()},
            "isotropic_k_brackets": {
                key: (None, k) for key, (_, k) in forms.items()},
        }
    else:
        tables = {f"{kind}_generators": forms}
    images = {name: frame.pi(p) for name, p in gens.all_generators()}
    lefts = {name: LeftBracket(gens.table, p) for name, p in images.items()}
    partials = {name: _table_partials(gens.table, p)
                for name, p in images.items()}
    got_of: dict = {}  # the isotropic H and K tables share their pairs
    out = {}
    for which, expected in tables.items():
        rows = out[which] = {}
        for (a, b), want in expected.items():
            if (a, b) not in got_of:
                got_of[(a, b)] = lefts[a].on_partials(partials[b])
            got = got_of[(a, b)]
            rows[f"{{{a}, {b}}}"] = [
                f"{part}-bracket {{{a}, {b}}}: got {x}, want {y}"
                for part, x, y in zip("HK", got, want)
                if y is not None and x != y]
    return out
