"""The lambda-bracket engine.

The affine Poisson vertex algebra bracket {a_l b} = [a,b] + (a|b)l + z(s|[a,b])
is stored on generators as a pair (H, K) with {.}_z = H - z K; the master
formula extends any such generator table to the whole differential polynomial
algebra.  A ReductionFrame packages the coordinate spaces entering the
Hamiltonian reduction: the full algebra V(g), the coordinate ring V(g_<=1/2)
(or V(p) for an isotropic choice), the twist map rho, and the quotient
projection pi onto V(g^f).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb
from typing import Callable
from . import linalg
from .diffpoly import Context, DiffPoly, LambdaPoly, subst_minus_lambda_d
from .lie import GradedSetup, GradeMismatch, MINIMAL, coords_in, darboux_split


class ZDependence(ArithmeticError):
    """The rho-twisted action picked up a z-part; the twist is misplaced."""


class BracketTable:
    """Generator lambda-brackets, entry (i, j) = {u_i lambda u_j} = H - z K."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.entries: dict[tuple[int, int], tuple[LambdaPoly, LambdaPoly]] = {}

    def set(self, i: int, j: int, h: LambdaPoly, k: LambdaPoly):
        if h or k:
            self.entries[(i, j)] = (h, k)

    def get(self, i: int, j: int) -> tuple[LambdaPoly, LambdaPoly]:
        z = LambdaPoly.zero(self.ctx)
        return self.entries.get((i, j), (z, z))


# ---------------------------------------------------------------------------
# master formula
# ---------------------------------------------------------------------------


def _apply_entry(entry: LambdaPoly, arg: LambdaPoly) -> LambdaPoly:
    """T(d + lambda) applied to arg: sum_p T_p (d+lambda)^p arg."""
    out = LambdaPoly.zero(arg.ctx)
    power = arg
    for p, cp in enumerate(entry.coeffs):
        if p:
            power = power.apply_d_plus_lambda()
        if cp:
            out = out + power.mul_poly(cp)
    return out


def _partials(p: DiffPoly, i: int) -> LambdaPoly:
    """sum_m lambda^m dp/du_i^(m), the partials of p as one LambdaPoly."""
    return LambdaPoly(p.ctx, [p.partial(i, m)
                              for m in range(p.max_order(i) + 1)])


def master_bracket(
    table: BracketTable, g: DiffPoly, h: DiffPoly
) -> tuple[LambdaPoly, LambdaPoly]:
    """{g_lambda h} from the generator table; returns the (H, K) parts."""
    ctx = table.ctx
    if g.ctx != ctx or h.ctx != ctx:
        raise ValueError("arguments must live in the table's context")
    zero = LambdaPoly.zero(ctx)
    if not g or not h:
        return zero, zero

    # P_i = sum_m (-lambda-d)^m dg/du_i^(m)
    P: dict[int, LambdaPoly] = {}
    for i in sorted(g.gens_used()):
        Pi = subst_minus_lambda_d(_partials(g, i))
        if Pi:
            P[i] = Pi

    # R_j = sum_i {u_i lambda u_j}(d+lambda) P_i, per part
    h_gens = sorted(h.gens_used())
    R_H: dict[int, LambdaPoly] = {}
    R_K: dict[int, LambdaPoly] = {}
    for j in h_gens:
        accH = accK = zero
        for i, Pi in P.items():
            eh, ek = table.get(i, j)
            if eh:
                accH = accH + _apply_entry(eh, Pi)
            if ek:
                accK = accK + _apply_entry(ek, Pi)
        if accH:
            R_H[j] = accH
        if accK:
            R_K[j] = accK

    # sum_{j,n} (d+lambda)^n R_j dh/du_j^(n), per part
    outH = outK = zero
    for j in h_gens:
        dh = _partials(h, j)
        if j in R_H:
            outH = outH + _apply_entry(dh, R_H[j])
        if j in R_K:
            outK = outK + _apply_entry(dh, R_K[j])
    return outH, outK


# ---------------------------------------------------------------------------
# reduction frames
# ---------------------------------------------------------------------------


class ReductionFrame:
    """Coordinate data of one Hamiltonian reduction W(g, f; l).

    Owns the adapted basis of the reduction: the setup's basis, with g_1/2
    re-split into l and l' for the isotropic variant.  Everything derived
    from that basis is computed once, here: the coordinate map, the Gram
    matrix and dual basis, the sparse structure constants, the loop degree
    of z, the generator contexts for V(g), the coordinate ring and V(g^f),
    the reduction maps and the generator-level bracket tables.
    """

    def __init__(self, setup: GradedSetup, s: list, isotropic: bool = False):
        self.setup = setup
        self.algebra = g = setup.algebra
        self.ring = setup.ring
        self.s = list(s)
        self.isotropic = isotropic
        self.basis = list(setup.basis)
        self.labels = list(setup.labels)
        self.eig_of = list(setup.eig_of)
        self._adapted_from_orig = setup._adapted_from_orig
        self._l_indices = self._lp_indices = []
        n = len(self.basis)
        half = Fraction(1, 2)

        if isotropic:
            if setup.kind != MINIMAL:
                raise GradeMismatch("isotropic variant needs a minimal grading")
            l_side, lp_side = darboux_split(
                setup, seed=self.s if any(self.s) else None)
            self.l_pairs = (l_side, lp_side)
            # l then l' take the place of the setup's g_1/2 block
            half_idx = setup.eig_indices(half)
            self._l_indices = half_idx[:len(l_side)]
            self._lp_indices = half_idx[len(l_side):]
            names = ([f"l{k + 1}" for k in range(len(l_side))]
                     + [f"m{k + 1}" for k in range(len(lp_side))])
            for i, v, name in zip(half_idx, l_side + lp_side, names):
                self.basis[i] = v
                self.labels[i] = name
            self._adapted_from_orig = linalg.inverse(
                linalg.transpose(self.basis), self.ring)
        if setup.kind == MINIMAL:
            # the g_1/2 pairs the minimal generators sum over: l with l', or
            # a basis of g_1/2 with its omega_+ dual
            self.half_pairs = self.l_pairs if isotropic else setup.v_pairs
        # coordinates: g_<=1/2, or p = g_<=0 + l' when isotropic; the
        # annihilating generators: g_>=1/2, or g_>=1 + l
        self.coord_idx = [i for i, ev in enumerate(self.eig_of)
                          if ev < half or ev == half and i not in self._l_indices]
        self.ann_idx = [i for i, ev in enumerate(self.eig_of)
                        if ev > half or ev == half and i not in self._lp_indices]
        self.w_idx = list(setup.gf_indices)

        weights_full = [Fraction(1) - ev for ev in self.eig_of]
        self.full_ctx = Context(self.ring, self.labels, weights_full)
        self.coord_ctx = Context(
            self.ring,
            [self.labels[i] for i in self.coord_idx],
            [weights_full[i] for i in self.coord_idx],
        )
        self.w_ctx = Context(
            self.ring,
            [self.labels[i] for i in self.w_idx],
            [weights_full[i] for i in self.w_idx],
        )
        self._coord_pos = {b: p for p, b in enumerate(self.coord_idx)}
        self._w_pos = {b: p for p, b in enumerate(self.w_idx)}

        self.gram = [[g.pair(u, v) for v in self.basis] for u in self.basis]
        self.dual_basis = setup.dual_of_gram(self.gram, self.basis)
        # struct[i][j] lists the (r, c) with [b_i, b_j] = sum c b_r
        self.struct = [
            [[(r, c) for r, c in enumerate(self.to_adapted(g.bracket(u, v))) if c]
             for v in self.basis]
            for u in self.basis
        ]
        # loop degree of z, so that f + zs is homogeneous of degree -1
        co = self.to_adapted(self.s)
        grades = {self.eig_of[i] for i, c in enumerate(co) if c}
        if len(grades) > 1:
            raise GradeMismatch("s must be homogeneous in the ad(x)-grading")
        self.z_degree = -(Fraction(1) + grades.pop()) if grades else None

        # the quotient p -> g^f: g^f stays, g_0 goes through sharp and the
        # rest dies; v maps to linalg.combine(to_adapted(v), quotient_images)
        self.quotient_images = [
            b if i in self._w_pos else setup.sharp(b) if ev == 0 else g.zero_vec()
            for i, (b, ev) in enumerate(zip(self.basis, self.eig_of))]
        self._build_maps()
        self.full_table = self._build_table(
            range(n), self.full_ctx,
            [self.full_ctx.gen(i) for i in range(n)])
        self.coord_table = self._build_table(
            self.coord_idx, self.coord_ctx, self._rho_images)

    # -- construction helpers -------------------------------------------

    def to_adapted(self, v: list) -> list:
        return linalg.mat_vec(self._adapted_from_orig, v, self.ring)

    def ad_adapted(self, v: list) -> list:
        """ad(v) in adapted coordinates: entry i lists the (r, c) with
        [v, b_i] = sum c b_r."""
        out = []
        co = [(j, c) for j, c in enumerate(self.to_adapted(v)) if c]
        for i in range(len(self.basis)):
            acc = {}
            for j, cj in co:
                for r, c in self.struct[j][i]:
                    acc[r] = acc[r] + cj * c if r in acc else cj * c
            out.append([(r, c) for r, c in sorted(acc.items()) if c])
        return out

    def _build_maps(self):
        g = self.algebra
        # rho on full generators: pi_coord(b) + (f|b)
        self._rho_images = []
        for i, b in enumerate(self.basis):
            img = self.coord_ctx.const(g.pair(self.setup.f, b))
            if i in self._coord_pos:
                img = self.coord_ctx.gen(self._coord_pos[i]) + img
            self._rho_images.append(img)
        # pi on coordinate generators: quotient onto V(g^f)
        self._pi_images = []
        for i in self.coord_idx:
            co = self.to_adapted(self.quotient_images[i])
            self._pi_images.append(self.w_ctx.linear([co[b] for b in self.w_idx]))

    def _build_table(self, idx, ctx: Context, images: list) -> BracketTable:
        """{b_i lambda b_j}_z = [b_i,b_j] + (b_i|b_j) lambda + z (s|[b_i,b_j])
        for i, j in idx, with each b_r replaced by images[r]."""
        s_pair = [self.algebra.pair(self.s, b) for b in self.basis]
        pos = {b: p for p, b in enumerate(idx)}
        table = BracketTable(ctx)
        for i in idx:
            for j in idx:
                lin, kconst = ctx.zero(), self.ring.zero()
                for r, c in self.struct[i][j]:
                    lin = lin + images[r].scale(c)
                    kconst = kconst - c * s_pair[r]
                h = LambdaPoly(ctx, [lin, ctx.const(self.gram[i][j])])
                table.set(pos[i], pos[j], h, LambdaPoly(ctx, [ctx.const(kconst)]))
        return table

    # -- element builders --------------------------------------------------

    def full_lin(self, v: list) -> DiffPoly:
        return self.full_ctx.linear(self.to_adapted(v))

    def coord_lin(self, v: list, order: int = 0) -> DiffPoly:
        """v in g_<=1/2 (resp. p) as a linear coordinate polynomial."""
        coords_in(self, v, self._coord_pos, "vector leaves the coordinate subspace")
        return self.p_lin(v, order)

    def p_lin(self, v: list, order: int = 0) -> DiffPoly:
        """As coord_lin, but first drop the components of v off the
        coordinate subspace (g_>=1, and l for the isotropic variant)."""
        co = self.to_adapted(v)
        return self.coord_ctx.linear([co[b] for b in self.coord_idx], order)

    def w_lin(self, v: list, order: int = 0) -> DiffPoly:
        co = coords_in(self, v, self._w_pos, "vector leaves g^f")
        return self.w_ctx.linear([co[b] for b in self.w_idx], order)

    # -- the reduction maps -------------------------------------------------

    def rho(self, p: DiffPoly) -> DiffPoly:
        return p.map_generators(self.coord_ctx, self._rho_images)

    def pi(self, p: DiffPoly) -> DiffPoly:
        return p.map_generators(self.w_ctx, self._pi_images)

    def embed_coord(self, p: DiffPoly) -> DiffPoly:
        images = [self.full_ctx.gen(i) for i in self.coord_idx]
        return p.map_generators(self.full_ctx, images)

    def rho_action(self, a: list, p: DiffPoly) -> LambdaPoly:
        """a^rho_lambda p = rho {a_lambda p}_z for a annihilating generator."""
        coords_in(self, a, self.ann_idx, "action vector must lie in the annihilator")
        h, k = master_bracket(
            self.full_table, self.full_lin(a), self.embed_coord(p))
        if k:
            raise ZDependence("rho-twisted action depends on z")
        return h.map_coeffs(self.rho, self.coord_ctx)

    def is_in_w(self, p: DiffPoly) -> bool:
        return all(
            not self.rho_action(self.basis[i], p) for i in self.ann_idx
        )

    def w_bracket(self, p: DiffPoly, q: DiffPoly) -> tuple[LambdaPoly, LambdaPoly]:
        return master_bracket(self.coord_table, p, q)


# ---------------------------------------------------------------------------
# PVA axiom checking
# ---------------------------------------------------------------------------


Bracket = Callable[[DiffPoly, DiffPoly], tuple[LambdaPoly, LambdaPoly]]
BiLambda = dict  # {(lambda_power, mu_power): DiffPoly}


def skew_defect(table: BracketTable, g: DiffPoly, h: DiffPoly):
    """{g_l h} + {h_-l-d g} per part; zero iff skew-symmetry holds."""
    return _skew_defect(partial(master_bracket, table), g, h)


def _skew_defect(bracket: Bracket, g: DiffPoly, h: DiffPoly):
    gh_H, gh_K = bracket(g, h)
    hg_H, hg_K = bracket(h, g)
    return (
        gh_H + subst_minus_lambda_d(hg_H),
        gh_K + subst_minus_lambda_d(hg_K),
    )


def _bi_acc(out: BiLambda, key: tuple[int, int], c: DiffPoly) -> None:
    """out[key] += c in place, dropping the key when the sum vanishes."""
    w = out.get(key)
    w = c if w is None else w + c
    if w:
        out[key] = w
    else:
        out.pop(key, None)


def jacobi_defect(
    table: BracketTable,
    g1: DiffPoly,
    g2: DiffPoly,
    h: DiffPoly,
    parts: tuple[int, int] = (0, 0),
) -> BiLambda:
    """Jacobi defect {g1 l {g2 m h}} - {g2 m {g1 l h}} - {{g1 l g2} l+m h}.

    parts = (outer, inner) selects the H (0) or K (1) structure in each slot;
    symmetrised over the two orders so (0, 1) is the H/K compatibility check.
    """
    return _jacobi_defect(partial(master_bracket, table), g1, g2, h, parts)


def _jacobi_defect(bracket: Bracket, g1: DiffPoly, g2: DiffPoly, h: DiffPoly,
                   parts: tuple[int, int]) -> BiLambda:
    po, pi_ = parts
    combos = [(po, pi_)] if po == pi_ else [(po, pi_), (pi_, po)]
    total: BiLambda = {}
    for outer, inner in combos:
        # {g1 l {g2 m h}} - {g2 m {g1 l h}}: the inner bracket's variable
        # is mu in the first term and lambda in the second
        for first, second, sign in ((g1, g2, 1), (g2, g1, -1)):
            for k, ck in enumerate(bracket(second, h)[inner].coeffs):
                if not ck:
                    continue
                for a, c in enumerate(bracket(first, ck)[outer].coeffs):
                    if c:
                        if sign > 0:
                            _bi_acc(total, (a, k), c)
                        else:
                            _bi_acc(total, (k, a), -c)
        # - {{g1 l g2} l+m h}, with (l+m)^m expanded binomially
        for k, ck in enumerate(bracket(g1, g2)[inner].coeffs):
            if not ck:
                continue
            for m, c in enumerate(bracket(ck, h)[outer].coeffs):
                if c:
                    for a in range(m + 1):
                        _bi_acc(total, (a + k, m - a), c.scale(-comb(m, a)))
    return total


def check_pva_axioms(
    table: BracketTable,
    seed: int = 1729,
    samples: int = 40,
    gens_cap: int | None = None,
) -> list[str]:
    """Generator-level skew/Jacobi scan plus randomized composite checks.

    Every bracket of the scan is computed by master_bracket once per
    distinct operand pair (g, h) and read from a memo local to this call
    after that: the generator triples share most of their brackets.
    """
    import random

    memo: dict[tuple[DiffPoly, DiffPoly], tuple[LambdaPoly, LambdaPoly]] = {}

    def bracket(g: DiffPoly, h: DiffPoly) -> tuple[LambdaPoly, LambdaPoly]:
        res = memo.get((g, h))
        if res is None:
            res = memo[(g, h)] = master_bracket(table, g, h)
        return res

    ctx = table.ctx
    n = ctx.ngens if gens_cap is None else min(ctx.ngens, gens_cap)
    bad: list[str] = []
    gens = [ctx.gen(i) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            dh, dk = _skew_defect(bracket, gens[i], gens[j])
            if dh or dk:
                bad.append(f"skew ({ctx.labels[i]},{ctx.labels[j]})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for parts in ((0, 0), (1, 1), (0, 1)):
                    if _jacobi_defect(bracket, gens[i], gens[j], gens[k], parts):
                        bad.append(
                            "jacobi "
                            f"({ctx.labels[i]},{ctx.labels[j]},{ctx.labels[k]})"
                            f" parts={parts}"
                        )
    rng = random.Random(seed)
    for t in range(samples):
        g1 = random_element(ctx, rng)
        g2 = random_element(ctx, rng)
        # sesquilinearity
        lhsH, lhsK = bracket(g1.total_derivative(), g2)
        rhsH, rhsK = bracket(g1, g2)
        if lhsH + rhsH.shift() or lhsK + rhsK.shift():
            bad.append(f"sesquilinearity-left sample {t}")
        lhsH, lhsK = bracket(g1, g2.total_derivative())
        if lhsH - rhsH.apply_d_plus_lambda() or lhsK - rhsK.apply_d_plus_lambda():
            bad.append(f"sesquilinearity-right sample {t}")
        # left Leibniz {g1 (g2*g3)} = {g1 g2} g3 + {g1 g3} g2
        g3 = random_element(ctx, rng)
        lhsH, lhsK = bracket(g1, g2 * g3)
        bH, bK = bracket(g1, g2)
        cH, cK = bracket(g1, g3)
        if lhsH - (bH.mul_poly(g3) + cH.mul_poly(g2)) or lhsK - (
            bK.mul_poly(g3) + cK.mul_poly(g2)
        ):
            bad.append(f"leibniz sample {t}")
        dh, dk = _skew_defect(bracket, g1, g2)
        if dh or dk:
            bad.append(f"skew sample {t}")
    return bad


def random_element(ctx: Context, rng, max_degree: int = 2,
                   max_order: int = 2, terms: int = 3) -> DiffPoly:
    """Seeded random differential polynomial with small integer coefficients."""
    out = ctx.zero()
    for _ in range(rng.randint(1, terms)):
        deg = rng.randint(0, max_degree)
        mono = ctx.one()
        for _ in range(deg):
            mono = mono * ctx.gen(
                rng.randrange(ctx.ngens), rng.randint(0, max_order))
        out = out + mono.scale(rng.choice([-2, -1, 1, 2]))
    return out
