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
from math import comb
from typing import Callable
from . import linalg
from .diffpoly import (Context, ContextMismatch, DiffPoly, LambdaPoly, dot,
                       gather, subst_minus_lambda_d)
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


def _nth(ds: list, n: int, step: Callable):
    """ds[n] of the list ds = [x, step(x), step(step(x)), ...], extended
    as far as needed."""
    while len(ds) <= n:
        ds.append(step(ds[-1]))
    return ds[n]


def _apply_entry(jobs: list, entry: LambdaPoly, powers: list) -> None:
    """Add T(d + lambda) applied to x = powers[0], sum_p T_p (d+lambda)^p x,
    to jobs: one gather job (T_p, lambda^k coefficient of (d+lambda)^p x)
    on key k for each lambda^k.  powers lists the successive (d+lambda)
    powers of x, extended as needed."""
    for p, cp in enumerate(entry.coeffs):
        if cp:
            power = _nth(powers, p, LambdaPoly.apply_d_plus_lambda)
            jobs += [(cp, c, ((k, 1),)) for k, c in enumerate(power.coeffs) if c]


def _sum_jobs(ctx: Context, jobs: list) -> LambdaPoly:
    """The LambdaPoly whose lambda^k coefficient is the sum of the jobs on
    key k, in one gather."""
    got = gather(ctx, jobs)
    return LambdaPoly(ctx, [got.get(k, ctx.zero())
                            for k in range(max(got, default=-1) + 1)])


def _partials(p: DiffPoly) -> dict[int, LambdaPoly]:
    """{i: sum_m lambda^m dp/du_i^(m)}, the partials of p as LambdaPolys."""
    return {i: LambdaPoly(p.ctx, ps) for i, ps in p.partials().items()}


class LeftBracket:
    """{g_lambda .} from a generator table, for one left operand g.

    The g side of the master formula does not depend on the right operand,
    so it is built once per part and generator j, on first use, and kept
    with the (d+lambda) powers formed from it for the object's lifetime:
    P_i = sum_m (-lambda-d)^m dg/du_i^(m) and
    R_j = sum_i {u_i lambda u_j}(d+lambda) P_i for the full bracket, and at
    lambda = 0, with {u_i lambda u_j} = sum_p c^{ij}_p lambda^p,
    R0_j = sum_i sum_p c^{ij}_p d^p(delta g/delta u_i) and its derivatives.
    Calling the object on h gives {g_lambda h} as its (H, K) parts;
    `at_zero` gives one part's lambda^0 coefficient, the flow of g on h,
    without forming a power of lambda.  Hold one object for a loop over
    right operands.
    """

    def __init__(self, table: BracketTable, g: DiffPoly):
        _check_table_ctx(table, g)
        self.table = table
        self.g = g
        # i -> [P_i, (d+lambda) P_i, ...]; j -> per part [R_j, ...] alike
        self._P: dict[int, list[LambdaPoly]] | None = None
        self._R: dict[int, tuple[list, list]] = {}
        # per part, j -> [R0_j, d R0_j, d^2 R0_j, ...]
        self._R0: tuple[dict, dict] = ({}, {})
        # i -> [delta g/delta u_i, d(delta g/delta u_i), ...]
        self._var: dict[int, list[DiffPoly]] | None = None

    def _lambda_side(self, j: int) -> tuple[list, list]:
        """The (d+lambda) powers of R_j, per part."""
        got = self._R.get(j)
        if got is None:
            if self._P is None:
                self._P = {}
                for i, dg in _partials(self.g).items():
                    Pi = subst_minus_lambda_d(dg)
                    if Pi:
                        self._P[i] = [Pi]
            jobsH, jobsK = [], []
            for i, Pi in self._P.items():
                entry = self.table.entries.get((i, j))
                if entry is not None:
                    _apply_entry(jobsH, entry[0], Pi)
                    _apply_entry(jobsK, entry[1], Pi)
            ctx = self.table.ctx
            got = self._R[j] = ([_sum_jobs(ctx, jobsH)], [_sum_jobs(ctx, jobsK)])
        return got

    def __call__(self, h: DiffPoly) -> tuple[LambdaPoly, LambdaPoly]:
        """{g_lambda h}: sum_{j,n} (d+lambda)^n R_j dh/du_j^(n), per part."""
        return self.on_partials(_table_partials(self.table, h))

    def on_partials(self, partials: dict) -> tuple[LambdaPoly, LambdaPoly]:
        """{g_lambda h} from _partials(h), taken once for several g."""
        jobsH, jobsK = [], []
        for j, dh in partials.items():
            RH, RK = self._lambda_side(j)
            _apply_entry(jobsH, dh, RH)
            _apply_entry(jobsK, dh, RK)
        ctx = self.table.ctx
        return _sum_jobs(ctx, jobsH), _sum_jobs(ctx, jobsK)

    def _r0(self, part: int, j: int, n: int = 0) -> DiffPoly:
        """d^n R0_j for the H (0) or K (1) part."""
        ds = self._R0[part].get(j)
        if ds is None:
            if self._var is None:
                self._var = {i: [dg] for i, dg in self.g.gradient().items()}
            pairs = []
            for i, dg in self._var.items():
                entry = self.table.entries.get((i, j))
                if entry is not None:
                    pairs += [(c, _nth(dg, p, DiffPoly.total_derivative))
                              for p, c in enumerate(entry[part].coeffs) if c]
            ds = self._R0[part][j] = [dot(self.table.ctx, pairs)]
        return _nth(ds, n, DiffPoly.total_derivative)

    def at_zero(self, h: DiffPoly, part: int = 0) -> DiffPoly:
        """{g_lambda h} at lambda = 0, H (0) or K (1) part:
        sum_{j,n} dh/du_j^(n) d^n R0_j."""
        _check_table_ctx(self.table, h)
        return dot(self.table.ctx,
                   [(dh, self._r0(part, j, n))
                    for j, ps in h.partials().items()
                    for n, dh in enumerate(ps) if dh])


def _check_table_ctx(table: BracketTable, p: DiffPoly) -> None:
    if p.ctx is not table.ctx and p.ctx != table.ctx:
        raise ContextMismatch(f"{p.ctx} is not the table's {table.ctx}")


def _table_partials(table: BracketTable, h: DiffPoly) -> dict:
    """_partials(h), for the brackets on table; h must live in its context."""
    _check_table_ctx(table, h)
    return _partials(h)


def master_bracket(
    table: BracketTable, g: DiffPoly, h: DiffPoly
) -> tuple[LambdaPoly, LambdaPoly]:
    """{g_lambda h} from the generator table; returns the (H, K) parts."""
    return LeftBracket(table, g)(h)


# ---------------------------------------------------------------------------
# reduction frames
# ---------------------------------------------------------------------------


class ReductionFrame:
    """Coordinate data of one Hamiltonian reduction W(g, f; l).

    Owns the adapted basis of the reduction: the setup's basis, with g_1/2
    re-split into l and l' for the isotropic variant.  The coordinate map,
    the Gram matrix and the dual basis are the setup's, recomputed only for
    that re-split basis.  Everything else derived from the basis is
    computed once, here: the sparse structure constants, the loop degree
    of z, the generator contexts for V(g), the coordinate ring and V(g^f),
    the reduction maps and the generator-level bracket tables.
    """

    def __init__(self, setup: GradedSetup, s: dict, isotropic: bool = False):
        self.setup = setup
        self.algebra = g = setup.algebra
        self.ring = setup.ring
        self.s = dict(s)
        self.isotropic = isotropic
        self.basis = list(setup.basis)
        self.labels = list(setup.labels)
        self.eig_of = list(setup.eig_of)
        self.gram, self.dual_basis = setup.gram, setup.dual_basis
        self._coords = setup._coords
        self._l_indices = self._lp_indices = []
        n = len(self.basis)
        half = Fraction(1, 2)

        if isotropic:
            if setup.kind != MINIMAL:
                raise GradeMismatch("isotropic variant needs a minimal grading")
            l_side, lp_side = darboux_split(setup, seed=self.s or None)
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
            self.gram, self.dual_basis, self._coords = setup.dual_data(self.basis)
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

        # struct[i][j] is [b_i, b_j] in adapted coordinates, keys increasing
        self.struct = [
            [dict(sorted(self.to_adapted(g.bracket(u, v)).items()))
             for v in self.basis]
            for u in self.basis
        ]
        # loop degree of z, so that f + zs is homogeneous of degree -1
        grades = {self.eig_of[i] for i in self.to_adapted(self.s)}
        if len(grades) > 1:
            raise GradeMismatch("s must be homogeneous in the ad(x)-grading")
        self.z_degree = -(Fraction(1) + grades.pop()) if grades else None

        # the quotient p -> g^f: g^f stays, g_0 goes through sharp and the
        # rest dies; v maps to linalg.combine(to_adapted(v), quotient_images)
        self.quotient_images = [
            b if i in self._w_pos else setup.sharp(b) if ev == 0 else {}
            for i, (b, ev) in enumerate(zip(self.basis, self.eig_of))]
        self._build_maps()
        self.full_table = self._build_table(
            range(n), self.full_ctx,
            [self.full_ctx.gen(i) for i in range(n)])
        self.coord_table = self._build_table(
            self.coord_idx, self.coord_ctx, self._rho_images)

    # -- construction helpers -------------------------------------------

    def to_adapted(self, v: dict) -> dict:
        return linalg.combine(v, self._coords)

    def ad_adapted(self, v: dict) -> list:
        """ad(v) in adapted coordinates: entry i is the Vec of [v, b_i],
        its keys increasing."""
        co = self.to_adapted(v)
        return [dict(sorted(linalg.combine(co, col).items()))
                for col in zip(*self.struct)]

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
            self._pi_images.append(self._lin(
                self.w_ctx, self._w_pos, self.to_adapted(self.quotient_images[i])))

    def _build_table(self, idx, ctx: Context, images: list) -> BracketTable:
        """{b_i lambda b_j}_z = [b_i,b_j] + (b_i|b_j) lambda + z (s|[b_i,b_j])
        for i, j in idx, with each b_r replaced by images[r]."""
        s_pair = {r: c for r, c in enumerate(
            self.algebra.pair(self.s, b) for b in self.basis) if c}
        pos = {b: p for p, b in enumerate(idx)}
        table = BracketTable(ctx)
        zero = self.ring.zero()
        for i in idx:
            for j in idx:
                terms, gram = self.struct[i][j], self.gram[i].get(j, zero)
                if not (terms or gram):
                    continue
                lin, kconst = ctx.zero(), zero
                for r, c in terms.items():
                    lin = lin + images[r].scale(c)
                    if r in s_pair:
                        kconst = kconst - c * s_pair[r]
                h = LambdaPoly(ctx, [lin, ctx.const(gram)])
                table.set(pos[i], pos[j], h, LambdaPoly(ctx, [ctx.const(kconst)]))
        return table

    # -- element builders --------------------------------------------------

    @staticmethod
    def _lin(ctx: Context, pos: dict, co: dict, order: int = 0) -> DiffPoly:
        """The linear polynomial of the adapted coordinates co on the
        generators of ctx, generator pos[b] for basis index b; the
        coordinates off pos are dropped."""
        return ctx.linear({pos[b]: c for b, c in co.items() if b in pos}, order)

    def full_lin(self, v: dict) -> DiffPoly:
        return self.full_ctx.linear(self.to_adapted(v))

    def coord_lin(self, v: dict, order: int = 0) -> DiffPoly:
        """v in g_<=1/2 (resp. p) as a linear coordinate polynomial."""
        co = coords_in(self, v, self._coord_pos,
                       "vector leaves the coordinate subspace")
        return self._lin(self.coord_ctx, self._coord_pos, co, order)

    def p_lin(self, v: dict, order: int = 0) -> DiffPoly:
        """As coord_lin, but first drop the components of v off the
        coordinate subspace (g_>=1, and l for the isotropic variant)."""
        return self._lin(self.coord_ctx, self._coord_pos, self.to_adapted(v), order)

    def w_lin(self, v: dict, order: int = 0) -> DiffPoly:
        co = coords_in(self, v, self._w_pos, "vector leaves g^f")
        return self._lin(self.w_ctx, self._w_pos, co, order)

    # -- the reduction maps -------------------------------------------------

    def rho(self, p: DiffPoly) -> DiffPoly:
        return p.map_generators(self.coord_ctx, self._rho_images)

    def pi(self, p: DiffPoly) -> DiffPoly:
        return p.map_generators(self.w_ctx, self._pi_images)

    def embed_coord(self, p: DiffPoly) -> DiffPoly:
        images = [self.full_ctx.gen(i) for i in self.coord_idx]
        return p.map_generators(self.full_ctx, images)

    def rho_action(self, a: dict, p: DiffPoly) -> LambdaPoly:
        """a^rho_lambda p = rho {a_lambda p}_z for a annihilating generator."""
        coords_in(self, a, self.ann_idx, "action vector must lie in the annihilator")
        return self._rho_act(a, _partials(self.embed_coord(p)))

    def _rho_act(self, a: dict, dp: dict) -> LambdaPoly:
        h, k = LeftBracket(self.full_table, self.full_lin(a)).on_partials(dp)
        if k:
            raise ZDependence("rho-twisted action depends on z")
        return h.map_coeffs(self.rho, self.coord_ctx)

    def is_in_w(self, p: DiffPoly) -> bool:
        """a^rho_lambda p = 0 for every annihilating generator a, with p
        embedded and differentiated once for all of them."""
        dp = _partials(self.embed_coord(p))
        return all(not self._rho_act(self.basis[i], dp) for i in self.ann_idx)

    def w_bracket(self, p: DiffPoly, q: DiffPoly) -> tuple[LambdaPoly, LambdaPoly]:
        return master_bracket(self.coord_table, p, q)


# ---------------------------------------------------------------------------
# PVA axiom checking
# ---------------------------------------------------------------------------


Bracket = Callable[[DiffPoly, DiffPoly], tuple[LambdaPoly, LambdaPoly]]
BiLambda = dict  # {(lambda_power, mu_power): DiffPoly}


def _skew_defect(bracket: Bracket, g: DiffPoly, h: DiffPoly):
    """{g_l h} + {h_-l-d g} per part; zero iff skew-symmetry holds."""
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


def _jacobi_defect(bracket: Bracket, g1: DiffPoly, g2: DiffPoly, h: DiffPoly,
                   parts: tuple[int, int]) -> BiLambda:
    """Jacobi defect {g1 l {g2 m h}} - {g2 m {g1 l h}} - {{g1 l g2} l+m h}.

    parts = (outer, inner) selects the H (0) or K (1) structure in each slot;
    symmetrised over the two orders so (0, 1) is the H/K compatibility check.
    """
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


def skew_failures(table: BracketTable, n: int | None = None) -> list[str]:
    """`skew (a,b)` for each pair of generators u_i, u_j, i <= j, among the
    first n (every generator by default) whose entries break
    skew-symmetry, {u_j lambda u_i} + {u_i -lambda-d u_j} != 0, in the H or
    the K part.  On two generators the master formula returns the table
    entry itself, so the scan reads the entries and forms no bracket."""
    labels = table.ctx.labels
    n = table.ctx.ngens if n is None else n
    return [f"skew ({labels[i]},{labels[j]})"
            for i in range(n) for j in range(i, n)
            if any(ji + subst_minus_lambda_d(ij)
                   for ji, ij in zip(table.get(j, i), table.get(i, j)))]


def check_pva_axioms(
    table: BracketTable,
    seed: int = 1729,
    samples: int = 40,
    gens_cap: int | None = None,
) -> list[str]:
    """Generator-level skew/Jacobi scan plus randomized composite checks.

    The generator skew scan is `skew_failures`, read off the table.  Every
    other bracket is computed once per distinct operand pair (g, h), by one
    LeftBracket per distinct left operand g, and read from a memo local to
    this call after that: the generator triples share most of their
    brackets.
    """
    import random

    lefts: dict[DiffPoly, LeftBracket] = {}
    memo: dict[tuple[DiffPoly, DiffPoly], tuple[LambdaPoly, LambdaPoly]] = {}

    def bracket(g: DiffPoly, h: DiffPoly) -> tuple[LambdaPoly, LambdaPoly]:
        res = memo.get((g, h))
        if res is None:
            left = lefts.get(g)
            if left is None:
                left = lefts[g] = LeftBracket(table, g)
            res = memo[(g, h)] = left(h)
        return res

    ctx = table.ctx
    n = ctx.ngens if gens_cap is None else min(ctx.ngens, gens_cap)
    bad = skew_failures(table, n)
    gens = [ctx.gen(i) for i in range(n)]
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
