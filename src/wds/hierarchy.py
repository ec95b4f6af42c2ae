"""Loop-algebra machinery and integrable hierarchies.

Elements of g((z^-1)) tensor V are finite sums b_i z^k P with b_i in the
frame basis and P a differential polynomial; the loop degree of b z^k is
eig(b) - (1 + eig(s)) k, so f + z s is homogeneous of degree -1 and every
fixed-degree slice is finite dimensional.  The dressing equation

    exp(ad U)(d + (f+zs) + q) = d + (f+zs) + h,   U in hperp_{>0}, h in h

is solved degree by degree; pairing h against a central element a(z) of
ker(ad(f+zs)) yields the conserved densities and the hierarchy flows.
Every loop element is a LoopElement with DiffPoly coefficients, over Q
and over Q(p) alike: the inputs f + zs, q and a(z), the kernel bases, U,
h and the oracle's defect.  Every sum of scaled coefficient products (the
bracket, the slice matrices applied to a slice, the pairing with a(z)) is
one `diffpoly.gather`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .diffpoly import Context, DiffPoly, gather
from .pva import LeftBracket, ReductionFrame, skew_failures


class NotSemisimple(ValueError):
    pass


class InvalidCenter(ValueError):
    pass


class WindowOverflow(ValueError):
    """A density past the loop degree the dressing was solved to; `needed`
    is the loop degree it needs."""

    def __init__(self, msg: str, needed: Fraction):
        super().__init__(msg)
        self.needed = needed


class LoopElement:
    """Finite map (basis index, z power) -> DiffPoly coefficient, never zero.

    Sums and derivatives act coefficient by coefficient; the bracket is
    the one-pair case of `bracket_sum`.
    """

    __slots__ = ("frame", "ctx", "terms")

    def __init__(self, frame: ReductionFrame, ctx: Context, terms: dict | None = None):
        self.frame = frame
        self.ctx = ctx
        self.terms = terms or {}

    def __bool__(self):
        return bool(self.terms)

    def degree_of(self, key) -> Fraction:
        """Loop degree of the (basis index, z power) key."""
        i, k = key
        return self.frame.eig_of[i] + self.frame.z_degree * k

    def _with(self, terms: dict) -> "LoopElement":
        return LoopElement(self.frame, self.ctx, terms)

    def trim(self, max_deg: Fraction) -> "LoopElement":
        return self._with({key: p for key, p in self.terms.items()
                           if self.degree_of(key) <= max_deg})

    def component(self, deg: Fraction) -> "LoopElement":
        return self._with({key: p for key, p in self.terms.items()
                           if self.degree_of(key) == deg})

    def __add__(self, other: "LoopElement") -> "LoopElement":
        terms = dict(self.terms)
        for key, p in other.terms.items():
            got = terms.get(key)
            if got is not None:
                p = got + p
            if p:
                terms[key] = p
            else:
                del terms[key]
        return self._with(terms)

    def __neg__(self) -> "LoopElement":
        return self._with({key: -p for key, p in self.terms.items()})

    def __sub__(self, other: "LoopElement") -> "LoopElement":
        return self + (-other)

    def derivative(self) -> "LoopElement":
        terms = {}
        for key, p in self.terms.items():
            dp = p.total_derivative()
            if dp:
                terms[key] = dp
        return self._with(terms)

    def bracket(self, other: "LoopElement",
                max_deg: Fraction | None = None) -> "LoopElement":
        """[self, other], dropping products of loop degree above max_deg."""
        return bracket_sum(self.frame, self.ctx, [(self, other)], 1, max_deg)

    def pair_with(self, a_z: dict) -> dict:
        """Pairing (a(z) x 1 | self), as {z power: nonzero DiffPoly}: a_z
        maps z powers to g vectors."""
        pair, basis = self.frame.algebra.pair, self.frame.basis
        return gather(self.ctx, [
            (p, None, [(k + k2, c) for k2, vec in a_z.items()
                       if (c := pair(vec, basis[i]))])
            for (i, k), p in self.terms.items()])

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, k) in sorted(self.terms):
            p = self.terms[(i, k)]
            zs = "" if k == 0 else (" z" if k == 1 else f" z^{k}")
            parts.append(f"{self.frame.labels[i]}{zs} (x) [{p}]")
        return " + ".join(parts)


def _twice(deg: Fraction) -> int:
    """2 deg, for a loop degree in (1/2)Z."""
    if (2 * deg).denominator != 1:
        raise ValueError(f"loop degree {deg} is not in (1/2)Z")
    return int(2 * deg)


def bracket_sum(frame: ReductionFrame, ctx: Context, pairs: list, n: int = 1,
                max_deg: Fraction | None = None) -> LoopElement:
    """sum [x, y] / n over the (x, y) of pairs, dropping products of loop
    degree above max_deg, in one gather: each product of coefficients is
    one job, with 1/n in the structure constants that scale it, so each
    output key is normalised once.  Loop degrees are compared as ints
    2 deg."""
    struct = frame.struct
    e2 = [_twice(e) for e in frame.eig_of]
    z2 = _twice(frame.z_degree)
    top = math.inf if max_deg is None else math.floor(2 * max_deg)
    inv = Fraction(1, n)
    jobs = []
    for x, y in pairs:
        if not (x and y):
            continue
        ys = [(j, k2, e2[j] + z2 * k2, q) for (j, k2), q in y.terms.items()]
        low = min(d2 for _, _, d2, _ in ys)
        for (i, k1), p in x.terms.items():
            d1 = e2[i] + z2 * k1
            if d1 + low > top:
                continue
            row = struct[i]
            for j, k2, d2, q in ys:
                if row[j] and d1 + d2 <= top:
                    jobs.append((p, q, [((r, k1 + k2), c * inv if n != 1 else c)
                                        for r, c in row[j].items()]))
    return LoopElement(frame, ctx, gather(ctx, jobs))


def loop_from_zmap(frame: ReductionFrame, ctx: Context, zmap: dict) -> LoopElement:
    """The constant loop element sum vec z^k over the (k, vec) of zmap."""
    return LoopElement(frame, ctx, {(i, k): ctx.const(c)
                                    for k, vec in zmap.items()
                                    for i, c in frame.to_adapted(vec).items()})


def loop_fzs(frame: ReductionFrame, ctx: Context) -> LoopElement:
    return loop_from_zmap(frame, ctx, {0: frame.setup.f, 1: frame.s})


def build_q(frame: ReductionFrame, projected: bool = True) -> LoopElement:
    """q = sum_i q^i (x) q_i over the coordinate basis and its dual."""
    ctx = frame.w_ctx if projected else frame.coord_ctx
    jobs = []
    for pos, b in enumerate(frame.coord_idx):
        coeff = frame.coord_ctx.gen(pos)
        if projected:
            coeff = frame.pi(coeff)
        if coeff:
            jobs.append((coeff, None, [((i, 0), c) for i, c in
                                       frame.to_adapted(frame.dual_basis[b]).items()]))
    return LoopElement(frame, ctx, gather(ctx, jobs))


# ---------------------------------------------------------------------------
# the kernel / image decomposition of ad(f + zs)
# ---------------------------------------------------------------------------


class HDecomposition:
    """Kernel/image split of ad(f+zs) on the loop-degree slices.

    ad(f+zs) commutes with z, and z shifts the loop degree by z_degree, so
    the split repeats with period P = -z_degree: slice(r + tP) is slice(r)
    with every z power lowered by t, and ad(f+zs) has the same matrix on
    both.  Each residue class r of the degree mod P, taken in [-1, -1 + P),
    keeps its slice and one split, built from one inverse: the kernel basis
    of ad(f+zs) on slice(r), the projection onto that kernel along the
    image, and the inverse of ad(f+zs) from hperp(r+1), the image part of
    slice(r+1).  Vectors of a slice are Vecs over its positions; both
    matrices are kept as the Vecs of their columns, which `split` applies
    to a LoopElement of any degree of the class in one gather each.
    """

    def __init__(self, frame: ReductionFrame):
        one = frame.ring.one()
        if not frame.setup.is_semisimple(
                linalg.combine([one, one], [frame.setup.f, frame.s])):
            raise NotSemisimple("f + s is not semisimple")
        self.frame = frame
        self.period = -frame.z_degree
        # the 2P classes of (1/2)Z mod P, from -1 up
        self.classes = [Fraction(j - 2, 2) for j in range(int(2 * self.period))]
        self._slices = {r: self._slice(r) for r in self.classes}
        ad_fzs = ((frame.ad_adapted(frame.setup.f), 0),
                  (frame.ad_adapted(frame.s), 1))
        ads = {r: self._ad_columns(r, ad_fzs) for r in self.classes}
        # r -> (kernel basis, projection columns, solve columns)
        self._splits = {r: self._split(r, ads) for r in self.classes}

    def residue(self, deg: Fraction) -> tuple[Fraction, int]:
        """(r, t) with deg = r + tP and r in [-1, -1 + P)."""
        t = math.floor((deg + 1) / self.period)
        return deg - t * self.period, t

    def slice(self, deg: Fraction) -> list[tuple[int, int]]:
        """The (basis index, z power) keys of loop degree deg."""
        r, t = self.residue(deg)
        return [(i, k - t) for i, k in self._slices[r]]

    def h_basis(self, deg: Fraction) -> list[linalg.Vec]:
        """The kernel basis of ad(f+zs) on slice(deg), in slice coordinates."""
        return self._splits[self.residue(deg)[0]][0]

    def _slice(self, deg: Fraction) -> list[tuple[int, int]]:
        out = []
        for i, e in enumerate(self.frame.eig_of):
            k = (e - deg) / self.period
            if k.denominator == 1:
                out.append((i, int(k)))
        return out

    def _ad_columns(self, deg: Fraction, ad_fzs: tuple) -> list[linalg.Vec]:
        """ad(f+zs): slice(deg) -> slice(deg - 1), as the Vecs of its
        columns over the positions of slice(deg - 1)."""
        pos = {key: p for p, key in enumerate(self.slice(deg - 1))}
        cols = []
        for (i, k) in self.slice(deg):
            col = {}
            for ad, dz in ad_fzs:
                for r, c in ad[i].items():
                    p = pos[(r, k + dz)]
                    col[p] = col[p] + c if p in col else c
            cols.append({p: c for p, c in col.items() if c})
        return cols

    def _split(self, deg: Fraction, ads: dict) -> tuple:
        ring = self.frame.ring

        def ad(d):
            return ads[self.residue(d)[0]]

        m = len(self._slices[deg])
        K = linalg.kernel_span([{p: ring.one()} for p in range(m)],
                               lambda v: [linalg.combine(v, ad(deg))], ring)
        # hperp(deg+1) = ad(f+zs) slice(deg+2), spanned by its independent
        # columns
        hperp = linalg.independent(ad(deg + 2), ring)
        cols = K + [linalg.combine(v, ad(deg + 1)) for v in hperp]
        if len(cols) != m:
            raise NotSemisimple(
                f"slice at degree {deg} does not split (kernel + image)")
        T = linalg.inverse(cols, ring)
        nk = len(K)
        # column j of each matrix: the parts of T's column j along the
        # kernel basis and along hperp
        proj = [linalg.combine({a: c for a, c in t.items() if a < nk}, K)
                for t in T]
        solve = [linalg.combine({a - nk: c for a, c in t.items() if a >= nk},
                                hperp) for t in T]
        return K, proj, solve

    def split(self, deg: Fraction, el: LoopElement) -> tuple:
        """(h, u) for el of degree deg: h the kernel component of el, and u
        in hperp(deg+1) with [f+zs, u] its image component."""
        _, proj, solve = self._splits[self.residue(deg)[0]]
        coeffs = self.coeffs_of(deg, el)

        def loop(d, cols):
            got = gather(el.ctx, [(p, None, col.items())
                                  for p, col in zip(coeffs, cols) if p])
            keys = self.slice(d)
            return LoopElement(self.frame, el.ctx,
                               {keys[i]: got[i] for i in sorted(got)})

        return loop(deg, proj), loop(deg + 1, solve)

    def const_loop(self, deg: Fraction, vec: linalg.Vec,
                   ctx: Context) -> LoopElement:
        """The constant loop element with slice(deg) coordinates vec."""
        keys = self.slice(deg)
        return LoopElement(self.frame, ctx,
                           {keys[p]: ctx.const(vec[p]) for p in sorted(vec)})

    def coeffs_of(self, deg: Fraction, el) -> list:
        """Slice coordinates of el, 0 where it has no term."""
        zero = el.ctx.zero()
        return [el.terms.get(key, zero) for key in self.slice(deg)]


# ---------------------------------------------------------------------------
# the dressing recursion
# ---------------------------------------------------------------------------


def _exp_ad(U: LoopElement, D: LoopElement, max_deg: Fraction) -> LoopElement:
    """Loop part of exp(ad U)(d + D) - d, truncated above max_deg.

    ad U acts on d by [U, d] = -dU/dx; each later order [U, cur]/n is one
    bracket_sum.  The series terminates inside the window because U has
    strictly positive loop degree.
    """
    cur = U.bracket(D, max_deg) - U.trim(max_deg).derivative()
    acc, n = D.trim(max_deg) + cur, 2
    while cur:
        cur = bracket_sum(U.frame, U.ctx, [(U, cur)], n, max_deg)
        acc, n = acc + cur, n + 1
    return acc


class Dressing(NamedTuple):
    """One solve of the dressing equation: the parts of U and of h, keyed by
    their loop degree, the decomposition it split with, the loop degree it
    is solved to, and the ring of its coefficients (frame.w_ctx, or
    frame.coord_ctx unprojected).  h stays at index 1, where callers that
    read the solve as a tuple find it."""

    U: dict
    h: dict
    dec: HDecomposition
    max_deg: Fraction
    ctx: Context


def _dressing_input(frame: ReductionFrame, ctx: Context) -> tuple:
    """(f+zs, f+zs+q) over ctx, q projected on V(g^f) when ctx is w_ctx."""
    fzs = loop_fzs(frame, ctx)
    return fzs, fzs + build_q(frame, ctx is frame.w_ctx)


def solve_dressing(
    frame: ReductionFrame,
    max_deg,
    projected: bool = True,
    dec: HDecomposition | None = None,
) -> Dressing:
    """Solve the dressing equation up to loop degree max_deg.

    Returns a Dressing: U[j] and h[j] are homogeneous loop elements keyed
    by their degree, with U in hperp and h in ker.

    The series exp(ad U)(d + D) - d = sum_n T_n, T_0 = D and
    T_n = [U, T_{n-1}]/n (with [U, d] = -dU/dx in T_1), is kept degree by
    degree: at degree d the piece sum_j [U_j, T_{n-1}(d-j)]/n of each T_n
    is formed in one bracket_sum, from the U_j and the lower-degree pieces
    already known, so every bracket of the series is taken once.  U_{d+1},
    solved at degree d, enters T_1 at d through [U_{d+1}, f+zs] only after
    the split.
    """
    max_deg = Fraction(max_deg)
    if dec is None:
        dec = HDecomposition(frame)
    ctx = frame.w_ctx if projected else frame.coord_ctx
    fzs, D = _dressing_input(frame, ctx)

    U_parts: dict = {}
    h_parts: dict = {}
    # series[n][d]: the degree-d piece of T_n
    series = [{d: D.component(d) for d in map(D.degree_of, D.terms)}, {}]
    deg = Fraction(-1, 2)
    while deg <= max_deg:
        if dec.slice(deg):
            R = series[0].get(deg, LoopElement(frame, ctx))
            for n in range(1, len(series) + 1):
                piece = bracket_sum(frame, ctx, [
                    (u, series[n - 1][deg - j]) for j, u in U_parts.items()
                    if deg - j in series[n - 1]], n)
                if n == 1 and deg in U_parts:
                    piece = piece - U_parts[deg].derivative()
                if piece:
                    if n == len(series):
                        series.append({})
                    series[n][deg] = piece
                    R = R + piece
            h_el, u_el = dec.split(deg, R)
            if h_el:
                h_parts[deg] = h_el
            if u_el:
                U_parts[deg + 1] = u_el
                # later degrees read T_1 at deg; past the window nothing does
                if deg + Fraction(1, 2) <= max_deg:
                    series[1][deg] = series[1].get(
                        deg, LoopElement(frame, ctx)) + u_el.bracket(fzs)
        deg += Fraction(1, 2)
    return Dressing(U_parts, h_parts, dec, max_deg, ctx)


def dressing_defect(dr: Dressing) -> LoopElement:
    """Full-exponential re-expansion oracle.

    Applies exp(ad U) with the complete U to d + (f+zs) + q in one shot and
    subtracts d + (f+zs) + sum(h), in the ring and up to the loop degree of
    the solve; exact zero certifies the incremental solve.
    """
    frame, ctx = dr.dec.frame, dr.ctx
    fzs, D = _dressing_input(frame, ctx)
    U = LoopElement(frame, ctx)
    for u in dr.U.values():
        U = U + u
    want = fzs
    for h in dr.h.values():
        want = want + h
    return (_exp_ad(U, D, dr.max_deg) - want.trim(dr.max_deg)).trim(dr.max_deg)


# ---------------------------------------------------------------------------
# centers, densities, flows
# ---------------------------------------------------------------------------


def _period_h(dec: HDecomposition, ctx: Context) -> list:
    """The kernel bases of one period, as constant loop elements: every
    kernel element is a sum of their z shifts, and [c, z^t w] = z^t [c, w]."""
    return [dec.const_loop(r, v, ctx) for r in dec.classes
            for v in dec.h_basis(r)]


def center_of_h(frame: ReductionFrame, dec: HDecomposition,
                degrees: list) -> dict:
    """Degree-wise center of ker(ad(f+zs)), at each of the loop degrees:
    the combinations of the kernel basis of slice(d) whose brackets with
    the kernel bases of one period vanish."""
    ctx = frame.w_ctx
    all_h = _period_h(dec, ctx)
    out = {}
    for d in degrees:
        d = Fraction(d)

        def brackets(v):
            # brackets of constant loops: every coefficient is a constant
            c = dec.const_loop(d, v, ctx)
            return [{key: p.const_term() for key, p in c.bracket(w).terms.items()}
                    for w in all_h]

        out[d] = [dec.const_loop(d, v, ctx) for v in linalg.kernel_span(
            dec.h_basis(d), brackets, frame.ring)]
    return out


def check_central(frame: ReductionFrame, dec: HDecomposition, a_z: dict) -> bool:
    ctx = frame.w_ctx
    el = loop_from_zmap(frame, ctx, a_z)
    if any(el.bracket(w) for w in _period_h(dec, ctx)):
        return False
    # membership of a(z) itself in ker ad(f+zs)
    return not loop_fzs(frame, ctx).bracket(el)


def conserved_densities(dr: Dressing, a_z: dict,
                        n_max: int | None = None) -> list[DiffPoly]:
    """Densities g_n from int g(z) = int (a(z) x 1 | h(z)), in the ring of
    the dressing (V(g^f) coordinates when it is projected).

    a_z maps z powers to g-vectors; the leading power is read off as the top
    nonzero z power of the pairing.  g_n needs h up to loop degree
    d_0 + |z_degree| n, where d_0 is the degree of the h that g_0 reads:
    an n_max past dr.max_deg raises WindowOverflow, and n_max=None gives
    the densities the dressing resolves.
    """
    frame = dr.dec.frame
    if not check_central(frame, dr.dec, a_z):
        raise InvalidCenter("a(z) does not lie in the center of ker ad(f+zs)")
    # the parts have distinct loop degrees, so their keys are disjoint
    total = LoopElement(frame, dr.ctx, {
        key: p for h in dr.h.values() for key, p in h.terms.items()
    }).pair_with(a_z)
    if not total:
        return []
    top = max(total)
    # the pairing puts the h of degree -deg(a) + zd k at z power k, for each
    # homogeneous piece of a(z); the lowest piece reaches highest
    zd = frame.z_degree
    low = min(frame.eig_of[i] + zd * k
              for k, vec in a_z.items()
              for i in frame.to_adapted(vec))
    d0 = zd * top - low
    resolved = math.floor((dr.max_deg - d0) / -zd)
    if n_max is not None and n_max > resolved:
        needed = d0 - zd * n_max
        raise WindowOverflow(
            f"g_{n_max} needs h up to loop degree {needed}; the dressing"
            f" is solved up to {dr.max_deg}", needed)
    last = resolved if n_max is None else n_max
    zero = dr.ctx.zero()
    return [total.get(top - n, zero) for n in range(last + 1)]


def hierarchy_flow(frame: ReductionFrame, gens, density: DiffPoly):
    """The flow w -> dw/dt = {g_n lambda w}_H at lambda = 0, in V(g^f)
    coordinates, as a function of w.

    The bracket is taken on V(g^f) through the generator table of W; the
    element w of W enters through its image under pi.  One LeftBracket
    serves every w the returned function is called on.
    """
    left = LeftBracket(gens.table, density)
    return lambda w_elt: left.at_zero(frame.pi(w_elt), 0)


def verify_lenard_magri(frame: ReductionFrame, gens, densities: list) -> list[str]:
    """The Lenard-Magri chain g_0 ... g_N of the densities, which makes the
    int g_n pairwise involutive in both structures by Lenard's argument.

    Checked exactly, one line per failure: skew-symmetry of both parts of
    the W table on every generator pair (`pva.skew_failures`), which by
    the master formula makes <a|X|b> = int {g_a lambda g_b}_X at lambda = 0
    skew in (a, b), X = H, K; and, as flows at lambda = 0 on every
    generator image w, {g_0 w}_K = 0 and {g_n w}_H = {g_n+1 w}_K for n < N.
    Both flows are derivations that commute with d, and the pi(w) generate
    V(g^f) (for a minimal nilpotent pi(L) and the a-generators give f), so
    <0|K|b> = 0 and <n|H|b> = <n+1|K|b> for every b.  Then H, for
    a < b <= N: <a|H|b> = -<b|K|a+1> = <a+1|H|b-1>, repeated until the
    indices meet (zero by skew-symmetry) or are adjacent
    (<a|H|a+1> = -<a+1|K|a+1> = 0); K: <a|K|b> = <a|H|b-1>, and
    <a|K|0> = 0.  Only recursion indices below N are used.  With no
    density only the table is checked.
    """
    bad = [f"W table {line}" for line in skew_failures(gens.table)]
    if not densities:
        return bad
    images = [(name, frame.pi(w)) for name, w in gens.all_generators()]
    lefts = [LeftBracket(gens.table, g) for g in densities]
    for name, w in images:
        if lefts[0].at_zero(w, 1):
            bad.append(f"{{g_0 , {name}}}_K != 0")
    for n in range(len(densities) - 1):
        for name, w in images:
            if lefts[n].at_zero(w, 0) != lefts[n + 1].at_zero(w, 1):
                bad.append(f"recursion n={n} fails on {name}")
    return bad


def reduce_mod_jk(frame: ReductionFrame, p: DiffPoly) -> DiffPoly:
    """Quotient by the ideal of K-central weight-1 generators.

    A weight-1 generator a is K-central iff [a, s] = 0; those generators and
    all their derivatives are set to zero (V(g^f) coordinates).  For s = e
    this kills all of g_0^f.
    """
    images = []
    for pos, b in enumerate(frame.w_idx):
        if frame.eig_of[b] == 0 and not frame.algebra.bracket(
                frame.basis[b], frame.s):
            images.append(frame.w_ctx.zero())
        else:
            images.append(frame.w_ctx.gen(pos))
    return p.map_generators(frame.w_ctx, images)
