"""Loop-algebra machinery and integrable hierarchies.

Elements of g((z^-1)) tensor V are finite sums b_i z^k P with b_i in the
frame basis and P a differential polynomial; the loop degree of b z^k is
eig(b) - (1 + eig(s)) k, so f + z s is homogeneous of degree -1 and every
fixed-degree slice is finite dimensional.  The dressing equation

    exp(ad U)(d + (f+zs) + q) = d + (f+zs) + h,   U in hperp_{>0}, h in h

is solved degree by degree; pairing h against a central element a(z) of
ker(ad(f+zs)) yields the conserved densities and the hierarchy flows.
Every loop element here is a NumLoop (numerator form), over Q and over Q(p)
alike: the inputs f + zs, q and a(z), the kernel bases, U and the oracle's
defect.  h is the one output with DiffPoly coefficients (a LoopElement),
converted once, on the way out of the solve.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .diffpoly import (Context, DiffPoly, functional_equal,
                       monomial_derivative)
from .pva import ReductionFrame, master_bracket
from .scalars import Scalar


class NotSemisimple(ValueError):
    pass


class InvalidCenter(ValueError):
    pass


class WindowOverflow(ValueError):
    """A request past the solved loop-degree window; `needed` is the loop
    degree it needs, when known."""

    def __init__(self, msg: str, needed: Fraction | None = None):
        super().__init__(msg)
        self.needed = needed


class _Loop:
    """Finite map (basis index, z power) -> coefficient, never zero."""

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

    def trim(self, max_deg: Fraction):
        return type(self)(
            self.frame, self.ctx,
            {key: p for key, p in self.terms.items()
             if self.degree_of(key) <= max_deg},
        )

    def component(self, deg: Fraction):
        return type(self)(
            self.frame, self.ctx,
            {key: p for key, p in self.terms.items()
             if self.degree_of(key) == deg},
        )


class LoopElement(_Loop):
    """Loop element with DiffPoly coefficients: the form h is returned in."""

    __slots__ = ()

    def pair_with(self, a_z: dict) -> dict:
        """Pairing (a(z) x 1 | self): a_z maps z powers to g vectors."""
        g = self.frame.algebra
        out: dict[int, DiffPoly] = {}
        for (i, k), p in self.terms.items():
            for k2, vec in a_z.items():
                c = g.pair(vec, self.frame.basis[i])
                if c:
                    zp = k + k2
                    got = out.get(zp)
                    add = p.scale(c)
                    got = add if got is None else got + add
                    if got:
                        out[zp] = got
                    else:
                        out.pop(zp, None)
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, k) in sorted(self.terms):
            p = self.terms[(i, k)]
            zs = "" if k == 0 else (" z" if k == 1 else f" z^{k}")
            parts.append(f"{self.frame.labels[i]}{zs} (x) [{p}]")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# loop elements in numerator form, over Q and over Q(p)
# ---------------------------------------------------------------------------
#
# A coefficient is kept as a pair (L, {monomial: n}), the sum of
# n/L * monomial, with L > 0 and no zero n.  Over Q each n is an int and
# gcd(L, all n) = 1, so L is the lcm of the reduced denominators; over Q(p)
# each n is a Scalar and L = 1, since a Scalar absorbs any rational factor.
# Either way equal values have equal pairs.  Only `_num_den`, `_value` and
# `_term` read which ring an element is in.


def _num_den(c) -> tuple:
    """A ring element as (numerator, integer denominator)."""
    if isinstance(c, Scalar):
        return c, 1
    return c.numerator, c.denominator


def _value(n, L: int):
    """The ring element n/L of a numerator n and its denominator L."""
    return n if isinstance(n, Scalar) else Fraction(n, L)


def _term(L: int, nums: dict):
    """(L, nums) in normal form with zero numerators dropped, or None."""
    nums = {m: v for m, v in nums.items() if v}
    if not nums:
        return None
    if isinstance(next(iter(nums.values())), Scalar):
        if L != 1:
            q = Fraction(1, L)
            nums = {m: v * q for m, v in nums.items()}
        return 1, nums
    g = math.gcd(L, *nums.values())
    if g > 1:
        L //= g
        nums = {m: v // g for m, v in nums.items()}
    return L, nums


def _common(items) -> tuple:
    """(key, ring element) items as (L, {key: numerator}) over the lcm L of
    their denominators."""
    split = [(k, *_num_den(c)) for k, c in items]
    L = math.lcm(*(d for _, _, d in split))
    return L, {k: n if d == L else n * (L // d) for k, n, d in split}


def _add_into(out: dict, nums, s: int = 1) -> None:
    """out[m] += s * v for the (m, v) of nums; a Scalar is never multiplied
    by 1 nor added to 0."""
    if s != 1:
        nums = [(m, v * s) for m, v in nums]
    for m, v in nums:
        got = out.get(m)
        out[m] = v if got is None else got + v


class NumLoop(_Loop):
    """Loop element with numerator pairs as coefficients.

    Every loop computation runs in this form, over Q and over Q(p); `to_loop`
    converts h to a LoopElement on the way out of the solve, and `of`
    converts it back for the oracle.
    """

    __slots__ = ()

    @classmethod
    def of(cls, el: LoopElement) -> "NumLoop":
        return cls(el.frame, el.ctx,
                   {key: _common(p.terms.items())
                    for key, p in el.terms.items() if p})

    def to_loop(self) -> LoopElement:
        return LoopElement(self.frame, self.ctx, {
            key: DiffPoly(self.ctx, {m: _value(v, L) for m, v in nums.items()})
            for key, (L, nums) in self.terms.items()})

    def __add__(self, other: "NumLoop") -> "NumLoop":
        terms = dict(self.terms)
        for key, t in other.terms.items():
            got = terms.get(key)
            if got is not None:
                (La, na), (Lb, nb) = got, t
                L = math.lcm(La, Lb)
                out = dict(na) if L == La else {
                    m: v * (L // La) for m, v in na.items()}
                _add_into(out, nb.items(), L // Lb)
                t = _term(L, out)
            if t is None:
                del terms[key]
            else:
                terms[key] = t
        return NumLoop(self.frame, self.ctx, terms)

    def __neg__(self) -> "NumLoop":
        return NumLoop(self.frame, self.ctx,
                       {key: (L, {m: -v for m, v in nums.items()})
                        for key, (L, nums) in self.terms.items()})

    def __sub__(self, other: "NumLoop") -> "NumLoop":
        return self + (-other)

    def scale(self, c) -> "NumLoop":
        if not c:
            return NumLoop(self.frame, self.ctx)
        n, d = _num_den(c)
        unit = n == 1
        return NumLoop(self.frame, self.ctx, {
            key: _term(L * d, nums if unit else
                       {m: v * n for m, v in nums.items()})
            for key, (L, nums) in self.terms.items()})

    def derivative(self) -> "NumLoop":
        terms = {}
        for key, (L, nums) in self.terms.items():
            out: dict = {}
            for m, v in nums.items():
                for dm in monomial_derivative(m):
                    got = out.get(dm)
                    out[dm] = v if got is None else got + v
            t = _term(L, out)
            if t is not None:
                terms[key] = t
        return NumLoop(self.frame, self.ctx, terms)

    def bracket(self, other: "NumLoop", max_deg: Fraction | None = None) -> "NumLoop":
        """[self, other], dropping products of loop degree above max_deg;
        over Q products and sums stay in Python ints."""
        struct = self.frame.struct
        zd = self.frame.z_degree
        eig = self.frame.eig_of
        rhs = [(j, k2, eig[j] + zd * k2, L2, list(qs.items()))
               for (j, k2), (L2, qs) in other.terms.items()]
        low = min((d2 for _, _, d2, _, _ in rhs), default=0)
        # (basis index, z power) -> {denominator: {monomial: numerator}}
        acc: dict = {}
        for (i, k1), (L1, ps) in self.terms.items():
            d1 = eig[i] + zd * k1
            if max_deg is not None and d1 + low > max_deg:
                continue
            ps = ps.items()
            row = struct[i]
            for j, k2, d2, L2, qs in rhs:
                if max_deg is not None and d1 + d2 > max_deg:
                    continue
                co = row[j]
                if not co:
                    continue
                pq: dict = {}
                for m1, a in ps:
                    for m2, b in qs:
                        m = tuple(sorted(m1 + m2))
                        ab = a * b
                        got = pq.get(m)
                        pq[m] = ab if got is None else got + ab
                pq = [(m, v) for m, v in pq.items() if v]
                den = L1 * L2
                for r, c in co:
                    cn, cd = _num_den(c)
                    slot = acc.setdefault((r, k1 + k2), {}).setdefault(
                        den * cd, {})
                    for m, v in pq:
                        cv = cn * v
                        got = slot.get(m)
                        slot[m] = cv if got is None else got + cv
        terms = {}
        for key, by_den in acc.items():
            L = math.lcm(*by_den)
            if len(by_den) == 1:
                total = by_den[L]
            else:
                total = {}
                for d, slot in by_den.items():
                    _add_into(total, slot.items(), L // d)
            t = _term(L, total)
            if t is not None:
                terms[key] = t
        return NumLoop(self.frame, self.ctx, terms)


def _num_rows(mat: list) -> list:
    """A matrix as numerator rows (R, [(column, R * entry)]), with R the lcm
    of the row's denominators; zero entries are dropped."""
    rows = []
    for row in mat:
        R, nums = _common((j, c) for j, c in enumerate(row) if c)
        rows.append((R, list(nums.items())))
    return rows


def _apply_rows(rows: list, coeffs: list) -> list:
    """Numerator rows applied to a vector of pairs (or None for 0): the
    pairs (or None) of sum_j row[j] * coeffs[j], one per row, over the
    common denominator R * M, with M the lcm of the vector's denominators."""
    M = math.lcm(*(t[0] for t in coeffs if t is not None))
    vec = {}
    for j, t in enumerate(coeffs):
        if t is not None:
            L, nums = t
            vec[j] = list(nums.items()) if L == M else [
                (m, v * (M // L)) for m, v in nums.items()]
    out = []
    for R, entries in rows:
        acc: dict = {}
        for j, c in entries:
            for m, v in vec.get(j, ()):
                cv = c * v
                got = acc.get(m)
                acc[m] = cv if got is None else got + cv
        out.append(_term(R * M, acc))
    return out


def loop_const(frame: ReductionFrame, ctx: Context, vec, zpow: int = 0) -> NumLoop:
    return NumLoop(frame, ctx, {(i, zpow): _common([((), c)])
                                for i, c in enumerate(frame.to_adapted(vec)) if c})


def loop_from_zmap(frame: ReductionFrame, ctx: Context, zmap: dict) -> NumLoop:
    out = NumLoop(frame, ctx)
    for k, vec in zmap.items():
        out = out + loop_const(frame, ctx, vec, k)
    return out


def loop_fzs(frame: ReductionFrame, ctx: Context) -> NumLoop:
    return loop_from_zmap(frame, ctx, {0: frame.setup.f, 1: frame.s})


def build_q(frame: ReductionFrame, projected: bool = True) -> NumLoop:
    """q = sum_i q^i (x) q_i over the coordinate basis and its dual."""
    ctx = frame.w_ctx if projected else frame.coord_ctx
    coeffs: dict = {}  # basis index -> DiffPoly coefficient
    for pos, b in enumerate(frame.coord_idx):
        coeff = frame.coord_ctx.gen(pos)
        if projected:
            coeff = frame.pi(coeff)
        if not coeff:
            continue
        for i, c in enumerate(frame.to_adapted(frame.dual_basis[b])):
            if c:
                coeffs[i] = coeffs.get(i, ctx.zero()) + coeff.scale(c)
    return NumLoop(frame, ctx, {(i, 0): _common(p.terms.items())
                                for i, p in coeffs.items() if p})


# ---------------------------------------------------------------------------
# the kernel / image decomposition of ad(f + zs)
# ---------------------------------------------------------------------------


class HDecomposition:
    """Per-degree kernel/image split of ad(f+zs) on loop-degree slices.

    Each split degree d keeps two matrices on slice(d), built from one
    inverse: the projection onto ker ad(f+zs) along the image, and the
    inverse of ad(f+zs) from hperp(d+1), the image part of slice(d+1).
    Both are kept as numerator rows, which `split` applies to a NumLoop.
    """

    def __init__(self, frame: ReductionFrame, min_deg: Fraction, max_deg: Fraction):
        if not frame.setup.is_semisimple(
            linalg.vec_add(frame.setup.f, frame.s)
        ):
            raise NotSemisimple("f + s is not semisimple")
        self.frame = frame
        self.zd = frame.z_degree
        self._ad_fzs = ((frame.ad_adapted(frame.setup.f), 0),
                        (frame.ad_adapted(frame.s), 1))
        self.min_deg = Fraction(min_deg)
        self.max_deg = Fraction(max_deg)
        self.h_basis: dict[Fraction, list[list]] = {}
        self._proj: dict[Fraction, list] = {}
        self._solve: dict[Fraction, list] = {}
        # split degrees min_deg .. max_deg + 1; splitting d reads ad(f+zs)
        # on slice(d), slice(d+1) and slice(d+2)
        top = int(2 * (self.max_deg + 1 - self.min_deg))
        degs = [self.min_deg + Fraction(j, 2) for j in range(-2, top + 5)]
        self.slices = {d: self._slice(d) for d in degs}
        self._mats = {d: self._ad_matrix(d) for d in degs[2:]}
        for d in degs[2:top + 3]:
            self._split(d)

    def _slice(self, deg: Fraction) -> list[tuple[int, int]]:
        out = []
        for i in range(len(self.frame.basis)):
            num = self.frame.eig_of[i] - deg
            k = num / (-self.zd)
            if k.denominator == 1:
                out.append((i, int(k)))
        return out

    def _ad_matrix(self, deg: Fraction):
        """Matrix of ad(f+zs): slice(deg) -> slice(deg - 1) in slice coords."""
        dst = self.slices[deg - 1]
        pos = {key: p for p, key in enumerate(dst)}
        cols = []
        for (i, k) in self.slices[deg]:
            col = [self.frame.ring.zero()] * len(dst)
            for ad, dz in self._ad_fzs:
                for r, c in ad[i]:
                    col[pos[(r, k + dz)]] = col[pos[(r, k + dz)]] + c
            cols.append(col)
        return linalg.transpose(cols)

    def _split(self, deg: Fraction):
        ring = self.frame.ring
        m = len(self.slices[deg])
        K = linalg.kernel(self._mats[deg], ring, m)
        # hperp(deg+1) = ad(f+zs) slice(deg+2), spanned by its pivot columns
        hperp = linalg.independent(linalg.transpose(self._mats[deg + 2]))
        cols = K + [linalg.mat_vec(self._mats[deg + 1], v, ring) for v in hperp]
        if len(cols) != m:
            raise NotSemisimple(
                f"slice at degree {deg} does not split (kernel + image)")
        T = linalg.inverse(linalg.transpose(cols), ring)

        def lift(vecs, rows, n):
            # sum_a vecs[a] (x) rows[a]: the n x m matrix taking slice(deg)
            # coordinates through T to the span of vecs
            return [[sum((v[i] * r[j] for v, r in zip(vecs, rows) if v[i]),
                         ring.zero()) for j in range(m)] for i in range(n)]

        self.h_basis[deg] = K
        self._proj[deg] = _num_rows(lift(K, T[:len(K)], m))
        self._solve[deg] = _num_rows(
            lift(hperp, T[len(K):], len(self.slices[deg + 1])))

    def split(self, deg: Fraction, el: NumLoop) -> tuple:
        """(h, u) for el of degree deg: h the kernel component of el, and u
        in hperp(deg+1) with [f+zs, u] its image component."""
        coeffs = self.coeffs_of(deg, el)

        def loop(d, mats):
            if deg not in mats:
                raise WindowOverflow(
                    f"degree {deg} outside the solved window; extend max_deg")
            co = _apply_rows(mats[deg], coeffs)
            return NumLoop(self.frame, el.ctx,
                           {key: t for key, t in zip(self.slices[d], co) if t})

        return loop(deg, self._proj), loop(deg + 1, self._solve)

    def const_loop(self, deg: Fraction, vec: list, ctx: Context) -> NumLoop:
        """The constant loop element with slice(deg) coordinates vec."""
        coords = zip(self.slices[deg], vec)
        return NumLoop(self.frame, ctx,
                       {key: _common([((), c)]) for key, c in coords if c})

    def coeffs_of(self, deg: Fraction, el) -> list:
        """Slice coordinates of el, None where it has no term."""
        got = dict(el.terms)
        out = [got.pop(key, None) for key in self.slices[deg]]
        if any(el.degree_of(k) == deg for k in got):
            raise WindowOverflow(f"element leaves the degree-{deg} slice")
        return out


# ---------------------------------------------------------------------------
# the dressing recursion
# ---------------------------------------------------------------------------


def _exp_ad(U: NumLoop, D: NumLoop, max_deg: Fraction) -> NumLoop:
    """Loop part of exp(ad U)(d + D) - d, truncated above max_deg.

    ad U acts on d by [U, d] = -dU/dx; the series terminates inside the
    window because U has strictly positive loop degree.
    """
    base = U.bracket(D, max_deg) - U.trim(max_deg).derivative()
    acc = D.trim(max_deg) + base
    cur = base
    n = 2
    while cur:
        cur = U.bracket(cur, max_deg).scale(Fraction(1, n))
        acc = acc + cur
        n += 1
    return acc


def solve_dressing(
    frame: ReductionFrame,
    max_deg,
    projected: bool = True,
    dec: HDecomposition | None = None,
):
    """Solve the dressing equation up to loop degree max_deg.

    Returns (U_parts, h_parts, dec): U_parts[j] and h_parts[j] are homogeneous
    loop elements keyed by their degree, with U in hperp and h in ker.  U
    stays in numerator form (NumLoop); h is a LoopElement, with DiffPoly
    coefficients.

    The series exp(ad U)(d + D) - d = sum_n T_n, T_0 = D and
    T_n = [U, T_{n-1}]/n (with [U, d] = -dU/dx in T_1), is kept degree by
    degree: at degree d only the degree-d piece of each T_n is formed, from
    the U_j and the lower-degree pieces already known, so every bracket of
    the series is taken once.  U_{d+1}, solved at degree d, enters T_1 at d
    through [U_{d+1}, f+zs] only after the split.  All of this runs in
    numerator form, and only h is converted to DiffPoly coefficients.
    """
    max_deg = Fraction(max_deg)
    if dec is None:
        dec = HDecomposition(frame, Fraction(-1), max_deg)
    ctx = frame.w_ctx if projected else frame.coord_ctx
    fzs = loop_fzs(frame, ctx)
    D = fzs + build_q(frame, projected)

    U_parts: dict = {}
    h_parts: dict = {}
    # series[n][d]: the degree-d piece of T_n
    series = [{d: D.component(d) for d in map(D.degree_of, D.terms)}, {}]
    deg = Fraction(-1, 2)
    while deg <= max_deg:
        if dec.slices.get(deg):
            R = series[0].get(deg, NumLoop(frame, ctx))
            for n in range(1, len(series) + 1):
                piece = NumLoop(frame, ctx)
                for j, u in U_parts.items():
                    prev = series[n - 1].get(deg - j)
                    if prev:
                        piece = piece + u.bracket(prev)
                if n == 1 and deg in U_parts:
                    piece = piece - U_parts[deg].derivative()
                elif n > 1:
                    piece = piece.scale(Fraction(1, n))
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
                        deg, NumLoop(frame, ctx)) + u_el.bracket(fzs)
        deg += Fraction(1, 2)
    return U_parts, {d: h.to_loop() for d, h in h_parts.items()}, dec


def dressing_defect(
    frame: ReductionFrame,
    U_parts: dict,
    h_parts: dict,
    max_deg,
    projected: bool = True,
) -> NumLoop:
    """Full-exponential re-expansion oracle.

    Applies exp(ad U) with the complete U to d + (f+zs) + q in one shot and
    subtracts d + (f+zs) + sum(h); exact zero certifies the incremental solve.
    """
    max_deg = Fraction(max_deg)
    ctx = frame.w_ctx if projected else frame.coord_ctx
    fzs = loop_fzs(frame, ctx)
    D = fzs + build_q(frame, projected)
    U = NumLoop(frame, ctx)
    for u in U_parts.values():
        U = U + u
    want = fzs
    for h in h_parts.values():
        want = want + NumLoop.of(h)
    return (_exp_ad(U, D, max_deg) - want.trim(max_deg)).trim(max_deg)


# ---------------------------------------------------------------------------
# centers, densities, flows
# ---------------------------------------------------------------------------


def _h_loops(dec: HDecomposition, ctx: Context, d: Fraction) -> list:
    """The kernel basis of slice(d), as NumLoops."""
    return [dec.const_loop(d, v, ctx) for v in dec.h_basis.get(d, [])]


def center_of_h(frame: ReductionFrame, dec: HDecomposition,
                degrees: list) -> dict:
    """Degree-wise center of ker(ad(f+zs)) within the decomposition window."""
    ring = frame.ring
    ctx = frame.w_ctx
    all_h = [w for d in sorted(dec.h_basis) for w in _h_loops(dec, ctx, d)]
    out = {}
    for d in degrees:
        d = Fraction(d)
        K = dec.h_basis.get(d, [])
        if not K:
            out[d] = []
            continue
        cands = _h_loops(dec, ctx, d)
        rows = []
        for w in all_h:
            # brackets of constant loops: every coefficient is (L, {(): n})
            brs = [c.bracket(w).terms for c in cands]
            for key in sorted({key for b in brs for key in b}):
                rows.append([_value(b[key][1][()], b[key][0]) if key in b
                             else ring.zero() for b in brs])
        coefs = linalg.kernel(rows, ring, len(cands))
        out[d] = [dec.const_loop(d, linalg.combine(co, K), ctx) for co in coefs]
    return out


def check_central(frame: ReductionFrame, dec: HDecomposition, a_z: dict) -> bool:
    ctx = frame.w_ctx
    el = loop_from_zmap(frame, ctx, a_z)
    if any(el.bracket(w) for d in dec.h_basis for w in _h_loops(dec, ctx, d)):
        return False
    # membership of a(z) itself in ker ad(f+zs)
    return not loop_fzs(frame, ctx).bracket(el)


def conserved_densities(
    frame: ReductionFrame,
    h_parts: dict,
    a_z: dict,
    n_max: int | None = None,
    *,
    dec: HDecomposition,
) -> list[DiffPoly]:
    """Densities g_n from int g(z) = int (a(z) x 1 | h(z)), in V(g^f) coordinates.

    a_z maps z powers to g-vectors; the leading power is read off as the top
    nonzero z power of the pairing.  g_n needs h up to loop degree
    d_0 + |z_degree| n, where d_0 is the degree of the h that g_0 reads.
    dec.max_deg is the solved window: an n_max past it raises
    WindowOverflow, and n_max=None gives the densities it resolves.
    """
    if not check_central(frame, dec, a_z):
        raise InvalidCenter("a(z) does not lie in the center of ker ad(f+zs)")
    total: dict[int, DiffPoly] = {}
    for h in h_parts.values():
        for zp, p in h.pair_with(a_z).items():
            got = total.get(zp)
            got = p if got is None else got + p
            if got:
                total[zp] = got
            else:
                total.pop(zp, None)
    if not total:
        return []
    top = max(total)
    # the pairing puts the h of degree -deg(a) + zd k at z power k, for each
    # homogeneous piece of a(z); the lowest piece reaches highest
    zd = frame.z_degree
    low = min(frame.eig_of[i] + zd * k
              for k, vec in a_z.items()
              for i, c in enumerate(frame.to_adapted(vec)) if c)
    d0 = zd * top - low
    resolved = math.floor((dec.max_deg - d0) / -zd)
    if n_max is not None and n_max > resolved:
        needed = d0 - zd * n_max
        raise WindowOverflow(
            f"g_{n_max} needs h up to loop degree {needed}; the dressing"
            f" is solved up to {dec.max_deg}", needed)
    last = resolved if n_max is None else n_max
    zero = frame.w_ctx.zero()
    return [total.get(top - n, zero) for n in range(last + 1)]


def hierarchy_equation(
    frame: ReductionFrame,
    gens,
    density: DiffPoly,
    w_elt: DiffPoly,
    use_k: bool = False,
) -> DiffPoly:
    """dw/dt = {g_n lambda w}_H at lambda = 0, in V(g^f) coordinates.

    The bracket is taken on V(g^f) through the generator table of W; the
    element w of W enters through its image under pi.
    """
    hk = master_bracket(gens.table, density, frame.pi(w_elt))
    return hk[1 if use_k else 0].at_zero()


def _involution_defects(gens, da: list, db: list, what: str,
                        upper: bool = False) -> list[str]:
    """The pairs (m, n) with int{g_m lambda g_n} != 0 at lambda = 0, per
    structure; upper restricts to n >= m."""
    bad = []
    zero = gens.frame.w_ctx.zero()
    for m, gm in enumerate(da):
        for n in range(m if upper else 0, len(db)):
            h, k = master_bracket(gens.table, gm, db[n])
            if not functional_equal(h.at_zero(), zero):
                bad.append(f"H{what} ({m},{n})")
            if not functional_equal(k.at_zero(), zero):
                bad.append(f"K{what} ({m},{n})")
    return bad


def verify_lenard_magri(frame: ReductionFrame, gens, densities: list) -> list[str]:
    """The recursion int{g_n w}_H = int{g_n+1 w}_K, K-exactness of g_0,
    and pairwise involutivity in both structures."""
    bad = []
    named = gens.all_generators()
    zero = frame.w_ctx.zero()
    for name, w in named:
        k0 = hierarchy_equation(frame, gens, densities[0], w, use_k=True)
        if not functional_equal(k0, zero):
            bad.append(f"int({{g_0 , {name}}}_K) != 0")
    for n in range(len(densities) - 1):
        for name, w in named:
            lhs = hierarchy_equation(frame, gens, densities[n], w)
            rhs = hierarchy_equation(frame, gens, densities[n + 1], w, use_k=True)
            if not functional_equal(lhs, rhs):
                bad.append(f"recursion n={n} fails on {name}")
    return bad + _involution_defects(gens, densities, densities,
                                     "-involutivity", upper=True)


def involution_cross(frame: ReductionFrame, gens, da: list, db: list) -> list[str]:
    """Involutivity across two density families (both structures)."""
    return _involution_defects(gens, da, db, " cross-involutivity")


def reduce_mod_jk(frame: ReductionFrame, p: DiffPoly) -> DiffPoly:
    """Quotient by the ideal of K-central weight-1 generators.

    A weight-1 generator a is K-central iff [a, s] = 0; those generators and
    all their derivatives are set to zero (V(g^f) coordinates).  For s = e
    this kills all of g_0^f.
    """
    images = []
    for pos, b in enumerate(frame.w_idx):
        if frame.eig_of[b] == 0 and not any(
            frame.algebra.bracket(frame.basis[b], frame.s)
        ):
            images.append(frame.w_ctx.zero())
        else:
            images.append(frame.w_ctx.gen(pos))
    return p.map_generators(frame.w_ctx, images)
