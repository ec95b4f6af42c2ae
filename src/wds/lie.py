"""Finite-dimensional Lie algebras over an exact scalar field.

Provides sl_n / sp_n with their trace forms, sl2-triple completion through
a nilpotent element, the ad(x)-eigenspace grading with its dual bases, the
projection sharp onto g_0^f, Jordan products on the +-1 eigenspaces of a
short nilpotent, and embeddable elements of the half eigenspace.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Sequence

from . import linalg
from .scalars import ParamRing, Q, Scalar, ScalarLike

Vec = linalg.Vec  # {basis index: nonzero coefficient}


class InvalidDimension(ValueError):
    pass


class UnknownLabel(ValueError):
    pass


class NotNilpotent(ValueError):
    pass


class WrongKind(ValueError):
    pass


class GradeMismatch(ValueError):
    pass


class SingularPairing(ValueError):
    pass


class InvariantFailed(ValueError):
    """A structural identity that holds by construction came out false."""


class LieAlgebra:
    """Ordered basis, sparse structure constants and an invariant form.

    struct[i][j] is the Vec of [e_i, e_j] and form[i] the Vec of the
    (e_i|e_j) over j, each with its keys increasing.
    """

    def __init__(self, ring: ParamRing, labels: Sequence[str],
                 struct: list[list[Vec]], form: list[Vec]):
        if len(set(labels)) != len(labels):
            dup = sorted({x for x in labels if labels.count(x) > 1})
            raise InvariantFailed(f"duplicate basis labels {dup}")
        self.ring = ring
        self.labels = tuple(labels)
        self.dim = len(labels)
        self.struct = struct
        self.form = form
        self.units = [{i: ring.one()} for i in range(self.dim)]

    # -- bilinear operations ------------------------------------------

    def bracket(self, u: Vec, v: Vec) -> Vec:
        acc = {}
        for i, ci in u.items():
            row = self.struct[i]
            for j, cj in v.items():
                terms = row[j]
                if terms:
                    c = ci * cj
                    for k, b in terms.items():
                        acc[k] = acc[k] + c * b if k in acc else c * b
        return {k: a for k, a in acc.items() if a}

    def pair(self, u: Vec, v: Vec) -> Scalar:
        acc = self.ring.zero()
        for i, ci in u.items():
            for j, c in self.form[i].items():
                cj = v.get(j)
                if cj is not None:
                    acc = acc + ci * cj * c
        return acc

    def killing(self, u: Vec, v: Vec) -> Scalar:
        """tr(ad u ad v): the sum over j of the e_j coefficient of
        [u, [v, e_j]]."""
        acc = self.ring.zero()
        for j, e in enumerate(self.units):
            c = self.bracket(u, self.bracket(v, e)).get(j)
            if c is not None:
                acc = acc + c
        return acc

    # -- structural checks ---------------------------------------------

    def check_axioms(self) -> list[str]:
        """Antisymmetry, Jacobi and invariance on all basis triples, read
        off the structure constants c_ij^k and the form entries."""
        bad = []
        n, lab, st = self.dim, self.labels, self.struct
        for i in range(n):
            for j in range(n):
                sym = st[i][j].copy()
                for k, c in st[j][i].items():
                    sym[k] = sym[k] + c if k in sym else c
                if any(sym.values()):
                    bad.append(f"antisymmetry [{lab[i]},{lab[j]}]")

        def brackets_with(terms, k, acc):
            # acc += sum_m c_m [e_m, e_k] over the m, c_m of terms
            for m, c in terms.items():
                for l, b in st[m][k].items():
                    acc[l] = acc[l] + c * b if l in acc else c * b

        # [[e_a, e_b], e_c] is nonzero only if some e_m of [e_a, e_b]
        # brackets nonzero with e_c; (a, b, c) is a rotation of the triple
        # whose Jacobi sum it enters, which is checked if i < j <= k
        partners = [{c for c, row in enumerate(rows) if row} for rows in st]
        reached = {min((a, b, c), (b, c, a), (c, a, b))
                   for a, rows in enumerate(st) for b, row in enumerate(rows)
                   for c in set().union(*(partners[m] for m in row))}
        for i, j, k in sorted(t for t in reached if t[0] < t[1] <= t[2]):
            jac = {}
            brackets_with(st[i][j], k, jac)
            brackets_with(st[j][k], i, jac)
            brackets_with(st[k][i], j, jac)
            if any(jac.values()):
                bad.append(f"jacobi ({lab[i]},{lab[j]},{lab[k]})")
        for i in range(n):
            # into[m] lists the (k, c_ik^m)
            into = [[] for _ in range(n)]
            for k, row in enumerate(st[i]):
                for m, c in row.items():
                    into[m].append((k, c))
            for j in range(n):
                # sum_m c_ij^m (e_m|e_k) + sum_m (e_j|e_m) c_ik^m, by k
                inv = {}
                for m, c in st[i][j].items():
                    for k, b in self.form[m].items():
                        inv[k] = inv[k] + c * b if k in inv else c * b
                for m, b in self.form[j].items():
                    for k, c in into[m]:
                        inv[k] = inv[k] + b * c if k in inv else b * c
                for k in sorted(inv):
                    if inv[k]:
                        bad.append(f"invariance ({lab[i]},{lab[j]},{lab[k]})")
        if len(linalg.independent(self.form, self.ring)) != n:
            bad.append("degenerate form")
        return bad

    def vec_str(self, v: Vec) -> str:
        parts = []
        for i in sorted(v):
            c = v[i]
            if c == 1:
                parts.append(self.labels[i])
            elif c == -1:
                parts.append(f"-{self.labels[i]}")
            else:
                parts.append(f"({c})*{self.labels[i]}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def parse(self, expr: dict[str, ScalarLike]) -> Vec:
        v = {}
        for label, c in expr.items():
            if label not in self.labels:
                raise UnknownLabel(f"unknown basis label {label!r}")
            c = self.ring.coerce(c)
            if c:
                v[self.labels.index(label)] = c
        return v

    def to_json(self) -> dict:
        lab, zero = self.labels, self.ring.zero()
        entries = {}
        for i in range(self.dim):
            for j in range(self.dim):
                for k, c in self.struct[i][j].items():
                    entries[f"{lab[i]},{lab[j]},{lab[k]}"] = str(c)
        return {
            "dim": self.dim,
            "basis": list(lab),
            "structure": entries,
            "form": [[str(row.get(j, zero)) for j in range(self.dim)]
                     for row in self.form],
        }


# ---------------------------------------------------------------------------
# matrix realizations
# ---------------------------------------------------------------------------


def _matrix_algebra(ring: ParamRing, labels: list[str],
                    mats: list[dict[tuple[int, int], int]],
                    form_scale: Scalar) -> LieAlgebra:
    """The span of the basis matrices mats, each given by its nonzero
    entries {(r, c): x}, with (a|b) = form_scale tr(ab).

    Coordinate k of a commutator X is tr(X D^k), over the basis D^k
    trace-dual to mats, read off the one inverse of the trace Gram matrix;
    gram[a] is the Vec of the tr(a b), its row and its column a.
    """
    gram = [{k: tr for k, b in enumerate(mats) if (tr := sum(
        (x * b.get((c, r), 0) for (r, c), x in a.items()), Fraction(0)))}
        for a in mats]
    # dual_at[(r, c)] maps k to the (c, r) entry of D^k
    dual_at = {}
    for inv_col, m in zip(linalg.inverse(gram, Q), mats):
        for (r, c), x in m.items():
            at = dual_at.setdefault((c, r), {})
            for k, y in inv_col.items():
                at[k] = at.get(k, 0) + x * y

    def coords(a, b):
        """The Vec of [a, b] over mats, its keys increasing."""
        comm = {}
        for left, right, sign in ((a, b, 1), (b, a, -1)):
            for (r, k), x in left.items():
                for (k1, c), y in right.items():
                    if k == k1:
                        comm[r, c] = comm.get((r, c), 0) + sign * x * y
        out = {}
        for pos, x in comm.items():
            for k, y in dual_at.get(pos, {}).items():
                out[k] = out.get(k, 0) + x * y
        return {k: ring.const(x) for k, x in sorted(out.items()) if x}

    struct = [[coords(a, b) for b in mats] for a in mats]
    form = [{j: form_scale * ring.const(tr) for j, tr in row.items()}
            for row in gram]
    return LieAlgebra(ring, labels, struct, form)


def index_label(stem: str, i: int, j: int) -> str:
    """The basis label stem + i + j of a matrix algebra; an underscore
    separates indices of two or more digits, so that E1_11 and E11_1
    differ while E12 stays E12."""
    return f"{stem}{i}{j}" if i < 10 and j < 10 else f"{stem}{i}_{j}"


def build_sl(n: int, params: Sequence[str] = (), form_scale: str | None = None) -> LieAlgebra:
    """Traceless n x n matrices; basis E_ij (i != j) and H_i = E_ii - E_i+1,i+1.

    The bilinear form is tr(ab), optionally scaled by a named parameter so
    that (E_ij|E_ji) equals that symbol instead of 1.
    """
    if n < 2:
        raise InvalidDimension(f"sl_{n} needs n >= 2")
    if n > sys.maxsize:
        raise OverflowError(f"sl_{n}: n exceeds sys.maxsize")
    names = list(params)
    if form_scale is not None and form_scale not in names:
        names.append(form_scale)
    ring = ParamRing(names)
    scale = ring.param(form_scale) if form_scale is not None else ring.one()

    labels = [index_label("E", i + 1, j + 1)
              for i in range(n) for j in range(n) if i != j]
    mats = [{(i, j): 1} for i in range(n) for j in range(n) if i != j]
    labels += [f"H{i + 1}" for i in range(n - 1)]
    mats += [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
    return _matrix_algebra(ring, labels, mats, scale)


def build_sp(n: int, params: Sequence[str] = ()) -> LieAlgebra:
    """sp_n (n even) as block matrices [[A, B], [C, -A^T]], B and C symmetric."""
    if n < 2 or n % 2:
        raise InvalidDimension(f"sp_{n} needs even n >= 2")
    if n > sys.maxsize:
        raise OverflowError(f"sp_{n}: n exceeds sys.maxsize")
    m = n // 2
    ring = ParamRing(params)

    # B_ij and C_ij are symmetric: for i == j the two entries coincide
    upper = [(i, j) for i in range(m) for j in range(i, m)]
    labels = ([index_label("A", i + 1, j + 1) for i in range(m) for j in range(m)]
              + [index_label("B", i + 1, j + 1) for i, j in upper]
              + [index_label("C", i + 1, j + 1) for i, j in upper])
    mats = ([{(i, j): 1, (m + j, m + i): -1} for i in range(m) for j in range(m)]
            + [{(i, m + j): 1, (j, m + i): 1} for i, j in upper]
            + [{(m + i, j): 1, (m + j, i): 1} for i, j in upper])
    return _matrix_algebra(ring, labels, mats, ring.one())


# ---------------------------------------------------------------------------
# gradings from sl2-triples
# ---------------------------------------------------------------------------

MINIMAL = "minimal"
SHORT = "short"

_ALLOWED = {
    MINIMAL: {Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)},
    SHORT: {Fraction(-1), Fraction(0), Fraction(1)},
}


class GradedSetup:
    """An sl2-triple {f, 2x, e}, the ad(x)-grading and cached dual bases."""

    def __init__(self, algebra: LieAlgebra, f: Vec, kind: str):
        if kind not in (MINIMAL, SHORT):
            raise WrongKind(kind)
        self.algebra = algebra
        self.ring = algebra.ring
        self.kind = kind
        self.f = dict(f)
        self._complete_triple()
        self._grade()
        self._build_adapted_basis()
        self._build_duals()

    # -- sl2 completion -------------------------------------------------

    def _complete_triple(self):
        g, ring, f = self.algebra, self.ring, self.f
        y = linalg.solve(g.units, lambda v: [g.bracket(f, g.bracket(f, v))],
                         [linalg.scale(f, ring.const(2))], ring)
        if y is None:
            raise NotNilpotent("no sl2-completion: ad(f)^2 y = 2f unsolvable")
        self.x = linalg.scale(g.bracket(f, y), ring.const(Fraction(1, 2)))
        # e: [x, e] = e and [f, e] = -2x, free components set to zero
        e = linalg.solve(
            g.units, lambda v: [self._shifted(v, 1), g.bracket(f, v)],
            [{}, linalg.scale(self.x, ring.const(-2))], ring)
        if e is None:
            raise NotNilpotent("no sl2-completion: e equations unsolvable")
        self.e = e
        if not self._is_triple():
            raise InvariantFailed("sl2-triple relations failed")

    def _shifted(self, v: Vec, ev) -> Vec:
        """[x, v] - ev v."""
        return linalg.combine([self.ring.one(), self.ring.const(-ev)],
                              [self.algebra.bracket(self.x, v), v])

    def _is_triple(self) -> bool:
        g, ring, x = self.algebra, self.ring, self.x
        return (g.bracket(x, self.e) == self.e
                and g.bracket(x, self.f) == linalg.scale(self.f, ring.const(-1))
                and g.bracket(self.e, self.f) == linalg.scale(x, ring.const(2)))

    # -- eigenspaces ------------------------------------------------------

    def _grade(self):
        g, ring = self.algebra, self.ring
        allowed = _ALLOWED[self.kind]

        def eigenspace(ev: Fraction) -> list[Vec]:
            return linalg.kernel_span(
                g.units, lambda v: [self._shifted(v, ev)], ring)

        spaces = {ev: ker for ev in sorted(allowed) if (ker := eigenspace(ev))}
        if sum(map(len, spaces.values())) != g.dim:
            # x of an sl2-triple has half-integer ad-eigenvalues below
            # dim g / 2 in size; find the others only to name them
            for k in range(1, g.dim):
                for ev in (Fraction(-k, 2), Fraction(k, 2)):
                    if ev not in allowed and (ker := eigenspace(ev)):
                        spaces[ev] = ker
                if sum(map(len, spaces.values())) == g.dim:
                    break
            raise WrongKind(
                f"eigenvalues [{', '.join(map(str, sorted(spaces)))}] invalid "
                f"for kind {self.kind}")
        if self.kind == MINIMAL and (
            len(spaces.get(Fraction(1), ())) != 1
            or len(spaces.get(Fraction(-1), ())) != 1
        ):
            raise WrongKind("minimal kind needs dim g_{+-1} = 1")
        self._eigenspaces = spaces
        self.depth = max(ev for ev in spaces)

    # -- adapted basis ------------------------------------------------------

    def _build_adapted_basis(self):
        g, ring = self.algebra, self.ring
        spaces = self._eigenspaces
        basis: list[Vec] = []
        eig_of: list[Fraction] = []
        grading: dict[Fraction, list[int]] = {}
        self.gf_indices: list[int] = []
        self.g0f_indices: list[int] = []
        self.g0c_indices: list[int] = []  # complement [e, g_-1] inside g_0

        def push(v: Vec, ev: Fraction, in_gf: bool):
            basis.append(v)
            eig_of.append(ev)
            grading.setdefault(ev, []).append(len(basis) - 1)
            if in_gf:
                self.gf_indices.append(len(basis) - 1)

        for ev in sorted(spaces):
            vecs = spaces[ev]
            if ev < 0:
                if ev == -1 and self.kind == MINIMAL:
                    vecs = [self.f]
                elif ev == -1:
                    vecs = linalg.independent([self.f] + vecs, ring)
                for v in vecs:
                    push(v, ev, True)
            elif ev == 0:
                g0f = linalg.kernel_span(
                    vecs, lambda v: [g.bracket(self.f, v)], ring)
                neg1 = grading.get(Fraction(-1), [])
                comp = [g.bracket(self.e, basis[i]) for i in neg1]
                if self.kind == MINIMAL:
                    comp = [self.x]
                for v in g0f:
                    push(v, ev, True)
                    self.g0f_indices.append(len(basis) - 1)
                for v in comp:
                    push(v, ev, False)
                    self.g0c_indices.append(len(basis) - 1)
                if len(g0f) + len(comp) != len(vecs):
                    raise InvariantFailed("g_0 does not split as g_0^f + complement")
            else:
                if ev == 1 and self.kind == MINIMAL:
                    vecs = [self.e]
                for v in vecs:
                    push(v, ev, False)

        self.basis = basis
        self.eig_of = eig_of
        self.grading = grading
        self.gram, self.dual_basis, self._coords = self.dual_data(basis)
        self.labels = self._make_labels()

    def _make_labels(self) -> list[str]:
        g = self.algebra
        labels = []
        counters: dict[str, int] = {}
        for idx, v in enumerate(self.basis):
            if len(v) == 1 and list(v.values()) == [1]:
                labels.append(g.labels[next(iter(v))])
                continue
            ev = self.eig_of[idx]
            if self.kind == MINIMAL and idx == self.grading[Fraction(-1)][0]:
                name = "f"
            elif ev == 1 and self.kind == MINIMAL:
                name = "e"
            elif idx in self.g0c_indices and self.kind == MINIMAL:
                name = "x"
            else:
                stem = (
                    "a" if idx in self.g0f_indices
                    else "t" if idx in self.g0c_indices
                    else "u" if ev < 0
                    else "v"
                )
                counters[stem] = counters.get(stem, 0) + 1
                name = f"{stem}{counters[stem]}"
            labels.append(name)
        # disambiguate against original labels
        seen = {}
        for i, name in enumerate(labels):
            if labels.count(name) > 1:
                seen[name] = seen.get(name, 0) + 1
                labels[i] = f"{name}_{seen[name]}"
        return labels

    # -- coordinates ----------------------------------------------------

    def to_adapted(self, v: Vec) -> Vec:
        return linalg.combine(v, self._coords)

    def eig_indices(self, ev) -> list[int]:
        return self.grading.get(Fraction(ev), [])

    # -- dual bases --------------------------------------------------------

    def dual_of_gram(self, gram: list[Vec], vecs: list[Vec]) -> list[Vec]:
        """The basis v^h of span(vecs) dual to vectors p_h, given the Gram
        columns gram[k] = {h: pairing(p_h, vecs[k])}: pairing(p_h, v^k) =
        delta.

        Raises SingularPairing when the Gram matrix is singular.
        """
        try:
            inv = linalg.inverse(gram, self.ring)
        except ArithmeticError:
            raise SingularPairing("degenerate pairing between subspaces") from None
        return [linalg.combine(col, vecs) for col in inv]

    def dual_data(self, basis: list[Vec]):
        """The Gram matrix of a basis of g, as the Vecs gram[j] of the
        (b_i|b_j), each its row and its column j; the dual basis b^i with
        (b_j|b^i) = delta_ij from its one inverse; and the coordinate map:
        coordinate i of v is (v|b^i), and entry j of the map is the Vec of
        the coordinates of e_j, which to_adapted combines."""
        g = self.algebra
        gram = [{i: c for i, u in enumerate(basis) if (c := g.pair(u, v))}
                for v in basis]
        dual = self.dual_of_gram(gram, basis)
        coords = [{} for _ in range(g.dim)]
        for i, d in enumerate(dual):
            for j, c in linalg.combine(d, g.form).items():
                coords[j][i] = c
        return gram, dual, coords

    def omega_minus(self, u: Vec, u1: Vec) -> Scalar:
        return self.algebra.pair(self.e, self.algebra.bracket(u, u1))

    def omega_plus(self, v: Vec, v1: Vec) -> Scalar:
        return self.algebra.pair(self.f, self.algebra.bracket(v, v1))

    def _build_duals(self):
        # the form pairs g_k only with g_-k and g_0^f only with itself, so
        # these dual bases are restrictions of the full one
        def restricted(idx):
            return [self.basis[i] for i in idx], [self.dual_basis[i] for i in idx]

        self.a_pairs = restricted(self.g0f_indices)
        self.g0_pairs = restricted(self.eig_indices(0))
        if self.kind == MINIMAL:
            # the basis l + l' of g_1/2 has omega_+-dual basis l' + (-l)
            l_side, lp_side = darboux_split(self)
            self.v_pairs = (l_side + lp_side, lp_side + [
                linalg.scale(v, self.ring.const(-1)) for v in l_side])
        else:
            self.u_pairs = restricted(self.eig_indices(-1))

    # -- derived structure ---------------------------------------------

    def xx(self) -> Scalar:
        return self.algebra.pair(self.x, self.x)

    def dual_coxeter(self) -> Scalar:
        """kappa(x|x) with kappa the Killing form."""
        return self.algebra.killing(self.x, self.x)

    def sharp(self, a: Vec) -> Vec:
        """Projection of a in g_0 onto g_0^f (orthogonal complement split)."""
        coords_in(self, a, self.eig_indices(0), "sharp projection needs a in g_0")
        a_basis, a_dual = self.a_pairs
        return linalg.combine([self.algebra.pair(a, bd) for bd in a_dual], a_basis)

    def jordan(self, a: Vec, b: Vec, eigen: int = -1) -> Vec:
        """a o b = [[e,a],b] on g_-1, or a * b = [[f,a],b] on g_+1."""
        if self.kind != SHORT:
            raise GradeMismatch("Jordan products need a short grading")
        for w in (a, b):
            coords_in(self, w, self.eig_indices(eigen),
                      f"arguments must lie in g_{eigen}")
        mid = self.e if eigen == -1 else self.f
        return self.algebra.bracket(self.algebra.bracket(mid, a), b)

    def find_embeddable(self, s: Vec) -> Vec | None:
        """Solve [s, s*] = 2x for s* in g_-1/2; None when unsolvable.

        A solution makes {2s*, 4x, s} an sl2-triple; the structural
        decompositions that follow are verified before returning.
        """
        if self.kind != MINIMAL:
            raise GradeMismatch("embeddable elements live in a minimal grading")
        g = self.algebra
        out = linalg.solve(
            [self.basis[i] for i in self.eig_indices(Fraction(-1, 2))],
            lambda v: [g.bracket(s, v)],
            [linalg.scale(self.x, self.ring.const(2))], self.ring)
        if out is None:
            return None
        bad = EmbeddableData(self, s, out).check()
        if bad:
            raise InvariantFailed(f"embeddable structure checks failed: {bad}")
        return out

    def is_semisimple(self, v: Vec) -> bool:
        """Rank test: ker(ad v) and im(ad v) intersect trivially."""
        g = self.algebra
        ad = [g.bracket(v, u) for u in g.units]
        ad2 = [g.bracket(v, w) for w in ad]
        return (len(linalg.independent(ad, self.ring))
                == len(linalg.independent(ad2, self.ring)))

    def to_json(self) -> dict:
        g = self.algebra
        return {
            "kind": self.kind,
            "depth": str(self.depth),
            "e": g.vec_str(self.e),
            "x": g.vec_str(self.x),
            "f": g.vec_str(self.f),
            "grading": {
                str(ev): [self.labels[i] for i in idxs]
                for ev, idxs in sorted(self.grading.items())
            },
            "adapted_basis": {
                self.labels[i]: g.vec_str(v) for i, v in enumerate(self.basis)
            },
        }


def coords_in(owner, v: Vec, allowed, what: str) -> Vec:
    """Adapted coordinates of v in owner's basis (a setup or a frame).

    Raises GradeMismatch(what) unless they vanish off the indices allowed.
    """
    co = owner.to_adapted(v)
    if any(i not in allowed for i in co):
        raise GradeMismatch(what)
    return co


def darboux_split(setup: GradedSetup, seed: Vec | None = None):
    """Split g_1/2 into omega_+-dual maximal isotropic halves (l, l').

    Symplectic Gram-Schmidt; a seed vector, when given, becomes the first
    basis vector of l.
    """
    if setup.kind != MINIMAL:
        raise GradeMismatch("isotropic splits need a minimal grading")
    ring = setup.ring
    pool = [setup.basis[i] for i in setup.eig_indices(Fraction(1, 2))]
    if seed is not None:
        pool = linalg.independent([seed] + pool, ring)
    l_side, lp_side = [], []
    while pool:
        v1 = pool[0]
        rest = pool[1:]
        wi = next((i for i, u in enumerate(rest) if setup.omega_plus(v1, u)), None)
        if wi is None:
            raise SingularPairing("omega_+ degenerate on remaining space")
        w = linalg.scale(rest[wi], 1 / setup.omega_plus(v1, rest[wi]))
        l_side.append(v1)
        lp_side.append(w)
        new_pool = []
        for i, u in enumerate(rest):
            if i == wi:
                continue
            u1 = linalg.combine(
                [ring.one(), -setup.omega_plus(u, w), setup.omega_plus(u, v1)],
                [u, v1, w])
            if u1:
                new_pool.append(u1)
        pool = new_pool
    return l_side, lp_side


class EmbeddableData:
    """Centralizer bases g_0^s, g^s_1/2 and the form chi of an s in g_1/2.

    Nothing is inverted here, so check() can report a degenerate chi; a
    chi-dual basis of g^s_1/2 is setup.dual_of_gram over the Gram columns
    {h: chi(p_h, q)} of gs_half.
    """

    def __init__(self, setup: GradedSetup, s: Vec, s_star: Vec):
        self.setup = setup
        self.s = dict(s)
        self.s_star = dict(s_star)
        g = setup.algebra
        half = Fraction(1, 2)

        def centralizer(indices, v):
            return linalg.kernel_span([setup.basis[i] for i in indices],
                                      lambda w: [g.bracket(v, w)], setup.ring)

        self.g0s = centralizer(setup.g0f_indices, s)
        self.gs_half = centralizer(setup.eig_indices(half), s)

    def chi(self, u: Vec, v: Vec) -> Scalar:
        g, setup = self.setup.algebra, self.setup
        a = g.bracket(self.s, g.bracket(setup.f, u))
        b = g.bracket(self.s, g.bracket(setup.f, v))
        return g.pair(a, b)

    def check(self) -> list[str]:
        """The structural decompositions attached to an embeddable element."""
        bad = []
        setup, g, ring = self.setup, self.setup.algebra, self.setup.ring
        s, st = self.s, self.s_star
        half = Fraction(1, 2)
        two_x = linalg.scale(setup.x, ring.const(2))

        def dim_of(vecs):
            return len(linalg.independent(vecs, ring))

        if g.bracket(s, st) != two_x:
            bad.append("[s, s*] != 2x")
        # sl2-triple {2s*, 4x, s}
        if g.bracket(two_x, s) != s:
            bad.append("[2x, s] != s")
        # (a) g_0^s inside g_0^f
        for v in self.g0s:
            if g.bracket(setup.f, v):
                bad.append("g_0^s not inside g_0^f")
        # (b) bijectivity of ad f, ad s ad f, ad s ad s ad f on g^s_1/2
        imgs = [
            [g.bracket(setup.f, u) for u in self.gs_half],
            [g.bracket(s, g.bracket(setup.f, u)) for u in self.gs_half],
            [g.bracket(s, g.bracket(s, g.bracket(setup.f, u)))
             for u in self.gs_half],
        ]
        for m, im in enumerate(imgs):
            if im and dim_of(im) != len(self.gs_half):
                bad.append(f"ad-map {m} not injective on g^s_1/2")
        # (e) g_0^f = g_0^s + [s, [f, g^s_1/2]], orthogonal direct sum
        comp = imgs[1]
        span = self.g0s + comp
        if span and dim_of(span) != len(setup.g0f_indices):
            bad.append("g_0^f does not split as g_0^s + [s,[f,g^s_1/2]]")
        for a in self.g0s:
            for b in comp:
                if g.pair(a, b):
                    bad.append("g_0^s not orthogonal to [s,[f,g^s_1/2]]")
        # (f) dual decompositions of the half eigenspaces
        if dim_of(imgs[2] + [s]) != len(setup.eig_indices(half)):
            bad.append("g_1/2 != [s,[s,[f,g^s_1/2]]] + F s")
        if dim_of(imgs[0] + [st]) != len(setup.eig_indices(half)):
            bad.append("g_-1/2 != [f, g^s_1/2] + F s*")
        for u in imgs[2]:
            if g.pair(u, st):
                bad.append("[s,[s,[f,g^s_1/2]]] not orthogonal to s*")
        # (h) chi nondegenerate and g_0^s invariant
        M = [{k: c for k, v in enumerate(self.gs_half) if (c := self.chi(u, v))}
             for u in self.gs_half]
        if dim_of(M) != len(self.gs_half):
            bad.append("chi degenerate")
        for c in self.g0s:
            for u in self.gs_half:
                for v in self.gs_half:
                    lhs = self.chi(g.bracket(c, u), v)
                    rhs = self.chi(u, g.bracket(c, v))
                    if lhs + rhs:
                        bad.append("chi not g_0^s invariant")
        return bad
