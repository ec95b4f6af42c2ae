"""Exact linear algebra over a ParamRing: entries are Fractions over Q and
Scalars over Q(p), and only the operations they share are used.

A vector is a Vec {index: coefficient} with no zero coefficient, so equal
vectors are equal dicts; `independent`, `kernel_span` and `solve` eliminate
on vectors.  A matrix is a dense list of rows, on which the RREF, kernel
and inverse run: the Gram matrices and the slice matrices of the loop
decomposition.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import ParamRing, Scalar

Vec = dict  # {index: nonzero coefficient}
Mat = list  # list of rows


def combine(coeffs, vecs: Sequence[Vec]) -> Vec:
    """sum_k coeffs[k] * vecs[k], over the k of a coefficient sequence or
    of a Vec of coefficients."""
    acc = {}
    for k, c in coeffs.items() if coeffs.__class__ is dict else enumerate(coeffs):
        if c:
            for i, x in vecs[k].items():
                acc[i] = acc[i] + c * x if i in acc else c * x
    return {i: x for i, x in acc.items() if x}


def scale(v: Vec, c: Scalar) -> Vec:
    return {i: c * x for i, x in v.items()} if c else {}


def _eliminate(cols: Sequence[Vec], ring: ParamRing) -> list[tuple[Vec, Vec]]:
    """Forward elimination of vectors, in order: per column, (rest, combo)
    with column = rest + sum_k combo[k] cols[k] over the earlier columns k
    outside the span of those before them; rest is zero exactly when the
    column lies in the span of the columns before it, and then combo is
    the one combination of those k that gives it."""
    one = ring.one()
    pivots, out = [], []  # (key, rest scaled to 1 at key, as a combination)
    for n, col in enumerate(cols):
        rest, combo = col, {}
        for key, red, red_combo in pivots:
            c = rest.get(key)
            if c is not None:
                rest = combine([one, -c], [rest, red])
                combo = combine([one, c], [combo, red_combo])
        if rest:
            key = next(iter(rest))
            inv = 1 / rest[key]
            pivots.append((key, scale(rest, inv),
                           combine([inv, -inv], [{n: one}, combo])))
        out.append((rest, combo))
    return out


def _stacked(vecs: Sequence[Vec]) -> Vec:
    """A list of vectors as one, over the keys (position, index)."""
    return {(a, i): x for a, v in enumerate(vecs) for i, x in v.items()}


def mat_vec(m: Mat, v: list, ring: ParamRing) -> list:
    nonzero = [(k, x) for k, x in enumerate(v) if x]
    out = []
    for row in m:
        acc = ring.zero()
        for k, x in nonzero:
            if row[k]:
                acc = acc + row[k] * x
        out.append(acc)
    return out


def rref(rows: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    m = [list(r) for r in rows]
    nrow = len(m)
    ncol = len(m[0]) if nrow else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncol):
        pr = next((i for i in range(r, nrow) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = row = [inv * x if x else x for x in m[r]]
        for i in range(nrow):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], row)]
        pivots.append(c)
        r += 1
        if r == nrow:
            break
    return m[:r], pivots


def rank(rows: Mat) -> int:
    if not rows:
        return 0
    return len(rref(rows)[0])


def kernel(rows: Mat, ring: ParamRing, ncols: int) -> list[list]:
    """Basis of the right kernel {v : M v = 0}, echelonized, free vars in
    order, as dense columns."""
    if not rows:
        return [[ring.one() if j == i else ring.zero() for j in range(ncols)]
                for i in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ring.zero()] * ncols
        v[fc] = ring.one()
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def independent(vecs: Sequence[Vec], ring: ParamRing) -> list[Vec]:
    """The vecs outside the span of those before them, which are the
    vectors a greedy rank test would keep."""
    return [v for v, (rest, _) in zip(vecs, _eliminate(vecs, ring)) if rest]


def kernel_span(vecs: Sequence[Vec], images, ring: ParamRing) -> list[Vec]:
    """A basis of the v in span(vecs) with images(v) all zero; images maps a
    vector to a list of vectors, linearly.  One basis vector per vecs[n]
    whose image lies in the span of the images before it: vecs[n] minus
    the combination of the independent earlier vecs with that image, the
    kernel basis an rref gives with its free variables in order."""
    one = ring.one()
    cols = [_stacked(images(v)) for v in vecs]
    return [combine({**{k: -c for k, c in combo.items()}, n: one}, vecs)
            for n, (rest, combo) in enumerate(_eliminate(cols, ring))
            if not rest]


def solve(vecs: Sequence[Vec], images, rhs: Sequence[Vec],
          ring: ParamRing) -> Vec | None:
    """One v = sum x_k vecs[k] with images(v) = rhs, the free x_k zero, or
    None; images maps a vector to a list of vectors, linearly, and rhs is
    such a list."""
    cols = [_stacked(images(v)) for v in vecs] + [_stacked(rhs)]
    rest, combo = _eliminate(cols, ring)[-1]
    return None if rest else combine(combo, vecs)


def inverse(rows: Mat, ring: ParamRing) -> Mat:
    n = len(rows)
    aug = [list(r) + [ring.one() if j == i else ring.zero() for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ArithmeticError("singular matrix")
    return [row[n:] for row in red]


def transpose(rows: Mat) -> Mat:
    return [list(col) for col in zip(*rows)]
