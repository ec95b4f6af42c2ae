"""Exact dense linear algebra over a ParamRing: entries are Fractions over Q
and Scalars over Q(p), and only the operations they share are used."""

from __future__ import annotations

from typing import Sequence

from .scalars import ParamRing, Scalar

Vec = list
Mat = list  # list of rows


def zeros(ring: ParamRing, n: int) -> Vec:
    z = ring.zero()
    return [z] * n


def vec_add(a: Vec, b: Vec) -> Vec:
    return [x + y for x, y in zip(a, b)]

def vec_sub(a: Vec, b: Vec) -> Vec:
    return [x - y for x, y in zip(a, b)]

def vec_scale(a: Vec, c: Scalar) -> Vec:
    return [c * x for x in a]

def vec_is_zero(a: Vec) -> bool:
    return not any(a)


def combine(coeffs: Sequence[Scalar], vecs: Sequence[Vec]) -> Vec:
    """The linear combination sum_k coeffs[k] * vecs[k] of a non-empty list."""
    out = [coeffs[0] * x if x else x for x in vecs[0]]
    for c, v in zip(coeffs[1:], vecs[1:]):
        if c:
            out = [a + c * x if x else a for a, x in zip(out, v)]
    return out


def mat_vec(m: Mat, v: Vec, ring: ParamRing) -> Vec:
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
        m[r] = [inv * x for x in m[r]]
        for i in range(nrow):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrow:
            break
    return m[:r], pivots


def rank(rows: Mat) -> int:
    if not rows:
        return 0
    return len(rref(rows)[0])


def kernel(rows: Mat, ring: ParamRing, ncols: int) -> list[Vec]:
    """Basis of the right kernel {v : M v = 0}, echelonized, free vars in order."""
    if not rows:
        return [[ring.one() if j == i else ring.zero() for j in range(ncols)]
                for i in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = zeros(ring, ncols)
        v[fc] = ring.one()
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def independent(vecs: Sequence[Vec]) -> list[Vec]:
    """The vecs outside the span of those before them: the pivot columns of
    one rref, which are the vectors a greedy rank test would keep."""
    return [vecs[c] for c in rref(transpose(vecs))[1]]


def kernel_span(vecs: Sequence[Vec], images, ring: ParamRing) -> list[Vec]:
    """A basis of the v in span(vecs) with images(v) all zero; images maps a
    vector to a list of vectors, linearly."""
    if not vecs:
        return []
    rows = transpose([[x for w in images(v) for x in w] for v in vecs])
    return [combine(c, vecs) for c in kernel(rows, ring, len(vecs))]


def solve(rows: Mat, rhs: Vec, ring: ParamRing) -> Vec | None:
    """One solution of M x = b (free variables set to zero), or None."""
    if not rows:
        return None
    ncol = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncol in pivots:
        return None  # inconsistent
    x = zeros(ring, ncol)
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncol]
    return x


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
