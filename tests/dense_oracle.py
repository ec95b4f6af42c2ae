"""The dense linear algebra the engine's sparse elimination replaced,
kept as the tests' reference oracle.

A matrix is a dense list of rows over a ParamRing: the RREF, rank, right
kernel and inverse run on it.  `dense_of` and `sparse_of` convert between
the engine's Vecs and dense lists.
"""

from __future__ import annotations

from wds.scalars import ParamRing, Q

Mat = list  # list of rows


def dense_of(v, n, z=Q.zero()):
    """The sparse vector v as a full list of n coefficients."""
    return [v.get(i, z) for i in range(n)]


def sparse_of(row):
    return {i: x for i, x in enumerate(row) if x}


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
