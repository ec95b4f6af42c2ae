"""Exact linear algebra over a ParamRing: entries are Fractions over Q and
Scalars over Q(p), and only the operations they share are used.

A vector is a Vec {index: coefficient} with no zero coefficient, so equal
vectors are equal dicts, and a matrix is the list of the Vecs of its
columns.  One forward elimination, `_eliminate`, serves `independent`,
`kernel_span`, `solve` and `inverse`.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import ParamRing, Scalar

Vec = dict  # {index: nonzero coefficient}


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


def inverse(cols: Sequence[Vec], ring: ParamRing) -> list[Vec]:
    """The columns of the inverse of the n x n matrix whose columns are
    cols, keyed 0 .. n-1: column j is the one x with sum_k x[k] cols[k] the
    j-th unit vector, its keys in order.  Raises ArithmeticError when a
    column lies in the span of those before it."""
    n, one = len(cols), ring.one()
    solved = _eliminate(list(cols) + [{j: one} for j in range(n)], ring)
    if not all(rest for rest, _ in solved[:n]):
        raise ArithmeticError("singular matrix")
    return [{k: combo[k] for k in sorted(combo)} for _, combo in solved[n:]]
