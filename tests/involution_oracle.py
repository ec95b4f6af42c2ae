"""Pairwise involutivity of density families, kept as the tests' oracle of
`verify_lenard_magri`, which establishes it by Lenard's argument.

Each integral int{g_m lambda g_n} at lambda = 0 is taken as
int sum_j (delta g_n/delta u_j) R0_j, with R0_j read from the LeftBracket
of g_m, and compared with 0 by `functional_equal`.
"""

from __future__ import annotations

from wds.diffpoly import dot, functional_equal
from wds.pva import LeftBracket


def integrand(left: LeftBracket, grad: dict, part: int = 0):
    """sum_j (delta h/delta u_j) R0_j, for grad = {j: delta h/delta u_j}:
    its integral is that of {g_lambda h} at lambda = 0, H (0) or K (1)
    part, for g the left operand of left."""
    return dot(left.table.ctx,
               [(dh, left._r0(part, j)) for j, dh in grad.items()])


def involution_defects(lefts: list, db: list, what: str,
                       upper: bool = False) -> list[str]:
    """The pairs (m, n) with int{g_m lambda g_n} != 0 at lambda = 0, per
    structure, for lefts[m] the LeftBracket of g_m; upper restricts to
    n >= m."""
    bad = []
    grads = [g.gradient() for g in db]
    for m, left in enumerate(lefts):
        zero = left.table.ctx.zero()
        for n in range(m if upper else 0, len(db)):
            for part, name in enumerate("HK"):
                if not functional_equal(integrand(left, grads[n], part), zero):
                    bad.append(f"{name}{what} ({m},{n})")
    return bad


def involutivity(gens, densities: list) -> list[str]:
    """Every pair m <= n of one density family, both structures."""
    lefts = [LeftBracket(gens.table, g) for g in densities]
    return involution_defects(lefts, densities, "-involutivity", upper=True)


def involution_cross(gens, da: list, db: list) -> list[str]:
    """Involutivity across two density families (both structures)."""
    lefts = [LeftBracket(gens.table, g) for g in da]
    return involution_defects(lefts, db, " cross-involutivity")
