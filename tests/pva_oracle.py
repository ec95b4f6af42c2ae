"""The memo-free PVA axiom defects, kept as the tests' oracle of
`check_pva_axioms`, which shares one memo of brackets across a scan.

Each recomputes every bracket it needs from the generator table, through
`master_bracket`, on the engine's own defect formulas.
"""

from __future__ import annotations

from functools import partial

from wds.pva import _jacobi_defect, _skew_defect, master_bracket


def skew_defect(table, g, h):
    """{g_l h} + {h_-l-d g} per part; zero iff skew-symmetry holds."""
    return _skew_defect(partial(master_bracket, table), g, h)


def jacobi_defect(table, g1, g2, h, parts=(0, 0)):
    """{g1 l {g2 m h}} - {g2 m {g1 l h}} - {{g1 l g2} l+m h} as a
    {(lambda power, mu power): DiffPoly} map, parts = (outer, inner)
    selecting H (0) or K (1) in each slot."""
    return _jacobi_defect(partial(master_bracket, table), g1, g2, h, parts)
