"""Exact classical W-algebras and generalized Drinfeld-Sokolov hierarchies."""

from .scalars import ParamRing, Q, Scalar
from .diffpoly import Context, DiffPoly, LambdaPoly, functional_equal
from .lie import (
    GradedSetup,
    LieAlgebra,
    MINIMAL,
    SHORT,
    build_sl,
    build_sp,
    darboux_split,
)
from .pva import (BracketTable, LeftBracket, ReductionFrame, check_pva_axioms,
                  master_bracket)
from .walgebra import WGenerators, verify_table
from .hierarchy import (
    Dressing,
    HDecomposition,
    LoopElement,
    build_q,
    center_of_h,
    conserved_densities,
    dressing_defect,
    hierarchy_flow,
    reduce_mod_jk,
    solve_dressing,
    verify_lenard_magri,
)

__all__ = [
    "ParamRing", "Q", "Scalar", "Context", "DiffPoly", "LambdaPoly",
    "functional_equal", "GradedSetup", "LieAlgebra", "MINIMAL", "SHORT",
    "build_sl", "build_sp", "darboux_split",
    "BracketTable", "LeftBracket", "ReductionFrame", "check_pva_axioms",
    "master_bracket",
    "WGenerators", "verify_table", "Dressing", "HDecomposition", "LoopElement",
    "build_q", "center_of_h", "conserved_densities", "dressing_defect",
    "hierarchy_flow", "reduce_mod_jk", "solve_dressing", "verify_lenard_magri",
]

__version__ = "0.1.0"
