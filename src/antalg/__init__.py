"""Exact rational arithmetic for commutative graded algebras with an odd
skew part, the alternated bracket of parity-preserving multilinear maps,
the induced coboundary operator, and verification suites for a small zoo
of finite and windowed infinite families.

Everything is computed over the rationals with `fractions.Fraction`; there
is no floating point anywhere in the library.
"""

from .core import (
    AlgebraFile,
    GradedSpace,
    MultiMap,
    ParseError,
    Vector,
    parse_algebra_file,
    parse_algebra_text,
)
from .antialgebra import (
    AntialgebraStructure,
    CheckReport,
    ModuleStructure,
    Violation,
    adjoint_module,
    check_axioms,
    check_axioms_v2,
    dual_module,
    semidirect,
    trivial_module,
    zero_square_check,
)
from .brackets import (
    BlockMap,
    alt,
    alt_blocks,
    gerstenhaber_bracket,
    lie_coboundary,
)
from .cohomology import (
    Cochain,
    CochainBasis,
    apply_delta,
    assemble_complex,
    cohomology_dims,
    delta_via_bracket,
    derivation_space,
    extension_from_cocycle,
    kernel_of_delta1,
    random_cochain,
    solve_coboundary,
)
from . import linalg, zoo

__version__ = "0.1.0"

__all__ = [
    "AlgebraFile", "GradedSpace", "MultiMap", "ParseError", "Vector",
    "parse_algebra_file", "parse_algebra_text",
    "AntialgebraStructure", "CheckReport", "ModuleStructure", "Violation",
    "adjoint_module", "check_axioms", "check_axioms_v2", "dual_module",
    "semidirect", "trivial_module", "zero_square_check",
    "BlockMap", "alt", "alt_blocks", "gerstenhaber_bracket", "lie_coboundary",
    "Cochain", "CochainBasis", "apply_delta", "assemble_complex",
    "cohomology_dims", "delta_via_bracket", "derivation_space",
    "extension_from_cocycle", "kernel_of_delta1", "random_cochain",
    "solve_coboundary",
    "linalg", "zoo",
    "__version__",
]
