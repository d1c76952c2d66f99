"""Functions of multivectors in real Clifford algebras Cl(p,q).

Exact characteristic and minimal polynomials, refined roots with exact
multiplicities, a recursive generalized spectral basis that handles
non-diagonalizable elements, and assembly of f(A) for analytic f — plus an
identical backend for square matrices and a fixed 8x8 representation of
Cl(4,2).
"""

from .charpoly import CharPolyResult, cayley_hamilton_check, char_poly, determinant
from .classical import ClassicalBasis, classical_basis, classical_function
from .errors import (
    GafuncError,
    NonConvergenceError,
    ParseError,
    RealnessError,
    SignatureMismatchError,
    SingularFunctionError,
    VerificationError,
)
from .funcs import (
    FunctionSpec,
    builtin,
    cos_spec,
    exp_spec,
    inverse_spec,
    log_spec,
    pow_spec,
    sin_spec,
    sqrt_spec,
)
from .ga import Multivector, Signature, blade_name, blade_order, mv_powers
from .io import (
    canonical_json,
    format_mv,
    mv_record,
    parse_matrix,
    parse_mv,
    poly_record,
    record_to_mv,
)
from .matfunc import (
    CL42,
    ExactMatrix,
    cl42_generators,
    matrix_function,
    matrix_minimal_poly,
    rep_of,
)
from .minpoly import MinPolyResult, minimal_poly, mv_rank
from .mvfunc import (
    FunctionResult,
    clear_cache,
    get_pipeline,
    mv_function,
    real_reduction,
    verify_exponential,
)
from .poly import Poly, format_poly, poly_gcd, squarefree_decomposition
from .roots import RootEntry, RootSet, aberth_roots, extract_roots
from .scalars import DEFAULT_DPS, working
from .spectral import (
    SpectralBasis,
    build_s_table,
    build_spectral_basis,
    spectral_decomposition_check,
)

__version__ = "0.1.0"

__all__ = [
    "CL42",
    "CharPolyResult",
    "ClassicalBasis",
    "DEFAULT_DPS",
    "ExactMatrix",
    "FunctionResult",
    "FunctionSpec",
    "GafuncError",
    "MinPolyResult",
    "Multivector",
    "NonConvergenceError",
    "ParseError",
    "Poly",
    "RealnessError",
    "RootEntry",
    "RootSet",
    "Signature",
    "SignatureMismatchError",
    "SingularFunctionError",
    "VerificationError",
    "SpectralBasis",
    "aberth_roots",
    "blade_name",
    "blade_order",
    "builtin",
    "canonical_json",
    "cayley_hamilton_check",
    "char_poly",
    "cl42_generators",
    "classical_basis",
    "classical_function",
    "clear_cache",
    "cos_spec",
    "determinant",
    "exp_spec",
    "extract_roots",
    "format_mv",
    "format_poly",
    "get_pipeline",
    "inverse_spec",
    "log_spec",
    "matrix_function",
    "matrix_minimal_poly",
    "minimal_poly",
    "mv_function",
    "mv_powers",
    "mv_rank",
    "mv_record",
    "parse_matrix",
    "parse_mv",
    "poly_gcd",
    "poly_record",
    "pow_spec",
    "real_reduction",
    "record_to_mv",
    "rep_of",
    "sin_spec",
    "spectral_decomposition_check",
    "sqrt_spec",
    "squarefree_decomposition",
    "build_s_table",
    "build_spectral_basis",
    "verify_exponential",
    "working",
]
