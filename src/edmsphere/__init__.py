"""edmsphere: spherical Euclidean distance matrix toolkit.

Certify EDMs and their sphericity, build minimum-dimension orthonormal
graph representations, and decompose unit spherical configurations with
minimum distance sqrt(2) into orthogonal simplices, crosspolytopes
included.  All decisions are tolerance-explicit and every construction is
returned together with the checks that certify it.
"""

__version__ = "0.1.0"

from .decomposition import (
    CrosspolytopeResult,
    Decomposition,
    DecompositionBlock,
    RankinReport,
    SimplexCertificate,
    certify_simplex,
    crosspolytope_recognize,
    kuperberg_decompose,
    rankin_codimension2_check,
)
from .edm import (
    E_NOT_IN_COLSPACE,
    NON_SPHERICAL,
    NOT_EDM,
    SPHERICAL,
    DeltaDimReport,
    DeltaMatrix,
    Edm,
    EdmRejection,
    GramFactor,
    SphericalCertificate,
    centering_gram,
    delta_of,
    nonnegative_delta,
    embedding_dim_via_delta,
    gen_crosspolytope,
    gen_random_spherical,
    gen_regular_simplex,
    gen_unit_simplex,
    gram_factor,
    min_offdiagonal,
    require_edm,
    spherical_certificate,
    unit_simplex_gamma,
    validate_edm,
)
from .errors import (
    ConsistencyError,
    EdmSphereError,
    FormatError,
    PreconditionError,
    SpectralError,
)
from .graphs import (
    ComponentSplit,
    Graph,
    adjacency,
    apply_permutation,
    components,
    parse_graph,
    support_components,
)
from .matrixio import (
    format_matrix_text,
    load_matrix,
    matrix_to_json_dict,
    parse_matrix,
    parse_matrix_json,
    parse_matrix_text,
)
from .orthorep import (
    MinimalityReport,
    OrthoRep,
    SignPatternReport,
    construct_orthorep,
    minimality_bound,
    verify_sign_pattern,
)
from .spectral import (
    EigenSystem,
    PerronData,
    PsdResult,
    eig,
    perron,
)
from .tolerances import DEFAULT_TOL, PROFILES, Tolerances, from_profile, profile_from_env

__all__ = [
    "__version__",
    # tolerances
    "Tolerances", "DEFAULT_TOL", "PROFILES", "from_profile", "profile_from_env",
    # errors
    "EdmSphereError", "SpectralError", "PreconditionError", "ConsistencyError", "FormatError",
    # spectral
    "EigenSystem", "PsdResult", "PerronData", "eig", "perron",
    # io
    "parse_matrix_text", "parse_matrix_json", "parse_matrix", "load_matrix",
    "format_matrix_text", "matrix_to_json_dict",
    # graphs
    "Graph", "ComponentSplit", "parse_graph", "components", "adjacency",
    "apply_permutation", "support_components",
    # edm
    "Edm", "EdmRejection", "GramFactor", "SphericalCertificate", "DeltaMatrix",
    "DeltaDimReport", "validate_edm", "require_edm", "gram_factor",
    "spherical_certificate", "delta_of", "nonnegative_delta", "embedding_dim_via_delta",
    "centering_gram", "min_offdiagonal", "unit_simplex_gamma",
    "gen_regular_simplex", "gen_unit_simplex", "gen_crosspolytope",
    "gen_random_spherical",
    "SPHERICAL", "NON_SPHERICAL", "E_NOT_IN_COLSPACE", "NOT_EDM",
    # orthorep
    "OrthoRep", "SignPatternReport", "MinimalityReport",
    "construct_orthorep", "verify_sign_pattern", "minimality_bound",
    # decomposition
    "SimplexCertificate", "RankinReport", "DecompositionBlock", "Decomposition",
    "CrosspolytopeResult", "certify_simplex", "rankin_codimension2_check",
    "kuperberg_decompose", "crosspolytope_recognize",
]
