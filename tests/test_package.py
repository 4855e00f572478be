"""The package surface: the same public names, with the module-level helpers kept out of it."""

import edmsphere

PUBLIC_NAMES = [
    "ComponentSplit", "ConsistencyError", "CrosspolytopeResult", "DEFAULT_TOL",
    "Decomposition", "DecompositionBlock", "DeltaDimReport", "DeltaMatrix",
    "E_NOT_IN_COLSPACE", "Edm", "EdmRejection", "EdmSphereError", "EigenSystem",
    "FormatError", "GramFactor", "Graph", "MinimalityReport", "NON_SPHERICAL", "NOT_EDM",
    "OrthoRep", "PROFILES", "PreconditionError", "PsdResult", "RankinReport",
    "SPHERICAL", "SignPatternReport", "SimplexCertificate", "SpectralError",
    "SphericalCertificate", "Tolerances", "__version__", "adjacency", "apply_permutation",
    "centering_gram", "certify_simplex", "components", "construct_orthorep",
    "crosspolytope_recognize", "delta_of", "eig", "embedding_dim_via_delta",
    "format_matrix_text", "from_profile", "gen_crosspolytope", "gen_random_spherical",
    "gen_regular_simplex", "gen_unit_simplex", "gram_factor", "kuperberg_decompose",
    "load_matrix", "matrix_to_json_dict", "min_offdiagonal", "minimality_bound",
    "nonnegative_delta", "parse_graph", "parse_matrix", "parse_matrix_json",
    "parse_matrix_text", "profile_from_env", "rankin_codimension2_check",
    "require_edm", "spherical_certificate", "support_components", "unit_simplex_gamma",
    "validate_edm", "verify_sign_pattern",
]


def test_public_names():
    assert len(PUBLIC_NAMES) == 66
    assert sorted(edmsphere.__all__) == PUBLIC_NAMES
    assert all(hasattr(edmsphere, name) for name in PUBLIC_NAMES)


def test_module_helpers_are_not_package_attributes():
    # the tolerance rule and the symmetry check are imported from their modules
    assert not hasattr(edmsphere, "scale")
    assert not hasattr(edmsphere, "as_symmetric")
