import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import helpers
from edmsphere import (
    DEFAULT_TOL,
    E_NOT_IN_COLSPACE,
    NON_SPHERICAL,
    PROFILES,
    SPHERICAL,
    ConsistencyError,
    Edm,
    EdmRejection,
    PreconditionError,
    centering_gram,
    delta_of,
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
import edmsphere.edm as edm_module
from edmsphere.edm import _DIFF_BLOCK_BYTES, _centroid, _entry_stats, nonnegative_delta
from edmsphere.spectral import _decompose, as_symmetric
from edmsphere.tolerances import scale
from oracles import perron, solve_linear

COLLINEAR = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])  # points 0, 1, 2
TRIANGLE_VIOLATOR = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])


def pentagon_edm():
    ang = 2.0 * np.pi * np.arange(5) / 5.0
    X = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return helpers.edm_from_points(X)


class TestValidateEdm:
    def test_accepts_example(self, example_edm):
        assert isinstance(example_edm, Edm)
        assert example_edm.n == 5
        assert example_edm.embedding_dim == 3
        assert example_edm.min_offdiagonal == 2.0

    def test_accepts_collinear(self):
        res = validate_edm(COLLINEAR)
        assert isinstance(res, Edm)
        assert res.embedding_dim == 1

    def test_rejects_nonsquare(self):
        rej = validate_edm(np.zeros((2, 3)))
        assert not rej and rej.reason == "not-square"

    def test_rejects_nan(self):
        M = np.zeros((2, 2))
        M[0, 1] = M[1, 0] = np.nan
        assert validate_edm(M).reason == "not-finite"

    def test_rejects_asymmetric(self):
        assert validate_edm(np.array([[0.0, 1.0], [2.0, 0.0]])).reason == "not-symmetric"

    def test_rejects_nonzero_diagonal(self):
        assert validate_edm(np.array([[1.0, 0.0], [0.0, 0.0]])).reason == "nonzero-diagonal"

    def test_rejects_negative_entry(self):
        assert validate_edm(np.array([[0.0, -1.0], [-1.0, 0.0]])).reason == "negative-entry"

    def test_rejects_triangle_violator_as_not_psd(self):
        rej = validate_edm(TRIANGLE_VIOLATOR)
        assert rej.reason == "not-psd"
        assert rej.witness_eigenvalue < -0.5  # oracle: min eigenvalue -5/6
        v = rej.witness_vector
        B = helpers.centered_gram_oracle(TRIANGLE_VIOLATOR)
        npt.assert_allclose(v @ B @ v, rej.witness_eigenvalue, atol=1e-10)

    def test_tolerates_rounding_noise(self):
        D = helpers.edm_from_points(np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]]))
        D[0, 1] += 5e-13  # below symmetry tolerance
        assert isinstance(validate_edm(D), Edm)

    def test_rank_ignores_negative_eigenvalues_the_psd_slack_accepts(self):
        # +-e1, +-e2 with B shifted by -1e-6 v v^T, v orthogonal to the points
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        v = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        B = X @ X.T - 1e-6 * np.outer(v, v)
        D = np.diag(B)[:, None] + np.diag(B)[None, :] - 2.0 * B
        assert validate_edm(D).reason == "not-psd"
        res = validate_edm(D, DEFAULT_TOL.with_overrides(psd=1e-5))
        assert res.embedding_dim == 2
        assert gram_factor(res).config.shape[1] == 2
        assert gram_factor(res, np.full(4, 0.25)).config.shape[1] == 2

    def test_zero_matrix_is_edm(self):
        res = validate_edm(np.zeros((3, 3)))
        assert isinstance(res, Edm) and res.embedding_dim == 0

    def test_require_edm_raises(self):
        with pytest.raises(PreconditionError, match="not an EDM"):
            require_edm(TRIANGLE_VIOLATOR)

    @given(
        st.integers(2, 6).flatmap(
            lambda n: arrays(
                np.float64,
                (n, 3),
                elements=st.floats(-5, 5, allow_nan=False, width=64),
            )
        )
    )
    @example(np.array([[1.99198395e-161, 0.0, 0.0], [0.0, 0.0, 0.0]]))  # max|D| = 3.95e-322
    @settings(max_examples=50, deadline=None)
    def test_accepts_any_measured_configuration(self, X):
        D = helpers.edm_from_points(X)
        res = validate_edm(D)
        if 0.0 < np.abs(D).max() < 4 * len(X) * np.finfo(float).tiny:
            assert res.reason == "too-small"  # subnormal distances carry too few bits for the rules
            return
        assert isinstance(res, Edm)
        assert res.embedding_dim <= 3


def test_min_offdiagonal():
    assert min_offdiagonal(np.array([[0.0, 3.0], [3.0, 0.0]])) == 3.0
    assert min_offdiagonal(np.array([[7.0]])) == np.inf
    M = np.arange(18.0).reshape(2, 3, 3)
    assert min_offdiagonal(M).tolist() == [min_offdiagonal(m) for m in M] == [1.0, 10.0]
    assert min_offdiagonal(np.zeros((2, 1, 1))).tolist() == [np.inf, np.inf]


def _mirror_lower(M):
    """D of `_entry_stats` as the lower triangle mirrored, with the diagonal set to zero."""
    D = np.tril(M) + np.swapaxes(np.tril(M, -1), -1, -2)
    diag = np.arange(M.shape[-1])
    D[..., diag, diag] = 0.0
    return D


def _signed_zeros(n, seed):
    """A symmetric (n, n) matrix whose equal pairs mix +0.0 and -0.0, diagonal -0.0 included."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    M = M + M.T
    zero = rng.random((n, n)) < 0.3
    M[zero | zero.T] = 0.0
    M[(M == 0.0) & (rng.random((n, n)) < 0.5)] = -0.0  # each side of a zero pair signed on its own
    return M


@pytest.mark.parametrize("case", ["signed-zeros", "nan", "inf", "asymmetric", "mixed-stack", "empty"])
def test_entry_stats_d_is_the_mirror_bit_for_bit(case):
    sym = np.stack([_signed_zeros(6, seed) for seed in range(3)])
    sym[:, np.arange(6), np.arange(6)] = -0.0
    if case == "signed-zeros":
        M = sym
        assert (_entry_stats(M)[2] == 0.0).all()  # exactly symmetric, though not bit for bit
        assert (np.signbit(M) != np.signbit(np.swapaxes(M, 1, 2))).any()
    elif case == "nan":
        M = sym.copy()
        M[1, 2, 4] = M[1, 4, 2] = np.nan
    elif case == "inf":
        M = sym.copy()
        M[0, 1, 3] = M[0, 3, 1] = -np.inf
    elif case == "asymmetric":
        M = sym.copy()
        M[:, 0, 1] = 1.0
        M[:, 1, 0] = 1.0 + 1e-15  # within tol.symmetry
    elif case == "mixed-stack":
        M = sym.copy()
        M[2, 5, 0] += 1e-12
    else:
        M = np.zeros((2, 0, 0))
    D = _entry_stats(M)[3]
    assert D.dtype == np.float64 and D.shape == M.shape
    assert D.tobytes() == _mirror_lower(M).tobytes()


class TestGramFactor:
    def test_two_point_centroid(self):
        D = require_edm(np.array([[0.0, 2.0], [2.0, 0.0]]))
        gf = gram_factor(D, np.full(2, 0.5))
        npt.assert_allclose(gf.gram, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)
        assert gf.config.shape == (2, 1)
        npt.assert_allclose(np.abs(gf.config[:, 0]), np.full(2, np.sqrt(0.5)), atol=1e-14)
        npt.assert_allclose(gf.config.sum(axis=0), 0.0, atol=1e-14)

    def test_reconstruction_matches_gram(self, example_edm):
        gf = gram_factor(example_edm)
        npt.assert_allclose(gf.config @ gf.config.T, gf.gram, atol=1e-12)

    def test_unit_spherical_autocentering_gives_unit_rows(self, example_edm):
        # default centering is 2w for a unit spherical input, so the points
        # are unit vectors around the sphere center
        gf = gram_factor(example_edm)
        npt.assert_allclose(gf.centering, [0.25, 0.25, 0.25, 0.25, 0.0], atol=1e-12)
        npt.assert_allclose(np.diag(gf.gram), 1.0, atol=1e-12)
        assert gf.config.shape == (5, 3)
        npt.assert_allclose(np.linalg.norm(gf.config, axis=1), 1.0, atol=1e-10)

    def test_remeasure_recovers_distances(self, example_edm):
        gf = gram_factor(example_edm)
        npt.assert_allclose(helpers.edm_from_points(gf.config), example_edm.dist2, atol=1e-10)

    def test_weighted_centering_constraint(self, example_edm):
        gf = gram_factor(example_edm)
        npt.assert_allclose(gf.centering @ gf.config, 0.0, atol=1e-12)

    def test_bad_centering_vector(self, example_edm):
        with pytest.raises(PreconditionError, match="e\\^T s = 1"):
            gram_factor(example_edm, np.full(5, 0.5))
        with pytest.raises(PreconditionError, match="length"):
            gram_factor(example_edm, np.full(4, 0.25))

    def test_nan_centering_weight_fails_the_sum_rule(self, example_edm):
        # e^T s = NaN is not within tol.solve of 1: refused before any Gram matrix is formed
        s = np.full(5, 0.2)
        s[3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from a NaN Gram matrix either
            with pytest.raises(PreconditionError, match="e\\^T s = 1, got nan"):
                gram_factor(example_edm, s)


class TestSphericalCertificate:
    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
    def test_simplex_gower_solution(self, n, gamma):
        cert = spherical_certificate(gen_regular_simplex(n, gamma))
        assert cert.status == SPHERICAL
        npt.assert_allclose(cert.w, np.full(n, 1.0 / (gamma * (n - 1))), atol=1e-10)
        npt.assert_allclose(cert.radius, np.sqrt(gamma * (n - 1) / (2.0 * n)), atol=1e-10)
        assert cert.unit_spherical == (gamma == 2.0 * n / (n - 1.0))

    def test_gamma_three_n_three_is_unit(self):
        cert = spherical_certificate(gen_regular_simplex(3, 3.0))
        assert cert.unit_spherical and abs(cert.radius - 1.0) <= 1e-12

    def test_example_weights(self, example_edm):
        cert = spherical_certificate(example_edm)
        assert cert.status == SPHERICAL and cert.unit_spherical
        npt.assert_allclose(cert.w, [0.125, 0.125, 0.125, 0.125, 0.0], atol=1e-12)
        npt.assert_allclose(cert.etw, 0.5, atol=1e-12)

    def test_collinear_is_non_spherical(self):
        cert = spherical_certificate(require_edm(COLLINEAR))
        assert cert.status == NON_SPHERICAL
        assert cert.radius is None and not cert.unit_spherical
        npt.assert_allclose(cert.w, [0.5, -1.0, 0.5], atol=1e-10)  # e^T w = 0

    def test_zero_matrix_e_not_in_colspace(self):
        cert = spherical_certificate(require_edm(np.zeros((3, 3))))
        assert cert.status == E_NOT_IN_COLSPACE
        assert cert.w is None and cert.radius is None

    @pytest.mark.filterwarnings("error")
    def test_single_point(self):
        cert = spherical_certificate(require_edm(np.zeros((1, 1))))
        assert cert.status == E_NOT_IN_COLSPACE
        cert = spherical_certificate(require_edm(np.zeros((0, 0))))  # no points: nothing to average
        assert cert.status == NON_SPHERICAL and cert.etw == 0.0 and cert.w.shape == (0,)


class TestDelta:
    def test_formula(self, example_edm):
        dm = delta_of(example_edm)
        expected = example_edm.dist2 / 2.0 + np.eye(5) - np.ones((5, 5))
        np.fill_diagonal(expected, 0.0)
        npt.assert_array_equal(dm.delta, expected)
        assert dm.source_min_offdiag == 2.0

    def test_unit_simplex_entries(self):
        dm = delta_of(gen_unit_simplex(4))
        off = dm.delta[0, 1]
        npt.assert_allclose(off, 1.0 / 3.0, atol=1e-15)  # gamma/2 - 1

    def test_nonnegative_delta_snaps_rounding(self):
        M = 2.0 * (np.ones((4, 4)) - np.eye(4))
        M[0, 1] = M[1, 0] = 2.0 - 1e-9  # Delta entry -5e-10, within tol.sign
        M[0, 2] = M[2, 0] = 2.0 + 1e-9  # Delta entry 5e-10: zeroed on this side too
        M[0, 3] = M[3, 0] = 2.0 + 1e-6  # Delta entry 5e-7 > tol.sign / 2: kept
        D = require_edm(M)
        dm = delta_of(D)
        snapped = nonnegative_delta(dm, D.tol)
        assert snapped.min() == 0.0
        assert snapped[0, 1] == snapped[0, 2] == 0.0
        assert snapped[0, 3] == dm.delta[0, 3] > 0.0

    def test_nonnegative_delta_rejects_genuine_negatives(self):
        dm = delta_of(gen_regular_simplex(3, 1.0))  # distances 1 < 2
        with pytest.raises(PreconditionError, match="min off-diagonal"):
            nonnegative_delta(dm, gen_regular_simplex(3, 1.0).tol)


class TestEmbeddingDimViaDelta:
    def test_distance_within_the_sign_band_of_two_is_orthogonal(self):
        D = require_edm(helpers.NEAR_TWO_BLOCKS)
        rep = embedding_dim_via_delta(D, spherical_certificate(D))
        assert D.embedding_dim == 4
        assert (rep.dimension, rep.multiplicity) == (4, 2)

    def test_crosspolytope_multiplicity(self):
        D = gen_crosspolytope(2)
        rep = embedding_dim_via_delta(D, spherical_certificate(D))
        assert rep.used_perron
        assert rep.dimension == 2 and rep.multiplicity == 2  # spectrum {1, 1, -1, -1}
        assert rep.lambda_max_ok and rep.eigvec_ok
        npt.assert_allclose(rep.lambda_max, 1.0, atol=1e-12)

    def test_unit_simplex_simple_top(self):
        D = gen_unit_simplex(5)
        rep = embedding_dim_via_delta(D, spherical_certificate(D))
        assert rep.dimension == 4 and rep.multiplicity == 1

    def test_example(self, example_edm):
        rep = embedding_dim_via_delta(example_edm, spherical_certificate(example_edm))
        assert rep.dimension == 3 and rep.multiplicity == 2
        assert rep.used_perron and rep.eigvec_ok

    def test_fallback_below_two(self):
        # regular pentagon on the unit circle: unit spherical but min d^2 < 2
        D = require_edm(pentagon_edm())
        cert = spherical_certificate(D)
        assert cert.unit_spherical
        rep = embedding_dim_via_delta(D, cert)
        assert not rep.used_perron
        assert rep.dimension == 2  # rank fallback
        assert rep.lambda_max is None and rep.note is not None

    def test_eigvec_check_reads_tol_solve_when_tol_unit_is_wider(self):
        # the crosspolytope at radius 1 + 2e-8: 2 e^T w = 1 - 4e-8 passes tol.unit = 1e-6, and
        # Delta w - w = (1/2 - e^T w) e + (D w - e) / 2 has max|.| = 2e-8, past tol.solve = 1e-8
        tol = DEFAULT_TOL.with_overrides(unit=1e-6)
        D = require_edm(helpers.CROSS_3 * (1.0 + 4e-8), tol)
        cert = spherical_certificate(D)
        assert cert.unit_spherical and cert.residual <= tol.solve
        rep = embedding_dim_via_delta(D, cert)
        assert rep.used_perron and rep.dimension == 3
        assert abs(rep.eigvec_residual - 2e-8) <= 1e-15
        assert not rep.eigvec_ok

    def test_requires_unit_certificate(self):
        D = gen_regular_simplex(4, 1.0)
        with pytest.raises(PreconditionError, match="unit spherical"):
            embedding_dim_via_delta(D, spherical_certificate(D))

    def test_agreement_with_rank(self, example_edm):
        rep = embedding_dim_via_delta(example_edm, spherical_certificate(example_edm))
        assert rep.dimension == example_edm.embedding_dim


class TestGenerators:
    def test_regular_simplex_entries(self):
        D = gen_regular_simplex(4, 3.0)
        assert D.embedding_dim == 3
        off = D.dist2[~np.eye(4, dtype=bool)]
        npt.assert_array_equal(off, 3.0)
        npt.assert_array_equal(np.diag(D.dist2), 0.0)

    def test_unit_simplex_gamma(self):
        assert unit_simplex_gamma(4) == pytest.approx(8.0 / 3.0)
        with pytest.raises(PreconditionError):
            unit_simplex_gamma(1)

    def test_simplex_validates_input(self):
        with pytest.raises(PreconditionError):
            gen_regular_simplex(0, 1.0)
        with pytest.raises(PreconditionError):
            gen_regular_simplex(3, -1.0)

    def test_crosspolytope_structure(self):
        D = gen_crosspolytope(3)
        assert D.n == 6 and D.embedding_dim == 3
        M = D.dist2
        for i in range(3):
            a, b = 2 * i, 2 * i + 1
            assert M[a, b] == 4.0  # antipodal pair on rows 2i-1, 2i (1-based)
        cross = M[(M != 0.0) & (M != 4.0)]
        npt.assert_array_equal(cross, 2.0)
        cert = spherical_certificate(D)
        assert cert.unit_spherical
        npt.assert_allclose(cert.w, np.full(6, 1.0 / 12.0), atol=1e-12)

    def test_crosspolytope_r1(self):
        D = gen_crosspolytope(1)
        npt.assert_array_equal(D.dist2, [[0.0, 4.0], [4.0, 0.0]])
        assert D.embedding_dim == 1

    def test_random_spherical_deterministic(self):
        a, Xa = gen_random_spherical(6, 3, 42)
        b, Xb = gen_random_spherical(6, 3, 42)
        npt.assert_array_equal(a.dist2, b.dist2)
        npt.assert_array_equal(Xa, Xb)
        c, _ = gen_random_spherical(6, 3, 43)
        assert not np.array_equal(a.dist2, c.dist2)

    def test_random_spherical_on_unit_sphere(self):
        D, X = gen_random_spherical(8, 4, 7)
        npt.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)
        assert D.embedding_dim == 4
        cert = spherical_certificate(D)
        assert cert.unit_spherical
        npt.assert_allclose(cert.radius, 1.0, atol=1e-8)

    def test_random_spherical_matches_remeasured_oracle(self):
        D, X = gen_random_spherical(7, 3, 123)
        npt.assert_allclose(D.dist2, helpers.edm_from_points(X), atol=1e-13)

    def test_random_spherical_needs_enough_points(self):
        with pytest.raises(PreconditionError, match="n >= r \\+ 1"):
            gen_random_spherical(3, 3, 0)
        with pytest.raises(PreconditionError, match=">= 1"):
            gen_random_spherical(3, 0, 0)


FAMILIES = helpers.certificate_families()
EXPECTED_STATUS = {
    "sphere": SPHERICAL, "sphere-40": SPHERICAL, "scaled-sphere": SPHERICAL, "sphere-1e10": SPHERICAL,
    "cloud": NON_SPHERICAL,
    "nearly-spherical": SPHERICAL, "off-sphere": NON_SPHERICAL, "crosspolytope": SPHERICAL, "composition": SPHERICAL,
    "coincident": SPHERICAL, "zero": E_NOT_IN_COLSPACE, "n1": E_NOT_IN_COLSPACE, "n2": SPHERICAL,
}


SCALED_FAMILIES = {name: FAMILIES[name] for name in
                   ["sphere", "sphere-40", "cloud", "off-sphere", "crosspolytope", "composition"]}
SCALED_FAMILIES["unit-simplex"] = gen_unit_simplex(5).dist2


class TestCertificateSolve:
    """The sphericity solve on B's eigenbasis against the full spectral solve of D w = e."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_matches_full_solve(self, name, profile):
        tol = PROFILES[profile]
        edm = require_edm(FAMILIES[name], tol)
        cert = spherical_certificate(edm)
        sol = solve_linear(edm.dist2, np.ones(edm.n), tol)
        assert (cert.status != E_NOT_IN_COLSPACE) == sol.consistent
        assert cert.status == EXPECTED_STATUS[name]
        if not sol.consistent:
            assert cert.w is None and not cert.unit_spherical
            return
        etw = float(sol.x.sum())
        assert cert.status == (SPHERICAL if etw * scale(edm.dist2) > tol.psd else NON_SPHERICAL)
        assert cert.unit_spherical == (cert.status == SPHERICAL and abs(2.0 * etw - 1.0) <= tol.unit)
        bound = 1e-9 * max(1.0, float(np.max(np.abs(sol.x))))
        assert float(np.max(np.abs(cert.w - sol.x))) <= bound
        assert cert.residual == float(np.max(np.abs(edm.dist2 @ cert.w - 1.0)))  # against the full D

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_basis_is_orthonormal_and_holds_the_column_space(self, name):
        # the fit reads D = g e^T + e g^T - 2 U L U^T, with U L U^T the kept pairs of B at the centroid
        # and g = diag(B): U is orthonormal, and with g and e it holds the column space of D
        edm = require_edm(FAMILIES[name])
        D, e = edm.dist2, np.ones(edm.n)
        es = edm.gram_eig  # at the centroid
        k = es.rank
        assert k == edm.embedding_dim
        U = es.vectors[:, :k]
        npt.assert_allclose(U.T @ U, np.eye(k), rtol=0, atol=1e-14)
        g = np.diag(centering_gram(D, _centroid(edm.n)))
        rebuilt = np.outer(g, e) + np.outer(e, g) - 2.0 * (U * es.values[:k]) @ U.T
        assert float(np.max(np.abs(D - rebuilt))) <= 1e-12 * max(1.0, float(np.max(D)))

    def test_relabelled_crosspolytope_is_minimum_norm(self):
        cert = spherical_certificate(require_edm(FAMILIES["crosspolytope"]))
        npt.assert_allclose(cert.w, np.full(6, 1.0 / 12.0), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", ["sphere", "cloud", "off-sphere", "composition", "coincident"])
    def test_verdict_survives_relabelling(self, name):
        D = FAMILIES[name]
        edm = require_edm(D)
        cert = spherical_certificate(edm)
        order = np.random.default_rng(5).permutation(D.shape[0]) + 1
        moved = require_edm(helpers.permute_1based(D, order))
        other = spherical_certificate(moved)
        assert (moved.embedding_dim, other.status, other.unit_spherical) == (
            edm.embedding_dim, cert.status, cert.unit_spherical)
        npt.assert_allclose(other.w, cert.w[order - 1], rtol=0,
                            atol=1e-9 * max(1.0, float(np.max(np.abs(cert.w)))))


def _assert_matches_full_solve(edm):
    """The certificate against the minimum-norm solution x of D x = e by the full spectral solve."""
    cert, sol = spherical_certificate(edm), solve_linear(edm.dist2, np.ones(edm.n), edm.tol)
    assert (cert.status != E_NOT_IN_COLSPACE) == sol.consistent
    if not sol.consistent:
        return
    etw = float(sol.x.sum())
    assert cert.status == (SPHERICAL if etw * scale(edm.dist2) > edm.tol.psd else NON_SPHERICAL)
    assert cert.unit_spherical == (cert.status == SPHERICAL and abs(2.0 * etw - 1.0) <= edm.tol.unit)
    npt.assert_allclose(cert.w, sol.x, rtol=0, atol=1e-9 * max(1.0, float(np.max(np.abs(sol.x)))))
    if cert.status == SPHERICAL:
        npt.assert_allclose(cert.radius, np.sqrt(0.5 / etw), rtol=1e-12)


def _assert_witness(cert, D, tol):
    """w solves D w = e within tol.solve, and e^T w vanishes to rounding: D's points are not on a sphere."""
    assert cert.status == NON_SPHERICAL
    assert np.isfinite(cert.w).all()
    assert float(np.max(np.abs(D @ cert.w - 1.0))) <= tol.solve
    assert abs(float(cert.w.sum())) <= 1e-13 * float(np.max(np.abs(cert.w)))


class TestSphereFitAgainstFullSolve:
    """The sphere fit on B's kept eigenpairs against the full spectral solve of D w = e, and its verdicts near the cuts."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_families(self, name, profile):
        _assert_matches_full_solve(require_edm(FAMILIES[name], PROFILES[profile]))

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("name", ["sphere", "sphere-40", "cloud", "off-sphere", "crosspolytope",
                                      "composition", "coincident"])
    def test_relabelled(self, name, profile):
        D = FAMILIES[name]
        order = np.random.default_rng(len(name)).permutation(D.shape[0]) + 1
        _assert_matches_full_solve(require_edm(helpers.permute_1based(D, order), PROFILES[profile]))

    @given(name=st.sampled_from(sorted(SCALED_FAMILIES)), c=st.floats(1.0, 1e12))
    @settings(max_examples=60, deadline=None)
    def test_scaled(self, name, c):
        _assert_matches_full_solve(require_edm(c * SCALED_FAMILIES[name]))

    @pytest.mark.parametrize("profile", ["default", "strict"])
    def test_dropped_eigenvalue_is_non_spherical(self, profile):
        # 8 points on S^4 and one at radius 3, with the fifth axis squeezed until B's fifth eigenvalue
        # is 0.3 x its rank cut: 9 generic points in R^5 are not cospherical.  The full solve of D w = e,
        # which keeps D's eigenvalue of that axis, reads them spherical (e^T w scale(D) well above
        # tol.psd); the fit on B's kept pairs sees the axis in g and reads them non-spherical
        tol = PROFILES[profile]
        edm = require_edm(helpers.squeezed_sphere(np.random.default_rng(1), 9, 4, 0.3, tol.rank, outlier=True), tol)
        assert edm.embedding_dim == 4
        _assert_witness(spherical_certificate(edm), edm.dist2, tol)

    @pytest.mark.filterwarnings("error")
    def test_small_kept_eigenvalue_is_read_off_e(self):
        # the same sphere squeezed for the default cut, under the strict profile: B's fifth eigenvalue,
        # 2.3e-9 of the first, is kept, and its eigenvector is off e by about 5e-8, which the fit must not
        # read as a part of z along e (D z would then carry that part times g)
        D = helpers.squeezed_sphere(np.random.default_rng(1), 9, 4, 0.3, DEFAULT_TOL.rank, outlier=True)
        edm = require_edm(D, PROFILES["strict"])
        cert = spherical_certificate(edm)
        assert (edm.embedding_dim, cert.status) == (5, NON_SPHERICAL)
        assert cert.residual <= 1e-7

    @pytest.mark.parametrize("seed", range(4))
    def test_jittered_circle_has_a_witness(self, seed):
        # 20 unit-circle points with radial jitter 1e-6: |w| ~ 1 / |r| ~ 1e5, so D w rounds at
        # about 1e-10, which the default tol.solve covers (the strict one does not)
        edm = require_edm(helpers.jittered_circle(seed))
        _assert_witness(spherical_certificate(edm), edm.dist2, edm.tol)

    @pytest.mark.parametrize("seed, outlier, frac, c, rank, status", [
        (49, True, 1.5, 1.0, 3, NON_SPHERICAL),
        (42, False, 0.99, 1e6, 2, SPHERICAL),
    ])
    def test_squeezed_sphere_next_to_the_cut(self, seed, outlier, frac, c, rank, status):
        # points on S^(r-1) lifted onto S^r in R^(r+1), the new axis squeezed until B's (r+1)-th eigenvalue
        # is frac x its rank cut; in the first case one point is pushed out to radius 3, off every sphere
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 14))
        r = int(rng.integers(2, n - 2))
        edm = require_edm(c * helpers.squeezed_sphere(rng, n, r, frac, DEFAULT_TOL.rank, outlier=outlier))
        cert = spherical_certificate(edm)
        assert (edm.embedding_dim, cert.status) == (rank, status)
        if status == SPHERICAL:  # the sphere of the r kept axes: radius sqrt(c)
            assert cert.residual <= edm.tol.solve
            npt.assert_allclose(cert.radius, np.sqrt(c), rtol=1e-8)

    @pytest.mark.parametrize("profile", ["default", "loose"])
    @pytest.mark.parametrize("jitter, seed", [(1e-8, 0), (1e-8, 4), (3e-8, 0), (3e-8, 4)])
    def test_radial_jitter_at_the_solve_band(self, jitter, seed, profile):
        # 9 points on S^5 pushed off it radially by ~jitter: the fit's max|D w - e| is about jitter,
        # so they are spherical within tol.solve but at 3e-8 under the default profile; a spherical
        # w lies in span(U, e), so it is the minimum-norm solution
        tol = PROFILES[profile]
        rng = np.random.default_rng(seed)
        X = helpers.random_sphere_points(rng, 9, 6) * (1.0 + jitter * rng.standard_normal((9, 1)))
        edm = require_edm(helpers.edm_from_points(X), tol)
        cert = spherical_certificate(edm)
        if jitter > tol.solve:
            assert cert.status == NON_SPHERICAL and abs(cert.etw) <= 1e-13 * float(np.max(np.abs(cert.w)))
            return
        assert cert.status == SPHERICAL and cert.residual <= tol.solve
        U = edm.gram_eig.vectors[:, :edm.embedding_dim]
        outside = cert.w - U @ (U.T @ cert.w) - cert.w.mean()
        assert float(np.max(np.abs(outside))) <= 1e-14 * float(np.max(np.abs(cert.w)))

    @pytest.mark.parametrize("seed", range(50))
    def test_radial_jitter_is_non_spherical_under_the_strict_profile(self, seed):
        # 12 points on S^3 pushed off it radially by 1e-3: the true e^T w is 0, and the
        # eigh solve's rounding of it (up to 1.2e-10) exceeds the strict tol.psd on 85 of seeds 0-199
        rng = np.random.default_rng(seed)
        X = helpers.random_sphere_points(rng, 12, 4) * (1.0 + 1e-3 * rng.standard_normal((12, 1)))
        cert = spherical_certificate(require_edm(helpers.edm_from_points(X), PROFILES["strict"]))
        assert cert.status == NON_SPHERICAL
        assert abs(cert.etw) <= 1e-13


def _centering_oracle(D, s):
    J = np.eye(D.shape[0]) - np.outer(np.ones(D.shape[0]), s)
    return -0.5 * J @ D @ J.T


def test_centering_gram_matches_oracle(example_edm):
    B = centering_gram(example_edm.dist2, np.full(5, 0.2))
    npt.assert_allclose(B, helpers.centered_gram_oracle(example_edm.dist2), atol=1e-12)


@pytest.mark.parametrize("centroid", [True, False])
def test_centering_gram_is_symmetric_and_matches_jdj(centroid):
    rng = np.random.default_rng(3)
    D = FAMILIES["cloud"]
    s = np.full(12, 1.0 / 12) if centroid else rng.dirichlet(np.ones(12))
    B = centering_gram(D, s)
    npt.assert_array_equal(B, B.T)
    npt.assert_allclose(B, _centering_oracle(D, s), rtol=0, atol=1e-12 * np.max(D))


@pytest.mark.parametrize("D", [helpers.compose_block_edm([2, 2, 2, 2]), gen_crosspolytope(4).dist2,
                               FAMILIES["cloud"]])
def test_centering_gram_is_already_canonical(D):
    # eigensolvers take B without as_symmetric, so it must hold the same bits,
    # signs of zero included: these compositions have exact zeros in B
    B = centering_gram(D, np.full(D.shape[0], 1.0 / D.shape[0]))
    assert B.tobytes() == as_symmetric(B).tobytes()


def _near_cut_sphere(tol):
    """12 points on the unit 4-sphere, one axis squeezed so B's 5th eigenvalue is half the rank cut."""
    rng = np.random.default_rng(23)
    X = helpers.random_sphere_points(rng, 12, 4)
    z = rng.standard_normal(12)

    def edm(eps):
        return helpers.edm_from_points(np.column_stack([X * np.sqrt(1.0 - (eps * z) ** 2)[:, None], eps * z]))

    lam = validate_edm(edm(1e-3), tol).gram_eig.values[4]  # proportional to eps^2
    return edm(1e-3 * np.sqrt(0.5 * tol.rank / lam))


CONGRUENCE_FAMILIES = {
    "sphere": FAMILIES["sphere"],
    "crosspolytope": FAMILIES["crosspolytope"],
    "composition-lone": helpers.permute_1based(helpers.compose_block_edm([3, 2, 2], 2),
                                               [5, 9, 1, 7, 3, 8, 2, 6, 4]),
    "cloud": FAMILIES["cloud"],
    "coincident": FAMILIES["coincident"],
    "near-cut": _near_cut_sphere,
    "n1": FAMILIES["n1"],
    "n2": FAMILIES["n2"],
}


def _factor_and_route(edm, s):
    """gram_factor(edm, s), and whether it moved the stored factor to s: no decomposition of B_s."""
    decomposed = []

    def counted(S, tol):
        decomposed.append(S.shape)
        return _decompose(S, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(edm_module, "_decompose", counted)
        gf = gram_factor(edm, s)
    return gf, not decomposed


class TestGramAtCentering:
    """gram_factor at a centering s: the stored factor moved to s, against decomposing B_s."""

    @staticmethod
    def _edm(name, tol):
        D = CONGRUENCE_FAMILIES[name]
        return require_edm(D(tol) if callable(D) else D, tol)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("name", sorted(CONGRUENCE_FAMILIES))
    def test_matches_the_decomposition_of_b(self, name, profile):
        tol = PROFILES[profile]
        edm = self._edm(name, tol)
        centerings = [np.random.default_rng(edm.n).dirichlet(np.ones(edm.n))]
        cert = spherical_certificate(edm)
        if cert.status == SPHERICAL:
            centerings.append(cert.w / cert.etw)  # the circumcenter, 2w when unit spherical
        for s in centerings:
            B = centering_gram(edm.dist2, s)
            (gf, moved), oracle = _factor_and_route(edm, s), _decompose(B, tol)
            if not np.array_equal(s, edm.centering):  # near-cut's dropped eigenvalue may cross B_s's cut
                assert moved == (name != "near-cut")
            P, okeep = gf.config, oracle.rank_mask()
            assert P.shape[1] == np.count_nonzero(okeep)
            unit = 1e-12 * scale(B)
            npt.assert_allclose(np.linalg.eigvalsh(P.T @ P)[::-1], oracle.values[okeep], rtol=0, atol=unit)
            Po = oracle.vectors[:, okeep] * np.sqrt(oracle.values[okeep])
            npt.assert_allclose(P @ P.T, Po @ Po.T, rtol=0, atol=unit)

    @given(name=st.sampled_from(["sphere", "crosspolytope", "composition-lone", "cloud"]),
           profile=st.sampled_from(sorted(PROFILES)), c=st.floats(1.0, 1e6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_factor_at_a_dirichlet_centering(self, name, profile, c, seed):
        tol = PROFILES[profile]
        rng = np.random.default_rng(seed)
        D = CONGRUENCE_FAMILIES[name]
        order = rng.permutation(D.shape[0])
        edm = require_edm(c * D[np.ix_(order, order)], tol)
        s = rng.dirichlet(np.ones(edm.n))
        gf, moved = _factor_and_route(edm, s)
        P, B = gf.config, gf.gram
        assert P.shape[1] == _decompose(B, tol).rank
        unit = scale(B)
        assert float(np.max(np.abs(P @ P.T - B))) <= tol.recon * edm.n * unit
        npt.assert_allclose(s @ P, 0.0, rtol=0, atol=1e-13 * np.sqrt(unit))
        if moved:  # one row, s^T X, taken off every row of the stored axes X
            X = gram_factor(edm, edm.centering).config
            npt.assert_array_equal(P, X - s @ X)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("name", ["crosspolytope", "composition-lone"])
    def test_delta_report_matches_perron(self, name, profile):
        tol = PROFILES[profile]
        edm = self._edm(name, tol)
        rep = embedding_dim_via_delta(edm, spherical_certificate(edm))
        pd = perron(nonnegative_delta(delta_of(edm), tol), tol)
        assert (rep.dimension, rep.multiplicity, rep.lambda_max_ok) == (
            edm.n - pd.multiplicity, pd.multiplicity, abs(pd.lambda_max - 1.0) <= tol.cluster)
        npt.assert_allclose(rep.lambda_max, pd.lambda_max, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_near_cut_falls_back(self, profile):
        # the dropped eigenvalue carried through the congruence could cross B_s's rank cut
        tol = PROFILES[profile]
        edm = self._edm("near-cut", tol)
        dropped = edm.gram_eig.values[edm.embedding_dim]
        assert 0.3 * tol.rank < dropped < 0.9 * tol.rank
        s = np.random.default_rng(1).dirichlet(np.ones(edm.n))
        gf, moved = _factor_and_route(edm, s)
        assert not moved
        assert gf.config.shape[1] == _decompose(gf.gram, tol).rank

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_kept_eigenvalue_next_to_the_cut_falls_back(self, profile):
        # dropped eigenvalue -0.1 tol.psd: within the PSD condition, but B_s's third
        # eigenvalue, calibrated to 1.01 x its rank cut, lies within the shift of the cut
        tol = PROFILES[profile]
        V = np.linalg.qr(np.column_stack([np.ones(6), np.random.default_rng(4).standard_normal((6, 5))]))[0]

        def edm(lam3):
            B = (V[:, 1:5] * [2.0, 1.0, lam3, -0.1 * tol.psd]) @ V[:, 1:5].T
            return require_edm(np.diag(B)[:, None] + np.diag(B)[None, :] - 2.0 * B, tol)

        s = np.full(6, 1.0 / 6.0) + 1e-3 * np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
        first = _decompose(centering_gram(edm(tol.rank).dist2, s), tol)
        calibrated = edm(1.01 * tol.rank * tol.rank * first.scale / first.values[2])
        oracle = _decompose(centering_gram(calibrated.dist2, s), tol)
        assert 1.0 < oracle.values[2] / (tol.rank * oracle.scale) < 1.02
        gf, moved = _factor_and_route(calibrated, s)
        assert not moved and gf.config.shape[1] == oracle.rank == 3

    def test_rank_rising_past_a_cut_below_the_psd_slack_falls_back(self):
        # tol.rank < tol.psd / 2: a shift within the PSD slack can still reach the rank cut.
        # s along B's dropped eigenvector lifts that eigenvalue above B_s's cut: rank 4 -> 5
        tol = DEFAULT_TOL.with_overrides(rank=1e-12)
        edm = require_edm(helpers.squeezed_sphere(np.random.default_rng(1), 9, 4, 0.9, tol.rank), tol)
        v = edm.gram_eig.vectors[:, 4] - edm.gram_eig.vectors[:, 4].mean()
        s = np.full(9, 1.0 / 9.0) + v / np.linalg.norm(v)
        oracle = _decompose(centering_gram(edm.dist2, s), tol)
        assert oracle.rank == edm.embedding_dim + 1 == 5
        gf, moved = _factor_and_route(edm, s)
        assert not moved and gf.config.shape[1] == 5

    def test_derived_pairs_are_the_kept_ones(self):
        edm = require_edm(FAMILIES["cloud"])
        s = np.random.default_rng(2).dirichlet(np.ones(edm.n))
        es, k = edm.gram_eig, edm.embedding_dim
        X = gram_factor(edm, edm.centering).config
        npt.assert_array_equal(X, es.vectors[:, :k] * np.sqrt(es.values[:k]))  # gram_eig as it stands
        gf, moved = _factor_and_route(edm, s)
        assert moved
        npt.assert_array_equal(gf.config, X - s @ X)  # the kept pairs, moved to s

    def test_residual_check_rejects_a_foreign_eigensystem(self):
        # the stored pairs of another D of the same order and rank: B_s is decomposed itself
        edm = require_edm(FAMILIES["cloud"])
        forged = replace(edm, gram_eig=require_edm(FAMILIES["sphere"]).gram_eig)
        s = np.random.default_rng(3).dirichlet(np.ones(edm.n))
        B = centering_gram(edm.dist2, s)
        gf, moved = _factor_and_route(forged, s)
        oracle = _decompose(B, edm.tol)
        keep = oracle.rank_mask()
        assert not moved
        npt.assert_array_equal(gf.config, oracle.vectors[:, keep] * np.sqrt(oracle.values[keep]))

    def test_gram_factor_keeps_2w_when_the_centroid_is_slightly_off_center(self):
        # the octahedron with one vertex turned by 1e-9: its centroid misses the center by far
        # more than rounding, though 2w and e/n differ by less than tol.solve
        X = np.vstack([np.eye(3), -np.eye(3)])
        X[0] = [np.cos(1e-9), np.sin(1e-9), 0.0]
        edm = require_edm(helpers.edm_from_points(X))
        cert = spherical_certificate(edm)
        assert cert.unit_spherical
        assert 0.0 < float(np.max(np.abs(2.0 * cert.w - edm.centering))) <= edm.tol.solve
        gf = gram_factor(edm)
        npt.assert_array_equal(gf.centering, 2.0 * cert.w)
        npt.assert_allclose(np.linalg.norm(gf.config, axis=1), 1.0, rtol=0, atol=1e-13)

    @staticmethod
    def _square_within_slack(lam, tol):
        """The unit square's EDM with B_c given eigenvalue -lam on v, accepted through the PSD slack."""
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        v = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        B = X @ X.T - lam * np.outer(v, v)
        return require_edm(np.diag(B)[:, None] + np.diag(B)[None, :] - 2.0 * B, tol)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("factor, s", [
        (0.8, [0.5, 0.0, 0.5, 0.0]),   # -lam amplified 2x: below the slack, above the rank cut
        (0.5, [3.0, -2.5, 3.0, -2.5]),
    ])
    def test_fallback_keeps_the_psd_error(self, profile, factor, s):
        # the derived pairs cannot show the eigenvalue that the centering s amplifies past
        # the slack: B_s itself must be decomposed, and its PSD verdict raises
        tol = PROFILES[profile]
        edm = self._square_within_slack(factor * tol.psd, tol)
        s = np.array(s)
        assert not _decompose(centering_gram(edm.dist2, s), tol).psd()
        with pytest.raises(ConsistencyError, match="not PSD"):
            gram_factor(edm, s)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_slack_within_the_psd_rule_factors(self, profile):
        tol = PROFILES[profile]
        edm = self._square_within_slack(0.1 * tol.psd, tol)
        s = np.array([0.5, 0.0, 0.5, 0.0])
        oracle = _decompose(centering_gram(edm.dist2, s), tol)
        assert oracle.psd()
        assert gram_factor(edm, s).config.shape[1] == oracle.rank == 2


class TestRandomSphericalDistances:
    # rows per block: _DIFF_BLOCK_BYTES // (8 n r); one block of fewer than n rows, exactly
    # one block of n rows, and several blocks (the last one short)
    @pytest.mark.parametrize("n, r, blocks, full", [(7, 3, 1, False), (64, 32, 1, True), (150, 40, 8, False)])
    def test_bitwise_equal_to_the_difference_tensor(self, n, r, blocks, full):
        rows = max(1, _DIFF_BLOCK_BYTES // (8 * n * r))
        assert (-(-n // rows), n % rows == 0) == (blocks, full)
        edm, X = gen_random_spherical(n, r, n * r)
        diff = X[:, None, :] - X[None, :, :]
        npt.assert_array_equal(edm.dist2, np.einsum("ijk,ijk->ij", diff, diff))

    def test_peak_memory_stays_below_the_tensor(self):
        tracemalloc.start()
        try:
            gen_random_spherical(200, 100, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6  # the 200 x 200 x 100 difference tensor alone is 32 MB


class TestScaleInvariance:
    """D -> cD keeps EDM-ness, rank and sphericity and multiplies the radius by sqrt(c)."""

    @given(name=st.sampled_from(sorted(SCALED_FAMILIES)), c=st.floats(1e-12, 1e12), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_verdicts_survive_scaling_up(self, name, c, seed):
        # scaling down too: scale() is max|entry|, so every matrix-relative band moves with D
        D = SCALED_FAMILIES[name]
        order = np.random.default_rng(seed).permutation(D.shape[0])
        edm, scaled = require_edm(D), validate_edm(c * D[np.ix_(order, order)])
        assert not isinstance(scaled, EdmRejection)
        assert scaled.embedding_dim == edm.embedding_dim
        cert, other = spherical_certificate(edm), spherical_certificate(scaled)
        assert other.status == cert.status
        if cert.status == SPHERICAL:
            npt.assert_allclose(other.radius, np.sqrt(c) * cert.radius, rtol=1e-9)

    @pytest.mark.parametrize("gamma", [1e10, 1e12])
    def test_large_regular_simplex_is_spherical(self, gamma):
        # e^T w = n / (gamma (n - 1)) falls below the absolute tol.psd at gamma ~ 1e9
        cert = spherical_certificate(gen_regular_simplex(5, gamma))
        assert cert.status == SPHERICAL
        npt.assert_allclose(cert.radius, np.sqrt(gamma * 4 / 10), rtol=1e-12)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_residual_rule_does_not_scale_with_d(self, profile):
        # 20 points on the unit circle with radial jitter 1e-6: the fit misses them by about 1e-6
        # of 2 rho^2 at every c, since that ratio does not scale with D, so the verdict is one status
        D = helpers.jittered_circle(0)
        tol = PROFILES[profile]
        statuses = {spherical_certificate(require_edm(c * D, tol)).status for c in [1.0, 1e3, 1e6, 1e10, 1e100]}
        assert statuses == {NON_SPHERICAL}

    def test_rank_survives_scaling_down(self):
        assert validate_edm(1e-9 * gen_unit_simplex(4).dist2).embedding_dim == 3


class TestOverflow:
    """Entries beyond float max / (4n) are rejected before any Gram matrix is formed; the rest stay finite."""

    SIMPLEX = np.ones((4, 4)) - np.eye(4)

    @pytest.mark.parametrize("c", [
        1.7e308,  # u_i + u_j of the centered Gram matrix would overflow
        1e308,  # its Gram matrix is finite, but the entries lie beyond the bound
        np.nextafter(np.finfo(float).max / 16.0, np.inf),  # just beyond the bound at n = 4
    ])
    def test_rejected_before_the_gram_matrix(self, c):
        res = validate_edm(c * self.SIMPLEX)
        assert isinstance(res, EdmRejection) and res.reason == "too-large"
        assert res.detail == f"max|M| = {c:g} exceeds float max / (4n) = {np.finfo(float).max / 16.0:g}"
        with pytest.raises(PreconditionError, match="too-large"):
            require_edm(c * self.SIMPLEX)

    def test_rejected_before_the_symmetry_rule_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # M - M^T would overflow: no RuntimeWarning either
            res = validate_edm(np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]))
        assert res.reason == "too-large"

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_largest_accepted_simplex_stays_finite(self, n):
        c = np.finfo(float).max / (4 * n)
        # w is about 1 / (n c), near the least normal float: its products may underflow, gradually
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            edm = require_edm(c * (np.ones((n, n)) - np.eye(n)))
            cert = spherical_certificate(edm)
            factor = gram_factor(edm)
            off_centroid = gram_factor(edm, np.eye(n)[0])
        assert edm.embedding_dim == n - 1 and cert.status == SPHERICAL
        npt.assert_allclose(cert.radius, np.sqrt(c * (n - 1) / (2 * n)), rtol=1e-12)
        assert np.isfinite(factor.config).all() and np.isfinite(off_centroid.config).all()

    # four non-concyclic points in the plane: n - rank(B) = 2, and w is the fit's residual r / |r|^2
    PLANAR = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])

    @pytest.mark.parametrize("c", [1e200, np.finfo(float).max / 16.0 / 13.0])  # 13 = max|D|: the bound
    def test_large_non_spherical_keeps_its_verdict(self, c):
        D = c * helpers.edm_from_points(self.PLANAR)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            cert = spherical_certificate(require_edm(D))
        _assert_witness(cert, D, DEFAULT_TOL)
        assert spherical_certificate(require_edm(helpers.edm_from_points(self.PLANAR))).status == NON_SPHERICAL

    def test_gram_factor_at_a_far_centering_raises(self):
        # accepted, but u_i + u_j of the Gram matrix at s = (17, -16, 0, 0) overflows
        edm = require_edm(np.finfo(float).max / 16.0 * self.SIMPLEX)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="NaN or Inf"):
            gram_factor(edm, np.array([17.0, -16.0, 0.0, 0.0]))


class TestUnderflow:
    """Entries below 4n times the least normal float are rejected as too-small; larger scales keep their verdicts.

    The scales are pinned, as tier-1's properties reach subnormals only sometimes.  Without
    the rule, these inputs read spherical at 3e-308, most read non-spherical with a NaN
    witness at 1e-309 and 1e-310, and most read not-psd at 1e-320.
    """

    INPUTS = {
        "unit simplex 4": gen_unit_simplex(4).dist2,
        "crosspolytope 3": gen_crosspolytope(3).dist2,
        "sphere 8": helpers.edm_from_points(helpers.random_sphere_points(np.random.default_rng(8), 8, 3)),
        "sphere 40": helpers.edm_from_points(helpers.random_sphere_points(np.random.default_rng(40), 40, 5)),
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    @pytest.mark.parametrize("c", [3e-308, 1e-308, 1e-309, 1e-310, 1e-320])
    def test_rejected_as_too_small(self, name, c):
        M = c * self.INPUTS[name]
        res = validate_edm(M)
        least = 4 * M.shape[0] * np.finfo(float).tiny
        assert isinstance(res, EdmRejection) and res.reason == "too-small"
        assert res.detail == f"max|M| = {scale(M):g} is below 4n times the least normal float = {least:g}"

    @pytest.mark.filterwarnings("error")  # the sphere fit inverts no residual of a spherical matrix
    @pytest.mark.parametrize("name", sorted(INPUTS))
    @pytest.mark.parametrize("c", [1e-300, 1e-200])
    def test_larger_scales_keep_their_verdicts(self, name, c):
        D = self.INPUTS[name]
        ref, edm = require_edm(D), require_edm(c * D)
        cert = spherical_certificate(edm)
        assert edm.embedding_dim == ref.embedding_dim
        assert cert.status == SPHERICAL and not np.isnan(cert.w).any()
        npt.assert_allclose(cert.radius, np.sqrt(c) * spherical_certificate(ref).radius, rtol=1e-9)

    @pytest.mark.parametrize("M", [np.zeros((3, 3)), np.zeros((1, 1)), np.zeros((0, 0))], ids=["zero", "1x1", "empty"])
    def test_matrices_with_no_nonzero_entry_pass(self, M):
        edm = validate_edm(M)
        assert isinstance(edm, Edm) and edm.embedding_dim == 0


class TestMemoryCheck:
    """The generators refuse an order whose peak, not just one n x n matrix, exceeds physical memory."""

    @staticmethod
    def report_memory(monkeypatch, arrays, n):
        """os.sysconf reporting `arrays` n x n float64 matrices of physical memory, in 4096-byte pages."""
        pages = int(arrays * 8 * n * n) // 4096
        monkeypatch.setattr(edm_module.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}.__getitem__)

    @pytest.mark.skipif(not hasattr(edm_module.os, "sysconf"), reason="the check needs os.sysconf")
    @pytest.mark.parametrize("arrays", [1.5, 5.0, 9.5])
    def test_memory_for_one_matrix_but_not_the_peak(self, monkeypatch, arrays):
        assert 1 < arrays < edm_module._PEAK_ARRAYS
        self.report_memory(monkeypatch, arrays, 1000)
        with pytest.raises(PreconditionError, match="order 1000 needs about 80000000 bytes"):
            edm_module._fits_in_memory(1000)
        for generate in (lambda: gen_crosspolytope(500), lambda: gen_unit_simplex(1000),
                         lambda: gen_random_spherical(1000, 500, 0)):
            with pytest.raises(PreconditionError, match="physical memory"):
                generate()  # refused before anything is allocated

    @pytest.mark.skipif(not hasattr(edm_module.os, "sysconf"), reason="the check needs os.sysconf")
    def test_memory_for_the_peak(self, monkeypatch):
        self.report_memory(monkeypatch, edm_module._PEAK_ARRAYS + 0.5, 1000)
        assert edm_module._fits_in_memory(1000) is None
