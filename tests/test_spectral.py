import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edmsphere import DEFAULT_TOL, ConsistencyError, Graph, SpectralError, Tolerances, adjacency, components
from edmsphere import construct_orthorep
from edmsphere.spectral import (_check_perron, _eigh_stack, _gram_exceeds, _perron_blocks, _sign_normalize_columns,
                                as_symmetric, eig)
from oracles import perron, reconstruction_residual, sign_normalize, solve_linear

SQRT2 = float(np.sqrt(2.0))

A_P3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])  # path 1-2-3
A_EDGE = np.array([[0.0, 1.0], [1.0, 0.0]])


def sym_matrices(max_n=6, mag=1e3):
    elems = st.floats(-mag, mag, allow_nan=False, allow_infinity=False, width=64)
    return st.integers(1, max_n).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=elems)
    ).map(lambda M: (M + M.T) / 2.0)


class TestAsSymmetric:
    def test_mirrors_lower_triangle(self):
        M = np.array([[1.0, 2.0 + 1e-14], [2.0, 3.0]])
        S = as_symmetric(M)
        npt.assert_array_equal(S, S.T)
        assert S[0, 1] == 2.0  # lower wins

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            as_symmetric(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            as_symmetric(np.array([[0.0, np.nan], [np.nan, 0.0]]))

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            as_symmetric(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestSignNormalize:
    def test_flips_negative_peak(self):
        npt.assert_array_equal(sign_normalize(np.array([1.0, -3.0])), [-1.0, 3.0])

    def test_keeps_positive_peak(self):
        npt.assert_array_equal(sign_normalize(np.array([-1.0, 3.0])), [-1.0, 3.0])

    def test_tie_breaks_on_first_index(self):
        npt.assert_array_equal(sign_normalize(np.array([-2.0, 2.0])), [2.0, -2.0])
        npt.assert_array_equal(sign_normalize(np.array([2.0, -2.0])), [2.0, -2.0])

    @given(arrays(np.float64, 4, elements=st.floats(-100, 100, allow_nan=False)))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, v):
        once = sign_normalize(v)
        npt.assert_array_equal(sign_normalize(once), once)


    @pytest.mark.parametrize("elements", [
        # small integers: ties in magnitude, both signs, zero columns and -0.0
        st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
        # no ties: the reductions alone decide
        st.floats(-1e3, 1e3, allow_subnormal=False),
    ], ids=["ties", "floats"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_columns_of_a_stack_match_the_one_vector_rule(self, elements, data):
        # a stack, a single matrix, and column-reversed views of both, as `_eigh_descending` passes them
        shape = data.draw(st.sampled_from([(3, 4, 5), (4, 5)]))
        V = data.draw(arrays(np.float64, shape, elements=elements))
        if data.draw(st.booleans()):
            V = V[..., ::-1]
        stack = V.reshape((-1, 4, 5))
        ref = np.stack([np.column_stack([sign_normalize(W[:, j]) for j in range(5)]) for W in stack])
        assert _sign_normalize_columns(V).tobytes() == ref.reshape(shape).tobytes()


class TestGramExceeds:
    """One Cholesky of F^T F - tau I certifies that every eigenvalue of F^T F exceeds a floor."""

    @staticmethod
    def _factor(n, k, least, seed=0):
        # orthonormal columns scaled so F^T F has eigenvalues 1 ... least, to rounding
        Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, k)))[0]
        return Q * np.sqrt(np.linspace(1.0, least, k))

    @pytest.mark.parametrize("n, k", [(40, 10), (400, 200)])
    def test_rounding_margin_decides_near_the_floor(self, n, k):
        least = 1e-3
        F = self._factor(n, k, least)
        margin = (n + k + 1) * k * np.finfo(float).eps * float(np.max(np.sum(F * F, axis=0)))
        assert _gram_exceeds(F, least - 10.0 * margin)
        # within the rounding of forming and factoring F^T F: not certified, though above the floor
        assert not _gram_exceeds(F, least - 0.25 * margin)
        assert not _gram_exceeds(F, least * (1.0 + 1e-9))

    def test_no_columns_and_rank_deficiency(self):
        assert _gram_exceeds(np.zeros((5, 0)), 1.0)
        F = self._factor(8, 3, 0.5)
        assert not _gram_exceeds(np.column_stack([F, F[:, :1]]), 0.0)  # a repeated column
        F[0, 0] = np.inf
        assert not _gram_exceeds(F, 0.0)

    @given(n=st.integers(1, 30), k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           rel=st.floats(-1e-6, 1e-6), mag=st.floats(1e-6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_certified_floors_lie_below_the_spectrum(self, n, k, seed, rel, mag):
        F = mag * np.random.default_rng(seed).standard_normal((n, k))
        least = float(np.linalg.eigvalsh(F.T @ F)[0])
        floor = max(0.0, least * (1.0 + rel))
        if _gram_exceeds(F, floor):
            assert least > floor


class TestEig:
    def test_descending_on_diagonal_matrix(self):
        es = eig(np.diag([3.0, 1.0, 2.0]))
        npt.assert_allclose(es.values, [3.0, 2.0, 1.0], atol=1e-14)
        assert es.order == 3
        # eigenvectors are signed standard basis vectors
        npt.assert_allclose(np.abs(es.vectors), np.eye(3)[:, [0, 2, 1]], atol=1e-14)
        assert np.all(es.vectors.max(axis=0) > 0)  # sign-normalized

    def test_single_edge_spectrum(self):
        es = eig(A_EDGE)
        npt.assert_allclose(es.values, [1.0, -1.0], atol=1e-14)
        c = 1.0 / SQRT2
        npt.assert_allclose(es.vectors[:, 0], [c, c], atol=1e-14)
        npt.assert_allclose(es.vectors[:, 1], [c, -c], atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((7, 7))
        M = (M + M.T) / 2.0
        es = eig(M)
        assert reconstruction_residual(es, M) <= 1e-12
        npt.assert_allclose(es.vectors.T @ es.vectors, np.eye(7), atol=1e-12)

    @given(sym_matrices())
    @settings(max_examples=40, deadline=None)
    def test_spectrum_properties(self, M):
        es = eig(M)
        assert np.all(np.diff(es.values) <= 1e-9 * max(1.0, np.abs(es.values[0])))
        n = M.shape[0]
        npt.assert_allclose(es.vectors.T @ es.vectors, np.eye(n), atol=1e-10)

    @given(sym_matrices())
    @settings(max_examples=40, deadline=None)
    def test_matches_columnwise_sign_normalize(self, M):
        # reference: numpy's eigenvectors, descending, one sign_normalize per column
        _, V = np.linalg.eigh(as_symmetric(M))
        ref = np.column_stack([sign_normalize(V[:, j]) for j in reversed(range(V.shape[1]))])
        npt.assert_array_equal(eig(M).vectors, ref)

    def test_deterministic_for_identical_bits(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((6, 6))
        M = (M + M.T) / 2.0
        a, b = eig(M.copy()), eig(M.copy())
        npt.assert_array_equal(a.values, b.values)
        npt.assert_array_equal(a.vectors, b.vectors)

    def test_failed_eigh_is_retried_alone_only_within_a_stack(self, monkeypatch):
        calls = []

        def failing(S):
            calls.append(np.shape(S))
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(SpectralError, match="no convergence"):
            eig(A_EDGE)
        assert calls == [(1, 2, 2)]  # a single matrix is a stack of one: not decomposed twice
        calls.clear()
        _, _, errors = _eigh_stack(np.stack([A_EDGE, A_EDGE]))
        assert calls == [(2, 2, 2), (2, 2), (2, 2)]
        assert all(isinstance(error, SpectralError) for error in errors)


class TestIsPsd:
    def test_accepts_psd(self):
        res = eig(np.array([[2.0, -1.0], [-1.0, 2.0]])).psd()
        assert res
        assert res.min_eigenvalue >= 1.0 - 1e-12
        empty = eig(np.zeros((0, 0)))
        assert empty.psd() and empty.psd().min_eigenvalue == 0.0 and empty.rank == 0

    def test_rejects_indefinite_with_witness(self):
        res = eig(A_EDGE).psd()
        assert not res
        npt.assert_allclose(res.min_eigenvalue, -1.0, atol=1e-14)
        v = res.witness
        npt.assert_allclose(v @ A_EDGE @ v, -1.0, atol=1e-12)

    def test_tolerates_tiny_negative(self):
        assert eig(np.diag([1.0, -1e-12])).psd()
        assert not eig(np.diag([1.0, -1e-6])).psd()


class TestNumericalRank:
    def test_rank_one(self):
        assert eig(np.ones((4, 4))).rank == 1

    def test_shifted_path(self):
        # I - A(P3)/sqrt(2) has spectrum {0, 1, 2}
        B = np.eye(3) - A_P3 / SQRT2
        assert eig(B).rank == 2

    def test_zero(self):
        assert eig(np.zeros((3, 3))).rank == 0

    def test_negative_eigenvalue_within_psd_slack_is_not_a_dimension(self):
        M = np.diag([1.0, -1e-6])
        assert eig(M).rank == 2  # not PSD: magnitude decides
        assert eig(M, Tolerances(psd=1e-5)).rank == 1  # PSD within the slack


class TestPerron:
    def test_path_graph(self):
        pd = perron(A_P3)
        npt.assert_allclose(pd.lambda_max, SQRT2, atol=1e-14)
        assert pd.multiplicity == 1
        npt.assert_allclose(pd.xi, [0.5, SQRT2 / 2.0, 0.5], atol=1e-12)
        assert np.all(pd.xi > 0)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            perron(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_multiplicity_of_block_diagonal(self):
        M = np.zeros((4, 4))
        M[:2, :2] = A_EDGE
        M[2:, 2:] = A_EDGE
        pd = perron(M)
        npt.assert_allclose(pd.lambda_max, 1.0, atol=1e-14)
        assert pd.multiplicity == 2

    def test_cluster_band_is_absolute(self):
        tight = Tolerances(cluster=1e-12)
        pd = perron(np.diag([1.0, 1.0 - 1e-10, 0.5]), tight)
        assert pd.multiplicity == 1
        pd = perron(np.diag([1.0, 1.0 - 1e-10, 0.5]))
        assert pd.multiplicity == 2  # default band 1e-8 absorbs 1e-10

    def test_multiplicity_band(self):
        es = eig(np.diag([1.0, 1.0 - 1e-10, 0.5]))
        assert es.multiplicity() == 2  # default band tol.cluster = 1e-8
        assert es.multiplicity(band=1e-12) == 1
        assert es.multiplicity(band=0.6) == 3


def lollipop(clique: int, path: int) -> Graph:
    """K_clique with a path of `path` more nodes hanging from its last node."""
    edges = [(i, j) for i in range(1, clique + 1) for j in range(i + 1, clique + 1)]
    return Graph.from_edges(clique + path, edges + [(clique + k, clique + k + 1) for k in range(path)])


class TestCheckPerron:
    @pytest.mark.parametrize("G", [Graph.from_edges(5, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)]), lollipop(4, 3)],
                             ids=["triangle-tail", "lollipop-4-3"])
    def test_a_zero_perron_entry_is_rejected(self, G):
        groups = _perron_blocks(adjacency(G), components(G), DEFAULT_TOL, normalize=True)
        assert _check_perron(groups) is groups  # the real blocks pass
        groups[0].vectors[0, -1, 0] = 0.0  # the Perron entry of the last node
        with pytest.raises(ConsistencyError, match=r"^Perron vector of component \(1, .*\) is not positive$"):
            _check_perron(groups)

    def test_eigh_returns_zero_perron_entries_on_a_long_tail(self):
        # reachable by input: along the path the Perron entries fall by about 1 / 29 per node, and
        # those below eps times the largest come back from eigh as zeros, which the check refuses
        G = lollipop(30, 61)
        [group] = _perron_blocks(adjacency(G), components(G), DEFAULT_TOL, normalize=True)
        assert np.count_nonzero(group.xi == 0.0) > 0 and np.all(group.xi >= 0.0)
        with pytest.raises(ConsistencyError, match="is not positive"):
            construct_orthorep(G)


class TestSolveLinear:
    def test_invertible_system(self):
        # 3(E - I) w = e has the unique solution w = e/6
        M = 3.0 * (np.ones((3, 3)) - np.eye(3))
        sol = solve_linear(M, np.ones(3))
        assert sol.consistent
        npt.assert_allclose(sol.x, np.full(3, 1.0 / 6.0), atol=1e-12)
        assert sol.residual <= 1e-12

    def test_singular_consistent_min_norm(self):
        sol = solve_linear(np.ones((2, 2)), np.ones(2))
        assert sol.consistent
        npt.assert_allclose(sol.x, [0.5, 0.5], atol=1e-12)

    def test_inconsistent(self):
        sol = solve_linear(np.zeros((2, 2)), np.ones(2))
        assert not sol.consistent
        npt.assert_allclose(sol.residual, 1.0)
        npt.assert_allclose(sol.x, [0.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            solve_linear(np.eye(2), np.ones(3))

    @given(sym_matrices(max_n=5, mag=10.0))
    @settings(max_examples=40, deadline=None)
    def test_range_vectors_solve_to_rank_cut(self, M):
        # b in the column space solves up to the mass lost at the rank cut
        y = np.linspace(-1.0, 1.0, M.shape[0])
        b = M @ y
        sol = solve_linear(M, b)
        s = max(1.0, float(np.abs(M).max()))
        assert sol.residual <= 1e-7 * s * M.shape[0]
