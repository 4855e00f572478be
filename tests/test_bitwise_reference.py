"""The single-pass helpers return the bits of the direct formulas they replace.

Each oracle below is the direct formula, kept as the reference:
- `_entry_stats`: finiteness by `isfinite`, max|M - M^T| always formed, and
  the mirror taken unless every skew is exactly 0;
- `_sign_normalize_columns`: the column max and min taken over the columns
  as given, a column-reversed view included;
- `_sphere_dist2`: each block of rows against every row, with no triangle;
- `support_components`: the arcs of the 2-D `np.nonzero` of the support.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import edmsphere.edm as edm_module
from edmsphere import DEFAULT_TOL, PROFILES, min_offdiagonal
from edmsphere.edm import _DIFF_BLOCK_BYTES, _FLOAT_MAX, _crosspolytope_dist2, _entry_rejection, _entry_stats
from edmsphere.edm import _sphere_dist2, _sphere_points, centering_gram
from edmsphere.graphs import _split, _support_adjacency, support_components
from edmsphere.spectral import _eigh_descending, _sign_normalize_columns
from edmsphere.tolerances import scale


def entry_stats_oracle(M):
    n = M.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):
        finite = np.isfinite(M).all(axis=(-2, -1))
        skew = np.abs(M - np.swapaxes(M, -1, -2)).max(axis=(-2, -1), initial=0.0)
    if (skew == 0.0).all():
        D = M + 0.0
    else:
        D = np.tril(M) + np.swapaxes(np.tril(M, -1), -1, -2)
    diag = np.arange(n)
    diag_max = np.abs(D[..., diag, diag]).max(axis=-1, initial=0.0)
    D[..., diag, diag] = 0.0
    return finite, scale(M), skew, D, diag_max, min_offdiagonal(D)


def sign_normalize_oracle(V):
    top, bottom = V.max(axis=-2), V.min(axis=-2)
    flip, tie = -bottom > top, -bottom == top
    if tie.any():
        tied = np.swapaxes(V, -1, -2)[tie]
        flip[tie] = np.argmin(tied, axis=-1) < np.argmax(tied, axis=-1)
    return V * np.where(flip, -1.0, 1.0)[..., None, :]


def sphere_dist2_oracle(X, block_bytes=_DIFF_BLOCK_BYTES):
    n = X.shape[-2]
    D = np.empty(X.shape[:-1] + (n,))
    row_bytes = X.size // max(n, 1) * n * X.itemsize
    rows = max(1, block_bytes // max(row_bytes, 1))
    for i in range(0, n, rows):
        diff = X[..., i:i + rows, None, :] - X[..., None, :, :]
        D[..., i:i + rows, :] = np.einsum("...ijk,...ijk->...ij", diff, diff)
    return D


def support_components_oracle(M, tol):
    S = _support_adjacency(M, tol)
    return _split(S.shape[0], *np.nonzero(S))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def rejections(stats, tol, n) -> list:
    """Each matrix's `_entry_rejection` as (reason, detail), or None, read from its stats as validation reads them."""
    rows = zip(*(stats[k].tolist() for k in (0, 1, 2, 4, 5)))
    return [None if r is None else (r.reason, r.detail) for r in (_entry_rejection(*row, tol, n) for row in rows)]


@st.composite
def entry_stacks(draw):
    """(T, n, n) stacks mixing NaN, +-inf, -0.0 against +0.0, asymmetric and too-large entries."""
    T, n = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    big = _FLOAT_MAX / (4 * max(n, 1))
    special = st.sampled_from([0.0, -0.0, 2.0, 4.0, -1e-12, np.nan, np.inf, -np.inf, big, 2.0 * big, 1e-300])
    M = draw(arrays(np.float64, (T, n, n), elements=special | st.floats(0.0, 8.0)))
    for t in range(T):
        if draw(st.booleans()):  # mirrored, then each zero's sign flipped on its own
            M[t] = np.tril(M[t]) + np.tril(M[t], -1).T
            flip = draw(arrays(np.bool_, (n, n))) & (M[t] == 0.0)
            M[t][flip] = -M[t][flip]
        if n >= 2 and draw(st.booleans()):  # one pair off by a few ulps
            i, j = draw(st.integers(1, n - 1)), draw(st.integers(0, n - 2))
            M[t, i, min(j, i - 1)] = np.nextafter(M[t, i, min(j, i - 1)], np.inf)
    return M


class TestEntryStats:
    @given(M=entry_stacks(), profile=st.sampled_from(sorted(PROFILES)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_direct_formula(self, M, profile):
        got, ref = _entry_stats(M), entry_stats_oracle(M)
        finite = ref[0]
        assert same_bits(got[0], finite)
        for k in (1, 3, 4, 5):  # scale, D, max|diag|, least off-diagonal
            assert same_bits(got[k], ref[k])
        assert same_bits(got[2][finite], ref[2][finite])  # the skew is read only where finite
        tol = PROFILES[profile]
        assert rejections(got, tol, M.shape[-1]) == rejections(ref, tol, M.shape[-1])


def crosspolytope_vectors(r):
    """eigh's ascending eigenvectors of the crosspolytope's centroid Gram matrix: many tied columns."""
    n = 2 * r
    return np.linalg.eigh(centering_gram(_crosspolytope_dist2(r), np.full(n, 1.0 / n)))[1]


def helmert(n):
    """The edgeless representation's e-perp basis: columns tied between +-1/sqrt(j(j+1)) entries."""
    H = np.triu(np.ones((n, n))) - np.eye(n, k=-1) * np.arange(1.0, n + 1)
    return H / np.sqrt(np.einsum("ij,ij->j", H, H))


class TestSignNormalizeColumns:
    @pytest.mark.parametrize("V", [crosspolytope_vectors(3), crosspolytope_vectors(20), helmert(7),
                                   helmert(40), np.stack([crosspolytope_vectors(4), helmert(8)])],
                             ids=["cross-3", "cross-20", "helmert-7", "helmert-40", "stack"])
    @pytest.mark.parametrize("view", ["as-is", "reversed"])
    def test_tied_columns_match_the_direct_formula(self, V, view):
        V = V[..., ::-1] if view == "reversed" else V
        got, ref = _sign_normalize_columns(V), sign_normalize_oracle(V)
        assert same_bits(got, ref) and got.strides == ref.strides

    @given(V=st.sampled_from([(4, 5), (3, 4, 5), (1, 6, 6)]).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
                             | st.floats(-2.0, 2.0))), reversed_view=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_any_columns_match_the_direct_formula(self, V, reversed_view):
        V = V[..., ::-1] if reversed_view else V
        got, ref = _sign_normalize_columns(V), sign_normalize_oracle(V)
        assert same_bits(got, ref) and got.strides == ref.strides

    @pytest.mark.parametrize("S", [centering_gram(_crosspolytope_dist2(6), np.full(12, 1.0 / 12)),
                                   np.random.default_rng(3).standard_normal((3, 9, 9))],
                             ids=["cross", "stack"])
    def test_eigh_descending_matches_the_direct_formula(self, S):
        S = S + np.swapaxes(S, -1, -2)
        values, vectors = np.linalg.eigh(S)
        got = _eigh_descending(S)
        assert same_bits(got[0], values[..., ::-1].copy())
        ref = sign_normalize_oracle(vectors[..., ::-1])
        assert same_bits(got[1], ref) and got[1].strides == ref.strides


def past_a_block_boundary(T, r):
    """The least n >= 2 whose row blocks end with a block of one row: n = k * rows + 1, k >= 1."""
    for n in range(2, 4096):
        rows = max(1, _DIFF_BLOCK_BYTES // (8 * T * n * r))
        if rows < n and n % rows == 1:
            return n
    raise AssertionError("no block boundary below 4096")


class TestSphereDist2:
    @pytest.mark.parametrize("T", [None, 1, 3])
    @pytest.mark.parametrize("n, r", [(1, 3), (2, 1), (6, 4), (64, 32), (150, 40), ("past", 40), ("past", 3)])
    def test_matches_the_direct_formula(self, T, n, r):
        if n == "past":
            n = past_a_block_boundary(T or 1, r)
        rngs = [np.random.default_rng(1000 * n + r + t) for t in range(T or 1)]
        X = _sphere_points(rngs, n, r)
        X = X[0] if T is None else X
        assert same_bits(_sphere_dist2(X), sphere_dist2_oracle(X))

    @given(T=st.integers(1, 3), n=st.integers(1, 24), r=st.integers(1, 6), rows=st.integers(1, 25),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_any_block_size_matches_the_direct_formula(self, T, n, r, rows, seed):
        X = np.random.default_rng(seed).standard_normal((T, n, r))
        saved, edm_module._DIFF_BLOCK_BYTES = edm_module._DIFF_BLOCK_BYTES, rows * T * n * r * 8  # blocks of `rows` rows
        try:
            got = _sphere_dist2(X)
        finally:
            edm_module._DIFF_BLOCK_BYTES = saved
        assert same_bits(got, sphere_dist2_oracle(X))
        assert same_bits(got, sphere_dist2_oracle(X, rows * T * n * r * 8))


@st.composite
def supports(draw):
    """Square matrices whose entries sit on, inside and beyond +-tol.support, and exact zeros."""
    n = draw(st.integers(0, 12))
    t = DEFAULT_TOL.support
    values = st.sampled_from([0.0, -0.0, t, -t, 2 * t, -2 * t, 0.5 * t, 1.0, -1.0, np.nan])
    M = draw(arrays(np.float64, (n, n), elements=values))
    return M if draw(st.booleans()) else np.tril(M) + np.tril(M, -1).T


class TestSupportComponents:
    @given(M=supports(), profile=st.sampled_from(sorted(PROFILES)))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_two_dimensional_nonzero(self, M, profile):
        tol = PROFILES[profile]
        assert support_components(M, tol) == support_components_oracle(M, tol)

    @pytest.mark.parametrize("r", [1, 5, 200])
    def test_crosspolytope_delta(self, r):
        delta = _crosspolytope_dist2(r) / 2.0 - 1.0
        np.fill_diagonal(delta, 0.0)
        assert support_components(delta) == support_components_oracle(delta, DEFAULT_TOL)
