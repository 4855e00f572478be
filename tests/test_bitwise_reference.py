"""The single-pass helpers return the bits of the direct formulas they replace.

Each oracle below is the direct formula, kept as the reference:
- `_entry_stats`: finiteness by `isfinite`, max|M - M^T| always formed, and
  the mirror taken unless every skew is exactly 0;
- `_sign_normalize_columns`: the column max and min taken over the columns
  as given, a column-reversed view included;
- `_sphere_dist2`: each block of rows against every row, with no triangle;
- `support_components`: the arcs of the 2-D `np.nonzero` of the support;
- each tolerance comparison that `tolerances._within` and its rules replaced:
  the comparison as the site wrote it, with one change, that a NaN operand
  fails every rule (two sites let it pass).
"""

import dataclasses
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import edmsphere.edm as edm_module
from edmsphere import DEFAULT_TOL, PROFILES, Graph, PreconditionError, min_offdiagonal, verify_sign_pattern
from edmsphere.decomposition import _rankin_report
from edmsphere.edm import _DIFF_BLOCK_BYTES, _FLOAT_MAX, _crosspolytope_dist2, _entry_rejection, _entry_stats
from edmsphere.edm import DeltaMatrix, _sphere_dist2, _sphere_points, centering_gram, nonnegative_delta
from edmsphere.graphs import _split, _support_adjacency, support_components
from edmsphere.spectral import _cluster_stack, _eigh_descending, _psd_stack, _rank_stack, _sign_normalize_columns
from edmsphere.tolerances import (_interior, _over_two, _perron_hypothesis, _recon_band, _top_at_one, _unit_radius,
                                  _within, scale)


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


SPECIAL = [float(v) for v in (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                               2.2250738585072014e-308, 1e-8, 1e-7, 0.5, 1.0, 2.0, 3.0, np.nextafter(2.0, 0.0),
                               np.nextafter(2.0, 4.0), -1.0, 1e300)]
special = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
FORMS = {(False, False): operator.le, (False, True): operator.lt, (True, False): operator.ge, (True, True): operator.gt}


def tol_with(**fields):
    return dataclasses.replace(DEFAULT_TOL, **fields)


class TestWithin:
    @given(value=special, band=special, at_band=st.booleans(), above=st.booleans(), strict=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_ok_is_the_comparison_and_slack_the_signed_difference(self, value, band, at_band, above, strict):
        band = value if at_band else band
        ok, slack = _within(value, band, above=above, strict=strict)
        assert type(ok) is bool and ok == FORMS[above, strict](value, band)  # Python floats give a bool
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.float64(value) - np.float64(band) if above else np.float64(band) - np.float64(value)
        assert same_bits(np.float64(slack), expected)
        if np.isnan(value) or np.isnan(band):
            assert not ok  # NaN fails every form
        elif value == band:
            assert ok == (not strict)
        if np.isfinite(value) and np.isfinite(band):  # the slack's sign is the verdict: exact, with subnormals
            assert ok == (slack > 0.0 if strict else slack >= 0.0)
        assert _within(value, band, above=above, strict=strict, slack=False) == (ok, None)

    @given(values=arrays(np.float64, (3, 4), elements=special), band=special,
           above=st.booleans(), strict=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_arrays_decide_entry_by_entry(self, values, band, above, strict):
        with np.errstate(invalid="ignore", over="ignore"):
            ok, slack = _within(values, band, above=above, strict=strict)
            assert same_bits(slack, values - band if above else band - values)
        expected = [[FORMS[above, strict](v, band) for v in row] for row in values.tolist()]
        assert ok.dtype == bool and ok.tolist() == expected


def site(value, op, band, form="pass"):
    """The parent's comparison at a rule site, `value op band`, read as the site read it: the value
    passes when it holds ("pass") or when it does not ("fail"); with the one change that a NaN
    operand fails."""
    def verdict(x, f, s):
        with np.errstate(invalid="ignore", over="ignore"):
            v, b = value(x, f, s), band(x, f, s)
            held = bool(op(v, b))
        return (held if form == "pass" else not held) and not (np.isnan(v) or np.isnan(b))
    return verdict


# each rule site: (the call that replaced it, the parent's comparison there); x is the value the
# site reads, f the tolerance field, s a scale, a residual shift or a reference value
RULE_SITES = {
    "spectral._perron_blocks top": (
        lambda x, f, s: _top_at_one(np.array([x]), tol_with(cluster=f))[0][0],
        site(lambda x, f, s: np.abs(np.array([x]) - 1.0)[0], operator.gt, lambda x, f, s: f, "fail")),
    "edm.embedding_dim_via_delta top": (
        lambda x, f, s: _top_at_one(x, tol_with(cluster=f))[0],
        site(lambda x, f, s: abs(x - 1.0), operator.le, lambda x, f, s: f)),
    "decomposition.certify_simplex top": (
        lambda x, f, s: _top_at_one(x, tol_with(cluster=f))[0],
        site(lambda x, f, s: abs(x - 1.0), operator.gt, lambda x, f, s: f, "fail")),
    "edm._certify unit radius": (
        lambda x, f, s: _unit_radius(x, tol_with(unit=f))[0],
        site(lambda x, f, s: abs(2.0 * x - 1.0), operator.le, lambda x, f, s: f)),
    "edm._circumcenter_edms unit radius": (
        lambda x, f, s: _unit_radius(np.array([x]), tol_with(unit=f))[0][0],
        site(lambda x, f, s: np.abs(2.0 * np.array([x]) - 1.0)[0], operator.gt, lambda x, f, s: f, "fail")),
    "edm.nonnegative_delta hypothesis": (
        lambda x, f, s: _perron_hypothesis(x, tol_with(sign=f))[0],
        site(lambda x, f, s: x, operator.lt, lambda x, f, s: 2.0 - f, "fail")),
    "decomposition.crosspolytope_recognize hypothesis": (
        lambda x, f, s: _perron_hypothesis(x, tol_with(sign=f))[0],
        site(lambda x, f, s: x, operator.lt, lambda x, f, s: 2.0 - f, "fail")),
    "decomposition.certify_simplex interior": (
        lambda x, f, s: _interior(np.array([s, x]), tol_with(sign=f))[0],
        site(lambda x, f, s: float(np.array([s, x]).min()), operator.gt, lambda x, f, s: f)),
    "decomposition._simplex_blocks interior": (
        lambda x, f, s: _interior(np.array([[x, s]]), tol_with(sign=f))[0][0],
        site(lambda x, f, s: np.array([[x, s]]).min(axis=1)[0], operator.gt, lambda x, f, s: f)),
    "orthorep.verify_sign_pattern edge": (
        lambda x, f, s: _over_two(np.array([x]), tol_with(sign=f))[0][0],
        site(lambda x, f, s: np.array([x])[0], operator.gt, lambda x, f, s: 2.0 + f)),
    "decomposition._rankin_report closest pair": (
        lambda x, f, s: _over_two(x, tol_with(sign=f), over=False)[0],
        site(lambda x, f, s: x, operator.le, lambda x, f, s: 2.0 + f)),
    "decomposition.kuperberg_decompose cross check": (
        lambda x, f, s: _within(x, tol_with(sign=f).sign)[0],
        site(lambda x, f, s: x, operator.gt, lambda x, f, s: f, "fail")),
    "orthorep._check_construction unit rows": (
        lambda x, f, s: _within(x, tol_with(sign=f).sign)[0],
        site(lambda x, f, s: x, operator.gt, lambda x, f, s: f, "fail")),
    "edm.gram_factor centering sum": (
        lambda x, f, s: _within(abs(x - 1.0), tol_with(solve=f).solve)[0],
        site(lambda x, f, s: abs(x - 1.0), operator.gt, lambda x, f, s: f, "fail")),
    "edm._circumcenter_edms residual": (
        lambda x, f, s: _within(np.array([x]), tol_with(solve=f).solve)[0][0],
        site(lambda x, f, s: np.array([x])[0], operator.gt, lambda x, f, s: f, "fail")),
    "edm.embedding_dim_via_delta residual": (
        lambda x, f, s: _within(x, tol_with(solve=f).solve)[0],
        site(lambda x, f, s: x, operator.le, lambda x, f, s: f)),
    "edm._certify sphere fit": (
        lambda x, f, s: _within(np.array([x]), tol_with(solve=f).solve * np.array([s]))[0][0],
        site(lambda x, f, s: np.array([x])[0], operator.le, lambda x, f, s: (f * np.array([s]))[0])),
    "edm._factor_at psd shift": (
        lambda x, f, s: _within(x, 0.5 * tol_with(psd=f).psd * s)[0],
        site(lambda x, f, s: x, operator.le, lambda x, f, s: 0.5 * f * s)),
    "edm._factor_at rank shift": (
        lambda x, f, s: _within(x, tol_with(rank=f).rank * s, strict=True)[0],
        site(lambda x, f, s: x, operator.lt, lambda x, f, s: f * s)),
    "edm._factor_at reconstruction": (
        lambda x, f, s: _within(x, s + _recon_band(7, 3.0, tol_with(recon=f)))[0],
        site(lambda x, f, s: x, operator.gt, lambda x, f, s: s + f * 7 * 3.0, "fail")),
    "orthorep._check_construction reconstruction": (
        lambda x, f, s: _within(x, _recon_band(7, s, tol_with(recon=f)))[0],
        site(lambda x, f, s: x, operator.gt, lambda x, f, s: f * 7 * s, "fail")),
    "spectral.as_symmetric symmetry": (
        lambda x, f, s: _within(x, tol_with(symmetry=f).symmetry * s)[0],
        site(lambda x, f, s: x, operator.gt, lambda x, f, s: f * s, "fail")),
}


class TestThresholdRules:
    @pytest.mark.parametrize("name", sorted(RULE_SITES))
    @given(x=special, f=special, s=special)
    @settings(max_examples=50, deadline=None)
    def test_rule_matches_the_parent_comparison(self, name, x, f, s):
        new, parent = RULE_SITES[name]
        with np.errstate(invalid="ignore", over="ignore"):
            got = bool(new(x, f, s))
        assert got == parent(x, f, s)

    @given(finite=st.just(True), s=special, skew=special, diag_max=special, off_min=special, f=special, g=special)
    @settings(max_examples=150, deadline=None)
    def test_entry_rejection(self, finite, s, skew, diag_max, off_min, f, g):
        tol = tol_with(symmetry=f, psd=g)
        with np.errstate(invalid="ignore", over="ignore"):
            got = _entry_rejection(finite, s, skew, diag_max, off_min, tol, 4)
            limit = _FLOAT_MAX / 16
            rules = [("not-symmetric", site(lambda *a: skew, operator.gt, lambda *a: f * s, "fail")),
                     ("nonzero-diagonal", site(lambda *a: diag_max, operator.gt, lambda *a: g * s, "fail")),
                     ("negative-entry", site(lambda *a: off_min, operator.lt, lambda *a: -g * s, "fail"))]
            expected = ("too-large" if s > limit else "too-small" if s < 16 * np.finfo(float).tiny
                        else next((r for r, ok in rules if not ok(0, 0, 0)), None))
        assert (None if got is None else got.reason) == expected  # an EdmRejection is falsy

    @given(values=arrays(np.float64, (2, 3), elements=special), scales=arrays(np.float64, 2, elements=special),
           f=special, g=special)
    @settings(max_examples=150, deadline=None)
    def test_psd_and_rank_stacks(self, values, scales, f, g):
        tol = tol_with(psd=f, rank=g)
        with np.errstate(invalid="ignore", over="ignore"):
            least, band = values[:, -1], -f * scales
            psd = least >= band
            assert _psd_stack(values, scales, tol).tolist() == psd.tolist()
            cut = (g * scales).reshape(-1, 1)
            rank = np.where(psd[:, None], values, np.abs(values)) > cut
            assert _rank_stack(values, scales, tol).tolist() == rank.tolist()

    @given(values=arrays(np.float64, (2, 4), elements=special), band=special)
    @settings(max_examples=150, deadline=None)
    def test_cluster_stack(self, values, band):
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.count_nonzero(values >= values[:, :1] - band, axis=1)
            assert _cluster_stack(values, band).tolist() == expected.tolist()

    @given(M=arrays(np.float64, (4, 4), elements=special), f=special)
    @settings(max_examples=150, deadline=None)
    def test_support_adjacency(self, M, f):
        expected = (M > f) | (M < -f)
        np.fill_diagonal(expected, False)
        assert _support_adjacency(M, tol_with(support=f)).tolist() == expected.tolist()

    @given(delta=arrays(np.float64, (3, 3), elements=special), min_off=special, f=special)
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_delta(self, delta, min_off, f):
        tol = tol_with(sign=f)
        if not site(lambda *a: min_off, operator.lt, lambda *a: 2.0 - f, "fail")(0, 0, 0):
            with pytest.raises(PreconditionError):
                nonnegative_delta(DeltaMatrix(delta, min_off), tol)
            return
        assert same_bits(nonnegative_delta(DeltaMatrix(delta, min_off), tol), np.where(delta > f / 2.0, delta, 0.0))

    @given(m=special, f=special)
    @settings(max_examples=200, deadline=None)
    def test_rankin_report(self, m, f):
        assert _rankin_report(6, 4, m, 0, 1, tol_with(sign=f)).ok is bool(m <= 2.0 + f)

    @given(edge=special, nonedge=special, f=special)
    @settings(max_examples=150, deadline=None)
    def test_sign_pattern(self, edge, nonedge, f):
        G = Graph.from_edges(3, [(1, 2)])
        M = np.full((3, 3), 2.0)
        np.fill_diagonal(M, 0.0)
        M[0, 1] = M[1, 0] = edge
        M[0, 2] = M[2, 0] = nonedge
        with np.errstate(invalid="ignore", over="ignore"):
            rpt = verify_sign_pattern(M, G, tol_with(sign=f))
            edge_ok = site(lambda *a: edge, operator.gt, lambda *a: 2.0 + f)(0, 0, 0)
            nonedge_ok = site(lambda *a: abs(nonedge - 2.0), operator.gt, lambda *a: f, "fail")(0, 0, 0)
            other_ok = site(lambda *a: 0.0, operator.gt, lambda *a: f, "fail")(0, 0, 0)  # |2 - 2| at (2, 3)
        assert (rpt.edge_violations == ()) == edge_ok
        assert [p[:2] for p in rpt.nonedge_violations] == [(1, 3)] * (not nonedge_ok) + [(2, 3)] * (not other_ok)
        assert rpt.ok == (edge_ok and nonedge_ok and other_ok)
