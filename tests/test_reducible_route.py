"""Validation of a reducible centered Gram matrix block by block (`edm._reducible_eigh`).

The oracle is eigh of the whole B, as `_eigh_stack` runs it: where the blocks
decide, the PSD and rank verdicts are its verdicts and the eigenvalues lie
within epsilon + 2 rho of its eigenvalues; where they do not, and for every
irreducible B, the eigensystem is its eigensystem, bit for bit.
"""

import numpy as np
import pytest

import helpers
from edmsphere import DEFAULT_TOL, PROFILES, Edm, EdmRejection, validate_edm
from edmsphere.edm import _reducible_eigh, _validate_stack, centering_gram
from edmsphere.spectral import _eigh_stack, _psd_stack, _rank_stack
from edmsphere.tolerances import scale

EPS = np.finfo(float).eps


def relabelled(D, seed):
    order = np.random.default_rng(seed).permutation(len(D))
    return D[np.ix_(order, order)]


def cross(r):
    n = 2 * r
    return relabelled(2.0 * (np.ones((n, n)) - np.eye(n)) + np.kron(np.eye(r), [[0.0, 2.0], [2.0, 0.0]]), r)


def gram_of(D):
    return centering_gram(D, np.full(len(D), 1.0 / len(D)))


def dist2_of(B):
    g = np.diag(B)
    D = g[:, None] + g[None, :] - 2.0 * B
    np.fill_diagonal(D, 0.0)
    return D


def block_gram(spectra, seed):
    """blockdiag(B_1, ...), rows relabelled: block k has spectra[k] on e-perp of its rows and 0 on e."""
    rng = np.random.default_rng(seed)
    blocks = []
    for values in spectra:
        m = len(values) + 1
        Q = np.linalg.qr(np.column_stack([np.ones(m), rng.standard_normal((m, m - 1))]))[0][:, 1:]
        blocks.append((Q * values) @ Q.T)
    n = sum(len(b) for b in blocks)
    B = np.zeros((n, n))
    pos = 0
    for b in blocks:
        B[pos:pos + len(b), pos:pos + len(b)] = b
        pos += len(b)
    return relabelled((B + B.T) / 2.0, seed)


REDUCIBLE = {
    "cross-2": cross(2), "cross-7": cross(7), "cross-60": cross(60),
    "compose-3-3-2": relabelled(helpers.compose_block_edm([3, 3, 2]), 1),
    "compose-8-5-5-2-2": relabelled(helpers.compose_block_edm([8, 5, 5, 2, 2]), 2),
    "compose-40-30": relabelled(helpers.compose_block_edm([40, 30]), 3),
    "zero-2": np.zeros((2, 2)), "zero-9": np.zeros((9, 9)),
    "indefinite": dist2_of(block_gram([[1.0, 0.8], [0.9, -0.2], [0.7]], 4)),
}


def route(B, tol):
    """`_reducible_eigh` at B's own scale and threshold, as `_validate_stack` calls it."""
    unit = scale(B)
    return _reducible_eigh(B, unit, 8.0 * len(B) * EPS * unit, tol)


def full_eigh(B):
    values, vectors, errors = _eigh_stack(B[None])
    assert errors == [None]
    return values[0], vectors[0]


def margin(B, unit):
    """epsilon + 2 rho, with epsilon bounded by n times the largest off-diagonal entry at most tau in magnitude."""
    n = len(B)
    tau = 8.0 * n * EPS * unit
    small = np.abs(B) <= tau
    np.fill_diagonal(small, False)
    return n * float(np.max(np.abs(B[small]), initial=0.0)) + 2.0 * n * EPS * float(np.linalg.norm(B))


def verdicts(values, unit, tol):
    psd = bool(_psd_stack(values[None], unit, tol)[0])
    return psd, int(np.count_nonzero(_rank_stack(values[None], unit, tol)))


def reducible_cases():
    for name, D in REDUCIBLE.items():
        for c in (1e-6, 1.0, 1e6):
            for profile in sorted(PROFILES):
                yield f"{name} c={c:g} {profile}", c * D, PROFILES[profile]
    for profile, tol in sorted(PROFILES.items()):
        for (rule, t), D in helpers.route_edges(tol).items():
            yield f"route-edge {rule} t={t:g} {profile}", D, tol


@pytest.mark.parametrize("label, D, tol", list(reducible_cases()), ids=lambda x: x if isinstance(x, str) else "")
def test_blocks_decide_as_eigh_of_b_does(label, D, tol):
    B = gram_of(D)
    unit = scale(B)
    eig = route(B, tol)
    assert eig is not None  # read off the blocks
    values, vectors, error = eig
    assert error is None
    expected, _ = full_eigh(B)
    assert verdicts(values, unit, tol) == verdicts(expected, unit, tol)
    assert np.all(np.abs(values - expected) <= margin(B, unit))
    assert np.all(np.diff(values) <= 0.0)
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(len(B)), rtol=0, atol=1e-12)
    res = validate_edm(D, tol)
    if isinstance(res, Edm):
        assert (True, res.embedding_dim) == verdicts(expected, unit, tol)
        helpers.assert_bits(res.gram_eig.values, values)
        helpers.assert_bits(res.gram_eig.vectors, vectors)
    else:
        assert res.reason == "not-psd" and not verdicts(expected, unit, tol)[0]


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("rule", ["rank", "psd"])
def test_a_margin_that_fails_falls_back_to_eigh_of_b(profile, rule):
    # an eigenvalue at the rank cut or at the PSD band itself: within epsilon + 2 rho of it
    tol = PROFILES[profile]
    D = helpers.route_edge_on_the_band(tol, rule)
    B = gram_of(D)
    assert route(B, tol) is None
    values, vectors = full_eigh(B)
    res = validate_edm(D, tol)
    if isinstance(res, Edm):
        helpers.assert_bits(res.gram_eig.values, values)
        helpers.assert_bits(res.gram_eig.vectors, vectors)
    else:
        assert res.witness_eigenvalue == float(values[-1])
        helpers.assert_bits(res.witness_vector, vectors[:, -1])


@pytest.mark.parametrize("D", [
    helpers.edm_from_points(helpers.random_sphere_points(np.random.default_rng(3), 12, 5)),
    helpers.edm_from_points(np.random.default_rng(4).standard_normal((12, 5))),
    relabelled(helpers.compose_block_edm([4, 3, 2], 3), 5),  # lone points: the centroid is not the center
    np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]),
    np.array([[0.0, 4.0], [4.0, 0.0]]),
], ids=["sphere", "cloud", "compose-lone", "not-psd", "n2"])
def test_an_irreducible_b_keeps_the_single_eigh(D):
    B = gram_of(D)
    assert route(B, DEFAULT_TOL) is None
    values, vectors = full_eigh(B)
    res = validate_edm(D)
    if isinstance(res, Edm):
        helpers.assert_bits(res.gram_eig.values, values)
        helpers.assert_bits(res.gram_eig.vectors, vectors)
    else:
        helpers.assert_bits(res.witness_vector, vectors[:, -1])


def test_the_not_psd_witness_of_a_reducible_b():
    # blockdiag of zero-row-sum blocks, the second indefinite: the witness is its least eigenvector
    D = REDUCIBLE["indefinite"]
    assert D.min() >= 0.0
    B = gram_of(D)
    assert route(B, DEFAULT_TOL) is not None
    res = validate_edm(D)
    assert isinstance(res, EdmRejection) and res.reason == "not-psd"
    v = res.witness_vector
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
    assert v @ B @ v < -DEFAULT_TOL.psd * scale(B)
    assert abs(v @ B @ v - res.witness_eigenvalue) <= 1e-15
    assert np.count_nonzero(v) == 3  # supported on the indefinite block's rows


def test_a_mixed_stack_keeps_the_bits_of_each_matrix():
    # irreducible, read off its blocks, fallen back, rejected by the route and by the entry rules
    tol = DEFAULT_TOL
    edges = helpers.route_edges(tol)
    stack = np.stack([
        helpers.edm_from_points(helpers.random_sphere_points(np.random.default_rng(6), 10, 4)),
        cross(5), np.zeros((10, 10)), helpers.route_edge_on_the_band(tol, "rank"),
        edges[("psd", 1.5)], edges[("rank", 1.1)], -np.ones((10, 10)) + np.eye(10),
    ])
    out = _validate_stack(stack, tol)
    for M, res in zip(stack, out):
        alone = validate_edm(M, tol)
        assert type(res) is type(alone)
        if isinstance(alone, Edm):
            helpers.assert_same_eigensystem(res.gram_eig, alone.gram_eig)
            helpers.assert_bits(res._gram, alone._gram)
            assert res.embedding_dim == alone.embedding_dim
        else:
            assert (res.reason, res.detail, res.witness_eigenvalue) == (
                alone.reason, alone.detail, alone.witness_eigenvalue)
            if alone.witness_vector is not None:
                helpers.assert_bits(res.witness_vector, alone.witness_vector)
    assert [type(res).__name__ for res in out] == ["Edm"] * 4 + ["EdmRejection", "Edm", "EdmRejection"]
