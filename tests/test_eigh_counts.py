"""Eigendecomposition counts: each spectral fact is computed once and reused.

`numpy.linalg.eigh` is counted through a monkeypatch.  The pinned counts are
what the analysis needs with every consistency check kept: one eigh of B per
validation, one solve of D w = e per Edm (on B's eigenbasis, so of order at
most rank(B) + 2), one Perron analysis of Delta, and
for each Kuperberg block its own validation, sphericity solve and Perron
analysis of the block's Delta (plus one of its core when the block holds
zero rows of Delta).
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

import helpers
from edmsphere import (
    Graph,
    apply_permutation,
    certify_simplex,
    construct_orthorep,
    crosspolytope_recognize,
    embedding_dim_via_delta,
    gen_unit_simplex,
    gram_factor,
    kuperberg_decompose,
    minimality_bound,
    spherical_certificate,
    validate_edm,
)
from edmsphere.cli import main


@pytest.fixture
def eighs(monkeypatch):
    """The orders of the matrices passed to numpy.linalg.eigh, in call order."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.asarray(a).shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def relabelled(D, seed):
    order = np.random.default_rng(seed).permutation(D.shape[0]) + 1
    return apply_permutation(D, order)


def cross(r):
    n = 2 * r
    D = 2.0 * (np.ones((n, n)) - np.eye(n)) + np.kron(np.eye(r), [[0.0, 2.0], [2.0, 0.0]])
    return relabelled(D, r)


def composition(orders, lone=0):
    return relabelled(helpers.compose_block_edm(orders, lone), len(orders) + lone)


def unit_sphere(n, r):
    return helpers.edm_from_points(helpers.random_sphere_points(np.random.default_rng(n), n, r))


def gaussian_cloud(n, r):
    return helpers.edm_from_points(np.random.default_rng(n).standard_normal((n, r)))


NOT_PSD = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])


@pytest.mark.parametrize("D", [cross(5), composition([3, 2], 2), unit_sphere(16, 8),
                               gaussian_cloud(16, 8), NOT_PSD])
def test_validate_edm_is_one_eigh(eighs, D):
    validate_edm(D)
    assert len(eighs) == 1


@pytest.mark.parametrize("D, expected", [
    (cross(8), 3),                       # B, D w = e, Delta; 2w is bitwise e/n, so B is reused
    (composition([4, 3, 2, 2]), 4),
    (unit_sphere(16, 8), 3),             # Delta skipped: some distance < 2
    (gaussian_cloud(16, 8), 2),          # non-spherical: gram_factor reuses B's eigh
])
def test_dense_certify_chain(eighs, D, expected):
    edm = validate_edm(D)
    cert = spherical_certificate(edm)
    if cert.unit_spherical:
        embedding_dim_via_delta(edm, cert)
    gram_factor(edm)
    assert len(eighs) == expected


@pytest.mark.parametrize("D", [cross(8), composition([4, 3, 2, 2]), unit_sphere(16, 8),
                               gaussian_cloud(16, 8), gaussian_cloud(16, 15)])
def test_certificate_eigh_order(eighs, D):
    edm = validate_edm(D)
    eighs.clear()
    spherical_certificate(edm)
    assert len(eighs) == 1
    assert eighs[0] <= edm.embedding_dim + 2


def test_certificate_is_solved_once(eighs):
    edm = validate_edm(cross(4))
    first = spherical_certificate(edm)
    assert spherical_certificate(edm) is first
    assert len(eighs) == 2


def test_gram_factor_reuses_validation_eigensystem(eighs):
    edm = validate_edm(gaussian_cloud(12, 5))
    gf = gram_factor(edm, np.full(12, 1.0 / 12))
    assert len(eighs) == 1
    assert gf.config.shape == (12, 5)


@pytest.mark.parametrize("r", [2, 3, 6])
def test_crosspolytope_recognize(eighs, r):
    edm = validate_edm(cross(r))
    eighs.clear()
    assert crosspolytope_recognize(edm)
    assert len(eighs) == 3 * r + 1


@pytest.mark.parametrize("orders, lone, expected", [
    ([3, 3, 2], 0, 3 * 3 + 1),
    ([3, 2], 2, 3 * 2 + 1 + 1),  # the last block holds the zero rows
])
def test_kuperberg_decompose(eighs, orders, lone, expected):
    edm = validate_edm(composition(orders, lone))
    eighs.clear()
    kuperberg_decompose(edm)
    assert len(eighs) == expected


def test_certify_simplex_reuses_delta_perron_for_full_core(eighs):
    edm = gen_unit_simplex(6)
    eighs.clear()
    assert certify_simplex(edm).method == "perron"
    assert len(eighs) == 2  # D w = e and Delta


def test_check_rankin_sample_two_per_trial(eighs):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check-rankin", "--sample", "4", "--trials", "5"]) == 0
    assert len(eighs) == 2 * 5


def test_construct_orthorep_connected(eighs):
    construct_orthorep(Graph.from_edges(6, [(i, i + 1) for i in range(1, 6)]))
    assert len(eighs) == 2  # the adjacency, B of D


@pytest.mark.parametrize("k", [2, 3, 5])
def test_construct_orthorep_k_components(eighs, k):
    # k triangles and two isolated nodes: one eigh per component, one of B
    edges = [(3 * c + a, 3 * c + b) for c in range(k) for a, b in [(1, 2), (1, 3), (2, 3)]]
    construct_orthorep(Graph.from_edges(3 * k + 2, edges))
    assert len(eighs) == k + 1


def test_minimality_bound_reads_stored_spectra(eighs):
    rep = construct_orthorep(Graph.from_edges(7, [(1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]))
    eighs.clear()
    assert minimality_bound(rep).tight
    assert len(eighs) == 0


def test_cli_orthorep_example(eighs):
    graph = Path(__file__).with_name("golden") / "example.graph"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["orthorep", str(graph)]) == 0
    assert len(eighs) == 3  # two single-edge components, B of D
