"""Eigendecomposition counts: each spectral fact is computed once and reused.

`numpy.linalg.eigh`, `numpy.linalg.svd` and `numpy.linalg.cholesky` are counted through a
monkeypatch.  The pinned counts are
what the analysis needs with every consistency check kept: one eigh of B per
validation, none for the certificate of D w = e (the sphere fit on B's kept
eigenpairs, and a closed form at rank(B) = 0), and none for `gram_factor`:
at a centering other than the Edm's own, such as the circumcenter 2w, it
moves the stored factor there and certifies its rank by one Cholesky of
order rank(B), and only when that certificate fails decomposes the Gram
matrix there, by one eigh of order n.  lambda_max(Delta) and its multiplicity are read off Delta's
irreducible blocks: one stacked eigh per core order, of all cores of that
order, and never an eigh of Delta of order n; the Delta dimension, the rank
route of `certify_simplex` and `minimality_bound` (on the stored spectra)
read them through one rule.  A Kuperberg decomposition makes the same
stacked eighs of the blocks' core Deltas: their Perron data give each
block's circumcenter weights, and the eigensystem of the block's Gram
matrix I - Delta at that circumcenter follows from it.  An orthonormal
representation costs one stacked decomposition per component order, of the
component adjacencies: one SVD of the biadjacency blocks when the
components of that order (at least 3) are all bipartite with the same part
sizes, else one eigh; the eigensystem of its B = I - Delta is assembled
from those.  The edgeless graph's Gram matrix at the centroid, I - E/n, has
a closed form, so it makes no eigh; a single node validates its D.  Every other
chain makes no SVD, and only `gram_factor` makes a Cholesky.  Every eigh is
stacked: a single matrix is decomposed as a (1, n, n) stack, so each call
is recorded by its order shape[-1], and `matrices` counts the matrices of
each call.  An Edm built at its circumcenter (a representation, a
Kuperberg block) carries the certificate of the w it was built with, so its
sphericity takes no eigh.
"""
import contextlib
import io
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import edmsphere.decomposition as decomposition
import helpers
from edmsphere import (
    DEFAULT_TOL,
    Graph,
    apply_permutation,
    certify_simplex,
    construct_orthorep,
    crosspolytope_recognize,
    delta_of,
    embedding_dim_via_delta,
    gen_unit_simplex,
    gram_factor,
    kuperberg_decompose,
    minimality_bound,
    nonnegative_delta,
    spherical_certificate,
    support_components,
    validate_edm,
)
from edmsphere.cli import main
from oracles import perron


class EighCalls(list):
    """The order of each numpy.linalg.eigh call, in call order; `matrices` holds its stack size.

    `svds` holds the (rows, columns) of each numpy.linalg.svd call and
    `svd_matrices` its stack size; `choleskys` the order of each
    numpy.linalg.cholesky call and `cholesky_matrices` its stack size.
    """

    def __init__(self):
        super().__init__()
        self.matrices, self.svds, self.svd_matrices, self.choleskys, self.cholesky_matrices = [], [], [], [], []

    def clear(self):
        super().clear()
        for calls in (self.matrices, self.svds, self.svd_matrices, self.choleskys, self.cholesky_matrices):
            calls.clear()


@pytest.fixture
def eighs(monkeypatch):
    calls = EighCalls()
    eigh, svd, cholesky = np.linalg.eigh, np.linalg.svd, np.linalg.cholesky

    def counted(a, *args, **kwargs):
        shape = np.asarray(a).shape
        calls.append(shape[-1])
        calls.matrices.append(int(np.prod(shape[:-2])))
        return eigh(a, *args, **kwargs)

    def counted_svd(a, *args, **kwargs):
        shape = np.asarray(a).shape
        calls.svds.append(shape[-2:])
        calls.svd_matrices.append(int(np.prod(shape[:-2])))
        return svd(a, *args, **kwargs)

    def counted_cholesky(a, *args, **kwargs):
        shape = np.asarray(a).shape
        calls.choleskys.append(shape[-1])
        calls.cholesky_matrices.append(int(np.prod(shape[:-2])))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
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
    assert eighs.choleskys == []


@pytest.mark.parametrize("D, delta, gram", [
    (cross(8), [(2, 8)], []),            # the centroid solves D s = 2e: gram_factor reads B there
    (composition([4, 3, 2, 2]), [(2, 2), (3, 1), (4, 1)], []),  # the centroid is the center
    (unit_sphere(16, 8), [], [8]),       # B's factor moved to 2w; Delta skipped: a distance < 2
    (gaussian_cloud(16, 8), [], []),     # non-spherical: gram_factor reuses B's eigh
    (composition([4, 3, 2], 2), [(2, 1), (3, 1), (4, 1)], [8]),  # B's factor moved to 2w
    (cross(37), [(2, 37)], []),          # the centroid misses D s = 2e by rounding only
])
def test_dense_certify_chain(eighs, D, delta, gram):
    # validation's eigh of B; none for D w = e; one stacked eigh per core order
    # of Delta, ascending; none for gram_factor, whose factor moved to 2w takes one
    # Cholesky of order rank(B)
    edm = validate_edm(D)
    cert = spherical_certificate(edm)
    if cert.unit_spherical:
        embedding_dim_via_delta(edm, cert)
    assert eighs.choleskys == []
    gram_factor(edm)
    assert list(zip(eighs, eighs.matrices)) == [(edm.n, 1)] + delta
    assert eighs.svds == []
    assert (eighs.choleskys, eighs.cholesky_matrices) == (gram, [1] * len(gram))


def test_gram_factor_falls_back_to_one_eigh_of_order_n(eighs):
    # B's fifth eigenvalue is half the rank cut: carried to a centering s, the shift it
    # bounds reaches the cut, so the Cholesky is not tried and B_s is decomposed
    edm = validate_edm(helpers.squeezed_sphere(np.random.default_rng(1), 9, 4, 0.5, 1e-8))
    assert edm.embedding_dim == 4
    eighs.clear()
    gram_factor(edm, np.random.default_rng(2).dirichlet(np.ones(9)))
    assert (eighs, eighs.matrices, eighs.choleskys) == ([9], [1], [])


@pytest.mark.parametrize("D", [cross(8), composition([4, 3, 2, 2]), unit_sphere(16, 8),
                               gaussian_cloud(16, 8), gaussian_cloud(16, 15)])
def test_certificate_eigh_order(eighs, D):
    edm = validate_edm(D)
    eighs.clear()
    spherical_certificate(edm)
    assert eighs == []  # the sphere fit on B's kept eigenpairs
    assert eighs.choleskys == []


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_rank_zero_certificate_makes_no_eigh(eighs, n):
    # coincident points: no kept eigenpair to fit a sphere on, so the certificate is a closed form
    edm = validate_edm(np.zeros((n, n)))
    eighs.clear()
    spherical_certificate(edm)
    assert eighs == []


@pytest.mark.parametrize("D", [cross(8), cross(37), composition([4, 3, 2, 2]),
                               composition([4, 3, 2], 2), composition([5, 5, 2], 3)])
def test_delta_reads_its_core_blocks_and_gram_factor_no_eigh(eighs, D):
    edm = validate_edm(D)
    cert = spherical_certificate(edm)
    eighs.clear()
    embedding_dim_via_delta(edm, cert)
    split = support_components(nonnegative_delta(delta_of(edm), edm.tol), edm.tol)
    cores = Counter(len(c) for c in split.nontrivial)
    # one stacked eigh per core order, of all cores of that order; none of order n
    assert list(zip(eighs, eighs.matrices)) == sorted(cores.items())
    assert max(eighs) < edm.n
    assert eighs.choleskys == []
    eighs.clear()
    gram_factor(edm)
    assert eighs == []


@pytest.mark.parametrize("orders, exact", [
    ([2, 2, 2], True),    # each block's spectrum is {1, -1}, exactly
    ([4, 3, 2], False),   # its tops are 1 to within rounding, which eigh and eigvalsh round apart
])
def test_delta_with_a_zero_band_matches_blockwise_eigvalsh(eighs, orders, exact):
    # tol.cluster = 0: only eigenvalues equal to the top count
    tol = DEFAULT_TOL.with_overrides(cluster=0.0)
    edm = validate_edm(composition(orders, 2), tol)
    cert = spherical_certificate(edm)
    eighs.clear()
    rep = embedding_dim_via_delta(edm, cert)
    assert list(zip(eighs, eighs.matrices)) == sorted(Counter(orders).items())
    delta = nonnegative_delta(delta_of(edm), tol)
    split = support_components(delta, tol)
    blocks = [np.linalg.eigvalsh(delta[np.ix_(c, c)]) for c in (np.array(c) - 1 for c in split.nontrivial)]
    spectrum = np.concatenate(blocks + [np.zeros(len(split.isolated))])
    top = spectrum.max()
    if exact:
        assert (rep.lambda_max, rep.multiplicity) == (top, np.count_nonzero(spectrum == top))
    else:
        ulps = 4.0 * np.finfo(float).eps
        assert abs(rep.lambda_max - top) <= ulps
        assert 1 <= rep.multiplicity <= np.count_nonzero(spectrum >= top - ulps)
    assert rep.dimension == edm.n - rep.multiplicity


def test_certificate_is_solved_once(eighs):
    edm = validate_edm(cross(4))
    first = spherical_certificate(edm)
    assert spherical_certificate(edm) is first
    assert len(eighs) == 1  # validation; the certificate makes none


def test_gram_factor_reuses_validation_eigensystem(eighs):
    edm = validate_edm(gaussian_cloud(12, 5))
    gf = gram_factor(edm, np.full(12, 1.0 / 12))
    assert len(eighs) == 1 and eighs.choleskys == []
    assert gf.config.shape == (12, 5)
    # at another centering: the stored factor moved there, its rank certified by one Cholesky
    gf = gram_factor(edm, np.random.default_rng(5).dirichlet(np.ones(12)))
    assert len(eighs) == 1 and (eighs.choleskys, eighs.cholesky_matrices) == ([5], [1])
    assert gf.config.shape == (12, 5)


@pytest.mark.parametrize("r", [2, 3, 6, 400])
def test_crosspolytope_recognize(eighs, r):
    edm = validate_edm(cross(r))
    eighs.clear()
    assert crosspolytope_recognize(edm)
    # one stacked call of the r antipodal pairs' 2 x 2 Deltas; D w = e makes none
    assert (eighs, eighs.matrices) == ([2], [r])
    assert eighs.svds == []


@pytest.mark.parametrize("orders, lone, expected", [
    ([3, 3, 2], 0, 2),
    ([3, 2], 2, 2),  # the last block's zero rows add none
    ([2, 2, 2, 2], 3, 1),
])
def test_kuperberg_decompose(eighs, orders, lone, expected):
    edm = validate_edm(composition(orders, lone))
    eighs.clear()
    dec = kuperberg_decompose(edm)
    assert len(eighs) == expected
    # one stacked eigh per core order (a core: the rows that are not zero
    # rows), of all cores of that order; D w = e makes none
    cores = Counter(b.order - len(b.certificate.zero_rows) for b in dec.blocks)
    assert sorted(zip(eighs, eighs.matrices)) == sorted(cores.items())
    assert eighs.svds == []  # a simplex block's core is complete: K2 or an odd cycle
    assert eighs.choleskys == []


def test_certify_simplex_reuses_delta_perron_for_full_core(eighs):
    edm = gen_unit_simplex(6)
    eighs.clear()
    assert certify_simplex(edm).method == "perron"
    assert eighs == [6]  # Delta; D w = e makes none


def test_certify_simplex_rank_route_reads_the_core_tops(eighs):
    # disconnected support: lambda_max(Delta) is the largest core top, one
    # stacked eigh per core order instead of one eigh of Delta, of order 11
    edm = validate_edm(composition([4, 3, 2], 2))
    spherical_certificate(edm)
    eighs.clear()
    cert = certify_simplex(edm)
    assert cert.method == "rank" and not cert.is_simplex
    assert (sorted(eighs), eighs.matrices) == ([2, 3, 4], [1, 1, 1])
    assert eighs.choleskys == []
    assert abs(cert.lambda_max - perron(nonnegative_delta(delta_of(edm), edm.tol)).lambda_max) <= 1e-15


def test_check_rankin_sample_one_eigh_per_chunk(eighs, monkeypatch):
    # one stacked eigh of the chunk's centered Gram matrices; the certificates make none
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check-rankin", "--sample", "4", "--trials", "5"]) == 0
    assert (eighs, eighs.matrices) == ([6], [5])
    assert eighs.choleskys == []
    eighs.clear()
    monkeypatch.setattr(decomposition, "_SAMPLE_CHUNK_BYTES", 1)  # one trial per chunk
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check-rankin", "--sample", "4", "--trials", "5"]) == 0
    assert (eighs, eighs.matrices) == ([6] * 5, [1] * 5)
    assert eighs.choleskys == []


def test_construct_orthorep_connected(eighs):
    construct_orthorep(Graph.from_edges(6, [(i, i + 1) for i in range(1, 6)]))
    # the path is bipartite, parts of 3 and 3: one SVD of its 3 x 3 biadjacency
    # and no eigh; B = I - Delta is known from it
    assert (eighs, eighs.svds, eighs.svd_matrices) == ([], [(3, 3)], [1])
    assert eighs.choleskys == []


@pytest.mark.parametrize("cycle", [5, 7, 9])
def test_construct_orthorep_odd_cycle(eighs, cycle):
    # an odd cycle has no 2-colouring: one eigh of its adjacency, no SVD
    construct_orthorep(Graph.from_edges(cycle, [(i, i % cycle + 1) for i in range(1, cycle + 1)]))
    assert (eighs, eighs.matrices, eighs.svds, eighs.choleskys) == ([cycle], [1], [], [])


@pytest.mark.parametrize("k", [2, 3, 5])
def test_construct_orthorep_k_components(eighs, k):
    # k triangles and two isolated nodes: one stacked eigh of the k triangle
    # adjacencies, none of B
    edges = [(3 * c + a, 3 * c + b) for c in range(k) for a, b in [(1, 2), (1, 3), (2, 3)]]
    construct_orthorep(Graph.from_edges(3 * k + 2, edges))
    assert (eighs, eighs.matrices, eighs.svds, eighs.choleskys) == ([3], [k], [], [])


@pytest.mark.parametrize("k", [1, 4])
def test_construct_orthorep_single_edges(eighs, k):
    # order 2 stays on eigh, where both decompositions are closed forms
    construct_orthorep(Graph.from_edges(2 * k + 1, [(2 * c + 1, 2 * c + 2) for c in range(k)]))
    assert (eighs, eighs.matrices, eighs.svds) == ([2], [k], [])


def test_construct_orthorep_mixed_orders(eighs):
    # a path of 4, two edges, a triangle and a lone node: one stacked
    # decomposition per order, the path's by the SVD of its 2 x 2 biadjacency
    edges = [(1, 2), (2, 3), (3, 4), (5, 6), (7, 8), (9, 10), (9, 11), (10, 11)]
    construct_orthorep(Graph.from_edges(12, edges))
    assert (eighs, eighs.matrices) == ([2, 3], [2, 1])
    assert (eighs.svds, eighs.svd_matrices) == ([(2, 2)], [1])


def test_construct_orthorep_bipartite_groups(eighs):
    # order 4: two paths (parts of 2 and 2) share one SVD; order 5: a path
    # (3 and 2) next to a star (4 and 1) has unequal parts and keeps one eigh
    edges = [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8),
             (9, 10), (10, 11), (11, 12), (12, 13), (14, 15), (14, 16), (14, 17), (14, 18)]
    construct_orthorep(Graph.from_edges(18, edges))
    assert (eighs, eighs.matrices) == ([5], [2])
    assert (eighs.svds, eighs.svd_matrices) == ([(2, 2)], [2])
    assert eighs.choleskys == []


@pytest.mark.parametrize("n", [1, 2, 5])
def test_construct_orthorep_edgeless(eighs, n):
    construct_orthorep(Graph.from_edges(n, []))
    # n >= 2: the Gram matrix of D = 2(E - I) at the centroid is I - E/n, in closed form;
    # one node validates its D
    assert eighs == ([n] if n == 1 else [])
    assert eighs.choleskys == []


def test_gram_factor_reuses_orthorep_eigensystem(eighs):
    rep = construct_orthorep(Graph.from_edges(7, [(1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]))
    eighs.clear()
    assert gram_factor(rep.edm, rep.edm.centering).config.shape == (7, rep.d)
    assert len(eighs) == 0  # at the circumcenter 2w, B = I - Delta


@pytest.mark.parametrize("G", [
    Graph.from_edges(60, [(i, i + 1) for i in range(1, 60)]),
    Graph.from_edges(11, [(3 * c + a, 3 * c + b) for c in range(3)
                          for a, b in [(1, 2), (1, 3), (2, 3)]]),  # 3 triangles, 2 lone nodes
], ids=["path", "triangles"])
def test_certificate_of_a_representation_is_its_construction(eighs, G):
    rep = construct_orthorep(G)
    eighs.clear()
    cert = spherical_certificate(rep.edm)
    assert len(eighs) == 0
    assert cert.w is rep.w and cert.unit_spherical


def test_gram_factor_of_a_path_reads_the_representation(eighs):
    # the certificate is the construction's: its 2w is the stored centering
    rep = construct_orthorep(Graph.from_edges(60, [(i, i + 1) for i in range(1, 60)]))
    assert np.array_equal(2.0 * spherical_certificate(rep.edm).w, rep.edm.centering)
    eighs.clear()
    gf = gram_factor(rep.edm)
    assert len(eighs) == 0
    assert gf.config.shape == (60, 59)
    np.testing.assert_allclose(gf.gram, np.eye(60) - rep.delta, rtol=0, atol=1e-12)


def test_minimality_bound_reads_stored_spectra(eighs):
    rep = construct_orthorep(Graph.from_edges(7, [(1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]))
    eighs.clear()
    assert minimality_bound(rep).tight
    assert len(eighs) == 0


def test_cli_orthorep_example(eighs):
    graph = Path(__file__).with_name("golden") / "example.graph"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["orthorep", str(graph)]) == 0
    assert (eighs, eighs.matrices) == ([2], [2])  # two single-edge components, one stacked call
    assert eighs.svds == [] and eighs.choleskys == []
