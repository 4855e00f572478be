import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import helpers
from conftest import EXAMPLE_EDGES, EXAMPLE_EDM, EXAMPLE_W
from edmsphere import (
    DEFAULT_TOL,
    ConsistencyError,
    Edm,
    Graph,
    Tolerances,
    components,
    construct_orthorep,
    embedding_dim_via_delta,
    gram_factor,
    minimality_bound,
    spherical_certificate,
    validate_edm,
    verify_sign_pattern,
)
from edmsphere import spectral as spectral_module
from edmsphere.tolerances import scale
from oracles import construct_orthorep_looped, reconstruction_residual

SQRT2 = np.sqrt(2.0)


class TestExampleGraph:
    """Two disjoint edges on five nodes, node 5 isolated."""

    def test_distances_exact(self, example_graph):
        rep = construct_orthorep(example_graph)
        # adjacency blocks are single edges with lambda_max exactly 1, so the
        # whole arithmetic chain stays in exact binary floats
        npt.assert_array_equal(rep.edm.dist2, EXAMPLE_EDM)

    def test_dimension(self, example_graph):
        rep = construct_orthorep(example_graph)
        assert rep.k == 2
        assert rep.d == 3
        assert rep.edm.embedding_dim == 3
        assert rep.points.shape == (5, 3)

    def test_weights(self, example_graph):
        rep = construct_orthorep(example_graph)
        npt.assert_array_equal(rep.w, np.asarray(EXAMPLE_W))

    def test_unit_vectors_with_orthogonality_pattern(self, example_graph):
        rep = construct_orthorep(example_graph)
        P = rep.points
        gram = P @ P.T
        npt.assert_allclose(np.diag(gram), 1.0, atol=1e-10)
        npt.assert_allclose(gram[0, 1], -1.0, atol=1e-8)  # edge (1,2)
        npt.assert_allclose(gram[2, 3], -1.0, atol=1e-8)  # edge (3,4)
        for i, j in [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]:
            assert abs(gram[i, j]) <= 1e-8

    def test_points_block_diagonal(self, example_graph):
        # columns: component {1,2}, component {3,4}, then isolated node 5
        rep = construct_orthorep(example_graph)
        npt.assert_array_equal(rep.points, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]])

    def test_certificate_round_trip(self, example_graph):
        rep = construct_orthorep(example_graph)
        cert = spherical_certificate(rep.edm)
        assert cert.unit_spherical
        npt.assert_allclose(cert.w, rep.w, atol=1e-12)


class TestSmallGraphs:
    def test_triangle(self):
        rep = construct_orthorep(Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)]))
        # K3 adjacency has Perron value 2, so every off-diagonal is 2 + 2*(1/2)
        npt.assert_allclose(rep.edm.dist2, 3.0 * (np.ones((3, 3)) - np.eye(3)), atol=1e-12)
        npt.assert_allclose(rep.w, np.full(3, 1.0 / 6.0), atol=1e-12)
        assert rep.d == 2

    def test_path_p3(self):
        rep = construct_orthorep(Graph.from_edges(3, [(1, 2), (2, 3)]))
        D = rep.edm.dist2
        # adjacency Perron value sqrt(2); edges get 2 + 2/sqrt(2) = 2 + sqrt(2)
        npt.assert_allclose(D[0, 1], 2.0 + SQRT2, atol=1e-12)
        npt.assert_allclose(D[1, 2], 2.0 + SQRT2, atol=1e-12)
        npt.assert_allclose(D[0, 2], 2.0, atol=1e-12)
        w_expected = np.array([1.0, SQRT2, 1.0]) / (4.0 + 2.0 * SQRT2)
        npt.assert_allclose(rep.w, w_expected, atol=1e-12)
        assert rep.d == 2

    def test_single_edge(self):
        rep = construct_orthorep(Graph.from_edges(2, [(1, 2)]))
        npt.assert_array_equal(rep.edm.dist2, [[0.0, 4.0], [4.0, 0.0]])
        assert rep.d == 1  # antipodal pair on the unit circle of R^1


def assert_edgeless_edm_matches_validation(edm, ref):
    """An edgeless graph's Edm of D = 2(E - I) and `validate_edm`'s, verdict by verdict.

    The eigenbasis of B's (n - 1)-fold eigenvalue 1 is the solver's own
    choice, so the spectrum is compared within rounding, the basis by its
    reconstruction of B = I - E/n, and the certificate by status and radius.
    """
    n, eps = edm.n, np.finfo(float).eps
    helpers.assert_bits(edm.dist2, ref.dist2)
    helpers.assert_bits(edm.centering, ref.centering)
    assert (edm.embedding_dim, edm.min_offdiagonal, edm.tol) == (ref.embedding_dim, ref.min_offdiagonal, ref.tol)
    es, theirs = edm.gram_eig, ref.gram_eig
    assert es.scale == theirs.scale and type(es.scale) is type(theirs.scale) and es.tolerance == theirs.tolerance
    assert bool(es.psd()) == bool(theirs.psd()) and es.rank == theirs.rank
    assert np.all(np.diff(es.values) <= 0.0)
    # validation's eigh misses the exact 1 and 0 by up to 3.4 n eps (n = 30)
    assert np.max(np.abs(es.values - theirs.values)) <= 8 * n * eps * es.scale
    B = np.eye(n) - 1.0 / n
    assert np.max(np.abs(B - (es.vectors * es.values) @ es.vectors.T)) <= edm.tol.recon * n * scale(B)
    assert np.max(np.abs(es.vectors.T @ es.vectors - np.eye(n))) <= 8 * n * eps
    assert np.all(np.max(es.vectors, axis=0) >= -np.min(es.vectors, axis=0))  # sign-normalized
    mine, other = spherical_certificate(edm), spherical_certificate(ref)
    assert (mine.status, mine.unit_spherical) == (other.status, other.unit_spherical)
    if other.radius is None:  # one node: rank 0, no sphere to fit
        assert mine.radius is None
    else:
        assert abs(mine.radius - other.radius) <= 1e-12


class TestEdgeless:
    def test_edgeless_three_nodes(self):
        rep = construct_orthorep(Graph.from_edges(3, []))
        assert rep.k == 0
        assert rep.d == 3
        npt.assert_array_equal(rep.points, np.eye(3))
        npt.assert_array_equal(rep.edm.dist2, 2.0 * (np.ones((3, 3)) - np.eye(3)))
        npt.assert_allclose(rep.w, np.full(3, 0.25), atol=1e-15)
        assert not rep.unit_spherical
        assert rep.note is not None and "no edges" in rep.note
        assert rep.sign_pattern.ok and rep.unit_rows_max_dev == 0.0

    def test_single_node(self):
        rep = construct_orthorep(Graph.from_edges(1, []))
        assert rep.k == 0 and rep.d == 1
        assert rep.w is None
        npt.assert_array_equal(rep.points, np.eye(1))

    @pytest.mark.parametrize("n", range(2, 41))
    def test_closed_form_edm_matches_validation(self, n):
        rep = construct_orthorep(Graph.from_edges(n, []))
        assert_edgeless_edm_matches_validation(rep.edm, validate_edm(rep.edm.dist2))
        npt.assert_array_equal(rep.edm.gram_eig.values, [1.0] * (n - 1) + [0.0])
        assert rep.edm.embedding_dim == n - 1


class TestSignPattern:
    def test_accepts_own_construction(self, example_graph):
        rep = construct_orthorep(example_graph)
        rpt = verify_sign_pattern(rep.edm, example_graph)
        assert rpt.ok
        assert rpt.edge_violations == () and rpt.nonedge_violations == ()
        assert rpt.min_edge_excess >= 2.0 - 1e-12  # example edges sit at distance 4
        assert rpt.max_nonedge_dev <= 1e-12

    def test_flags_wrong_graph(self, example_graph):
        rep = construct_orthorep(example_graph)
        other = Graph.from_edges(5, [(1, 3)])
        rpt = verify_sign_pattern(rep.edm, other)
        assert not rpt.ok
        assert (1, 3, 2.0) in rpt.edge_violations  # claimed edge sits at exactly 2
        bad_pairs = {(i, j) for i, j, _ in rpt.nonedge_violations}
        assert (1, 2) in bad_pairs and (3, 4) in bad_pairs

    def test_nan_at_a_nonedge_pair_is_a_violation(self):
        # the sign band fails NaN: a NaN off the edges is listed, as one on an edge already was
        G = Graph.from_edges(4, [(1, 2), (3, 4)])
        D = 2.0 * (np.ones((4, 4)) - np.eye(4))
        D[0, 1] = D[1, 0] = D[2, 3] = D[3, 2] = 4.0
        D[0, 2] = D[2, 0] = np.nan
        rpt = verify_sign_pattern(D, G)
        assert not rpt.ok
        assert rpt.edge_violations == ()
        assert len(rpt.nonedge_violations) == 1 and rpt.nonedge_violations[0][:2] == (1, 3)
        assert np.isnan(rpt.nonedge_violations[0][2]) and np.isnan(rpt.max_nonedge_dev)

    def test_accepts_plain_array(self, example_graph):
        rpt = verify_sign_pattern(EXAMPLE_EDM, example_graph)
        assert rpt.ok

    @staticmethod
    def assert_matches_pairwise_reference(rpt, M, G):
        # every pair checked one by one, violations in row-major i < j order
        n = G.node_count
        edge_bad, nonedge_bad, excess, dev = [], [], [np.inf], [0.0]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                dij = M[i - 1, j - 1]
                if G.has_edge(i, j):
                    excess.append(dij - 2.0)
                    if not dij > 2.0 + 1e-7:
                        edge_bad.append((i, j, dij))
                else:
                    dev.append(abs(dij - 2.0))
                    if abs(dij - 2.0) > 1e-7:
                        nonedge_bad.append((i, j, dij))
        assert rpt.edge_violations == tuple(edge_bad)
        assert rpt.nonedge_violations == tuple(nonedge_bad)
        assert rpt.min_edge_excess == min(excess)
        assert rpt.max_nonedge_dev == max(dev)
        assert rpt.ok == (not edge_bad and not nonedge_bad)

    CASES = [(1, 0.5), (2, 1.0), (6, 0.0), (9, 0.3), (14, 0.6), (30, 0.2), (5, 1.0)]

    def test_matches_pairwise_reference(self):
        rng = np.random.default_rng(11)
        for n, p in self.CASES:
            G = Graph.from_edges(n, helpers.random_graph_edges(rng, n, p))
            M = 2.0 + rng.choice([0.0, 5e-8, -5e-8, 1e-3, -1e-3, 0.5], size=(n, n))
            self.assert_matches_pairwise_reference(verify_sign_pattern(M, G), M, G)

    @pytest.mark.parametrize("seed", range(4))
    def test_edm_matches_the_triangle_scan(self, seed):
        # the one-pass reading of an Edm's symmetric dist2 against the upper-triangle scan of the
        # same array, field for field; violations of edges and non-edges sit on both sides
        rng = np.random.default_rng(seed)
        for n, p in self.CASES:
            G = Graph.from_edges(n, helpers.random_graph_edges(rng, n, p))
            M = 2.0 + np.triu(rng.choice([0.0, 5e-8, -5e-8, 1e-3, -1e-3, 0.5], size=(n, n)), 1)
            M = M + M.T - 2.0
            np.fill_diagonal(M, 0.0)
            edm = Edm(dist2=M, embedding_dim=0, tol=DEFAULT_TOL, gram_eig=None, centering=None,
                      min_offdiagonal=float(np.min(M + np.diag(np.full(n, np.inf)), initial=np.inf)))
            rpt, scan = verify_sign_pattern(edm, G), verify_sign_pattern(M, G)
            assert vars(rpt) == vars(scan)
            assert all(type(a) is type(b) for a, b in zip(vars(rpt).values(), vars(scan).values()))
            self.assert_matches_pairwise_reference(rpt, M, G)

    def test_order_mismatch(self, example_graph):
        with pytest.raises(ValueError, match="order"):
            verify_sign_pattern(np.zeros((3, 3)), example_graph)


class TestMinimality:
    def test_example_is_tight(self, example_graph):
        rep = construct_orthorep(example_graph)
        rpt = minimality_bound(rep)
        assert rpt.m == 2 and rpt.k == 2
        assert rpt.bound_ok and rpt.tight
        assert rpt.dimension == 3
        npt.assert_allclose(rpt.lambda_global, 1.0, atol=1e-12)
        npt.assert_allclose(rpt.block_lambda_max, 1.0, atol=1e-12)

    def test_edgeless(self):
        rep = construct_orthorep(Graph.from_edges(4, []))
        rpt = minimality_bound(rep)
        assert rpt.m == 0 and rpt.k == 0
        assert rpt.bound_ok and rpt.tight
        assert rpt.dimension == 4

    def test_two_different_components(self):
        # triangle (Perron 2) next to an edge (Perron 1): every normalized
        # block still attains lambda_max = 1, so m equals the block count
        rep = construct_orthorep(Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (4, 5)]))
        rpt = minimality_bound(rep)
        assert rpt.m == 2 and rpt.k == 2
        assert rpt.tight


def _random_graph(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    return Graph.from_edges(n, helpers.random_graph_edges(rng, n, 0.4))


class TestRandomGraphs:
    @pytest.mark.parametrize("seed", range(30))
    def test_invariants(self, seed):
        G = _random_graph(seed)
        n = G.node_count
        rep = construct_orthorep(G)
        split = components(G)
        k = split.nontrivial_count
        assert rep.k == k
        assert rep.d == n - k
        rpt = verify_sign_pattern(rep.edm, G)
        assert rpt.ok
        assert rep.sign_pattern.ok
        assert rep.unit_rows_max_dev <= 1e-12
        P = rep.points
        npt.assert_allclose(P @ P.T, np.eye(n) - rep.delta, rtol=0, atol=1e-12)
        # block-diagonal: each component owns |c| - 1 columns in split order,
        # then each isolated node a unit column
        own = np.zeros(P.shape, dtype=bool)
        col = 0
        for comp in split.nontrivial:
            own[np.ix_(np.asarray(comp) - 1, range(col, col + len(comp) - 1))] = True
            col += len(comp) - 1
        for i in split.isolated:
            npt.assert_array_equal(P[i - 1], np.eye(rep.d)[col])
            own[i - 1, col] = True
            col += 1
        assert col == rep.d
        assert not np.any(P[~own])
        if k > 0:
            # unit spherical: circumcenter lies in the affine hull, so the
            # affine embedding dimension equals the span dimension d
            assert rep.edm.embedding_dim == rep.d
            cert = spherical_certificate(rep.edm)
            assert cert.unit_spherical
            npt.assert_allclose(cert.radius, 1.0, atol=1e-8)
            bound = minimality_bound(rep)
            assert bound.m == k
            # the bound reads the stored block spectra as the Delta dimension reads the EDM's Delta
            delta = embedding_dim_via_delta(rep.edm, cert)
            assert (delta.multiplicity, delta.dimension) == (k, rep.d)
            npt.assert_allclose(delta.lambda_max, bound.lambda_global, rtol=0, atol=1e-12)
        else:
            # edgeless: points are the standard basis, whose affine hull is a
            # hyperplane missing the origin
            assert rep.edm.embedding_dim == n - 1

    def test_deterministic_bits(self):
        G = Graph.from_edges(7, [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])
        a = construct_orthorep(G)
        b = construct_orthorep(G)
        npt.assert_array_equal(a.edm.dist2, b.edm.dist2)
        npt.assert_array_equal(a.points, b.points)
        npt.assert_array_equal(a.w, b.w)


def test_constructed_edm_is_valid_edm(example_graph):
    rep = construct_orthorep(example_graph)
    res = validate_edm(rep.edm.dist2)
    assert res and res.embedding_dim == 3


def _tree_edges(rng, nodes, chords):
    """A random tree on `nodes` plus `chords` random extra edges."""
    edges = {tuple(sorted((nodes[i], nodes[int(rng.integers(0, i))]))) for i in range(1, len(nodes))}
    for _ in range(chords):
        u, v = rng.choice(nodes, size=2, replace=False)
        edges.add((int(min(u, v)), int(max(u, v))))
    return sorted(edges)


def _shaped_graph(kind, n, seed=3):
    """A relabelled path, star, sparse graph (a tree plus n/4 chords) or
    many components of 2 to 8 nodes plus n/8 isolated nodes."""
    rng = np.random.default_rng(seed)
    label = [int(x) for x in rng.permutation(n) + 1]
    if kind == "path":
        edges = [(label[i], label[i + 1]) for i in range(n - 1)]
    elif kind == "star":
        edges = [(label[0], label[i]) for i in range(1, n)]
    elif kind == "sparse":
        edges = _tree_edges(rng, label, n // 4)
    else:
        edges, pos = [], 0
        while pos < n - n // 8 - 1:
            size = min(int(rng.integers(2, 9)), n - n // 8 - pos)
            edges += _tree_edges(rng, label[pos:pos + size], int(rng.integers(0, 3)))
            pos += size
    return Graph.from_edges(n, [(min(u, v), max(u, v)) for u, v in edges])


class TestEdmByConstruction:
    """The Edm built from the component spectra agrees with validating its D from scratch."""

    @staticmethod
    def assert_matches_validation(rep):
        ref = validate_edm(rep.edm.dist2)
        es = rep.edm.gram_eig
        if rep.k:  # the assembled eigensystem of B = I - Delta, in the EigenSystem order
            assert np.all(np.diff(es.values) <= 0.0)
            assert reconstruction_residual(es, np.eye(rep.n) - rep.delta) <= 1e-12
        assert rep.edm.embedding_dim == ref.embedding_dim
        assert rep.edm.min_offdiagonal == ref.min_offdiagonal
        assert bool(rep.edm.gram_eig.psd()) == bool(ref.gram_eig.psd())
        mine, theirs = spherical_certificate(rep.edm), spherical_certificate(ref)
        assert (mine.status, mine.unit_spherical) == (theirs.status, theirs.unit_spherical)
        if rep.k < 2:  # D is nonsingular: one solution of D w = e
            npt.assert_allclose(mine.w, theirs.w, rtol=0, atol=1e-12)
            return
        # D is singular: the certificate keeps the construction's w, not the
        # minimum-norm one; both solve D w = e and give the same e^T w
        assert mine.w is rep.w
        D = rep.edm.dist2
        assert np.max(np.abs(D @ mine.w - 1.0)) <= rep.edm.tol.solve * scale(D)
        npt.assert_allclose([mine.etw, mine.radius], [theirs.etw, theirs.radius],
                            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_graphs(self, seed):  # the graphs of TestRandomGraphs
        self.assert_matches_validation(construct_orthorep(_random_graph(seed)))

    @pytest.mark.parametrize("n", [40, 150, 400])
    @pytest.mark.parametrize("kind", ["path", "star", "sparse", "many"])
    def test_benchmark_shapes(self, kind, n):
        rep = construct_orthorep(_shaped_graph(kind, n))
        assert rep.k > (1 if kind == "many" else 0)
        self.assert_matches_validation(rep)

    def test_centering_is_the_circumcenter(self):
        rep = construct_orthorep(_shaped_graph("many", 40))
        npt.assert_array_equal(rep.edm.centering, 2.0 * rep.w)
        gf = gram_factor(rep.edm, rep.edm.centering)  # reads gram_eig: B = I - Delta
        npt.assert_allclose(gf.config @ gf.config.T, np.eye(rep.n) - rep.delta, rtol=0, atol=1e-12)
        npt.assert_array_equal(validate_edm(rep.edm.dist2).centering, np.full(rep.n, 1.0 / rep.n))

    @pytest.mark.parametrize("route, chord", [
        ("_bipartite_stack", []),   # the path is bipartite: its block takes the SVD route
        ("_eigh_stack", [(1, 3)]),  # the chord closes a triangle: its block keeps eigh
    ], ids=["svd", "eigh"])
    def test_reconstruction_residual_catches_a_perturbed_eigensystem(self, monkeypatch, route, chord):
        decompose = getattr(spectral_module, route)
        calls = []

        def perturbed(*args):
            # lambda_c and the Perron vector, hence D and w, stay exact; the
            # points move by ~1e-8, below the unit-row and sign checks
            values, *rest = decompose(*args)
            values = values.copy()
            values[:, 1:] += 1e-8
            calls.append(route)
            return (values, *rest)

        monkeypatch.setattr(spectral_module, route, perturbed)
        with pytest.raises(ConsistencyError, match="reconstruction") as info:
            construct_orthorep(Graph.from_edges(6, [(i, i + 1) for i in range(1, 6)] + chord))
        assert ";" not in str(info.value)  # the only failed check
        assert calls == [route]


def _mixed_graph(seed):
    """Relabelled components of orders 2 to 8, each a tree plus up to 2 chords, and 0-4 isolated nodes."""
    rng = np.random.default_rng(seed)
    orders = rng.integers(2, 9, size=int(rng.integers(3, 12))).tolist()
    n = sum(orders) + int(rng.integers(0, 5))
    label = [int(x) for x in rng.permutation(n) + 1]
    edges, pos = [], 0
    for m in orders:
        edges += _tree_edges(rng, label[pos:pos + m], int(rng.integers(0, 3)))
        pos += m
    return Graph.from_edges(n, edges)


STACKED_GRAPHS = (
    [pytest.param(_shaped_graph(kind, n), id=f"{kind}-{n}")
     for kind in ["path", "star", "sparse", "many"] for n in [40, 150]]
    + [pytest.param(_random_graph(seed), id=f"random-{seed}") for seed in range(30)]
    + [pytest.param(Graph.from_edges(n, []), id=f"edgeless-{n}") for n in [1, 2, 5]]
    + [pytest.param(_mixed_graph(seed), id=f"mixed-{seed}") for seed in range(12)]
)


class TestStackedAgainstLooped:
    """The stacked Perron driver and grouped assembly give the bits of one component at a time."""

    @pytest.mark.parametrize("G", STACKED_GRAPHS)
    def test_bitwise(self, G):
        rep = construct_orthorep(G)
        ref, recon = construct_orthorep_looped(G)
        assert (rep.k, rep.d, rep.split) == (ref.k, ref.d, ref.split)
        for name in ["points", "delta", "w"]:
            helpers.assert_bits(getattr(rep, name), getattr(ref, name))
        if rep.k:
            assert rep.w is spherical_certificate(rep.edm).w
            helpers.assert_same_edm_at_circumcenter(rep.edm, ref.edm)
        else:  # the looped oracle validates D; the closed form picks its own basis of e-perp
            assert_edgeless_edm_matches_validation(rep.edm, ref.edm)
        assert rep.adjacency_lambda_max == ref.adjacency_lambda_max
        assert all(type(lam) is float for lam in rep.adjacency_lambda_max)
        assert len(rep.delta_spectra) == len(ref.delta_spectra)
        for mine, theirs in zip(rep.delta_spectra, ref.delta_spectra):
            helpers.assert_same_eigensystem(mine, theirs)
        assert recon <= rep.edm.tol.recon * rep.n * scale(rep.edm.dist2)

    def test_block_below_its_rank_names_its_component(self):
        # at a rank cut of 1.2 the block of B of a path of 3 keeps one pair (2) of its
        # three (2, 1, 0), a triangle two (1.5, 1.5): the path's certificate fails
        G = Graph.from_edges(10, [(1, 2), (2, 3), (4, 5), (4, 6), (5, 6), (7, 8), (8, 9)])
        with pytest.raises(ConsistencyError, match=r"component \(1, 2, 3\) has rank 1, expected 2"):
            construct_orthorep(G, Tolerances(rank=1.2))

    def test_rank_cut_past_an_isolated_node_is_inconsistent(self):
        # an edge's block of B (2, 0) keeps its rank 1 at a cut of 1, but the isolated
        # node's eigenvalue 1 of B falls below it
        with pytest.raises(ConsistencyError, match="I - Delta has rank 1, expected 2"):
            construct_orthorep(Graph.from_edges(3, [(1, 2)]), Tolerances(rank=1.0))

    def test_non_positive_perron_vector_names_its_component(self, monkeypatch):
        # four triangles share one stacked eigh; the third one's Perron vector is corrupted
        edges = [(3 * c + a, 3 * c + b) for c in range(4) for a, b in [(1, 2), (1, 3), (2, 3)]]
        G = Graph.from_edges(13, edges + [(13, 1)])  # the first component has order 4
        eigh_stack = spectral_module._eigh_stack

        def corrupted(S):
            values, vectors, errors = eigh_stack(S)
            if S.shape[0] > 1:
                vectors = vectors.copy()
                vectors[1, 0, 0] = -vectors[1, 0, 0]
            return values, vectors, errors

        monkeypatch.setattr(spectral_module, "_eigh_stack", corrupted)
        with pytest.raises(ConsistencyError, match=r"component \(7, 8, 9\) is not positive"):
            construct_orthorep(G)


class TestWorkingSet:
    """At n = 400 a representation keeps five n x n arrays and its construction peaks a little above them."""

    @pytest.mark.parametrize("kind", ["path", "star", "sparse"])
    def test_peak_and_kept_arrays(self, kind):
        n = 400
        G = _shaped_graph(kind, n, seed=1)
        construct_orthorep(G)  # first-call allocations stay out of the trace
        tracemalloc.start()
        try:
            rep = construct_orthorep(G)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = 8 * n * n
        assert rep.k == 1
        assert kept < 5.05 * arrays  # Delta, D, P, the Perron vectors and the Edm's eigenvectors
        assert peak < 5.3 * arrays  # with the sign pattern's row block, 0.2 arrays; 6.05 when it was whole
