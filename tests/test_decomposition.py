import re

import numpy as np
import numpy.testing as npt
import pytest

import helpers
from conftest import EXAMPLE_EDM
from edmsphere import (
    DEFAULT_TOL,
    PROFILES,
    ConsistencyError,
    PreconditionError,
    Tolerances,
    certify_simplex,
    crosspolytope_recognize,
    delta_of,
    embedding_dim_via_delta,
    gen_crosspolytope,
    gen_random_spherical,
    gen_regular_simplex,
    gen_unit_simplex,
    kuperberg_decompose,
    nonnegative_delta,
    rankin_codimension2_check,
    require_edm,
    spherical_certificate,
    validate_edm,
)
from edmsphere import decomposition as decomposition_module
from edmsphere import edm as edm_module
from edmsphere import graphs as graphs_module
from edmsphere import orthorep as orthorep_module
from edmsphere import spectral as spectral_module
from edmsphere.edm import _delta_blocks
from oracles import perron, simplex_blocks_looped

# the (3,4,5) principal block of the worked five-node example
SUBBLOCK = np.array([[0.0, 4.0, 2.0], [4.0, 0.0, 2.0], [2.0, 2.0, 0.0]])

# antipodal pair e1,-e1 next to a wide pair (0,.5,+-sqrt(3)/2): a simplex
# whose Delta support is disconnected, so only the rank route can decide
WIDE_PAIRS = np.array(
    [[0.0, 4.0, 2.0, 2.0],
     [4.0, 0.0, 2.0, 2.0],
     [2.0, 2.0, 0.0, 3.0],
     [2.0, 2.0, 3.0, 0.0]]
)


def pentagon_edm():
    ang = 2.0 * np.pi * np.arange(5) / 5.0
    X = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return require_edm(helpers.edm_from_points(X))


class TestCertifySimplex:
    def test_unit_simplex_perron_interior(self):
        D = gen_unit_simplex(4)
        cert = certify_simplex(D)
        assert cert.is_simplex and cert.method == "perron"
        assert cert.origin_position == "interior"
        assert cert.zero_rows == () and cert.irreducible_core
        npt.assert_allclose(cert.lambda_max, 1.0, atol=1e-12)
        npt.assert_allclose(cert.w, np.full(4, 0.125), atol=1e-10)
        assert cert.residual <= 1e-10

    def test_subblock_perron_boundary(self):
        cert = certify_simplex(require_edm(SUBBLOCK))
        assert cert.is_simplex and cert.method == "perron"
        assert cert.origin_position == "boundary"
        assert cert.zero_rows == (3,)
        npt.assert_allclose(cert.w, [0.25, 0.25, 0.0], atol=1e-12)

    def test_crosspolytope_is_not_a_simplex(self):
        cert = certify_simplex(gen_crosspolytope(2))
        assert not cert.is_simplex
        assert cert.method == "rank" and not cert.irreducible_core
        assert cert.origin_position is None
        npt.assert_allclose(cert.lambda_max, 1.0, atol=1e-12)
        npt.assert_allclose(cert.w, np.full(4, 0.125), atol=1e-10)

    def test_disconnected_support_simplex_rank_route(self):
        cert = certify_simplex(require_edm(WIDE_PAIRS))
        assert cert.is_simplex and cert.method == "rank"
        assert cert.origin_position == "boundary"
        assert cert.zero_rows == ()
        npt.assert_allclose(cert.w, [0.25, 0.25, 0.0, 0.0], atol=1e-10)

    def test_rejects_non_unit_sphere(self):
        with pytest.raises(PreconditionError, match="circumradius 1"):
            certify_simplex(gen_regular_simplex(3, 2.0))

    def test_rejects_close_pairs(self):
        with pytest.raises(PreconditionError, match="min off-diagonal"):
            certify_simplex(pentagon_edm())


class TestRankin:
    def test_crosspolytope_r2_attains_the_bound(self):
        rpt = rankin_codimension2_check(gen_crosspolytope(2))
        assert rpt.ok
        assert rpt.n == 4 and rpt.r == 2
        assert rpt.min_offdiag == 2.0
        assert rpt.witness == (1, 3)
        assert "no room" in rpt.message

    def test_wrong_count_rejected(self):
        with pytest.raises(PreconditionError, match="n = r \\+ 2"):
            rankin_codimension2_check(gen_unit_simplex(4))  # n = r + 1

    def test_non_unit_rejected(self):
        D = gen_regular_simplex(4, 1.0)  # n = 4, r = 2... only if rank drops
        # a gamma=1 regular simplex on 4 nodes has r = 3, so count fails first
        with pytest.raises(PreconditionError):
            rankin_codimension2_check(D)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_unit_sphere_configurations(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 6))
        D, _ = gen_random_spherical(r + 2, r, seed)
        rpt = rankin_codimension2_check(D)
        assert rpt.ok
        assert rpt.min_offdiag <= 2.0 + 1e-9
        i, j = rpt.witness
        assert D.dist2[i - 1, j - 1] == rpt.min_offdiag


class TestKuperbergDecompose:
    def test_example(self, example_edm):
        dec = kuperberg_decompose(example_edm)
        assert dec.n == 5 and dec.r == 3
        assert dec.block_count == 2
        assert dec.permutation == (1, 2, 3, 4, 5)
        assert tuple(b.indices for b in dec.blocks) == ((1, 2), (3, 4, 5))
        assert dec.isolated_assignment == (5,)
        assert dec.subspace_dims == (1, 2)
        assert dec.cross_check == 0.0 and dec.cross_gram_max == 0.0
        npt.assert_array_equal(dec.blocks[0].edm.dist2, [[0.0, 4.0], [4.0, 0.0]])
        npt.assert_array_equal(dec.blocks[1].edm.dist2, SUBBLOCK)

    def test_example_block_certificates(self, example_edm):
        dec = kuperberg_decompose(example_edm)
        pair, triple = dec.blocks
        assert pair.certificate.origin_position == "interior"
        npt.assert_allclose(pair.certificate.w, [0.25, 0.25], atol=1e-12)
        assert triple.certificate.origin_position == "boundary"
        assert triple.certificate.zero_rows == (3,)  # local label of node 5

    def test_permuted_example(self, example_edm):
        order = (2, 4, 1, 5, 3)
        P = require_edm(helpers.permute_1based(example_edm.dist2, order))
        dec = kuperberg_decompose(P)
        assert tuple(b.indices for b in dec.blocks) == ((1, 3), (2, 4, 5))
        assert dec.permutation == (1, 3, 2, 4, 5)
        assert dec.isolated_assignment == (4,)
        npt.assert_array_equal(dec.blocks[0].edm.dist2, [[0.0, 4.0], [4.0, 0.0]])

    def test_composed_blocks(self):
        D = require_edm(helpers.compose_block_edm([3, 4]))
        dec = kuperberg_decompose(D)
        assert dec.n == 7 and dec.r == 5
        assert tuple(b.indices for b in dec.blocks) == ((1, 2, 3), (4, 5, 6, 7))
        assert dec.subspace_dims == (2, 3)
        assert dec.cross_check == 0.0
        for b in dec.blocks:
            assert b.certificate.is_simplex
            assert b.certificate.origin_position == "interior"

    def test_composed_with_singleton(self):
        D = require_edm(helpers.compose_block_edm([2, 3], singletons=1))
        dec = kuperberg_decompose(D)
        assert dec.n == 6 and dec.r == 4
        assert tuple(b.indices for b in dec.blocks) == ((1, 2), (3, 4, 5, 6))
        assert dec.isolated_assignment == (6,)
        assert dec.subspace_dims == (1, 3)
        assert dec.blocks[1].certificate.origin_position == "boundary"

    def test_block_edms_are_unit_spherical(self):
        D = require_edm(helpers.compose_block_edm([2, 4, 3]))
        dec = kuperberg_decompose(D)
        for b in dec.blocks:
            cert = spherical_certificate(b.edm)
            assert cert.unit_spherical

    def test_count_preconditions(self):
        with pytest.raises(PreconditionError, match="n - r >= 2"):
            kuperberg_decompose(gen_unit_simplex(4))  # n - r = 1
        with pytest.raises(PreconditionError, match="n - r <= r"):
            kuperberg_decompose(pentagon_edm())  # n = 5, r = 2

    def test_non_unit_rejected(self):
        # doubling the metric keeps n - r = 2 but moves the radius to sqrt(2)
        D = require_edm(2.0 * helpers.compose_block_edm([2, 3]))
        with pytest.raises(PreconditionError, match="circumradius 1"):
            kuperberg_decompose(D)

    def test_close_pairs_rejected(self):
        # shape fits (n - r = 2 <= r = 4) but random points come closer
        # than sqrt(2)
        D, _ = gen_random_spherical(6, 4, 9)
        with pytest.raises(PreconditionError, match="min off-diagonal"):
            kuperberg_decompose(D)


class TestSupportBySignRule:
    """A squared distance within tol.sign of 2 is no edge of Delta's support."""

    def test_near_two_crosspolytope(self):
        D = require_edm(helpers.NEAR_TWO_CROSS)
        assert D.embedding_dim == 3 and spherical_certificate(D).unit_spherical
        dec = kuperberg_decompose(D)
        assert [b.indices for b in dec.blocks] == [(1, 2), (3, 4), (5, 6)]
        assert dec.cross_check == 2.0 * dec.cross_gram_max > 0.0
        res = crosspolytope_recognize(D)
        assert res.ok and res.permutation == (1, 2, 3, 4, 5, 6)

    def test_near_two_composition(self):
        dec = kuperberg_decompose(require_edm(helpers.NEAR_TWO_BLOCKS))
        assert [b.indices for b in dec.blocks] == [(1, 2, 3), (4, 5, 6)]

    def test_tilted_pair_beside_a_triangle(self):
        # a cross-block |d - 2| of 9e-8 is inside tol.sign, so the blocks are orthogonal;
        # no second band (tol.solve * scale(D) = 4e-8 on the inner products) overrules it
        dec = kuperberg_decompose(require_edm(helpers.TILTED_PAIR))
        assert [b.indices for b in dec.blocks] == [(1, 2, 3), (4, 5)]
        npt.assert_allclose(dec.cross_check, 9e-8, rtol=1e-6)
        assert dec.cross_gram_max == dec.cross_check / 2.0

    def test_an_entry_the_sign_band_keeps_fails_loudly(self):
        # d_14 = 2 + 2e-13 reads "> 2" under tol.sign = 1e-13, though Delta_14 = 1e-13 is below
        # tol.support: Delta's support is then one component, whose top eigenvalue 1 is double,
        # a contradiction that raises instead of reading "not a simplex" by the rank route
        tol = Tolerances(sign=1e-13)
        D = require_edm(helpers.with_distance(helpers.compose_block_edm([3, 3]), 1, 4, 2.0 + 2e-13), tol)
        assert spherical_certificate(D).unit_spherical and D.embedding_dim == 4
        assert _delta_blocks(D)[1].components == ((1, 2, 3, 4, 5, 6),)
        message = "top eigenvalue of component (1, 2, 3, 4, 5, 6) has multiplicity 2, expected 1"
        with pytest.raises(ConsistencyError, match=re.escape(message)):
            certify_simplex(D)


class TestCrosspolytopeRecognize:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_canonical_form_accepted(self, r):
        res = crosspolytope_recognize(gen_crosspolytope(r))
        assert res and res.ok
        assert res.r == r
        assert res.permutation == tuple(range(1, 2 * r + 1))
        assert res.max_deviation == 0.0

    @pytest.mark.parametrize("r,seed", [(2, 1), (3, 5), (4, 11)])
    def test_shuffled_form_restored_bit_exact(self, r, seed):
        rng = np.random.default_rng(seed)
        order = tuple(int(i) for i in rng.permutation(2 * r) + 1)
        shuffled = helpers.permute_1based(gen_crosspolytope(r).dist2, order)
        res = crosspolytope_recognize(require_edm(shuffled))
        assert res.ok
        restored = helpers.permute_1based(shuffled, res.permutation)
        npt.assert_array_equal(restored, gen_crosspolytope(r).dist2)

    def test_random_circle_points_declined(self):
        D, _ = gen_random_spherical(4, 2, 3)
        res = crosspolytope_recognize(D)
        assert not res
        assert res.reason is not None and "below 2" in res.reason

    def test_non_unit_pair_declined(self):
        D = require_edm(np.array([[0.0, 3.9], [3.9, 0.0]]))
        res = crosspolytope_recognize(D)
        assert not res.ok and res.permutation is None
        assert "circumradius 1" in res.reason

    def test_pair_off_the_canonical_form_declined(self):
        # with tol.unit = 1e-3 the pair at d = 4.002 is unit spherical; the one canonical-form
        # check, on the permutation (1, 2), declines it as it would any r
        D = require_edm(np.array([[0.0, 4.002], [4.002, 0.0]]), DEFAULT_TOL.with_overrides(unit=1e-3))
        res = crosspolytope_recognize(D)
        assert not res.ok and res.permutation == (1, 2)
        npt.assert_allclose(res.max_deviation, 0.002, rtol=1e-9)
        assert "canonical form" in res.reason

    def test_wrong_count_rejected(self):
        with pytest.raises(PreconditionError, match="n = 2r"):
            crosspolytope_recognize(gen_unit_simplex(4))


def relabelled(D, seed):
    return helpers.permute_1based(D, np.random.default_rng(seed).permutation(D.shape[0]) + 1)


# relabelled compositions with and without zero rows of Delta, and crosspolytopes
BLOCK_CASES = {
    "blocks-4-3-2": relabelled(helpers.compose_block_edm([4, 3, 2]), 1),
    "blocks-3-2-lone-2": relabelled(helpers.compose_block_edm([3, 2], 2), 2),
    "blocks-5-2-2-lone-3": relabelled(helpers.compose_block_edm([5, 2, 2], 3), 3),
    "cross-2": relabelled(gen_crosspolytope(2).dist2, 4),
    "cross-5": relabelled(gen_crosspolytope(5).dist2, 5),
}


class TestDeltaTopReadings:
    """The Delta dimension and the rank route of certify_simplex read one lambda_max(Delta)."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_rank_route_and_delta_dimension_agree(self, case, profile):
        edm = require_edm(BLOCK_CASES[case], PROFILES[profile])
        rep = embedding_dim_via_delta(edm, spherical_certificate(edm))
        simplex = certify_simplex(edm)
        assert simplex.method == "rank"
        assert rep.lambda_max == simplex.lambda_max  # bit for bit
        assert rep.lambda_max_ok and rep.dimension == edm.embedding_dim


class TestOneReadingOfDelta:
    """The four readers of Delta read it through one function, and only those that build blocks certify them."""

    def test_top_readers_skip_the_block_certificate(self, monkeypatch):
        def refused(groups):
            raise AssertionError("the blocks were certified")

        for module in (spectral_module, decomposition_module, orthorep_module):
            monkeypatch.setattr(module, "_check_perron", refused)
        edm = require_edm(BLOCK_CASES["blocks-3-2-lone-2"])
        assert embedding_dim_via_delta(edm, spherical_certificate(edm)).dimension == edm.embedding_dim
        assert certify_simplex(edm).method == "rank"
        with pytest.raises(AssertionError, match="certified"):
            kuperberg_decompose(edm)

    @pytest.mark.parametrize("reader, cases", [
        (lambda edm: embedding_dim_via_delta(edm, spherical_certificate(edm)), ["blocks-3-2-lone-2", "cross-5"]),
        (certify_simplex, ["blocks-3-2-lone-2", "cross-5"]),
        (kuperberg_decompose, ["blocks-3-2-lone-2", "cross-5"]),
        (crosspolytope_recognize, ["cross-2", "cross-5"]),
    ], ids=["delta-dimension", "simplex", "kuperberg", "crosspolytope"])
    def test_each_reader_splits_the_support_once(self, monkeypatch, reader, cases):
        calls, split = [], graphs_module._split
        monkeypatch.setattr(graphs_module, "_split", lambda *args: calls.append(args[0]) or split(*args))
        for case in cases:
            edm = require_edm(BLOCK_CASES[case])
            calls.clear()
            reader(edm)
            assert calls == [edm.n]

    def test_the_last_block_raises_in_block_order(self, monkeypatch):
        # blocks (1, 2) and (3, 4, 5) with the zero rows 6 and 7: the last block's Edm is built alone
        # (`edm._circumcenter_edm`), the others over their stack; a failing check of either is raised
        # in block order
        edm = require_edm(helpers.compose_block_edm([2, 3], 2))
        assert [b.indices for b in kuperberg_decompose(edm).blocks] == [(1, 2), (3, 4, 5, 6, 7)]
        stacked = edm_module._circumcenter_edms

        def one_rank_more(D, w, values, vectors, units, expected, tol):
            return stacked(D, w, values, vectors, units, expected + 1, tol)

        monkeypatch.setattr(edm_module, "_circumcenter_edms", one_rank_more)  # the last block only
        with pytest.raises(ConsistencyError, match=r"^I - Delta has rank 4, expected 5$"):
            kuperberg_decompose(edm)
        monkeypatch.setattr(decomposition_module, "_circumcenter_edms", one_rank_more)
        with pytest.raises(ConsistencyError, match=r"^I - Delta has rank 1, expected 2$"):
            kuperberg_decompose(edm)


class TestBlockPath:
    """Each Kuperberg block, built from its core's Delta, against validating it from scratch."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_blocks_match_validation(self, case, profile):
        tol = PROFILES[profile]
        dec = kuperberg_decompose(require_edm(BLOCK_CASES[case], tol))
        for b in dec.blocks:
            mine = b.certificate
            ref_edm = validate_edm(b.edm.dist2, tol)
            ref = certify_simplex(ref_edm)
            assert b.edm.tol is tol
            assert b.edm.embedding_dim == ref_edm.embedding_dim == b.order - 1
            assert bool(b.edm.gram_eig.psd()) == bool(ref_edm.gram_eig.psd())
            assert (mine.method, mine.origin_position, mine.zero_rows) == (
                ref.method, ref.origin_position, ref.zero_rows)
            npt.assert_allclose(mine.lambda_max, ref.lambda_max, rtol=0, atol=1e-12)
            npt.assert_allclose(mine.w, ref.w, rtol=0, atol=1e-12)
            # routes that do not go through the block's core: the block's whole
            # Delta, and the minimum-norm solve of D w = e (D is nonsingular)
            pd = perron(nonnegative_delta(delta_of(ref_edm), tol), tol)
            npt.assert_allclose(mine.lambda_max, pd.lambda_max, rtol=0, atol=1e-12)
            npt.assert_allclose(mine.w, spherical_certificate(ref_edm).w, rtol=0, atol=1e-12)
            cert = spherical_certificate(b.edm)  # seeded by the construction
            assert cert.w is mine.w and cert.unit_spherical and cert.residual == mine.residual


def _second_in_band(values, vectors, tol):
    values[1] = values[0] - 0.5 * tol.cluster


def _top_off_one(values, vectors, tol):
    values[0] += 10.0 * tol.cluster


def _top_past_psd_slack(values, vectors, tol):
    values[0] = 1.0 + 5.0 * tol.psd  # within the cluster band, beyond the PSD slack


def _xi_not_positive(values, vectors, tol):
    vectors[0, 0] = -vectors[0, 0]


def _xi_off_circumcenter(values, vectors, tol):
    vectors[0, 0] *= 1.001  # still positive; D w = e fails


def _top_above_rank_cut(values, vectors, tol):
    values[0] = 1.0 - 0.1 * tol.cluster  # I - Delta keeps 0.1 tol.cluster > the rank cut


class TestBlockPathMutations:
    """A corrupted eigensystem of each block's core Delta raises ConsistencyError, from its check."""

    @pytest.mark.parametrize("mutate, tol, match", [
        pytest.param(_second_in_band, DEFAULT_TOL, "multiplicity 2", id="second-in-band"),
        pytest.param(_top_off_one, DEFAULT_TOL, "core lambda_max", id="top-off-one"),
        pytest.param(_top_past_psd_slack, DEFAULT_TOL, "not PSD", id="top-past-psd-slack"),
        pytest.param(_xi_not_positive, DEFAULT_TOL, "not positive", id="xi-not-positive"),
        pytest.param(_xi_off_circumcenter, DEFAULT_TOL, r"max\|D w - e\|",
                     id="xi-off-circumcenter"),
        pytest.param(_top_above_rank_cut, DEFAULT_TOL.with_overrides(cluster=1e-6), "has rank",
                     id="top-above-rank-cut"),
    ])
    @pytest.mark.parametrize("case", ["blocks-3-2-lone-2", "cross-2"])
    def test_corrupted_core(self, monkeypatch, case, mutate, tol, match):
        D = require_edm(BLOCK_CASES[case], tol)
        idx = np.asarray(kuperberg_decompose(D).blocks[-1].indices) - 1  # intact; zero rows if any
        block = require_edm(D.dist2[np.ix_(idx, idx)], tol)
        eigh_stack = spectral_module._eigh_stack

        def corrupted(S):  # the stacked eigh of the cores of one order
            values, vectors, errors = eigh_stack(S)
            values, vectors = values.copy(), vectors.copy()
            for t in range(S.shape[0]):
                mutate(values[t], vectors[t], tol)
            return values, vectors, errors

        monkeypatch.setattr(spectral_module, "_eigh_stack", corrupted)
        with pytest.raises(ConsistencyError, match=match):
            kuperberg_decompose(D)
        with pytest.raises(ConsistencyError, match=match):  # a validated simplex's Perron route
            certify_simplex(block)


def _noisy_block_inputs(seed, count):
    """Relabelled compositions with lone rows and crosspolytopes, each entry off by up to ~1e-11."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        if k % 2:
            D = gen_crosspolytope(int(rng.integers(2, 8))).dist2
        else:
            orders = rng.integers(2, 5, size=int(rng.integers(2, 4))).tolist()
            D = helpers.compose_block_edm(orders, int(rng.integers(0, 3)))
        N = np.triu(rng.standard_normal(D.shape), 1) * 10.0 ** rng.uniform(-17, -11)
        yield relabelled(D + N + N.T, k)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_cross_gram_max_is_half_the_cross_check(profile):
    # An inner product between blocks is 1 - d/2 = -(d - 2)/2 at the circumcenter,
    # and for d in [1, 4] both 1 - d/2 and d - 2 are exact (Sterbenz).
    tol = PROFILES[profile]
    decomposed = 0
    for D in _noisy_block_inputs(7, 200):
        edm = validate_edm(D, tol)
        try:
            dec = kuperberg_decompose(edm)
        except (PreconditionError, ConsistencyError):
            continue
        decomposed += 1
        assert dec.cross_gram_max == dec.cross_check / 2.0
    assert decomposed >= 50


def _stacked_cases():
    """Relabelled compositions with and without zero rows, and relabelled crosspolytopes."""
    rng = np.random.default_rng(17)
    for k in range(12):
        orders = rng.integers(2, 7, size=int(rng.integers(2, 7))).tolist()
        lone = int(rng.integers(0, 4)) if k % 2 else 0
        yield pytest.param(relabelled(helpers.compose_block_edm(orders, lone), k),
                           id=f"blocks-{'-'.join(map(str, orders))}-lone-{lone}")
    for r in [2, 3, 6, 50]:
        yield pytest.param(relabelled(gen_crosspolytope(r).dist2, r), id=f"cross-{r}")


class TestStackedAgainstLooped:
    """Each order's cores decomposed by one stacked eigh give the bits of one block at a time."""

    @pytest.mark.parametrize("D", list(_stacked_cases()))
    def test_bitwise(self, D):
        edm = validate_edm(D)
        dec = kuperberg_decompose(edm)
        ref = simplex_blocks_looped(edm, nonnegative_delta(delta_of(edm), edm.tol), _delta_blocks(edm)[1])
        assert len(dec.blocks) == len(ref)
        for mine, theirs in zip(dec.blocks, ref):
            assert mine.indices == theirs.indices
            helpers.assert_same_edm_at_circumcenter(mine.edm, theirs.edm)
            a, b = mine.certificate, theirs.certificate
            helpers.assert_bits(a.w, b.w)
            assert a.w is spherical_certificate(mine.edm).w
            for field in ["is_simplex", "n", "method", "lambda_max", "origin_position",
                          "zero_rows", "irreducible_core", "residual", "detail"]:
                assert getattr(a, field) == getattr(b, field), field
        if edm.n == 2 * edm.embedding_dim:
            res = crosspolytope_recognize(edm)
            order = tuple(i for b in ref for i in b.indices)
            assert res.ok and res.permutation == order
            dev = np.max(np.abs(helpers.permute_1based(D, order) - gen_crosspolytope(edm.embedding_dim).dist2))
            assert res.max_deviation == dev

    def test_non_positive_perron_vector_names_its_block(self, monkeypatch):
        D = require_edm(relabelled(helpers.compose_block_edm([3, 2, 3, 3], 1), 9))
        split = _delta_blocks(D)[1]
        eigh_stack = spectral_module._eigh_stack

        def corrupted(S):
            values, vectors, errors = eigh_stack(S)
            if S.shape[-1] == 3:
                vectors = vectors.copy()
                vectors[2, 0, 0] = -vectors[2, 0, 0]
            return values, vectors, errors

        monkeypatch.setattr(spectral_module, "_eigh_stack", corrupted)
        third = [c for c in split.nontrivial if len(c) == 3][2]
        with pytest.raises(ConsistencyError, match=rf"component \({', '.join(map(str, third))}\) is not"):
            kuperberg_decompose(D)
