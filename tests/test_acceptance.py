"""Acceptance gate: the eight acceptance criteria, one test each.

Each test body is wrapped by `criterion`, which times it and appends a
PASS/FAIL line (shown in the terminal summary) including the runtime
budget verdict.  Tolerances are pinned here on purpose; do not loosen
them to make a failure go away.
"""

import functools
import time

import numpy as np
import pytest

import helpers
from conftest import ACCEPTANCE_LINES, EXAMPLE_EDGES, EXAMPLE_EDM
from edmsphere import (
    Edm,
    Graph,
    adjacency,
    components,
    construct_orthorep,
    crosspolytope_recognize,
    delta_of,
    gen_crosspolytope,
    gen_random_spherical,
    gen_regular_simplex,
    gram_factor,
    kuperberg_decompose,
    minimality_bound,
    nonnegative_delta,
    rankin_codimension2_check,
    require_edm,
    spherical_certificate,
    validate_edm,
    verify_sign_pattern,
)
from oracles import is_irreducible, is_irreducible_power_oracle, perron


def criterion(num, title, budget):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except Exception as exc:
                elapsed = time.perf_counter() - t0
                ACCEPTANCE_LINES.append(
                    f"[ACCEPTANCE {num}] FAIL: {title} ({elapsed:.2f}s) - {exc}"
                )
                raise
            elapsed = time.perf_counter() - t0
            if elapsed > budget:
                ACCEPTANCE_LINES.append(
                    f"[ACCEPTANCE {num}] FAIL: {title} "
                    f"({elapsed:.2f}s exceeds the {budget:g}s budget)"
                )
                pytest.fail(f"runtime {elapsed:.2f}s exceeds the {budget:g}s budget")
            ACCEPTANCE_LINES.append(f"[ACCEPTANCE {num}] PASS: {title} ({elapsed:.2f}s)")
        return wrapper
    return deco


@criterion(1, "worked five-node example end-to-end", 1.0)
def test_criterion_1_example_end_to_end():
    rep = construct_orthorep(Graph.from_edges(5, EXAMPLE_EDGES))
    assert rep.d == 3
    gram = rep.points @ rep.points.T
    for i in range(5):
        for j in range(i + 1, 5):
            target = -1.0 if (i + 1, j + 1) in {(1, 2), (3, 4)} else 0.0
            assert abs(gram[i, j] - target) <= 1e-8, (i + 1, j + 1)
    assert np.max(np.abs(rep.edm.dist2 - EXAMPLE_EDM)) <= 1e-12


@criterion(2, "Gower circumradius on gamma(E - I)", 1.0)
def test_criterion_2_gower_radius():
    for gamma in (1.0, 2.0, 3.0):
        for n in range(2, 11):
            res = validate_edm(gen_regular_simplex(n, gamma).dist2)
            assert isinstance(res, Edm)
            cert = spherical_certificate(res)
            assert cert.status == "spherical"
            assert abs(cert.radius - np.sqrt(gamma * (n - 1) / (2.0 * n))) <= 1e-9
            assert cert.unit_spherical == (gamma == 2.0 * n / (n - 1.0))


@criterion(3, "top eigenvalue 1 with eigenvector w; n - m = rank B", 10.0)
def test_criterion_3_delta_spectrum_on_compositions():
    rng = np.random.default_rng(30331)
    done = 0
    while done < 200:
        b = int(rng.integers(1, 5))
        orders = [int(o) for o in rng.integers(2, 6, size=b)]
        z = int(rng.integers(0, 3))
        if sum(orders) + z > 14:
            continue
        D = helpers.compose_block_edm(orders, z)
        res = require_edm(D)
        cert = spherical_certificate(res)
        assert cert.unit_spherical
        dm = delta_of(res)
        delta = nonnegative_delta(dm, res.tol)
        pd = perron(delta, res.tol)
        assert abs(pd.lambda_max - 1.0) <= 1e-8
        w = cert.w
        assert np.max(np.abs(dm.delta @ w - w)) <= 1e-8
        assert res.n - pd.multiplicity == res.embedding_dim
        assert res.embedding_dim == helpers.rank_oracle(helpers.centered_gram_oracle(D))
        done += 1


@criterion(4, "graph representation dimension n - k with tight minimality", 30.0)
def test_criterion_4_dimension_law():
    rng = np.random.default_rng(40441)
    done = 0
    while done < 500:
        n = int(rng.integers(2, 13))
        edges = helpers.random_graph_edges(rng, n, float(rng.uniform(0.1, 0.7)))
        if not edges:
            continue
        G = Graph.from_edges(n, edges)
        rep = construct_orthorep(G)
        k = components(G).nontrivial_count
        assert rep.d == n - k
        assert verify_sign_pattern(rep.edm, G).ok
        cert = spherical_certificate(rep.edm)
        assert cert.radius is not None and abs(cert.radius - 1.0) <= 1e-8
        mb = minimality_bound(rep)
        assert mb.bound_ok and mb.m == mb.k
        done += 1


@criterion(5, "block structure recovered from permuted compositions", 30.0)
def test_criterion_5_decomposition_round_trip():
    rng = np.random.default_rng(50551)
    for _ in range(300):
        b = int(rng.integers(2, 5))
        orders = [int(o) for o in rng.integers(2, 6, size=b)]
        z = int(rng.integers(0, 3))
        D0 = helpers.compose_block_edm(orders, z)
        n = sum(orders) + z
        order = tuple(int(i) for i in rng.permutation(n) + 1)
        D = helpers.permute_1based(D0, order)
        dec = kuperberg_decompose(require_edm(D))
        # old label -> new label under the shuffle
        new_of = {old: pos + 1 for pos, old in enumerate(order)}
        expected, start = [], 1
        for o in orders:
            expected.append(sorted(new_of[p] for p in range(start, start + o)))
            start += o
        expected.sort(key=min)
        lone = sorted(new_of[p] for p in range(start, start + z))
        expected[-1] = sorted(expected[-1] + lone)
        assert [list(blk.indices) for blk in dec.blocks] == expected
        assert sorted(dec.isolated_assignment) == lone
        assert dec.cross_check <= 1e-8
        assert dec.cross_gram_max <= 1e-8


@criterion(6, "no n = r + 2 unit sphere configuration spreads past sqrt(2)", 60.0)
def test_criterion_6_rankin_sampling():
    for r in range(2, 9):
        rng = np.random.default_rng(60000 + r)
        n = r + 2
        mask = ~np.eye(n, dtype=bool)
        for _ in range(1000):
            X = helpers.random_sphere_points(rng, n, r)
            D = helpers.edm_from_points(X)
            assert float(D[mask].min()) <= 2.0 + 1e-9
        # same statement through the library route, one certified run per r
        edm, _ = gen_random_spherical(n, r, 60000 + r)
        rpt = rankin_codimension2_check(edm)
        assert rpt.ok


@criterion(7, "crosspolytope recognized and restored bit-exactly", 10.0)
def test_criterion_7_crosspolytope_recognition():
    rng = np.random.default_rng(70771)
    for r in range(1, 7):
        canonical = gen_crosspolytope(r).dist2
        for _ in range(50):
            order = tuple(int(i) for i in rng.permutation(2 * r) + 1)
            shuffled = helpers.permute_1based(canonical, order)
            rec = crosspolytope_recognize(require_edm(shuffled))
            assert rec.ok
            restored = helpers.permute_1based(shuffled, rec.permutation)
            assert np.array_equal(restored, canonical)


@criterion(8, "traversal vs power oracle; embed-and-remeasure agreement", 10.0)
def test_criterion_8_oracle_agreement():
    rng = np.random.default_rng(80881)
    for _ in range(2000):
        n = int(rng.integers(1, 8))
        G = Graph.from_edges(n, helpers.random_graph_edges(rng, n, float(rng.random())))
        A = adjacency(G)
        assert is_irreducible(A) == is_irreducible_power_oracle(A)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 4))
        X = rng.standard_normal((n, dim)) * float(rng.uniform(0.5, 3.0))
        D = helpers.edm_from_points(X)
        res = validate_edm(D)
        assert isinstance(res, Edm)
        remeasured = helpers.edm_from_points(gram_factor(res).config)
        assert np.max(np.abs(remeasured - D)) <= 1e-8
