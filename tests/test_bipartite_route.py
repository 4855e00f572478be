"""Bipartite Perron blocks decomposed through the SVD of their biadjacency.

A connected bipartite component of order m >= 3, its larger part's rows
first, has the block [[0, C], [C^T, 0]], whose eigensystem follows from one
SVD of C (`spectral._bipartite_stack`).  `_perron_blocks` takes that route
for a component order whose components are all bipartite with the same part
sizes, read off the exact support its callers split; every other order
keeps its eigh.  Each block's eigensystem on the route is held against
`_decompose` of the block, the decisions against the eigh route, the route
against an odd-cycle twin of each graph, and each certificate check against
a corrupted eigensystem on the route.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from edmsphere import (
    DEFAULT_TOL,
    ConsistencyError,
    Graph,
    adjacency,
    construct_orthorep,
    delta_of,
    embedding_dim_via_delta,
    kuperberg_decompose,
    minimality_bound,
    nonnegative_delta,
    require_edm,
    spherical_certificate,
)
from edmsphere import spectral as spectral_module
from edmsphere.edm import _delta_blocks
from edmsphere.spectral import _decompose
from oracles import bipartite_sides


def _tree(rng, m):
    return [(i, int(rng.integers(0, i))) for i in range(1, m)]


def _family(draw, rng):
    """(name, m, 0-based edges) of a connected bipartite graph on m >= 3 nodes."""
    name = draw(st.sampled_from(["path", "star", "even-cycle", "complete-bipartite", "grid",
                                 "tree", "random-bipartite"]))
    if name == "path":
        m = draw(st.integers(3, 40))
        return name, m, [(i, i + 1) for i in range(m - 1)]
    if name == "star":
        m = draw(st.integers(3, 40))
        return name, m, [(0, i) for i in range(1, m)]
    if name == "even-cycle":
        m = 2 * draw(st.integers(2, 20))
        return name, m, [(i, (i + 1) % m) for i in range(m)]
    if name == "complete-bipartite":  # rank-one C: p + q - 2 zero eigenvalues
        p, q = draw(st.integers(1, 12)), draw(st.integers(2, 12))
        return name, p + q, [(i, p + j) for i in range(p) for j in range(q)]
    if name == "grid":
        a, b = draw(st.integers(1, 6)), draw(st.integers(3, 7))
        right = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
        down = [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
        return name, a * b, right + down
    m = draw(st.integers(3, 36))
    edges = _tree(rng, m)
    if name == "random-bipartite":  # a tree plus chords across its 2-colouring
        side = bipartite_sides(_adjacency(m, edges))
        across = [(u, v) for u in range(m) for v in range(u + 1, m) if side[u] != side[v]]
        chosen = rng.random(len(across)) < draw(st.sampled_from([0.1, 0.3, 0.6]))
        edges = sorted(set(edges) | {e for e, keep in zip(across, chosen) if keep})
    return name, m, edges


def _adjacency(m, edges):
    A = np.zeros((m, m))
    for u, v in edges:
        A[u, v] = A[v, u] = 1.0
    return A


@st.composite
def bipartite_graphs(draw):
    """A relabelled graph of 1 to 3 copies of one bipartite family member and 0 to 2 isolated nodes.

    Also the copy of it with one chord between two nodes on one side of the
    first copy, which closes an odd cycle.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    name, m, edges = _family(draw, rng)
    copies, lone = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    n = copies * m + lone
    label = (rng.permutation(n) + 1).tolist()
    union = [(label[c * m + u], label[c * m + v]) for c in range(copies) for u, v in edges]
    side = bipartite_sides(_adjacency(m, edges))
    larger = int(np.argmax(np.bincount(side)))  # at least 2 nodes, as m >= 3
    u, v = rng.choice(np.flatnonzero(side == larger), 2, replace=False)
    chord = (label[int(u)], label[int(v)])
    return name, Graph.from_edges(n, union), Graph.from_edges(n, union + [chord])


@contextlib.contextmanager
def _decompositions(route=True):
    """Record ("eigh" or "svd", input shape) for each numpy.linalg call made inside; `route=False` disables the SVD route."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("eigh", "svd"):
            def counted(a, *args, _f=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, np.shape(a)))
                return _f(a, *args, **kwargs)
            mp.setattr(np.linalg, name, counted)
        if not route:
            mp.setattr(spectral_module, "_bipartite_stack", lambda *args: None)
        yield calls


def _construct(G, route=True):
    """construct_orthorep(G) and the names of the numpy.linalg decompositions it made."""
    with _decompositions(route) as calls:
        rep = construct_orthorep(G)
    return rep, [name for name, _ in calls]


@settings(max_examples=60, deadline=None)
@given(bipartite_graphs())
def test_svd_route_matches_eigh(case):
    name, G, twin = case
    rep, calls = _construct(G)
    assert calls == ["svd"], name  # one order, one part size: one stacked SVD and no eigh
    A = adjacency(G)
    for comp, lam, es in zip(rep.split.nontrivial, rep.adjacency_lambda_max, rep.delta_spectra):
        idx = np.asarray(comp) - 1
        block = A[np.ix_(idx, idx)]
        ref = _decompose(block, rep.edm.tol)
        mu, V = es.values * lam, es.vectors
        assert np.all(np.diff(es.values) <= 0.0)
        assert np.max(np.abs(mu - ref.values)) <= 1e-12 * max(1.0, lam)
        assert np.max(np.abs(V.T @ V - np.eye(len(comp)))) <= 1e-12
        assert np.max(np.abs((V * mu) @ V.T - block)) <= 1e-12
        assert np.all(V[:, 0] > 0.0)
    ref, ref_calls = _construct(G, route=False)
    assert "svd" not in ref_calls
    mine, theirs = minimality_bound(rep), minimality_bound(ref)
    assert (rep.k, rep.d, mine.m, mine.tight, rep.sign_pattern.ok) == (
        ref.k, ref.d, theirs.m, theirs.tight, ref.sign_pattern.ok)
    assert rep.sign_pattern.ok and mine.tight
    odd, odd_calls = _construct(twin)
    assert "svd" not in odd_calls and "eigh" in odd_calls, name  # the twin stays on eigh
    assert (odd.k, odd.d, minimality_bound(odd).tight) == (rep.k, rep.d, True)


PATH6 = Graph.from_edges(6, [(i, i + 1) for i in range(1, 6)])


def _corrupt(monkeypatch, change):
    """Make `_bipartite_stack` return its eigensystem changed in place by `change(values, vectors)`."""
    stack = spectral_module._bipartite_stack

    def corrupted(*args):
        route = stack(*args)
        assert route is not None  # the corruption lands on the SVD route
        values, vectors, C = route
        values, vectors = values.copy(), vectors.copy()
        change(values, vectors)
        return values, vectors, C

    monkeypatch.setattr(spectral_module, "_bipartite_stack", corrupted)


def _negate_perron_entry(values, vectors):
    vectors[:, 0, 0] *= -1.0


def _repeat_the_top(values, vectors):
    values[:, 1] = values[:, 0]


def _tilt_the_perron_vector(values, vectors):
    vectors[:, 0, 0] *= 1.0 + 1e-6  # still positive; the points do not use it


@pytest.mark.parametrize("change, match", [
    (_negate_perron_entry, r"Perron vector of component \(1, 2, 3, 4, 5, 6\) is not positive"),
    (_repeat_the_top, r"I - Delta of component \(1, 2, 3, 4, 5, 6\) has rank 4, expected 5"),
    (_tilt_the_perron_vector, r"circumcenter weights give max\|D w - e\|"),
])
def test_checks_fire_on_the_route(monkeypatch, change, match):
    construct_orthorep(PATH6)
    _corrupt(monkeypatch, change)
    with pytest.raises(ConsistencyError, match=match):
        construct_orthorep(PATH6)


def test_psd_check_fires_on_the_route(monkeypatch):
    # Delta of a representation of two paths of 3: the Kuperberg blocks are bipartite,
    # so their cores take the route unnormalized, where the top is not 1 by construction
    edm = construct_orthorep(Graph.from_edges(6, [(1, 2), (2, 3), (4, 5), (5, 6)])).edm
    assert [b.indices for b in kuperberg_decompose(edm).blocks] == [(1, 2, 3), (4, 5, 6)]

    def inflate(values, vectors):
        values *= 1.0 + 5.0 * edm.tol.psd  # top 1 + 5 tol.psd: inside tol.cluster, outside the PSD slack

    _corrupt(monkeypatch, inflate)
    with pytest.raises(ConsistencyError, match=r"I - Delta of component \(1, 2, 3\) is not PSD"):
        kuperberg_decompose(edm)


def test_delta_of_a_representation_takes_the_route():
    # the Delta blocks of a representation are its normalized component adjacencies
    G = Graph.from_edges(15, [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (9, 10), (9, 11),
                              (9, 12), (9, 13), (14, 15)])
    rep = construct_orthorep(G)
    cert = spherical_certificate(rep.edm)
    with _decompositions() as calls:
        report = embedding_dim_via_delta(rep.edm, cert)
    # the edge by eigh, the two paths of 4 by one SVD, then the star of 5
    assert calls == [("eigh", (1, 2, 2)), ("svd", (2, 2, 2)), ("svd", (1, 4, 1))]
    assert (report.dimension, report.multiplicity) == (rep.d, rep.k)
    assert abs(report.lambda_max - 1.0) <= 1e-12


def test_delta_entries_within_a_part_follow_the_sign_band():
    # Delta's split is its nonzero pattern once the sign band has snapped it, so the route reads
    # the 2-colouring of Delta's exact support: on the path of 5, d_13 = 2 + tol.sign leaves
    # Delta_13 = 0.0 and the path bipartite; d_13 = 2 + 3 tol.sign is an edge closing a triangle
    D = construct_orthorep(Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])).edm.dist2
    for excess, colour, expected in [(1e-7, (0, 1, 0, 1, 0), ["svd"]), (3e-7, (-1,) * 5, ["eigh"])]:
        edm = require_edm(helpers.with_distance(D, 1, 3, 2.0 + excess))
        with _decompositions() as calls:
            _, split, (group,) = _delta_blocks(edm)[:3]
        delta = nonnegative_delta(delta_of(edm), DEFAULT_TOL)
        assert split.colour == colour and (delta[0, 2] == 0.0) == (expected == ["svd"])
        assert [name for name, _ in calls] == expected
        ref = _decompose(delta, DEFAULT_TOL)
        assert np.max(np.abs(group.values[0] - ref.values)) <= 1e-12


def test_an_svd_that_does_not_converge_falls_back_to_eigh(monkeypatch):
    ref, _ = _construct(PATH6, route=False)

    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    rep = construct_orthorep(PATH6)
    helpers.assert_bits(rep.points, ref.points)
    helpers.assert_bits(rep.edm.dist2, ref.edm.dist2)
