"""`check-rankin --sample`, stacked in chunks of trials, against the per-trial loop.

The oracle (tests/oracles.py) generates, validates, certifies and checks
one trial at a time.  The stacked sampler must give the same report, exit
code and exception, trial for trial, for any chunk size; the samples are
distorted through the distance-matrix builder to reach the rank-degenerate
branch and each failing check.
"""

import argparse
import contextlib
import io
import re
import tracemalloc

import numpy as np
import pytest

import edmsphere.cli as cli
import edmsphere.decomposition as decomposition
import edmsphere.edm as edm
from edmsphere import DEFAULT_TOL
from edmsphere.errors import ConsistencyError, SpectralError
from edmsphere.spectral import EigenSystem
from oracles import check_rankin_sample_per_trial


def outcome(handler, r, trials, seed, tol=DEFAULT_TOL):
    """The handler's return value, or the type and message of what it raised."""
    args = argparse.Namespace(sample=r, trials=trials, seed=seed)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return handler(args, tol)
    except Exception as exc:
        return type(exc), str(exc)


def both(r, trials, seed, tol=DEFAULT_TOL):
    return (outcome(cli._check_rankin_sample, r, trials, seed, tol),
            outcome(check_rankin_sample_per_trial, r, trials, seed, tol))


def chunk_of(r, monkeypatch, trials_per_chunk):
    """Set the chunk budget so that trials_per_chunk trials of order r + 2 fill a chunk."""
    n = r + 2
    trial_bytes = 8 * (n * r * (min(n, 16) + 1) + 12 * n * n)
    monkeypatch.setattr(decomposition, "_SAMPLE_CHUNK_BYTES", trials_per_chunk * trial_bytes)


@pytest.mark.parametrize("r", [2, 3, 4, 8])
@pytest.mark.parametrize("seed", [0, 11, 2024])
def test_matches_per_trial_loop(r, seed):
    stacked, looped = both(r, 60, seed)
    assert stacked == looped
    assert stacked[0] == "ok"


@pytest.mark.parametrize("r, trials, per_chunk", [(2, 23, 5), (4, 17, 4), (8, 9, 2), (3, 7, 1)])
def test_chunk_boundaries(monkeypatch, r, trials, per_chunk):
    chunk_of(r, monkeypatch, per_chunk)
    stacked, looped = both(r, trials, 5)
    assert stacked == looped


DIST2 = edm._sphere_dist2


def distort(monkeypatch, trial, edit):
    """Make trial `trial`'s distance matrix edit(points) in both samplers."""
    def patched(original):
        seen = 0

        def dist2(X):
            nonlocal seen
            D = original(X)
            Xs, Ds = X.reshape(-1, *X.shape[-2:]), D.reshape(-1, *D.shape[-2:])
            if seen <= trial < seen + len(Xs):
                Ds[trial - seen] = edit(Xs[trial - seen].copy())
            seen += len(Xs)
            return D
        return dist2

    monkeypatch.setattr(edm, "_sphere_dist2", patched(edm._sphere_dist2))
    monkeypatch.setattr(decomposition, "_sphere_dist2", patched(decomposition._sphere_dist2))


def flattened(X):
    """The points pushed into a hyperplane: one dimension fewer."""
    X[:, -1] = 0.0
    X /= np.linalg.norm(X, axis=1)[:, None]
    return DIST2(X)


def doubled(X):
    return DIST2(2.0 * X)  # circumradius 2


def negative(X):
    D = DIST2(X)
    D[0, 1] = D[1, 0] = -1.0
    return D


def not_finite(X):
    D = DIST2(X)
    D[2, 3] = D[3, 2] = np.nan
    return D


@pytest.mark.parametrize("per_chunk", [None, 3, 1])
@pytest.mark.parametrize("edit, expected", [
    (flattened, "inconsistent"),
    (doubled, "requires circumradius 1"),
    (negative, "negative-entry"),
    (not_finite, "not-finite"),
])
def test_distorted_trial(monkeypatch, per_chunk, edit, expected):
    if per_chunk:
        chunk_of(4, monkeypatch, per_chunk)
    distort(monkeypatch, 4, edit)
    stacked, looped = both(4, 10, 3)
    assert stacked == looped
    assert expected in str(stacked)


def test_rank_degenerate_trial_is_a_failure(monkeypatch):
    distort(monkeypatch, 4, flattened)
    status, result, _, code, _ = outcome(cli._check_rankin_sample, 4, 10, 3)
    assert (status, code) == ("inconsistent", cli.FAULT)
    assert result["failures"] == [{"trial": 4, "reason": "embedding_dim 3 != 4"}]
    assert result["min_offdiag_per_trial"][4] is None


@pytest.mark.parametrize("per_chunk", [None, 3, 6])
def test_first_failing_trial_decides(monkeypatch, per_chunk):
    # trial 2 is degenerate (a result), trial 5 off the unit sphere, trial 7 rejected:
    # in one chunk, the later trial's earlier check must not win
    if per_chunk:
        chunk_of(4, monkeypatch, per_chunk)
    for trial, edit in [(2, flattened), (5, doubled), (7, negative)]:
        distort(monkeypatch, trial, edit)
    stacked, looped = both(4, 10, 3)
    assert stacked == looped
    assert stacked[0] is cli.PreconditionError


def coincident(X):
    return np.zeros((len(X), len(X)))  # a zero Gram matrix, on which eigh is made to fail


@pytest.mark.parametrize("per_chunk", [None, 3, 1])
@pytest.mark.parametrize("earlier, expected", [(negative, ConsistencyError), (None, SpectralError)])
def test_eigh_failure_keeps_trial_order(monkeypatch, per_chunk, earlier, expected):
    # trial 5's eigh does not converge; a rejection at trial 2 must still come first
    real = np.linalg.eigh

    def eigh(S):
        if not S.any(axis=(-2, -1)).all():
            raise np.linalg.LinAlgError("no convergence")
        return real(S)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    if per_chunk:
        chunk_of(4, monkeypatch, per_chunk)
    distort(monkeypatch, 5, coincident)
    if earlier:
        distort(monkeypatch, 2, earlier)
    stacked, looped = both(4, 10, 3)
    assert stacked == looped
    assert stacked[0] is expected


def test_spectral_rules_run_per_chunk_not_per_trial(monkeypatch):
    # the PSD and rank rules read each chunk's spectra over the stack: no EigenSystem rule call per trial
    calls = []
    for name in ("psd", "rank_mask"):
        def counted(self, *args, _real=getattr(EigenSystem, name), _name=name):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(EigenSystem, name, counted)
    chunk_of(4, monkeypatch, 10)
    assert outcome(cli._check_rankin_sample, 4, 60, 3)[0] == "ok"
    assert len(calls) <= 2 * 6  # six chunks of ten trials


def test_failed_checks_report_every_trial():
    # a negative sign band turns every check into a failure
    tol = DEFAULT_TOL.with_overrides(sign=-10.0)
    stacked, looped = both(3, 8, 1, tol)
    assert stacked == looped
    assert stacked[0] == "inconsistent" and len(stacked[1]["failures"]) == 8


def test_cli_report_and_exit_code_match_the_oracle(monkeypatch):
    distort(monkeypatch, 1, flattened)
    argv = ["check-rankin", "--sample", "3", "--trials", "6", "--seed", "9"]
    reports = []
    for handler in (cli._check_rankin_sample, check_rankin_sample_per_trial):
        monkeypatch.setattr(cli, "_check_rankin_sample", handler)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        reports.append((code, re.sub(r'"elapsed_seconds": [-+.e0-9]+', "", out.getvalue())))
    assert reports[0] == reports[1]
    assert reports[0][0] == cli.FAULT


def peak_bytes(handler, r, trials):
    tracemalloc.start()
    try:
        outcome(handler, r, trials, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_stays_within_one_chunk():
    # at r = 200 one trial exceeds the budget: chunks of one, as in the per-trial loop
    one_trial = peak_bytes(check_rankin_sample_per_trial, 200, 1)
    assert peak_bytes(cli._check_rankin_sample, 200, 12) <= decomposition._SAMPLE_CHUNK_BYTES + one_trial


class ZeroFirst:
    """A generator whose first draw is all zeros, so every row is drawn again."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def standard_normal(self, shape):
        self.calls += 1
        return np.zeros(shape) if self.calls == 1 else self.rng.standard_normal(shape)


def test_short_rows_are_drawn_again():
    rngs = [np.random.default_rng(1), ZeroFirst(2)]
    X = edm._sphere_points(rngs, 5, 3)
    assert rngs[1].calls == 2
    np.testing.assert_allclose(np.linalg.norm(X, axis=-1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(X[0], edm._sphere_points([np.random.default_rng(1)], 5, 3)[0])


def validated(M):
    """validate_edm's result for M, or the type and message of what it raises."""
    try:
        return edm.validate_edm(M)
    except Exception as exc:
        return type(exc), str(exc)


def broken(M, t, *cells):
    """Set each (i, j, value) of `cells` in matrix t on both sides of the diagonal."""
    for i, j, value in cells:
        M[t, i, j] = M[t, j, i] = value


@pytest.mark.parametrize("r", [2, 4, 8, 20])
def test_stacked_validation_and_certificate_are_bitwise_per_matrix(r):
    n = r + 2
    children = np.random.SeedSequence(r).spawn(40)
    M = DIST2(edm._sphere_points([np.random.default_rng(c) for c in children], n, r))
    broken(M, 1, (2, 3, np.nan))  # not-finite
    M[3, 0, 1] += 0.5  # not-symmetric
    broken(M, 5, (2, 2, 0.5))  # nonzero-diagonal
    broken(M, 7, (0, 1, -1.0))  # negative-entry
    broken(M, 9, (0, 1, 50.0))  # not-psd: 50 > (2 + 2)^2 breaks the triangle inequality
    broken(M, 11, (1, 1, 0.5), (0, 2, -1.0))  # the diagonal rule reports before the sign rule
    M[13] = 1.7e308 * (np.ones((n, n)) - np.eye(n))  # too-large: its Gram matrix would overflow
    stacked = edm._validate_stack(M, DEFAULT_TOL)
    singles = [validated(m) for m in M]
    reasons = {t: single.reason for t, single in enumerate(singles) if isinstance(single, edm.EdmRejection)}
    assert reasons == {1: "not-finite", 3: "not-symmetric", 5: "nonzero-diagonal", 7: "negative-entry",
                       9: "not-psd", 11: "nonzero-diagonal", 13: "too-large"}
    for res, single in zip(stacked, singles):
        if isinstance(single, tuple):
            assert (type(res), str(res)) == single
        elif isinstance(single, edm.EdmRejection):
            assert (res.reason, res.detail, res.witness_eigenvalue) == \
                (single.reason, single.detail, single.witness_eigenvalue)
            if single.witness_vector is None:
                assert res.witness_vector is None
            else:
                np.testing.assert_array_equal(res.witness_vector, single.witness_vector)
        else:
            np.testing.assert_array_equal(res.dist2, single.dist2)
            np.testing.assert_array_equal(res.gram_eig.values, single.gram_eig.values)
            np.testing.assert_array_equal(res.gram_eig.vectors, single.gram_eig.vectors)
            assert res.gram_eig.scale == single.gram_eig.scale
            assert (res.embedding_dim, res.min_offdiagonal) == (single.embedding_dim, single.min_offdiagonal)
    kept = [t for t, res in enumerate(stacked) if isinstance(res, edm.Edm)]
    assert len(kept) == 33
    D = np.stack([stacked[t].dist2 for t in kept])
    certs = edm._certify(D, [stacked[t].gram_eig for t in kept], DEFAULT_TOL)
    for cert, t in zip(certs, kept):
        single = edm.spherical_certificate(singles[t])
        np.testing.assert_array_equal(cert.w, single.w)
        assert (cert.status, cert.etw, cert.residual) == (single.status, single.etw, single.residual)
