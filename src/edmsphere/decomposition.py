"""Structure of unit spherical configurations with min squared distance 2.

Points on the unit sphere pairwise at least sqrt(2) apart are heavily
constrained.  With n points in dimension r:

- if the support of Delta = D/2 + I - E is connected after discarding its
  zero rows, the points are the vertex set of a simplex and the circumcenter
  weights are a padded Perron vector (certify_simplex);
- at n = r + 2 no such configuration exists at all, so some pair must come
  strictly closer than sqrt(2) (rankin_codimension2_check);
- for 2 <= n - r <= r the configuration splits, after a permutation, into
  n - r simplices living in mutually orthogonal subspaces, every
  cross-block squared distance exactly 2 (kuperberg_decompose);
- at n = 2r the split forces antipodal pairs: the configuration is the
  regular crosspolytope (crosspolytope_recognize).

The first, third and fourth require a unit spherical D and read Delta as
`embedding_dim_via_delta` does, through `edm._delta_blocks`: Delta snapped
by the sign band, the split of its support, its cores decomposed with one
stacked eigendecomposition per order, and lambda_max(Delta) with its
multiplicity.  The rank route of `certify_simplex` reads only that top.
`_simplex_blocks` certifies the cores (`spectral._check_perron`), folds the
zero rows into the last component, and builds and checks the blocks' Edms
over the stack of each order (`edm._circumcenter_edms`); a connected core
is the one-block case.
`check-rankin --sample` runs the n = r + 2 check on random samples in
stacked chunks (`_sample_codimension2`).
"""

from __future__ import annotations

import numpy as np

from .edm import (
    SPHERICAL,
    Edm,
    EdmRejection,
    SphericalCertificate,
    _certify,
    _circumcenter_edm,
    _circumcenter_edms,
    _delta_blocks,
    _inf_diagonal,
    _sample_rejected,
    _sphere_dist2,
    _sphere_points,
    _validate_stack,
    spherical_certificate,
)
from .errors import ConsistencyError, PreconditionError, _record
from .graphs import apply_permutation
from .spectral import _block_index, _check_perron
from .tolerances import Tolerances, _interior, _over_two, _perron_hypothesis, _top_at_one, _within

__all__ = [
    "SimplexCertificate",
    "certify_simplex",
    "RankinReport",
    "rankin_codimension2_check",
    "DecompositionBlock",
    "Decomposition",
    "kuperberg_decompose",
    "CrosspolytopeResult",
    "crosspolytope_recognize",
]


def _require_unit_spherical(D: Edm, what: str) -> SphericalCertificate:
    cert = spherical_certificate(D)
    error = _not_unit_spherical(cert, what)
    if error is not None:
        raise error
    return cert


def _not_unit_spherical(cert: SphericalCertificate, what: str) -> PreconditionError | None:
    if cert.status != SPHERICAL:
        return PreconditionError(f"{what} requires a spherical EDM, got status {cert.status!r}")
    if not cert.unit_spherical:
        return PreconditionError(f"{what} requires circumradius 1, got radius {cert.radius:.17g}")
    return None


@_record
class SimplexCertificate:
    """Is this unit spherical configuration a simplex, and how was it decided?

    method "perron": the support of Delta is connected once zero rows are
    ignored, so the simplex property is forced and w is the padded, scaled
    Perron vector of the core.  method "rank": the support is disconnected
    and only the embedding dimension decides; w is the minimum-norm solve.

    `origin_position` is "interior" when every circumcenter weight exceeds
    tol.sign (the sphere center sits strictly inside the convex hull),
    "boundary" otherwise, None when not a simplex.
    """

    is_simplex: bool
    n: int
    method: str
    lambda_max: float
    w: np.ndarray
    origin_position: str | None
    zero_rows: tuple
    irreducible_core: bool
    residual: float
    detail: str


def certify_simplex(D: Edm) -> SimplexCertificate:
    """Certify that a unit spherical EDM with min distance sqrt(2) is a simplex.

    Parameters
    ----------
    D : Edm
        Must be unit spherical with every off-diagonal >= 2 - tol.sign;
        decided with the tolerances it was validated with.

    Returns
    -------
    SimplexCertificate

    Raises
    ------
    PreconditionError
        If D is not unit spherical or some squared distance is below 2.
    ConsistencyError
        If a connected core fails its Perron certificate (top eigenvalue of
        Delta 1 and simple, a positive Perron vector, I - Delta PSD of rank
        order - 1), the Perron route disagrees with the embedding dimension,
        or the circumcenter weights fail D w = e; all impossible in exact
        arithmetic.
    """
    tol = D.tol
    n = D.n
    cert = _require_unit_spherical(D, "certify_simplex")
    _, split, groups, lam, _ = _delta_blocks(D)
    if split.nontrivial_count == 1:
        simplex = _simplex_blocks(D, split, groups)[0].certificate
        if D.embedding_dim != n - 1:
            raise ConsistencyError(
                f"connected support forces a simplex, but embedding dimension is "
                f"{D.embedding_dim}, not n - 1 = {n - 1}"
            )
        return simplex

    # Disconnected support: connectivity no longer forces anything, the
    # embedding dimension alone decides.
    if not _top_at_one(lam, tol)[0]:
        raise ConsistencyError(
            f"lambda_max(Delta) = {lam:.17g} for a unit spherical input; expected 1"
        )
    zero_rows = split.isolated
    is_simplex = D.embedding_dim == n - 1
    origin = ("interior" if _interior(cert.w, tol)[0] else "boundary") if is_simplex else None
    return SimplexCertificate(
        is_simplex=is_simplex, n=n, method="rank", lambda_max=lam,
        w=cert.w, origin_position=origin, zero_rows=zero_rows, irreducible_core=False,
        residual=cert.residual,
        detail=(
            f"support splits into {split.nontrivial_count} nontrivial component(s) plus "
            f"{len(zero_rows)} zero row(s); embedding dimension {D.embedding_dim} "
            f"vs n - 1 = {n - 1}"
        ),
    )


@_record
class RankinReport:
    """Outcome of the n = r + 2 closeness check.

    Two more points than dimensions cannot all stay at squared distance
    >= 2 on the unit sphere, so `ok` asserts min d_ij <= 2 (within
    tol.sign) with the closest pair as witness.  A False here means the
    certified embedding dimension and the distances contradict each other
    numerically.
    """

    ok: bool
    n: int
    r: int
    min_offdiag: float
    witness: tuple
    message: str


def rankin_codimension2_check(D: Edm) -> RankinReport:
    """Check that a unit spherical EDM with n = r + 2 has a pair closer than sqrt(2).

    Parameters
    ----------
    D : Edm
        Unit spherical with n = embedding_dim + 2 (both PreconditionError
        otherwise); decided with the tolerances it was validated with.

    Returns
    -------
    RankinReport
        The witness is the 1-based argmin pair (i, j); ok is
        min d_ij <= 2 + tol.sign.
    """
    tol = D.tol
    n, r = D.n, D.embedding_dim
    if n != r + 2:
        raise PreconditionError(f"check needs n = r + 2, got n = {n}, r = {r}")
    _require_unit_spherical(D, "rankin_codimension2_check")
    m, i, j = _closest_pairs(D.dist2)
    return _rankin_report(n, r, float(m), int(i), int(j), tol)


def _closest_pairs(D: np.ndarray) -> tuple:
    """(m, i, j) per matrix of a (..., n, n) stack: its least off-diagonal entry m = D[i, j], i < j.

    The pair is the first least entry in row-major order, mirrored above the diagonal.
    """
    n = D.shape[-1]
    off = _inf_diagonal(D).reshape(D.shape[:-2] + (n * n,))
    i, j = np.divmod(off.argmin(axis=-1), n)
    i, j = np.minimum(i, j), np.maximum(i, j)
    m = np.take_along_axis(off, (i * n + j)[..., None], axis=-1)[..., 0]
    return m, i, j


def _rankin_report(n: int, r: int, m: float, i: int, j: int, tol: Tolerances) -> RankinReport:
    """The n = r + 2 report on the closest pair (i, j), 0-based, at squared distance m."""
    ok = _over_two(m, tol, over=False)[0]
    if ok:
        message = (
            f"pair ({i + 1}, {j + 1}) at squared distance {m:.17g} <= 2: "
            "no room for n = r + 2 points at min squared distance 2"
        )
    else:
        message = (
            f"numerical inconsistency: min squared distance {m:.17g} > 2 "
            f"although n = r + 2; the rank decision at tol.rank is suspect"
        )
    return RankinReport(ok=ok, n=n, r=r, min_offdiag=m, witness=(i + 1, j + 1), message=message)


_SAMPLE_CHUNK_BYTES = 1 << 22  # the arrays of one chunk of sampled trials


def _sample_codimension2(r: int, trials: int, seed: int, tol: Tolerances):
    """Rankin's n = r + 2 check on `trials` random configurations on the unit sphere.

    Trial t samples `gen_random_spherical(r + 2, r, child, tol)` for the
    t-th child of SeedSequence(seed).  Yields, trial by trial, what
    `rankin_codimension2_check` of that sample returns, or the sample's
    embedding dimension when it is not r; raises, at its trial, what the
    two calls would raise.  Trials run in chunks of about
    `_SAMPLE_CHUNK_BYTES`, each validated through one stacked eigh of its
    centered Gram matrices and certified from their eigensystems by the
    sphere fit, with no further eigh (`_codimension2_stack`).
    """
    n = r + 2
    trial_bytes = 8 * (n * r * (min(n, 16) + 1) + 12 * n * n)
    chunk = max(1, _SAMPLE_CHUNK_BYTES // trial_bytes)
    master = np.random.SeedSequence(seed)
    for start in range(0, trials, chunk):
        children = master.spawn(min(chunk, trials - start))  # continues the child sequence
        X = _sphere_points([np.random.default_rng(child) for child in children], n, r)
        for outcome in _codimension2_stack(_sphere_dist2(X), r, tol):
            if isinstance(outcome, Exception):
                raise outcome
            yield outcome


def _codimension2_stack(M: np.ndarray, r: int, tol: Tolerances) -> list:
    """Per sampled (n, n) distance matrix of the stack M: its RankinReport, rank or exception.

    The samples of rank r are certified together, by `edm._certify`'s sphere
    fit on the Gram eigensystems that the stacked validation decomposed.
    """
    n = M.shape[1]
    outcome = _validate_stack(M, tol)
    certify = []
    for t, res in enumerate(outcome):
        if isinstance(res, EdmRejection):
            outcome[t] = _sample_rejected(res)
        elif isinstance(res, Edm):
            outcome[t] = res.embedding_dim
            if res.embedding_dim == r:
                certify.append((t, res))  # the rank is replaced by the report below
    D = np.array([res.dist2 for _, res in certify]).reshape(-1, n, n)
    certs = _certify(D, [res.gram_eig for _, res in certify], tol)
    m, i, j = (v.tolist() for v in _closest_pairs(D))
    for k, (t, _) in enumerate(certify):
        error = _not_unit_spherical(certs[k], "rankin_codimension2_check")
        outcome[t] = _rankin_report(n, r, m[k], i[k], j[k], tol) if error is None else error
    return outcome


@_record
class DecompositionBlock:
    """One diagonal block: original node indices, its sub-EDM, its certificate."""

    indices: tuple
    edm: Edm
    certificate: SimplexCertificate

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def dim(self) -> int:
        return len(self.indices) - 1


@_record
class Decomposition:
    """Permutation of a unit spherical EDM into orthogonal simplex blocks.

    `permutation` lists original 1-based node labels in block order; applying
    it to D puts each block's sub-EDM on the diagonal, every off-block entry
    2.  `isolated_assignment` names the zero rows of Delta folded into the
    last block (they are orthogonal to everything, so any block could take
    them; the last one is the fixed convention).  `cross_check` is the max
    |d_ij - 2| over cross-block pairs and `cross_gram_max` = cross_check / 2
    the matching max |inner product| between blocks.
    """

    n: int
    r: int
    permutation: tuple
    blocks: tuple
    isolated_assignment: tuple
    subspace_dims: tuple
    cross_check: float
    cross_gram_max: float

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def _simplex_blocks(D: Edm, split, groups: list) -> list[DecompositionBlock]:
    """One simplex block per nontrivial support component, each certified from its core's Delta.

    `split` and `groups` are the support split and Perron blocks of the
    unit spherical D's Delta (`edm._delta_blocks`).  By
    Perron-Frobenius each core's top eigenvalue is 1 and simple with a
    positive eigenvector xi, and its block of I - Delta is PSD of rank
    m - 1 (`spectral._check_perron` certifies all four), so
    w = xi / (2 e^T xi), and the core's 1 - mu is the eigensystem of the
    block's I - Delta, D's Gram matrix at 2w, from which the block's Edm is
    built (`_circumcenter_edms`, over the blocks of one order).  The zero
    rows of Delta are orthogonal to every point, so they extend any block;
    they join the last one, in ascending order.  Each check raises
    ConsistencyError: none can fail in exact arithmetic.
    """
    tol = D.tol
    comps = split.nontrivial
    last = len(comps) - 1 if split.isolated else None  # the block that takes the zero rows
    outcome = [None] * len(comps)
    for g in _check_perron(groups):
        xi, values, vectors = g.xi, g.gram_values, g.gram_vectors
        w = xi / (2.0 * xi.sum(axis=1, keepdims=True))
        stacked = [t for t, p in enumerate(g.pos) if p != last]
        rows, ws = g.rows[stacked], w[stacked]
        edms = _circumcenter_edms(D.dist2[_block_index(rows, rows)], ws, values[stacked], vectors[stacked],
                                  g.gram_scales[stacked], g.rows.shape[1] - 1, tol)
        interior = _interior(ws, tol)[0].tolist()
        for t, edm, inside in zip(stacked, edms, interior):
            outcome[g.pos[t]] = (comps[g.pos[t]], (), float(g.lam[t]), edm, inside)
        if len(stacked) < len(g.pos):  # the last block, with the zero rows
            t = len(g.pos) - 1
            members = sorted(comps[-1] + split.isolated)
            core = np.isin(members, comps[-1])
            idx, zero = np.flatnonzero(core), np.flatnonzero(~core)
            wt = np.zeros(len(members))
            wt[idx] = w[t]
            block = np.asarray(members) - 1
            edm = _circumcenter_edm(D.dist2[np.ix_(block, block)], wt,
                                    [(idx[None], np.arange(idx.size)[None], values[t:t + 1], vectors[t:t + 1])],
                                    zero, float(g.gram_scales[t]), tol)
            outcome[-1] = (tuple(members), tuple(int(i) + 1 for i in zero), float(g.lam[t]), edm,
                           _interior(wt, tol)[0])
    blocks = []
    for members, zero_rows, lam, edm, interior in outcome:
        if isinstance(edm, Exception):
            raise edm
        cert = spherical_certificate(edm)
        blocks.append(DecompositionBlock(indices=members, edm=edm, certificate=SimplexCertificate(
            is_simplex=True, n=edm.n, method="perron", lambda_max=lam, w=cert.w,
            origin_position="interior" if interior else "boundary",
            zero_rows=zero_rows, irreducible_core=True, residual=cert.residual,
            detail=f"support connected after dropping {len(zero_rows)} zero row(s)",
        )))
    return blocks


def kuperberg_decompose(D: Edm) -> Decomposition:
    """Split a unit spherical min-distance-sqrt(2) EDM into orthogonal simplices.

    Applies when 2 <= n - r <= r: the support graph of Delta then has
    exactly n - r nontrivial components, each inducing a simplex block, and
    all cross-block squared distances are 2 (orthogonal subspaces).  Zero
    rows of Delta join the last block.  Once there are n - r blocks, their
    dimensions (order - 1) sum to n - (n - r) = r, and at n = 2r each of the
    r blocks has order 2; neither needs a check of its own.

    Parameters
    ----------
    D : Edm
        Unit spherical, every off-diagonal >= 2 - tol.sign, and
        2 <= n - r <= r for r = D.embedding_dim (PreconditionError
        otherwise); decided with the tolerances it was validated with.

    Returns
    -------
    Decomposition
        Blocks ordered by smallest original index, indices ascending inside
        each block.

    Raises
    ------
    ConsistencyError
        If the support component count differs from n - r, a block fails
        its simplex certificate, or a cross-block entry strays from 2 by
        more than tol.sign, the band that splits Delta's support.
    """
    tol = D.tol
    n, r = D.n, D.embedding_dim
    if not 2 <= n - r:
        raise PreconditionError(f"need n - r >= 2, got n = {n}, r = {r}")
    if not n - r <= r:
        raise PreconditionError(f"need n - r <= r, got n = {n}, r = {r}")
    _require_unit_spherical(D, "kuperberg_decompose")
    _, split, groups = _delta_blocks(D)[:3]
    if split.nontrivial_count != n - r:
        raise ConsistencyError(
            f"support splits into {split.nontrivial_count} block(s), expected n - r = {n - r}"
        )
    blocks = _simplex_blocks(D, split, groups)
    off = D.dist2 - 2.0  # |d_ij - 2|, zeroed on the diagonal blocks below
    np.abs(off, out=off)
    by_order: dict[int, list] = {}
    for b in blocks:
        by_order.setdefault(b.order, []).append(b.indices)
    for members in by_order.values():
        rows = np.array(members) - 1
        off[_block_index(rows, rows)] = 0.0
    cross_check = float(off.max())
    if not _within(cross_check, tol.sign)[0]:
        raise ConsistencyError(
            f"cross-block squared distances deviate from 2 by {cross_check:g}"
        )
    # The Gram matrix at the circumcenter is E - D/2, so a cross-block inner
    # product is 1 - d/2 = -(d - 2)/2, exactly for d within tol.sign of 2.
    return Decomposition(
        n=n, r=r, permutation=tuple(i for b in blocks for i in b.indices), blocks=tuple(blocks),
        isolated_assignment=tuple(split.isolated), subspace_dims=tuple(b.dim for b in blocks),
        cross_check=cross_check, cross_gram_max=cross_check / 2.0,
    )


def _crosspolytope_deviation(M: np.ndarray) -> float:
    """max|M - C| for C the canonical crosspolytope pattern, with no C made; M is overwritten.

    C has 0 on the diagonal, 4 within each consecutive pair (2k, 2k + 1) and
    2 elsewhere.
    """
    i = np.arange(0, M.shape[0], 2)
    dev = max(np.abs(np.diagonal(M)).max(), np.abs(M[i, i + 1] - 4.0).max(),
              np.abs(M[i + 1, i] - 4.0).max())
    np.fill_diagonal(M, 2.0)
    M[i, i + 1] = M[i + 1, i] = 2.0
    M -= 2.0
    return float(max(dev, np.abs(M, out=M).max()))


@_record
class CrosspolytopeResult:
    """Recognition verdict for the n = 2r extremal case; falsy when declined."""

    ok: bool
    r: int
    permutation: tuple | None
    max_deviation: float | None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def crosspolytope_recognize(D: Edm) -> CrosspolytopeResult:
    """Recognize the regular crosspolytope among unit spherical EDMs with n = 2r.

    With 2r points in dimension r on the unit sphere at min squared
    distance 2, antipodal pairs are forced.  The returned permutation lists
    the pairs consecutively (smallest-first order), so applying it to D
    yields the canonical form: diagonal 2x2 blocks with 4 off the diagonal,
    2 everywhere else.

    Parameters
    ----------
    D : Edm
        n must equal 2 * embedding_dim (PreconditionError otherwise);
        decided with the tolerances it was validated with.

    Returns
    -------
    CrosspolytopeResult
        Declines (ok False, with reason) rather than raising when D fails
        the distance or sphericity hypotheses.
    """
    tol = D.tol
    n, r = D.n, D.embedding_dim
    if n != 2 * r:
        raise PreconditionError(f"recognition needs n = 2r, got n = {n}, r = {r}")
    try:
        if r == 1:  # a single antipodal pair; too small for the block machinery
            _require_unit_spherical(D, "crosspolytope_recognize")
            permutation = (1, 2)
        elif not _perron_hypothesis(D.min_offdiagonal, tol)[0]:
            return CrosspolytopeResult(
                ok=False, r=r, permutation=None, max_deviation=None,
                reason=f"min squared distance {D.min_offdiagonal:.17g} is below 2",
            )
        else:
            permutation = kuperberg_decompose(D).permutation
    except PreconditionError as exc:
        return CrosspolytopeResult(ok=False, r=r, permutation=None,
                                   max_deviation=None, reason=str(exc))
    dev = _crosspolytope_deviation(apply_permutation(D.dist2, permutation))
    ok = _within(dev, tol.sign)[0]
    return CrosspolytopeResult(ok=ok, r=r, permutation=permutation, max_deviation=dev,
                               reason=None if ok else f"permuted matrix deviates from the canonical form by {dev:g}")
