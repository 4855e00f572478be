"""Euclidean distance matrix certification and recovery.

A matrix D of squared pairwise distances is an EDM exactly when its
double-centered transform B = -1/2 (I - e s^T) D (I - s e^T), for any s with
e^T s = 1, is positive semidefinite; rank(B) is then the embedding dimension.
This module certifies that, recovers Gram/configuration factors, certifies
sphericity by a solution of D w = e (circumradius (2 e^T w)^(-1/2)), forms
the shifted matrix Delta = D/2 + I - E whose top eigenvalue controls the
embedding dimension of unit spherical EDMs, and generates canonical
configurations (regular simplices, crosspolytopes, random sphere samples).

The PSD and rank rules live in `spectral`; validation applies both to its
one eigensystem of B, which the returned `Edm` keeps for later stages, with
B itself: `gram_factor` at the Edm's own centering returns a copy of it
rather than centering D again.  The sphericity certificate reads the
eigensystem too: D = g e^T + e g^T - 2B with g = diag(B) (Gower 1985), so a
sphere fitted to the points U L^(1/2) that B's pairs above the rank cut give
yields w, or the residual that puts the points off every sphere, in O(n^2)
with no eigendecomposition (`spherical_certificate`).
At another centering s, `gram_factor` factors the Gram matrix
(I - e s^T) B (I - s e^T) by B's principal axes X = U L^(1/2) moved to s,
X - e (s^T X), with no eigendecomposition: a bound on the dropped
eigenvalues, one Cholesky of order rank(B) and a residual certify it, and
only when they do not is the Gram matrix at s decomposed.
`embedding_dim_via_delta` reads the top of Delta and its multiplicity from
Delta's irreducible blocks, one eigh per block order
(`spectral._perron_blocks`), as the Kuperberg decomposition does.  The
blocks are the components of Delta's nonzero pattern once
`nonnegative_delta` has set every entry within tol.sign / 2 of zero to 0
(`_delta_support`): tol.sign alone decides which pairs are orthogonal.

`_circumcenter_edm` builds, with no validation, the Edm of a unit spherical
D at its circumcenter 2w from the blocks of I - Delta, its Gram matrix there,
for orthonormal representations and Kuperberg blocks; `_circumcenter_edms`
checks (D w = e, the unit radius, the rank) and builds a stack of them, for
the Kuperberg blocks of one order.

Validation and the sphere fit run over a (T, n, n) stack
(`_validate_stack`, `_certify`), with one eigh of the Gram matrices per
stack; `validate_edm` and `spherical_certificate` run a stack of one, so
the Rankin sampler's chunks give each matrix the bits of its own call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, PreconditionError
from .spectral import (
    EigenSystem,
    _block_index,
    _decompose,
    _eigh_stack,
    _first_failures,
    _gram_exceeds,
    _perron_blocks,
    _psd_stack,
    _rank_stack,
    _union_top,
)
from .tolerances import (DEFAULT_TOL, Tolerances, _perron_hypothesis, _recon_band, _top_at_one, _unit_radius,
                         _within, scale)

__all__ = [
    "SPHERICAL",
    "NON_SPHERICAL",
    "E_NOT_IN_COLSPACE",
    "NOT_EDM",
    "Edm",
    "EdmRejection",
    "validate_edm",
    "require_edm",
    "min_offdiagonal",
    "centering_gram",
    "GramFactor",
    "gram_factor",
    "SphericalCertificate",
    "spherical_certificate",
    "DeltaMatrix",
    "delta_of",
    "nonnegative_delta",
    "DeltaDimReport",
    "embedding_dim_via_delta",
    "unit_simplex_gamma",
    "gen_regular_simplex",
    "gen_unit_simplex",
    "gen_crosspolytope",
    "gen_random_spherical",
]

SPHERICAL = "spherical"
NON_SPHERICAL = "non-spherical"
E_NOT_IN_COLSPACE = "e-not-in-colspace"
NOT_EDM = "not-edm"


@dataclass(eq=False)
class Edm:
    """A validated EDM: zero diagonal, nonnegative entries, PSD double-centering.

    Stores what validation established, so no later stage recomputes it:
    `dist2` (symmetrized, diagonal exactly zero), `gram_eig` (the
    eigensystem of the Gram matrix B of D centered at `centering` that
    decided the PSD verdict), `embedding_dim` (the rank of B by that
    eigensystem's rank rule), `min_offdiagonal` and the `tol` record all were
    decided with; plus the sphericity certificate, solved on the first
    `spherical_certificate` call.  `validate_edm` centers at the
    centroid e/n and keeps B itself, read-only, in `_gram`: `gram_factor`
    at that centering returns a copy of it (for a cloud, a crosspolytope, a
    composition without lone points).  `_circumcenter_edm` builds an Edm at
    the circumcenter 2w, where B is I - Delta and its eigensystem is known
    block by block, and seeds the certificate with the w it checked; it
    keeps no B.  The fields are read-only: mutating one leaves the others
    describing a different matrix.
    """

    dist2: np.ndarray
    embedding_dim: int
    tol: Tolerances
    gram_eig: EigenSystem
    centering: np.ndarray
    min_offdiagonal: float
    _certificate: SphericalCertificate | None = field(default=None, init=False, repr=False)
    _gram: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.dist2.shape[0]


@dataclass(eq=False)
class EdmRejection:
    """Why a candidate matrix is not an EDM; falsy so callers can branch on it."""

    # not-square | not-finite | too-large | too-small | not-symmetric | nonzero-diagonal | negative-entry | not-psd
    reason: str
    detail: str
    witness_eigenvalue: float | None = None
    witness_vector: np.ndarray | None = None

    def __bool__(self) -> bool:
        return False


def min_offdiagonal(M: np.ndarray):
    """Smallest off-diagonal entry, per matrix of a (..., n, n) stack; +inf below order 2.

    A float for one matrix, an array for a stack.  Past the first entry, a
    matrix's entries fall into n - 1 rows of n + 1, each ending on the diagonal.
    """
    M = np.asarray(M, dtype=float)
    n, stack = M.shape[-1], M.shape[:-2]
    if n < 2:
        m = np.full(stack, np.inf)
    else:
        rows = M.reshape(stack + (n * n,))[..., 1:].reshape(stack + (n - 1, n + 1))
        m = rows[..., :n].min(axis=(-2, -1))
    return float(m) if m.ndim == 0 else m


def _inf_diagonal(M: np.ndarray) -> np.ndarray:
    """M, a (..., n, n) stack, with +inf on each diagonal: only off-diagonal entries can be least."""
    return np.where(np.eye(M.shape[-1], dtype=bool), np.inf, M)


def _centroid(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n) if n else np.zeros(0)


def centering_gram(D: np.ndarray, s: np.ndarray) -> np.ndarray:
    """B = -1/2 (I - e s^T) D (I - s e^T), the Gram matrix of D centered at s.

    For symmetric D this is B_ij = 1/2 (((u_i + u_j) - D_ij) - s^T u) with
    u = D s: O(n^2), and exactly symmetric, since D is and u_i + u_j = u_j + u_i.
    Subtracting rather than negating keeps exact zeros at +0.0, the bits an
    eigensolver would see after `spectral.as_symmetric`.  A (..., n, n)
    stack of D gives the stack of B, each with the bits of its own call.
    """
    D = np.asarray(D, dtype=float)
    s = np.asarray(s, dtype=float).reshape(-1)
    u = D @ s
    B = u[..., :, None] + u[..., None, :]
    B -= D
    B -= (s @ u[..., None])[..., None]  # one dot s @ u per matrix, as for a single D
    B *= 0.5
    return B


def _entry_stats(M: np.ndarray) -> tuple:
    """What `validate_edm`'s entry rules read, per matrix of a (..., n, n) stack M.

    (all entries finite, scale(M), max|M - M^T|, D, max|diag(D)|, least
    off-diagonal entry of D): D is M symmetrized from its lower triangle
    with the diagonal then set to zero.  Only the finiteness is meaningful
    for a matrix that is not finite.

    Finiteness is read off scale(M): NaN and +-inf carry through the max and
    min it takes.  When M == M^T entrywise for every M, the skew is 0 and
    M + 0.0 is the mirror bit for bit: each entry of the mirror is an entry
    of M plus +0.0, and the one pair of equal entries with different bits,
    +0.0 and -0.0, both sum to +0.0.  Only otherwise is max|M - M^T| formed.
    """
    s = scale(M)
    if (M == np.swapaxes(M, -1, -2)).all():  # NaN != NaN: such a stack keeps the mirror
        skew, D = np.zeros(M.shape[:-2]), M + 0.0
    else:
        with np.errstate(invalid="ignore", over="ignore"):  # a too-large M is rejected, not measured
            skew = np.abs(M - np.swapaxes(M, -1, -2)).max(axis=(-2, -1), initial=0.0)
        D = np.tril(M) + np.swapaxes(np.tril(M, -1), -1, -2)
    diag = np.arange(M.shape[-1])
    diag_max = np.abs(D[..., diag, diag]).max(axis=-1, initial=0.0)
    D[..., diag, diag] = 0.0
    return np.isfinite(s), s, skew, D, diag_max, min_offdiagonal(D)


_FLOAT_MAX = float(np.finfo(float).max)
_FLOAT_TINY = float(np.finfo(float).tiny)  # the least normal float, 2^-1022


def _entry_rejection(finite, s, skew, diag_max, off_min, tol: Tolerances, n: int) -> EdmRejection | None:
    """validate_edm's rules on the entries of one (n, n) matrix, read from its `_entry_stats`.

    max|M| <= float max / (4n) keeps the later stages finite: the centered
    Gram matrix lies within 4 max|M|, and a product D v of the sphere fit
    within float max whenever the weights v sum in magnitude to at most 4n,
    as the centroid's e/n do.

    max|M| >= 4n tiny, tiny the least normal float, keeps underflow within
    rounding.  An operation rounds with relative error at most u = eps / 2,
    and one whose result underflows adds at most u tiny, absolute (Higham
    2002, section 2.1).  The centroid's products d_ij / n reach
    max|M| / n >= 4 tiny, so the m operations of an entry of the centered
    Gram matrix, or of a product D v of the sphere fit, add at most
    m u tiny <= m u max|M| / (4n) by underflow: a quarter of the rounding
    error m u max|M| / n the same operations may make on those products.
    Below it subnormal entries carry fewer bits than the rules assume: the
    sphere fit's 0.5 / L overflows to a NaN witness, and the PSD rule fails
    on rounding.  A matrix with no nonzero entry has scale 1 and passes.
    """
    if not finite:
        return EdmRejection("not-finite", "matrix contains NaN or Inf entries")
    if s > (limit := _FLOAT_MAX / (4 * max(n, 1))):
        return EdmRejection("too-large", f"max|M| = {s:g} exceeds float max / (4n) = {limit:g}")
    if s < (least := 4 * max(n, 1) * _FLOAT_TINY):
        return EdmRejection("too-small", f"max|M| = {s:g} is below 4n times the least normal float = {least:g}")
    if not _within(skew, tol.symmetry * s)[0]:
        return EdmRejection("not-symmetric", f"max|M - M^T| = {skew:g}")
    if not _within(diag_max, tol.psd * s)[0]:
        return EdmRejection("nonzero-diagonal", f"max|diagonal| = {diag_max:g}")
    if not _within(off_min, -tol.psd * s, above=True)[0]:
        return EdmRejection("negative-entry", f"min off-diagonal = {off_min:g}")
    return None


def validate_edm(M, tol: Tolerances = DEFAULT_TOL) -> Edm | EdmRejection:
    """Certify a matrix as an EDM, or explain why it is not one.

    Parameters
    ----------
    M : (n, n) array_like
        Candidate matrix of squared distances.
    tol : Tolerances
        `tol.psd` bounds the PSD slack; `tol.rank` sets the rank cut.

    Returns
    -------
    Edm or EdmRejection
        Acceptance requires: finite entries at most float max / (4n) in
        magnitude, symmetry, zero diagonal (within tol.psd * scale),
        nonnegative off-diagonal entries, and PSD double-centering with
        s = e/n.  Rejection is a value carrying the violated condition
        and, for the PSD case, the offending eigenpair as witness.

    Raises
    ------
    SpectralError
        If the eigendecomposition of the centered Gram matrix fails.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return EdmRejection("not-square", f"shape {M.shape}")
    res = _validate_stack(M[None], tol)[0]
    if isinstance(res, Exception):
        raise res
    return res


def _validate_stack(M: np.ndarray, tol: Tolerances) -> list:
    """What `validate_edm` gives for each matrix of a (T, n, n) stack: its Edm, EdmRejection or exception.

    The entry rules reject first, in the order of `_entry_rejection`; the
    centered Gram matrices of the rest go through one eigh, and the PSD
    and rank rules read their spectra over the stack.  Each Edm holds its
    row of the stacked arrays, with the bits of a stack of one, its centered
    Gram matrix B included (read-only).
    """
    finite, s, skew, D, diag_max, off_min = _entry_stats(M)
    off_min = off_min.tolist()
    stats = zip(finite.tolist(), s.tolist(), skew.tolist(), diag_max.tolist(), off_min)
    out = [_entry_rejection(*entry, tol, M.shape[-1]) for entry in stats]
    todo = [t for t, rejection in enumerate(out) if rejection is None]
    if not todo:
        return out
    if len(todo) < len(out):  # one accepted matrix makes no copy
        D = D[todo]
    centroid = _centroid(M.shape[-1])
    B = centering_gram(D, centroid)
    B.flags.writeable = False  # each Edm keeps its row
    values, vectors, errors = _eigh_stack(B)
    scales = scale(B)
    psd = _psd_stack(values, scales, tol).tolist()
    rank = np.count_nonzero(_rank_stack(values, scales, tol), axis=1).tolist()
    for k, t in enumerate(todo):
        if errors[k] is not None:
            out[t] = errors[k]
        elif not psd[k]:
            least = float(values[k, -1])
            out[t] = EdmRejection("not-psd", f"centered Gram has eigenvalue {least:g}",
                                  witness_eigenvalue=least, witness_vector=vectors[k, :, -1].copy())
        else:
            gram = EigenSystem(values[k], vectors[k], tol, float(scales[k]))
            out[t] = edm = Edm(dist2=D[k], embedding_dim=rank[k], tol=tol, gram_eig=gram, centering=centroid,
                               min_offdiagonal=off_min[t])
            edm._gram = B[k]
    return out


def require_edm(M, tol: Tolerances = DEFAULT_TOL) -> Edm:
    """validate_edm, but a rejection raises PreconditionError."""
    res = validate_edm(M, tol)
    if isinstance(res, EdmRejection):
        raise PreconditionError(f"not an EDM ({res.reason}): {res.detail}")
    return res


@dataclass(eq=False)
class GramFactor:
    """Gram matrix B = P P^T with the configuration rows and centering vector.

    Row i of `config` is the recovered point p_i; the points satisfy
    sum_i s_i p_i = 0 for the stored centering vector s.  Its columns are
    the Edm's principal axes moved to s, so the configurations of one Edm at
    two centerings differ by one translation; only where the moved axes
    cannot be certified are they B's own principal axes (`gram_factor`).
    """

    gram: np.ndarray
    config: np.ndarray
    centering: np.ndarray


def gram_factor(D: Edm, s: np.ndarray | None = None) -> GramFactor:
    """Recover a Gram matrix and point configuration from a validated EDM.

    Parameters
    ----------
    D : Edm
    s : (n,) array_like, optional
        Centering vector with e^T s = 1.  When omitted: 2w if the spherical
        certificate puts the points on a unit circumradius sphere (so the
        recovered points are the unit vectors themselves, centered at the
        sphere's center; the Edm's own centering when it solves D s = 2e
        as closely as 2w does), else e/n.

    Returns
    -------
    GramFactor
        At the Edm's own centering, `config` keeps the eigenvector columns
        of `gram_eig` with eigenvalue above the rank cut, ordered by
        descending eigenvalue and sign-normalized, each scaled by the
        eigenvalue's square root: the principal axes X = U L^(1/2), and
        `gram` is a copy of the B validation kept, or B formed again for an
        Edm that keeps none.  At any other s it is X moved to s,
        X - e (s^T X), when that is certified to factor B (`_factor_at`);
        otherwise B's own principal axes, from an eigendecomposition of B.

    Raises
    ------
    PreconditionError
        If e^T s deviates from 1 beyond tol.solve.
    ConsistencyError
        If the centered matrix fails the PSD test (cannot factor).
    ValueError
        If the centered matrix has a NaN or Inf entry.
    """
    tol = D.tol
    n = D.n
    centroid = _centroid(n)
    if s is None:
        cert = spherical_certificate(D)
        s = _circumcenter(D, cert) if cert.unit_spherical else centroid
    s = np.asarray(s, dtype=float).reshape(-1)
    if s.shape[0] != n:
        raise PreconditionError(f"centering vector length {s.shape[0]} != order {n}")
    if n and not _within(abs(float(s.sum()) - 1.0), tol.solve)[0]:  # a NaN weight fails too
        raise PreconditionError(f"centering vector must satisfy e^T s = 1, got {s.sum():.17g}")
    if np.array_equal(s, D.centering):
        B = centering_gram(D.dist2, s) if D._gram is None else D._gram.copy()
        es = D.gram_eig
    else:
        B = centering_gram(D.dist2, s)
        if B.size and not np.all(np.isfinite(B)):  # at a caller's centering s with large weights
            raise ValueError("matrix contains NaN or Inf entries")
        P = _factor_at(D, s, B)
        if P is not None:
            return GramFactor(gram=B, config=P, centering=s)
        es = _decompose(B, tol)
    psd = es.psd()
    if not psd:
        raise ConsistencyError(
            f"centered matrix of a validated EDM is not PSD (eigenvalue {psd.min_eigenvalue:g})"
        )
    keep = es.rank_mask()
    P = es.vectors[:, keep] * np.sqrt(es.values[keep])
    return GramFactor(gram=B, config=P, centering=s)


def _circumcenter(D: Edm, cert: SphericalCertificate) -> np.ndarray:
    """2w of a unit spherical certificate, or the Edm's centering if it solves D s = 2e as closely.

    The points centered at s lie on the unit sphere exactly when D s = 2e,
    and two such s give the same Gram matrix (their difference is in D's
    null space), so a centering whose residual max|D s - 2e| is at most 2w's
    (twice the certificate's), or within the rounding n eps scale(D) |s|_1
    of the product D s, is as good a circumcenter.  An Edm built at its
    circumcenter (a representation, a Kuperberg block) stores 2w of its
    certificate's own w, and the centroid of a composition without lone
    points is its circumcenter; their `gram_eig` is then read as it stands.
    """
    c = D.centering
    miss = float(np.max(np.abs(D.dist2 @ c - 2.0), initial=0.0))
    rounding = D.n * np.finfo(float).eps * scale(D.dist2) * float(np.abs(c).sum())
    return c if miss <= max(2.0 * cert.residual, rounding) else 2.0 * cert.w


def _factor_at(D: Edm, s: np.ndarray, B: np.ndarray) -> np.ndarray | None:
    """The Edm's principal axes moved to the centering s, if they certifiably factor B; else None.

    B = centering_gram(D.dist2, s), finite, is congruent to the stored Gram
    matrix B_c: B = (I - e s^T) B_c (I - s e^T) (Gower 1985).  With U L U^T
    the pairs of B_c above its rank cut and X = U L^(1/2), F = X - e (s^T X)
    has F F^T = B up to the dropped eigenvalues: with shift = max|dropped
    eigenvalue of B_c| (1 + sqrt(n) |s|)^2, |B - F F^T|_2 <= shift, so B's
    eigenvalues lie within shift of F F^T's, which are those of F^T F and
    n - k zeros (k = rank(B_c)).  F is returned as B's factor, with the
    column count that B's own eigensystem would give, when
    - shift <= tol.psd * scale(B) / 2: B's least eigenvalue is at least
      -shift, and the other half of the PSD slack covers the rounding of
      decomposing B, so B passes the PSD rule as it would on its own
      eigensystem;
    - shift < cut = tol.rank * scale(B), and every eigenvalue of F^T F
      exceeds cut + shift (one Cholesky, `spectral._gram_exceeds`): the rank
      rule then counts F's k columns and none of the n - k others;
    - max|B - F F^T| <= shift + tol.recon * n * scale(B).
    No eigendecomposition is made; the caller decomposes B when this fails.
    """
    tol, n = D.tol, D.n
    stored = D.gram_eig
    kept = stored.rank_mask()
    F = stored.vectors[:, kept] * np.sqrt(stored.values[kept])
    F -= s @ F
    shift = float(np.max(np.abs(stored.values[~kept]), initial=0.0))
    shift *= (1.0 + np.sqrt(n) * float(np.linalg.norm(s))) ** 2
    unit = scale(B)
    cut = tol.rank * unit
    if not (_within(shift, 0.5 * tol.psd * unit)[0] and _within(shift, cut, strict=True)[0]
            and _gram_exceeds(F, cut + shift)):
        return None
    R = F @ F.T
    R -= B
    residual = float(np.max(np.abs(R, out=R), initial=0.0))
    return F if _within(residual, shift + _recon_band(n, unit, tol))[0] else None


@dataclass(eq=False)
class SphericalCertificate:
    """Outcome of the sphericity test: a solution w of D w = e.

    status is one of "spherical", "non-spherical", "e-not-in-colspace" (and
    CLI reports use "not-edm" for rejected inputs).  For spherical D the
    circumradius is (2 e^T w)^(-1/2); `unit_spherical` applies the
    circumradius-1 predicate |2 e^T w - 1| <= tol.unit.  For non-spherical
    D, e^T w = 0.
    """

    status: str
    w: np.ndarray | None
    etw: float | None
    radius: float | None
    unit_spherical: bool
    residual: float


def spherical_certificate(D: Edm) -> SphericalCertificate:
    """Fit a sphere to the points of D and certify their sphericity by a solution w of D w = e.

    The fit is Gower's (1985): with U L U^T the pairs of the centroid Gram
    matrix B above its rank cut (the eigensystem validation decided) and
    g = diag(B), D = g e^T + e g^T - 2B, and the affine weights
    alpha = e/n + z with z = 1/2 U L^-1 U^T g give D alpha = 2 rho^2 e + r,
    where r, the part of g outside span(U, e), is zero exactly when the
    points lie on a sphere, of radius rho.  z is refined once against the
    full D (`_certify`), and r and 2 rho^2 = mean(D alpha) are read off the
    full D, so B's dropped eigenvalues count towards r.

    The points are spherical when max|r| <= tol.solve * 2 rho^2, that is
    when w = alpha / (2 rho^2) solves D w = e within tol.solve; w lies in
    span(U, e), D's column space, so it is the minimum-norm solution, and
    the radius is rho.  Otherwise they are non-spherical, and w = r / |r|^2
    (r with its parts along e and U removed) is the witness: e^T w = 0 and
    D w = e, up to rounding that grows as |r| shrinks.  The rule does not
    read scale(D): max|r| / 2 rho^2 is the same for D and cD, and the rank
    cut tol.rank * scale(B) moves with cB, as scale is max|entry| with no
    floor, so the verdict holds at every scale of normal floats (with
    subnormal entries, 0.5 / L overflows).  Rank 0 (no points apart, or
    n = 1) has no sphere to fit and reads "e-not-in-colspace" with residual
    1; with no points at all the status is "non-spherical" with an empty w.
    `residual` is max|D w - e| against the full D.  No eigendecomposition
    is made.

    The fit runs once per `Edm`; later calls return the same certificate.
    It reads `gram_eig` as it stands: an Edm with no certificate yet is
    centered at the centroid, as `validate_edm` and the edgeless
    representation build it.  An Edm built by `_circumcenter_edm` holds the
    certificate of the w its construction checked, with no fit: where D is
    singular, one solution of D w = e rather than the minimum-norm one,
    with the same e^T w.
    """
    if D._certificate is None:
        D._certificate = _certify(D.dist2[None], [D.gram_eig], D.tol)[0]
    return D._certificate


def _certify(D: np.ndarray, grams: list, tol: Tolerances) -> list:
    """The certificate of each matrix of a (T, n, n) stack D by the sphere fit (`spherical_certificate`).

    `grams` holds each matrix's Gram eigensystem at the centroid, all of
    one rank; the products run over the stack, so each matrix gets the bits
    of a stack of one.  U^T e = 0 holds only to the accuracy of U, about
    eps scale(B) / L for the pair of eigenvalue L, so the fit's vectors are
    taken off e before and after each product with U.
    """
    if not grams:
        return []
    n, k = D.shape[-1], grams[0].rank
    if k == 0:
        cert = (SphericalCertificate(NON_SPHERICAL, np.zeros(0), 0.0, None, False, 0.0) if n == 0 else
                SphericalCertificate(E_NOT_IN_COLSPACE, None, None, None, False, 1.0))
        return [cert] * len(grams)
    V = grams[0].vectors[None] if len(grams) == 1 else np.stack([es.vectors for es in grams])
    U, Ut = V[..., :k], np.swapaxes(V[..., :k], -1, -2)
    L = np.stack([es.values[:k] for es in grams])

    def along_u(v, weights):  # U diag(weights) U^T v, per matrix
        return (U @ (weights * (Ut @ v[..., None])[..., 0])[..., None])[..., 0]

    def off_e(v):
        return v - v.mean(axis=-1, keepdims=True)

    def times_d(v):
        return (D @ v[..., None])[..., 0]

    u = D.mean(axis=-1)
    z = off_e(along_u(off_e(u), 0.5 / L))  # g = diag(B) = u - mean(u) / 2
    z += off_e(along_u(off_e(u + times_d(z)), 0.5 / L))  # g + D z, up to a multiple of e
    alpha = z + 1.0 / n
    r = times_d(alpha)
    two_rho2 = r.mean(axis=-1, keepdims=True)
    r -= two_rho2
    spherical = _within(np.abs(r).max(axis=-1), tol.solve * two_rho2[:, 0])[0]
    # only the rows off the sphere take the witness (a spherical r may be too small to invert); it lies
    # outside span(U, e) to rounding of |r|, not of |g|
    r = (r - along_u(r, 1.0))[~spherical]
    p = np.frexp(np.abs(r).max(axis=-1, keepdims=True))[1]  # max|r| / 2^p is in [1/2, 1): |.|^2 cannot overflow
    r = np.ldexp(r, -p)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = alpha / two_rho2
        w[~spherical] = off_e(np.ldexp(r / (r * r).sum(axis=-1, keepdims=True), -p))
    residual = np.abs(times_d(w) - 1.0).max(axis=-1)
    fields = zip(spherical.tolist(), w, w.sum(axis=-1).tolist(), residual.tolist(),
                 np.sqrt(0.5 * two_rho2[:, 0]).tolist())
    return [SphericalCertificate(SPHERICAL, wt, etw, rho, _unit_radius(etw, tol)[0], res)
            if on_sphere else SphericalCertificate(NON_SPHERICAL, wt, etw, None, False, res)
            for on_sphere, wt, etw, res, rho in fields]


def _circumcenter_edm(D: np.ndarray, w: np.ndarray, blocks: list, lone: np.ndarray,
                      unit: float, tol: Tolerances) -> Edm:
    """The Edm of a unit spherical D centered at its circumcenter 2w, with no eigendecomposition.

    There the Gram matrix is B = E - D/2 = I - Delta, block diagonal, with
    the eigensystem of the `blocks`, stacks (rows, cols, values, vectors):
    rows (T, m) of D, the columns (T, m) their pairs take before sorting,
    and (T, m), (T, m, m) eigenpairs, each of rank m - 1 (certified by
    `spectral._perron_blocks`); each `lone` row (a zero row of Delta) adds
    eigenvalue 1 in the last columns, which the rank rule at `unit`, the
    scale, must count, so the rank must be n less the block count.  Sorted
    descending (stably: ties keep their column order), each block's vectors
    go straight to their sorted columns.  Checked as `_circumcenter_edms`
    checks; ConsistencyError on failure.
    """
    n = D.shape[0]
    values = np.ones(n)
    for _, cols, vals, _ in blocks:
        values[cols] = vals
    order = np.argsort(-values, kind="stable")
    place = np.empty(n, dtype=int)
    place[order] = np.arange(n)
    vectors = np.zeros((n, n))
    for rows, cols, _, vecs in blocks:
        vectors[_block_index(rows, place[cols])] = vecs
    vectors[lone, place[n - lone.size:]] = 1.0
    expected = n - sum(len(rows) for rows, *_ in blocks)
    edm = _circumcenter_edms(D[None], [w], values[order][None], vectors[None], [unit], expected, tol)[0]
    if isinstance(edm, Exception):
        raise edm
    return edm


def _circumcenter_edms(D: np.ndarray, w, values: np.ndarray, vectors: np.ndarray, units, expected: int,
                       tol: Tolerances) -> list:
    """Per unit spherical D[t] of a (T, n, n) stack: its Edm at the circumcenter 2 w[t], or an error.

    The Gram matrix there, I - Delta, has the descending eigensystem
    (values[t], vectors[t]) at scale units[t], whose blocks passed the PSD
    and rank rules in `spectral._perron_blocks`; the rank rule gives the
    embedding dimension.  `w` is a (T, n) array or T vectors.  Over the
    stack, max|D w - e| <= tol.solve and |2 e^T w - 1| <= tol.unit must
    hold, and the rank must be `expected`; a matrix gets the
    ConsistencyError of its first failing check, else the unit spherical
    certificate of w[t], of radius (2 e^T w)^(-1/2).
    """
    W = np.asarray(w)
    units = np.asarray(units, dtype=float)
    residual = np.max(np.abs(np.matmul(D, W[:, :, None])[:, :, 0] - 1.0), axis=1, initial=0.0)
    etw = W.sum(axis=1)
    rank = np.count_nonzero(_rank_stack(values, units, tol), axis=1)
    out = _first_failures([
        (_within(residual, tol.solve)[0], lambda t: f"circumcenter weights give max|D w - e| = {residual[t]:g}"),
        (_unit_radius(etw, tol)[0], lambda t: f"circumcenter weights give 2 e^T w = {2.0 * etw[t]:.17g}, expected 1"),
        (rank == expected, lambda t: f"I - Delta has rank {rank[t]}, expected {expected}"),
    ], D.shape[0])
    centering = 2.0 * W
    fields = zip(rank.tolist(), units.tolist(), min_offdiagonal(D).tolist(), etw.tolist(), residual.tolist())
    for t, (r, unit, min_off, e, res) in enumerate(fields):
        if out[t] is None:
            gram = EigenSystem(values[t], vectors[t], tol, unit)
            out[t] = edm = Edm(dist2=D[t], embedding_dim=r, tol=tol, gram_eig=gram,
                               centering=centering[t], min_offdiagonal=min_off)
            edm._certificate = SphericalCertificate(SPHERICAL, w[t], e, float(np.sqrt(0.5 / e)), True, res)
    return out


@dataclass(eq=False)
class DeltaMatrix:
    """The shift Delta = D/2 + I - E, with the source's min off-diagonal.

    Delta has an exactly zero diagonal and is entrywise nonnegative iff every
    squared distance is >= 2.
    """

    delta: np.ndarray
    source_min_offdiag: float


def delta_of(D: Edm) -> DeltaMatrix:
    """Delta = D/2 + I - E by exact entrywise arithmetic."""
    delta = D.dist2 / 2.0
    delta -= 1.0  # off the diagonal d/2 + 0 - 1 = d/2 - 1 exactly
    np.fill_diagonal(delta, 0.0)  # 0/2 + 1 - 1 = 0
    return DeltaMatrix(delta=delta, source_min_offdiag=D.min_offdiagonal)


def nonnegative_delta(dm: DeltaMatrix, tol: Tolerances) -> np.ndarray:
    """Delta with every entry of magnitude <= tol.sign/2 set to 0, on both sides of zero.

    Delta_ij = (d_ij - 2)/2, so these are the pairs with |d_ij - 2| <= tol.sign,
    which the sign rule reads as orthogonal; Delta's support graph is the
    nonzero pattern of the result (`_delta_support`), so it agrees with it.
    Valid only when the source min off-diagonal is >= 2 - tol.sign, so
    every negative entry is one of them; otherwise the Perron reasoning
    does not apply and PreconditionError is raised.
    """
    if not _perron_hypothesis(dm.source_min_offdiag, tol)[0]:
        raise PreconditionError(
            f"min off-diagonal {dm.source_min_offdiag:.17g} < 2 - tol.sign; Delta is not nonnegative"
        )
    return np.where(_within(dm.delta, tol.sign / 2.0, above=True, strict=True, slack=False)[0], dm.delta, 0.0)


@dataclass(eq=False)
class DeltaDimReport:
    """Embedding dimension through the top of Delta's spectrum, with checks.

    When `used_perron` is False the min off-diagonal fell below 2 and the
    dimension is the rank(B) fallback; the spectral fields are then None.
    """

    dimension: int
    used_perron: bool
    lambda_max: float | None
    multiplicity: int | None
    lambda_max_ok: bool
    eigvec_residual: float | None
    eigvec_ok: bool
    note: str | None = None


def embedding_dim_via_delta(D: Edm, cert: SphericalCertificate) -> DeltaDimReport:
    """Embedding dimension as n - multiplicity(lambda_max(Delta)).

    Requires a unit spherical certificate: for such D with all off-diagonals
    >= 2, Delta is nonnegative with top eigenvalue 1 and eigenvector w, and
    the dimension is n minus the top multiplicity.  The report carries both
    checks (lambda_max within tol.cluster of 1, max|Delta w - w| within
    tol.solve).  When some off-diagonal drops below 2 the Perron argument is
    inapplicable and the report falls back to rank(B) with a note.

    lambda_max(Delta) and its multiplicity are read off Delta's irreducible
    blocks (`_perron_top`); the reported lambda_max is Delta's computed top,
    so `lambda_max_ok` checks it.

    Raises
    ------
    PreconditionError
        If `cert` is not a unit spherical certificate.
    """
    tol = D.tol
    if cert.status != SPHERICAL or not cert.unit_spherical:
        raise PreconditionError("embedding_dim_via_delta requires a unit spherical certificate")
    if not _perron_hypothesis(D.min_offdiagonal, tol)[0]:  # decided before Delta is formed
        return DeltaDimReport(
            dimension=D.embedding_dim, used_perron=False,
            lambda_max=None, multiplicity=None, lambda_max_ok=False,
            eigvec_residual=None, eigvec_ok=False,
            note=(
                f"min off-diagonal {D.min_offdiagonal:.17g} < 2: Perron reasoning "
                "does not apply; reporting rank of the centered Gram matrix instead"
            ),
        )
    dm, delta, split = _delta_support(D)
    lambda_max, multiplicity = _perron_top(delta, split, tol)
    residual = float(np.max(np.abs(dm.delta @ cert.w - cert.w)))
    return DeltaDimReport(
        dimension=D.n - multiplicity,
        used_perron=True,
        lambda_max=lambda_max,
        multiplicity=multiplicity,
        lambda_max_ok=_top_at_one(lambda_max, tol)[0],
        eigvec_residual=residual,
        eigvec_ok=_within(residual, tol.solve)[0],
    )


def _delta_support(D: Edm) -> tuple:
    """(Delta of D, Delta by `nonnegative_delta`, the split of its support graph): what the Perron steps read.

    The support is the nonzero pattern of the snapped Delta, so tol.sign
    alone decides which pairs are orthogonal, and the split is Delta's exact
    support: its blocks are Delta's irreducible blocks.  PreconditionError
    when D's least off-diagonal entry is below 2 - tol.sign.
    """
    from .graphs import _split  # here, so that a run that forms no Delta loads no graph code

    delta = nonnegative_delta(dm := delta_of(D), D.tol)
    return dm, delta, _split(len(delta), *np.divmod(np.flatnonzero(delta != 0.0), len(delta)))


def _perron_top(delta: np.ndarray, split, tol: Tolerances) -> tuple[float, int]:
    """lambda_max of a nonnegative Delta and its multiplicity, from the irreducible blocks of its support `split`.

    Each nontrivial component's block is decomposed with the others of its
    order (`_perron_blocks`, unchecked); each zero row adds eigenvalue 0.
    """
    groups = _perron_blocks(delta, split, tol, check=False)
    return _union_top([g.values for g in groups], len(split.isolated), tol.cluster)


def unit_simplex_gamma(n: int) -> float:
    """The edge length gamma = 2n/(n-1) putting the regular simplex on a unit sphere."""
    if n < 2:
        raise PreconditionError("unit simplex scaling needs n >= 2")
    return 2.0 * n / (n - 1.0)


def gen_regular_simplex(n: int, gamma: float, tol: Tolerances = DEFAULT_TOL) -> Edm:
    """EDM of the regular simplex: gamma * (E - I), circumradius sqrt(gamma(n-1)/(2n))."""
    if n < 1:
        raise PreconditionError(f"order must be >= 1, got {n}")
    if not gamma > 0:
        raise PreconditionError(f"gamma must be positive, got {gamma}")
    D = gamma * (np.ones((n, n)) - np.eye(n))
    return require_edm(D, tol)


def gen_unit_simplex(n: int, tol: Tolerances = DEFAULT_TOL) -> Edm:
    """Regular simplex scaled to circumradius 1 (gamma = 2n/(n-1))."""
    return gen_regular_simplex(n, unit_simplex_gamma(n), tol)


def gen_crosspolytope(r: int, tol: Tolerances = DEFAULT_TOL) -> Edm:
    """EDM of the regular r-crosspolytope, vertices +-e_1, ..., +-e_r.

    2r x 2r with antipodal pairs on rows (2i-1, 2i): squared distance 4
    within a pair, 2 across pairs.  Unit spherical with embedding dimension r.
    """
    if r < 1:
        raise PreconditionError(f"crosspolytope dimension must be >= 1, got {r}")
    return require_edm(_crosspolytope_dist2(r), tol)


def _crosspolytope_dist2(r: int) -> np.ndarray:
    """The canonical crosspolytope pattern: 4 within each antipodal pair, 2 across pairs."""
    n = 2 * r
    pair = 2.0 * (np.ones((2, 2)) - np.eye(2))  # adds 2 on top of the global 2
    return 2.0 * (np.ones((n, n)) - np.eye(n)) + np.kron(np.eye(r), pair)


def gen_random_spherical(n: int, r: int, seed, tol: Tolerances = DEFAULT_TOL):
    """Sample n points uniformly on the unit (r-1)-sphere and take their EDM.

    Standard-normal r-vectors from the seeded generator, normalized to unit
    length; deterministic per seed.  Requires n >= r + 1 so the affine hull
    is generically full and the circumcenter is the origin.

    Returns
    -------
    (Edm, ndarray)
        The validated squared-distance matrix and the (n, r) point grid.
    """
    if n <= r:
        raise PreconditionError(f"need n >= r + 1 points, got n={n}, r={r}")
    if r < 1:
        raise PreconditionError(f"sphere dimension must be >= 1, got r={r}")
    X = _sphere_points([np.random.default_rng(seed)], n, r)[0]
    edm = validate_edm(_sphere_dist2(X), tol)
    if isinstance(edm, EdmRejection):
        raise _sample_rejected(edm)
    return edm, X


def _sphere_points(rngs: list, n: int, r: int) -> np.ndarray:
    """Per generator, n points drawn uniformly on the unit (r-1)-sphere, as a (len(rngs), n, r) stack.

    The rows are standard-normal draws normalized to unit length; a row
    of norm below 1e-12 is drawn again from its generator.
    """
    X = np.stack([rng.standard_normal((n, r)) for rng in rngs])
    norms = np.linalg.norm(X, axis=-1)
    for t in np.flatnonzero(np.any(norms < 1e-12, axis=-1)):  # probability ~0; keep determinism per seed
        while np.any(norms[t] < 1e-12):
            bad = norms[t] < 1e-12
            X[t, bad] = rngs[t].standard_normal((int(bad.sum()), r))
            norms[t] = np.linalg.norm(X[t], axis=1)
    X /= norms[..., None]
    return X


_DIFF_BLOCK_BYTES = 1 << 20  # the differences `_sphere_dist2` holds at a time


def _sphere_dist2(X: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of X: (..., n, r) -> (..., n, n).

    The differences are formed a block of rows at a time, at most about
    `_DIFF_BLOCK_BYTES` of them and at least one row, not as the whole
    n x n x r tensor, and only for the upper triangle: the block of rows
    i:i+b meets the columns j >= i, and the transpose of its part right of
    the block fills the rows below it.  Each pair's sum runs over its own r
    differences, and x_i - x_j is exactly -(x_j - x_i), so every block size
    gives the same bits as the whole tensor, and each matrix of a stack has
    the bits of its own call; when one block covers all rows, as for the
    Rankin sampler's chunks, it is the whole tensor.
    """
    n = X.shape[-2]
    D = np.empty(X.shape[:-1] + (n,))
    row_bytes = X.size // max(n, 1) * n * X.itemsize  # one row's differences, over the stack
    rows = max(1, _DIFF_BLOCK_BYTES // max(row_bytes, 1))
    for i in range(0, n, rows):
        diff = X[..., i:i + rows, None, :] - X[..., None, i:, :]
        D[..., i:i + rows, i:] = np.einsum("...ijk,...ijk->...ij", diff, diff)  # bitwise symmetric, zero diagonal
        del diff  # one block alive at a time
        D[..., i + rows:, i:i + rows] = np.swapaxes(D[..., i:i + rows, i + rows:], -1, -2)
    return D


def _sample_rejected(rejection: EdmRejection) -> ConsistencyError:
    return ConsistencyError(
        f"sampled sphere configuration rejected: {rejection.reason} ({rejection.detail})"
    )
