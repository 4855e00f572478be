"""Euclidean distance matrix certification and recovery.

A matrix D of squared pairwise distances is an EDM exactly when its
double-centered transform B = -1/2 (I - e s^T) D (I - s e^T), for any s with
e^T s = 1, is positive semidefinite; rank(B) is then the embedding dimension.
This module certifies that, recovers Gram/configuration factors, certifies
sphericity through the solve D w = e (circumradius (2 e^T w)^(-1/2)), forms
the shifted matrix Delta = D/2 + I - E whose top eigenvalue controls the
embedding dimension of unit spherical EDMs, and generates canonical
configurations (regular simplices, crosspolytopes, random sphere samples).

The PSD and rank rules live in `spectral` (`EigenSystem.psd`,
`EigenSystem.rank_mask`); `validate_edm` applies both to its one eigensystem
of B, which the returned `Edm` keeps for later stages.  The sphericity solve
reads it too: D = g e^T + e g^T - 2B with g = diag(B) (Gower 1985), so
D w = e is solved on an orthonormal basis of e, g and B's eigenvectors above
the rank cut, and its residual is checked against the full D.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConsistencyError, PreconditionError
from .spectral import EigenSystem, eig, perron
from .tolerances import DEFAULT_TOL, Tolerances, scale

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
    eigensystem of the centroid Gram matrix B that decided the PSD verdict),
    `embedding_dim` (the rank of B by that eigensystem's rank rule),
    `min_offdiagonal` and the `tol` record all were decided with; plus the
    sphericity certificate, solved on the first `spherical_certificate` call.
    The fields are read-only: mutating one leaves the others describing a
    different matrix.
    """

    dist2: np.ndarray
    embedding_dim: int
    tol: Tolerances
    gram_eig: EigenSystem
    min_offdiagonal: float
    _certificate: SphericalCertificate | None = field(default=None, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.dist2.shape[0]


@dataclass(eq=False)
class EdmRejection:
    """Why a candidate matrix is not an EDM; falsy so callers can branch on it."""

    reason: str  # not-square | not-finite | not-symmetric | nonzero-diagonal | negative-entry | not-psd
    detail: str
    witness_eigenvalue: float | None = None
    witness_vector: np.ndarray | None = None

    def __bool__(self) -> bool:
        return False


def min_offdiagonal(M: np.ndarray) -> float:
    """Smallest off-diagonal entry; +inf for an order-1 matrix."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n < 2:
        return float("inf")
    mask = ~np.eye(n, dtype=bool)
    return float(M[mask].min())


def _centroid(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n) if n else np.zeros(0)


def centering_gram(D: np.ndarray, s: np.ndarray) -> np.ndarray:
    """B = -1/2 (I - e s^T) D (I - s e^T), the Gram matrix of D centered at s.

    For symmetric D this is B_ij = -1/2 ((D_ij - (u_i + u_j)) + s^T u) with
    u = D s: O(n^2), and exactly symmetric, since D is and u_i + u_j = u_j + u_i.
    """
    D = np.asarray(D, dtype=float)
    s = np.asarray(s, dtype=float).reshape(-1)
    u = D @ s
    B = u[:, None] + u[None, :]
    np.subtract(D, B, out=B)
    B += s @ u
    B *= -0.5
    return B


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
        Acceptance requires: symmetry, zero diagonal (within tol.psd *
        scale), nonnegative off-diagonal entries, and PSD double-centering
        with s = e/n.  Rejection is a value carrying the violated condition
        and, for the PSD case, the offending eigenpair as witness.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return EdmRejection("not-square", f"shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        return EdmRejection("not-finite", "matrix contains NaN or Inf entries")
    s = scale(M)
    if M.size:
        skew = float(np.max(np.abs(M - M.T)))
        if skew > tol.symmetry * s:
            return EdmRejection("not-symmetric", f"max|M - M^T| = {skew:g}")
    D = np.tril(M) + np.tril(M, -1).T
    n = D.shape[0]
    diag_max = float(np.max(np.abs(np.diag(D)))) if n else 0.0
    if diag_max > tol.psd * s:
        return EdmRejection("nonzero-diagonal", f"max|diagonal| = {diag_max:g}")
    np.fill_diagonal(D, 0.0)
    off_min = min_offdiagonal(D)  # +inf below order 2
    if off_min < -tol.psd * s:
        return EdmRejection("negative-entry", f"min off-diagonal = {off_min:g}")
    es = eig(centering_gram(D, _centroid(n)), tol)
    psd = es.psd()
    if not psd:
        return EdmRejection(
            "not-psd",
            f"centered Gram has eigenvalue {psd.min_eigenvalue:g}",
            witness_eigenvalue=psd.min_eigenvalue,
            witness_vector=psd.witness,
        )
    return Edm(dist2=D, embedding_dim=es.rank, tol=tol, gram_eig=es, min_offdiagonal=off_min)


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
    sum_i s_i p_i = 0 for the stored centering vector s.
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
        sphere's center), else e/n.

    Returns
    -------
    GramFactor
        `config` keeps the eigenvector columns with eigenvalue above the
        rank cut, ordered by descending eigenvalue and sign-normalized, each
        scaled by the eigenvalue's square root.

    Raises
    ------
    PreconditionError
        If e^T s deviates from 1 beyond tol.solve.
    ConsistencyError
        If the centered matrix fails the PSD test (cannot factor).
    """
    tol = D.tol
    n = D.n
    centroid = _centroid(n)
    if s is None:
        cert = spherical_certificate(D)
        s = 2.0 * cert.w if cert.unit_spherical else centroid
    s = np.asarray(s, dtype=float).reshape(-1)
    if s.shape[0] != n:
        raise PreconditionError(f"centering vector length {s.shape[0]} != order {n}")
    if n and abs(float(s.sum()) - 1.0) > tol.solve:
        raise PreconditionError(f"centering vector must satisfy e^T s = 1, got {s.sum():.17g}")
    B = centering_gram(D.dist2, s)
    # At the centroid B is bit for bit the matrix validate_edm decomposed.
    es = D.gram_eig if np.array_equal(s, centroid) else eig(B, tol)
    psd = es.psd()
    if not psd:
        raise ConsistencyError(
            f"centered matrix of a validated EDM is not PSD (eigenvalue {psd.min_eigenvalue:g})"
        )
    keep = es.rank_mask()
    P = es.vectors[:, keep] * np.sqrt(es.values[keep])
    return GramFactor(gram=B, config=P, centering=s)


@dataclass(eq=False)
class SphericalCertificate:
    """Outcome of the sphericity test D w = e.

    status is one of "spherical", "non-spherical", "e-not-in-colspace" (and
    CLI reports use "not-edm" for rejected inputs).  For spherical D the
    circumradius is (2 e^T w)^(-1/2); `unit_spherical` applies the
    circumradius-1 predicate |2 e^T w - 1| <= tol.unit.
    """

    status: str
    w: np.ndarray | None
    etw: float | None
    radius: float | None
    unit_spherical: bool
    residual: float


def spherical_certificate(D: Edm) -> SphericalCertificate:
    """Solve D w = e and classify the configuration's sphericity.

    w is the minimum-norm solution under D's own rank cut tol.rank *
    scale(D).  It is found on an orthonormal basis Q of e, g = diag(B) and
    the eigenvectors of the Gram matrix B above its rank cut (kept by
    validation), whose span holds D's column space since D = g e^T + e g^T
    - 2B: one eigendecomposition of Q^T D Q, of order at most rank(B) + 2
    (Q is the identity when rank(B) + 2 >= n).  The residual max|D w - e|
    is measured against the full D.

    Any nonzero EDM has e in its column space, so "e-not-in-colspace" only
    arises for the all-zero (all-points-coincident) degenerate input; it is
    still checked defensively through that residual (above tol.solve *
    scale(D)).  A consistent solve classifies by e^T w: spherical (with
    radius) when e^T w exceeds the PSD slack, non-spherical otherwise.

    The solve runs once per `Edm`; later calls return the same certificate.
    """
    if D._certificate is None:
        D._certificate = _solve_certificate(D)
    return D._certificate


def _solve_certificate(D: Edm) -> SphericalCertificate:
    tol = D.tol
    e = np.ones(D.n)
    Q = _certificate_basis(D)
    M = D.dist2 if Q.shape[1] == D.n else Q.T @ (D.dist2 @ Q)  # Q = I: no product by it
    es = replace(eig(0.5 * (M + M.T), tol), scale=scale(D.dist2))  # D's own rank cut
    keep = es.rank_mask()
    inv = np.zeros_like(es.values)
    inv[keep] = 1.0 / es.values[keep]
    w = Q @ (es.vectors @ (inv * (es.vectors.T @ (Q.T @ e))))
    residual = float(np.max(np.abs(D.dist2 @ w - e))) if D.n else 0.0
    if residual > tol.solve * es.scale:
        return SphericalCertificate(
            status=E_NOT_IN_COLSPACE, w=None, etw=None, radius=None,
            unit_spherical=False, residual=residual,
        )
    etw = float(w.sum())
    if etw <= tol.psd:
        return SphericalCertificate(
            status=NON_SPHERICAL, w=w, etw=etw, radius=None,
            unit_spherical=False, residual=residual,
        )
    radius = float(np.sqrt(1.0 / (2.0 * etw)))
    return SphericalCertificate(
        status=SPHERICAL, w=w, etw=etw, radius=radius,
        unit_spherical=abs(2.0 * etw - 1.0) <= tol.unit, residual=residual,
    )


def _certificate_basis(D: Edm) -> np.ndarray:
    """Orthonormal columns spanning e, B's eigenvectors above the rank cut and g = diag(B).

    D = g e^T + e g^T - 2B (Gower 1985), so these hold the column space of
    D.  e and g are orthogonalized in turn against the columns before them,
    in two passes; a vector that loses more than 1 - 1/sqrt(2) of its norm in
    the second pass already lay in their span up to rounding and is dropped
    (Kahan and Parlett's "twice is enough").  With rank(B) + 2 >= n the
    basis is the identity.
    """
    n = D.n
    es = D.gram_eig
    Q = es.vectors[:, es.rank_mask()]
    if Q.shape[1] + 2 >= n:
        return np.eye(n)
    u = D.dist2.mean(axis=1)
    g = u - 0.5 * u.mean()  # diag(B) at the centroid, as D has a zero diagonal
    for v in (np.ones(n), g):
        h1 = v - Q @ (Q.T @ v)
        h2 = h1 - Q @ (Q.T @ h1)
        norm = float(np.linalg.norm(h2))
        if norm > float(np.linalg.norm(h1)) / np.sqrt(2.0):
            Q = np.column_stack([Q, h2 / norm])
    return Q


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
    n = D.n
    delta = D.dist2 / 2.0 + np.eye(n) - np.ones((n, n))
    np.fill_diagonal(delta, 0.0)  # 0/2 + 1 - 1 is exact anyway; make it explicit
    return DeltaMatrix(delta=delta, source_min_offdiag=D.min_offdiagonal)


def nonnegative_delta(dm: DeltaMatrix, tol: Tolerances) -> np.ndarray:
    """Delta with rounding-level negatives snapped to 0.

    Valid only when the source min off-diagonal is >= 2 - tol.sign, so every
    negative entry is at most tol.sign/2 in magnitude; larger negatives mean
    the Perron reasoning does not apply and raise PreconditionError.
    """
    if dm.source_min_offdiag < 2.0 - tol.sign:
        raise PreconditionError(
            f"min off-diagonal {dm.source_min_offdiag:.17g} < 2 - tol.sign; Delta is not nonnegative"
        )
    return np.maximum(dm.delta, 0.0)


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

    Raises
    ------
    PreconditionError
        If `cert` is not a unit spherical certificate.
    """
    tol = D.tol
    if cert.status != SPHERICAL or not cert.unit_spherical:
        raise PreconditionError("embedding_dim_via_delta requires a unit spherical certificate")
    dm = delta_of(D)
    if dm.source_min_offdiag < 2.0 - tol.sign:
        return DeltaDimReport(
            dimension=D.embedding_dim, used_perron=False,
            lambda_max=None, multiplicity=None, lambda_max_ok=False,
            eigvec_residual=None, eigvec_ok=False,
            note=(
                f"min off-diagonal {dm.source_min_offdiag:.17g} < 2: Perron reasoning "
                "does not apply; reporting rank of the centered Gram matrix instead"
            ),
        )
    pd = perron(nonnegative_delta(dm, tol), tol)
    residual = float(np.max(np.abs(dm.delta @ cert.w - cert.w)))
    return DeltaDimReport(
        dimension=D.n - pd.multiplicity,
        used_perron=True,
        lambda_max=pd.lambda_max,
        multiplicity=pd.multiplicity,
        lambda_max_ok=abs(pd.lambda_max - 1.0) <= tol.cluster,
        eigvec_residual=residual,
        eigvec_ok=residual <= tol.solve,
    )


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
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, r))
    norms = np.linalg.norm(X, axis=1)
    while np.any(norms < 1e-12):  # probability ~0; keep determinism per seed
        bad = norms < 1e-12
        X[bad] = rng.standard_normal((int(bad.sum()), r))
        norms = np.linalg.norm(X, axis=1)
    X /= norms[:, None]
    D = np.empty((n, n))
    for i in range(0, n, 16):  # 16 rows of differences at a time, not an n x n x r tensor
        diff = X[i:i + 16, None, :] - X[None, :, :]
        D[i:i + 16] = np.einsum("ijk,ijk->ij", diff, diff)  # bitwise symmetric, zero diagonal
        del diff  # one block alive at a time
    edm = validate_edm(D, tol)
    if isinstance(edm, EdmRejection):
        raise ConsistencyError(f"sampled sphere configuration rejected: {edm.reason} ({edm.detail})")
    return edm, X
