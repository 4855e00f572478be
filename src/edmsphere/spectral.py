"""Dense symmetric spectral primitives.

Everything downstream (EDM certification, Perron data of nonnegative
matrices, embedding dimensions) consumes the five operations here:
`eig`, `is_psd`, `numerical_rank`, `perron` and `solve_linear`.  All of them
are pure functions of their inputs and deterministic for identical input
bits, so results are safe to share across threads.

The PSD rule (slack ``tol.psd * scale``), the rank rule (cut
``tol.rank * scale``) and the cluster rule (band ``tol.cluster`` below the
top) live here and nowhere else, as `EigenSystem.psd`, `.rank_mask` and
`.multiplicity`; every caller holding an eigensystem reads them.

Matrices enter as plain ndarrays.  `as_symmetric` is the constructor for the
"symmetric matrix" contract: it checks finiteness and near-symmetry, then
mirrors the lower triangle so the stored matrix is exactly symmetric.
Callers inside the package that build a matrix exactly symmetric (a double
centering, 0.5 (M + M^T), a principal block of an adjacency matrix) skip it
and call `_decompose`, which checks finiteness only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpectralError
from .tolerances import DEFAULT_TOL, Tolerances, scale

__all__ = [
    "as_symmetric",
    "sign_normalize",
    "EigenSystem",
    "eig",
    "PsdResult",
    "is_psd",
    "numerical_rank",
    "PerronData",
    "perron",
    "LinearSolution",
    "solve_linear",
]


def as_symmetric(M, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Validate and canonicalize a symmetric matrix.

    Checks that `M` is square and finite and that max|M - M^T| does not
    exceed ``tol.symmetry * scale(M)``, then returns a new array whose upper
    triangle is the mirror of the lower one, so symmetry holds exactly.

    Raises
    ------
    ValueError
        If `M` is not square, contains NaN/Inf, or is asymmetric beyond
        tolerance.
    """
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError("matrix contains NaN or Inf entries")
    if M.size:
        skew = float(np.max(np.abs(M - M.T)))
        if skew > tol.symmetry * scale(M):
            raise ValueError(f"matrix is not symmetric (max|M - M^T| = {skew:g})")
    lower = np.tril(M)
    return lower + np.tril(M, -1).T


def sign_normalize(v: np.ndarray) -> np.ndarray:
    """Flip `v` so its largest-magnitude entry is positive (ties: lowest index)."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return v.copy()
    lead = int(np.argmax(np.abs(v)))
    return -v if v[lead] < 0 else v.copy()


@dataclass(eq=False)
class EigenSystem:
    """Full spectral decomposition of a symmetric matrix.

    `values` are non-increasing; `vectors[:, i]` is the orthonormal
    eigenvector for `values[i]`, sign-normalized for determinism.
    `tolerance` records the thresholds used downstream and `scale` is
    scale(M) of the decomposed matrix, the unit of the PSD slack and the
    rank cut.
    """

    values: np.ndarray
    vectors: np.ndarray
    tolerance: Tolerances
    scale: float

    @property
    def order(self) -> int:
        return self.values.shape[0]

    def psd(self) -> PsdResult:
        """The PSD rule: min eigenvalue >= -tol.psd * scale; witness the violation otherwise."""
        lam_min = float(self.values[-1]) if self.order else 0.0
        if lam_min >= -self.tolerance.psd * self.scale:
            return PsdResult(ok=True, min_eigenvalue=lam_min)
        return PsdResult(ok=False, min_eigenvalue=lam_min, witness=self.vectors[:, -1].copy())

    def rank_mask(self) -> np.ndarray:
        """The rank rule: eigenvalues beyond the cut tol.rank * scale count as dimensions.

        Magnitude decides, except for a matrix the PSD rule accepts: its
        negative eigenvalues are rounding noise within the PSD slack, so
        only eigenvalues above the cut count.
        """
        cut = self.tolerance.rank * self.scale
        return self.values > cut if self.psd() else np.abs(self.values) > cut

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.rank_mask()))

    def multiplicity(self, band: float | None = None) -> int:
        """The cluster rule: count eigenvalues >= the largest - band (default tol.cluster)."""
        band = self.tolerance.cluster if band is None else band
        return int(np.count_nonzero(self.values >= self.values[0] - band))

    def reconstruction_residual(self, M) -> float:
        """max|V diag(values) V^T - M|, the invariant checked by the test suite."""
        rebuilt = (self.vectors * self.values) @ self.vectors.T
        return float(np.max(np.abs(rebuilt - np.asarray(M, dtype=float)))) if self.order else 0.0


def eig(M, tol: Tolerances = DEFAULT_TOL) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Parameters
    ----------
    M : (n, n) array_like
        Symmetric finite matrix (canonicalized via `as_symmetric`).
    tol : Tolerances
        Threshold record stored on the result for downstream use.

    Returns
    -------
    EigenSystem
        Eigenvalues in non-increasing order with matching orthonormal
        eigenvector columns.  Each column's largest-magnitude entry is made
        positive so identical input bits give identical output bits.

    Raises
    ------
    SpectralError
        If the underlying solver fails to converge.
    """
    return _decompose(as_symmetric(M, tol), tol)


def _decompose(S: np.ndarray, tol: Tolerances) -> EigenSystem:
    """`eig` of a matrix that is already exactly symmetric: canonicalized or symmetric by construction.

    Only finiteness is checked again (ValueError as in `as_symmetric`): a
    matrix built from finite data, such as a Gram matrix of a finite D with
    entries near the float maximum, can still overflow.
    """
    if S.size and not np.all(np.isfinite(S)):
        raise ValueError("matrix contains NaN or Inf entries")
    try:
        values, vectors = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigendecomposition failed to converge: {exc}") from exc
    values = values[::-1].copy()
    vectors = vectors[:, ::-1]
    if vectors.size:  # sign_normalize on every column at once
        lead = np.argmax(np.abs(vectors), axis=0)
        vectors = vectors * np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    return EigenSystem(values=values, vectors=vectors, tolerance=tol, scale=scale(S))


@dataclass(eq=False)
class PsdResult:
    """Outcome of a PSD test; on failure carries the offending eigenpair."""

    ok: bool
    min_eigenvalue: float
    witness: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_psd(M, tol: Tolerances = DEFAULT_TOL) -> PsdResult:
    """Test min eigenvalue >= -tol.psd * scale(M) (`EigenSystem.psd`)."""
    return eig(M, tol).psd()


def numerical_rank(M, tol: Tolerances = DEFAULT_TOL) -> int:
    """Count eigenvalues beyond the rank cut tol.rank * scale(M) (`EigenSystem.rank_mask`)."""
    return eig(M, tol).rank


@dataclass(eq=False)
class PerronData:
    """Top-of-spectrum data of a nonnegative symmetric matrix.

    `multiplicity` counts eigenvalues within `tol.cluster` of `lambda_max`;
    `xi` is the leading eigenvector, sign-normalized.  For an irreducible
    nonnegative matrix, multiplicity is 1 and xi is entrywise positive.
    """

    lambda_max: float
    multiplicity: int
    xi: np.ndarray


def perron(M, tol: Tolerances = DEFAULT_TOL) -> PerronData:
    """Largest eigenvalue, its clustered multiplicity, and leading eigenvector.

    Parameters
    ----------
    M : (n, n) array_like
        Symmetric matrix with nonnegative entries.
    tol : Tolerances
        `tol.cluster` is the absolute band for multiplicity counting.

    Returns
    -------
    PerronData

    Raises
    ------
    ValueError
        If any entry of `M` is negative (precondition violation).
    """
    S = as_symmetric(M, tol)
    if S.size and float(S.min()) < 0.0:
        raise ValueError(f"perron requires nonnegative entries, found {S.min():g}")
    es = _decompose(S, tol)
    return PerronData(float(es.values[0]), es.multiplicity(), es.vectors[:, 0].copy())


@dataclass(eq=False)
class LinearSolution:
    """Minimum-norm solve result; `consistent` is False when b is outside the column space."""

    x: np.ndarray
    residual: float
    consistent: bool


def solve_linear(M, b, tol: Tolerances = DEFAULT_TOL) -> LinearSolution:
    """Minimum-norm solution of M x = b through the spectral pseudoinverse.

    Eigenvalues outside `EigenSystem.rank_mask` are treated as zero.  The
    result is flagged inconsistent when the residual max|M x - b| exceeds
    ``tol.solve * scale(M)``, i.e. when b has a component outside the column
    space of M.
    """
    S = as_symmetric(M, tol)
    es = _decompose(S, tol)
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape[0] != es.order:
        raise ValueError(f"shape mismatch: matrix order {es.order}, vector length {b.shape[0]}")
    keep = es.rank_mask()
    inv = np.zeros_like(es.values)
    inv[keep] = 1.0 / es.values[keep]
    x = es.vectors @ (inv * (es.vectors.T @ b))
    residual = float(np.max(np.abs(S @ x - b))) if b.size else 0.0
    return LinearSolution(x=x, residual=residual, consistent=residual <= tol.solve * es.scale)
