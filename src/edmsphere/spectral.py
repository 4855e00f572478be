"""Dense symmetric spectral primitives.

Everything downstream (EDM certification, Perron data of nonnegative
matrices, embedding dimensions) consumes `eig` (or `_decompose`) and
`perron`.  Both are pure functions of their inputs and deterministic for
identical input bits, so results are safe to share across threads.

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
    "EigenSystem",
    "eig",
    "PsdResult",
    "PerronData",
    "perron",
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


@dataclass(eq=False)
class EigenSystem:
    """Full spectral decomposition of a symmetric matrix.

    `values` are non-increasing; `vectors[:, i]` is the orthonormal
    eigenvector for `values[i]`, sign-normalized for determinism.
    `tolerance` records the thresholds used downstream and `scale` is
    scale(M) of the decomposed matrix, the unit of the PSD slack and the
    rank cut.  A PSD matrix may also be held by its pairs above the rank cut
    alone, the rest of its spectrum being zero (`edm._gram_eig_at`): the PSD
    and rank rules read it as they read the full decomposition.
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
    values, vectors = _eigh_descending(S)
    return EigenSystem(values=values, vectors=vectors, tolerance=tol, scale=scale(S))


def _decompose_stack(S: np.ndarray, tol: Tolerances, scales) -> list:
    """`_decompose` of each matrix of a (T, n, n) stack, in one eigh call, at the given scales.

    A matrix gets, in place of its eigensystem, the ValueError `_decompose`
    would raise for a NaN or Inf entry, or the SpectralError of an eigh that
    does not converge: when the stacked call fails, each matrix is
    decomposed alone to tell which.  Stacked and looped eigh agree bitwise,
    so each eigensystem is the one `_decompose` returns.
    """
    out = [ValueError("matrix contains NaN or Inf entries")] * S.shape[0]
    idx = np.flatnonzero(np.isfinite(S).all(axis=(1, 2))).tolist()
    try:
        pairs = zip(*_eigh_descending(S[idx])) if idx else ()
    except SpectralError:
        pairs = map(_eigh_or_error, S[idx])
    for t, pair in zip(idx, pairs):
        out[t] = pair if isinstance(pair, SpectralError) else EigenSystem(*pair, tol, scales[t])
    return out


def _eigh_or_error(S: np.ndarray):
    try:
        return _eigh_descending(S)
    except SpectralError as exc:
        return exc


def _eigh_descending(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a (..., n, n) stack: eigenvalues descending, eigenvector columns sign-normalized."""
    try:
        values, vectors = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigendecomposition failed to converge: {exc}") from exc
    return values[..., ::-1].copy(), _sign_normalize_columns(vectors[..., ::-1])


def _sign_normalize_columns(V: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive (ties: lowest index); stacks too."""
    if not V.size:
        return V
    W = V.reshape(-1, *V.shape[-2:])
    lead = np.argmax(np.abs(W), axis=-2)
    top = W[np.arange(W.shape[0])[:, None], lead, np.arange(W.shape[-1])]
    return V * np.where(top < 0, -1.0, 1.0).reshape(V.shape[:-2] + (1, -1))


@dataclass(eq=False)
class PsdResult:
    """Outcome of a PSD test; on failure carries the offending eigenpair."""

    ok: bool
    min_eigenvalue: float
    witness: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.ok


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
