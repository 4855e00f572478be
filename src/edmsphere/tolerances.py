"""Single source of truth for every numerical threshold in the library.

Exact statements about distance matrices (PSD-ness, eigenvalue multiplicity,
"equal to 2") only survive floating point as tolerance bands.  Every predicate
in the package reads its band from one `Tolerances` record so the whole stack
can be tightened or relaxed coherently, e.g. when probing sensitivity from the
command line or the ``EDM_SPHERE_TOL_PROFILE`` environment variable.

Matrix-relative thresholds are multiplied by ``scale(M) = max(1, max|entry|)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import PreconditionError

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "PROFILES",
    "from_profile",
    "profile_from_env",
]

TOL_PROFILE_ENV = "EDM_SPHERE_TOL_PROFILE"


@dataclass(frozen=True)
class Tolerances:
    """Threshold bundle used by every numerical predicate.

    Attributes
    ----------
    psd : float
        PSD test passes when the minimum eigenvalue is >= -psd * scale(M).
    rank : float
        Numerical rank counts eigenvalues with |lambda| > rank * scale(M).
    cluster : float
        Eigenvalues within `cluster` (absolute) of the maximum count toward
        its multiplicity.
    solve : float
        Max-norm residual allowed for a solve such as D w = e; absolute,
        because D w - e does not scale with D.
    unit : float
        Unit-circumradius predicate: |2 e^T w - 1| <= unit.
    sign : float
        Separates squared distances "> 2" from "= 2" (and inner products
        "< 0" from "= 0").
    support : float
        Entries with magnitude <= support are structural zeros when reading
        a support graph off a real matrix.
    symmetry : float
        Allowed asymmetry max|M - M^T| relative to scale(M) at construction.
    recon : float
        Reconstruction residual bound recon * n * scale: for an
        eigendecomposition in the tests, and in `construct_orthorep` for the
        constructed distances, max|D - 2(E - P P^T)| <= recon * n * scale(D).
    """

    psd: float = 1e-9
    rank: float = 1e-8
    cluster: float = 1e-8
    solve: float = 1e-8
    unit: float = 1e-8
    sign: float = 1e-7
    support: float = 1e-12
    symmetry: float = 1e-12
    recon: float = 1e-10

    def with_overrides(self, **kwargs: float) -> "Tolerances":
        """Copy with the given fields replaced; None values are ignored."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self


DEFAULT_TOL = Tolerances()

PROFILES: dict[str, Tolerances] = {
    "default": DEFAULT_TOL,
    # Two decades each way; `sign` moves less so it stays above `solve`.
    "strict": Tolerances(
        psd=1e-11, rank=1e-10, cluster=1e-10, solve=1e-10, unit=1e-10,
        sign=1e-9, support=1e-14, symmetry=1e-14, recon=1e-12,
    ),
    "loose": Tolerances(
        psd=1e-7, rank=1e-6, cluster=1e-6, solve=1e-6, unit=1e-6,
        sign=1e-5, support=1e-10, symmetry=1e-10, recon=1e-8,
    ),
}


def from_profile(name: str) -> Tolerances:
    """Look up a named tolerance preset ("default", "strict", "loose")."""
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise PreconditionError(f"unknown tolerance profile {name!r} (known: {known})") from None


def profile_from_env(environ: dict[str, str] | None = None) -> Tolerances:
    """Resolve the preset selected by ``EDM_SPHERE_TOL_PROFILE`` (default preset if unset)."""
    env = os.environ if environ is None else environ
    return from_profile(env.get(TOL_PROFILE_ENV, "default"))


def scale(M: np.ndarray) -> float | np.ndarray:
    """max(1, max|entry|), the factor of matrix-relative thresholds.

    A float for one matrix; for a (..., n, n) stack, the array of each
    matrix's scale.  An empty matrix has scale 1.
    """
    M = np.asarray(M, dtype=float)
    top = np.maximum(M.max(axis=(-2, -1), initial=0.0), -M.min(axis=(-2, -1), initial=0.0))
    s = np.maximum(1.0, top)  # max|entry| from two reductions, with no array of magnitudes
    return float(s) if s.ndim == 0 else s
