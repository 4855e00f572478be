"""Single source of truth for every numerical threshold in the library.

Exact statements about distance matrices (PSD-ness, eigenvalue multiplicity,
"equal to 2") only survive floating point as tolerance bands.  Every predicate
in the package reads its band from one `Tolerances` record so the whole stack
can be tightened or relaxed coherently, e.g. when probing sensitivity from the
command line or the ``EDM_SPHERE_TOL_PROFILE`` environment variable, whose
name, `TOL_PROFILE_ENV`, is defined in `errors` so that the CLI's help
prints it without loading this module and numpy.

Every decision against a band is one call of `_within(value, band)`, which
returns whether the value passes and its signed slack, with NaN failing; no
other module compares a number with a tolerance field.  A rule that several
sites decide has one body here: Perron's top (`_top_at_one`), the unit
circumradius (`_unit_radius`), the Perron hypothesis (`_perron_hypothesis`),
the interior rule (`_interior`), the sign band's edge above 2 (`_over_two`)
and the reconstruction bound (`_recon_band`).

Matrix-relative thresholds are multiplied by ``scale(M) = max|entry|``, so
every such band moves with D -> cD; a matrix with no nonzero entry has scale
1 (the zero rule), and NaN or +-inf pass through, for validation reads
finiteness off the scale.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from .errors import TOL_PROFILE_ENV, PreconditionError, _record

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "PROFILES",
    "from_profile",
]


@_record(frozen=True)
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
        Entries with magnitude <= support are structural zeros when
        `graphs.support_components` reads a support graph off a real
        matrix.  No decision of the library reads it: Delta's support is
        the nonzero pattern of Delta after the sign band.
    symmetry : float
        Allowed asymmetry max|M - M^T| relative to scale(M) at construction.
    recon : float
        Reconstruction residual bound recon * n * scale: for an
        eigendecomposition in the tests, and in `construct_orthorep` for the
        constructed distances, max|D - 2(E - P P^T)| <= recon * n * scale(D).

    Each rule compares through `_within`, so a NaN value fails every rule:
    a NaN squared distance off the edges is a sign-pattern violation, and a
    NaN centering weight fails e^T s = 1.  Where the rules live: the entry
    rules (symmetry, zero diagonal, nonnegative entries) in
    `edm._entry_rejection` and `spectral.as_symmetric`; PSD, rank and
    cluster in `spectral._psd_stack`, `_rank_stack` and `_cluster_stack`;
    sphericity and the unit circumradius in `edm._certify`; the support
    band in `graphs.support_components`, and Delta's orthogonal pairs by
    the sign band in `edm.nonnegative_delta`; the Perron checks in
    `spectral._check_perron` and `edm._circumcenter_edms`; the sign band
    in `orthorep.verify_sign_pattern` and `decomposition`.
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


def _env_profile() -> str:
    """The preset name ``EDM_SPHERE_TOL_PROFILE`` selects, "default" if unset; read by the CLI."""
    return os.environ.get(TOL_PROFILE_ENV, "default")


def _within(value, band, above: bool = False, strict: bool = False, slack: bool = True) -> tuple:
    """The one comparison of a computed value with its tolerance band: (ok, slack).

    ok is value <= band, or value < band when `strict`; with `above`, value
    >= band, or value > band.  Every comparison with NaN is false, so a NaN
    value (or band) fails each form.  slack is band - value (value - band with
    `above`), signed in the value's units: positive on the passing side, 0 at
    the band, negative past it, NaN with a NaN operand.  Scalars give a bool
    and a float, arrays (broadcast together) a mask and an array, with the
    bits of the comparison written out, since the caller builds the band in
    its own order.  `slack=False` gives (ok, None): an element-wise rule on a
    whole matrix makes no n x n array of slacks it would not read.
    """
    if above:
        return (value > band if strict else value >= band), (value - band if slack else None)
    return (value < band if strict else value <= band), (band - value if slack else None)


def _top_at_one(lam, tol: Tolerances) -> tuple:
    """Perron's top: |lambda - 1| <= tol.cluster, for lambda_max of a Delta block or of Delta."""
    return _within(abs(lam - 1.0), tol.cluster)


def _unit_radius(etw, tol: Tolerances) -> tuple:
    """Circumradius 1: |2 e^T w - 1| <= tol.unit."""
    return _within(abs(2.0 * etw - 1.0), tol.unit)


def _perron_hypothesis(min_offdiagonal, tol: Tolerances) -> tuple:
    """Every squared distance at least 2 - tol.sign, so Delta is nonnegative up to the sign band."""
    return _within(min_offdiagonal, 2.0 - tol.sign, above=True)


def _interior(w, tol: Tolerances) -> tuple:
    """The sphere's center strictly inside the hull: each weight of w's last axis > tol.sign."""
    return _within(w.min(axis=-1), tol.sign, above=True, strict=True)


def _over_two(d, tol: Tolerances, over: bool = True) -> tuple:
    """The sign band's upper edge: d > 2 + tol.sign reads "> 2"; with `over` False, d <= 2 + tol.sign, "not > 2"."""
    return _within(d, 2.0 + tol.sign, above=over, strict=over)


def _recon_band(n: int, unit, tol: Tolerances):
    """The reconstruction bound tol.recon * n * scale, for a residual max|M - F F^T| of order n at scale `unit`."""
    return tol.recon * n * unit


def scale(M: np.ndarray) -> float | np.ndarray:
    """max|entry|, the factor of matrix-relative thresholds; 1 for a matrix with no nonzero entry.

    A float for one matrix; for a (..., n, n) stack, the array of each
    matrix's scale.  The zero rule maps only 0 to 1: an empty or all-zero
    matrix has scale 1, and NaN and +-inf, which the max and min carry,
    stay as they are, so `edm._entry_stats` reads finiteness off the scale.
    """
    M = np.asarray(M, dtype=float)
    top = np.maximum(M.max(axis=(-2, -1), initial=0.0), -M.min(axis=(-2, -1), initial=0.0))
    s = np.where(top == 0.0, 1.0, top)  # max|entry| from two reductions; NaN and +-inf pass through
    return float(s) if s.ndim == 0 else s
