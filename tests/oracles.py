"""Reference implementations that only the test suite calls.

Each is an independent route to a fact the library decides another way:
a minimum-norm solve on a full eigendecomposition (against the sphericity
certificate on B's eigenbasis), a one-vector sign rule (against the
column-wise one), the reconstruction residual of an eigensystem,
irreducibility by traversal and by the (I + A)^(n-1) power criterion, the
CLI report through `json` (against the array-aware writer), and the
Rankin sampler trial by trial (against the stacked one).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from edmsphere import (
    DEFAULT_TOL,
    EigenSystem,
    Tolerances,
    gen_random_spherical,
    rankin_codimension2_check,
)
from edmsphere.cli import FAULT, OK
from edmsphere.errors import PreconditionError
from edmsphere.graphs import _support_adjacency, support_components
from edmsphere.spectral import _decompose, as_symmetric


def sign_normalize(v: np.ndarray) -> np.ndarray:
    """Flip `v` so its largest-magnitude entry is positive (ties: lowest index)."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return v.copy()
    lead = int(np.argmax(np.abs(v)))
    return -v if v[lead] < 0 else v.copy()


def reconstruction_residual(es: EigenSystem, M) -> float:
    """max|V diag(values) V^T - M|, the invariant checked by the test suite."""
    rebuilt = (es.vectors * es.values) @ es.vectors.T
    return float(np.max(np.abs(rebuilt - np.asarray(M, dtype=float)))) if es.order else 0.0


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


def is_irreducible(M, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Irreducibility of a nonnegative symmetric matrix, by support-graph traversal.

    Equivalent to the (I + A)^(n-1) > 0 criterion (see the power oracle); an
    order-1 matrix is irreducible iff it is nonzero.  Entries with magnitude
    <= tol.support are structural zeros.

    Raises
    ------
    ValueError
        If any entry of `M` is negative.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.size and float(M.min()) < 0.0:
        raise ValueError(f"is_irreducible requires nonnegative entries, found {M.min():g}")
    n = M.shape[0]
    if n == 0:
        return False
    if n == 1:
        return float(M[0, 0]) > tol.support
    return len(support_components(M, tol).components) == 1


def is_irreducible_power_oracle(M, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Slow reference: (I + A)^(n-1) entrywise positive on the support pattern.

    Kept independent of the traversal implementation for cross-checking;
    uses clipped 0/1 powers so it cannot overflow at any order.
    """
    M = np.asarray(M, dtype=float)
    if M.size and float(M.min()) < 0.0:
        raise ValueError("oracle requires nonnegative entries")
    n = M.shape[0]
    if n == 0:
        return False
    if n == 1:
        return float(M[0, 0]) > tol.support
    S = _support_adjacency(M, tol).astype(float)
    B = np.eye(n) + S
    P = np.eye(n)
    for _ in range(n - 1):
        P = np.minimum(P @ B, 1.0)
    return bool(np.all(P > 0))


def _jsonable(obj):
    """Recursively convert to strict-JSON-safe values: arrays to lists, no NaN/Infinity tokens."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else repr(obj)
    return obj


def check_rankin_sample_per_trial(args, tol):
    """`check-rankin --sample` one trial at a time: generate, validate, certify, check."""
    r = args.sample
    if r < 2:
        raise PreconditionError(f"--sample needs r >= 2, got {r}")
    if args.trials < 1:
        raise PreconditionError(f"--trials must be positive, got {args.trials}")
    if args.seed < 0:
        raise PreconditionError(f"--seed must be nonnegative, got {args.seed}")
    master = np.random.SeedSequence(args.seed)
    children = master.spawn(args.trials)
    per_trial = []
    failures = []
    for t, child in enumerate(children):
        edm, _ = gen_random_spherical(r + 2, r, child, tol)
        if edm.embedding_dim != r:
            # rank-degenerate sample; astronomically unlikely, still a result
            failures.append({"trial": t, "reason": f"embedding_dim {edm.embedding_dim} != {r}"})
            per_trial.append(None)
            continue
        rep = rankin_codimension2_check(edm)
        per_trial.append(rep.min_offdiag)
        if not rep.ok:
            failures.append({"trial": t, "reason": rep.message})
    finite = [v for v in per_trial if v is not None]
    result = {
        "mode": "sample",
        "r": r,
        "n": r + 2,
        "trials": args.trials,
        "seed": args.seed,
        "all_ok": not failures,
        "failures": failures,
        "max_min_offdiag": max(finite) if finite else None,
        "min_offdiag_per_trial": per_trial,
    }
    if failures:
        print(f"{len(failures)} of {args.trials} trials inconsistent", file=sys.stderr)
        return "inconsistent", result, {}, FAULT, None
    return "ok", result, {}, OK, None
