"""Reference implementations that only the test suite calls.

Each is an independent route to a fact the library decides another way:
a minimum-norm solve on a full eigendecomposition (against the sphericity
certificate on B's eigenbasis), a one-vector sign rule (against the
column-wise one), the reconstruction residual of an eigensystem,
irreducibility by traversal and by the (I + A)^(n-1) power criterion, the
CLI report through `json` (against the array-aware writer), the Rankin
sampler trial by trial (against the stacked one), the Perron data of a
whole matrix (against its components' tops), and orthonormal
representations and Kuperberg blocks one component at a time, each with
its own eigendecomposition and assembly of order n (against the stacked
Perron driver), a bipartite component's through the SVD of its
biadjacency, on a 2-colouring found by breadth-first search (against the
colouring of the component traversal).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from edmsphere import (
    DEFAULT_TOL,
    SPHERICAL,
    ConsistencyError,
    DecompositionBlock,
    Edm,
    EigenSystem,
    Graph,
    OrthoRep,
    SimplexCertificate,
    SphericalCertificate,
    Tolerances,
    adjacency,
    components,
    gen_random_spherical,
    min_offdiagonal,
    rankin_codimension2_check,
    spherical_certificate,
    validate_edm,
)
from edmsphere.cli import FAULT, OK
from edmsphere.errors import PreconditionError
from edmsphere.graphs import _support_adjacency, support_components
from edmsphere.spectral import _decompose, as_symmetric
from edmsphere.tolerances import scale


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
    coef = np.zeros_like(es.values)
    coef[keep] = (es.vectors.T @ b)[keep] / es.values[keep]  # no reciprocal: 1 / lambda overflows at subnormal lambda
    x = es.vectors @ coef
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


@dataclass(eq=False)
class PerronData:
    """Top eigenvalue of a nonnegative symmetric matrix, its clustered multiplicity and eigenvector."""

    lambda_max: float
    multiplicity: int
    xi: np.ndarray


def perron(M, tol: Tolerances = DEFAULT_TOL) -> PerronData:
    """Perron data of the whole matrix from one eigendecomposition; ValueError for a negative entry."""
    S = as_symmetric(M, tol)
    if S.size and float(S.min()) < 0.0:
        raise ValueError(f"perron requires nonnegative entries, found {S.min():g}")
    es = _decompose(S, tol)
    return PerronData(float(es.values[0]), es.multiplicity(), es.vectors[:, 0].copy())


def circumcenter_edm_looped(D, w, blocks, lone, tol) -> Edm:
    """The Edm at the circumcenter 2w from (rows, EigenSystem of that block of B) pairs.

    Fills an unsorted n x n eigenvector matrix block by block and copies it
    into descending order; the checks of the library's builder, one matrix.
    """
    n = D.shape[0]
    values = np.ones(n)
    vectors = np.zeros((n, n))
    col = 0
    for idx, b in blocks:
        values[col:col + idx.size] = b.values
        vectors[idx, col:col + idx.size] = b.vectors
        col += idx.size
    vectors[lone, col + np.arange(lone.size)] = 1.0
    order = np.argsort(-values, kind="stable")
    unit = max([1.0] + [b.scale for _, b in blocks])
    gram = EigenSystem(values[order], vectors[:, order], tol, unit)
    psd = gram.psd()
    if not psd:
        raise ConsistencyError(
            f"circumcenter Gram matrix I - Delta is not PSD (eigenvalue {psd.min_eigenvalue:g})"
        )
    residual = float(np.max(np.abs(D @ w - 1.0), initial=0.0))
    if residual > tol.solve * scale(D):
        raise ConsistencyError(f"circumcenter weights give max|D w - e| = {residual:g}")
    etw = float(w.sum())
    if abs(2.0 * etw - 1.0) > tol.unit:
        raise ConsistencyError(f"circumcenter weights give 2 e^T w = {2.0 * etw:.17g}, expected 1")
    edm = Edm(
        dist2=D, embedding_dim=gram.rank, tol=tol, gram_eig=gram, centering=2.0 * w,
        min_offdiagonal=min_offdiagonal(D),
    )
    edm._certificate = SphericalCertificate(
        status=SPHERICAL, w=w, etw=etw, radius=float(np.sqrt(1.0 / (2.0 * etw))),
        unit_spherical=True, residual=residual,
    )
    return edm


def bipartite_sides(A: np.ndarray) -> np.ndarray | None:
    """A 2-colouring of the connected graph with adjacency A, node 0 on side 0, by breadth-first search; None for an odd cycle."""
    side = np.full(A.shape[0], -1)
    side[0] = 0
    queue = [0]
    for u in queue:
        for v in np.flatnonzero(A[u]).tolist():
            if side[v] < 0:
                side[v] = 1 - side[u]
                queue.append(v)
            elif side[v] == side[u]:
                return None
    return side


def biadjacency_eigensystem(A: np.ndarray, side: np.ndarray, tol: Tolerances) -> EigenSystem:
    """The eigensystem of a bipartite block A from the SVD U diag(sigma) V^T of its biadjacency C, one column at a time.

    C's rows are the larger part (side 0 on a tie), of size p, its columns
    the other, of size q.  The pairs: sigma_i on (u_i, v_i) / sqrt 2, the
    p - q zeros on (u_j, 0), then -sigma_i on (u_i, -v_i) / sqrt 2 in
    reverse, each column sign-normalized by `sign_normalize`.
    """
    m = A.shape[0]
    big = side == int(2 * side.sum() > m)
    X, Y = np.flatnonzero(big), np.flatnonzero(~big)
    p, q = X.size, Y.size
    U, sigma, Vh = np.linalg.svd(A[np.ix_(X, Y)])
    h = np.sqrt(0.5)
    vectors = np.zeros((m, m))
    for i in range(q):
        vectors[X, i] = vectors[X, m - 1 - i] = U[:, i] * h
        vectors[Y, i] = Vh[i] * h
        vectors[Y, m - 1 - i] = -(Vh[i] * h)
    for j in range(q, p):
        vectors[X, j] = U[:, j]
    values = np.concatenate([sigma, np.zeros(p - q), -sigma[::-1]])
    vectors = np.column_stack([sign_normalize(v) for v in vectors.T])
    return EigenSystem(values, vectors, tol, scale(A))


def construct_orthorep_looped(G: Graph, tol: Tolerances = DEFAULT_TOL) -> tuple[OrthoRep, float]:
    """A graph's representation and reconstruction residual, one component at a time.

    One decomposition per component adjacency, np.ix_ gathers and
    scatters, D = 2(E - I) + 2 Delta and the residual D - 2(E - P P^T) at
    order n.  The components of an order m >= 3 that are all bipartite with
    the same part sizes are decomposed by `biadjacency_eigensystem`, every
    other one by `_decompose`.  The edgeless graph validates D.  The
    self-check is not run.
    """
    split = components(G)
    n = G.node_count
    A = adjacency(G)
    blocks_of = [A[np.ix_(np.asarray(c) - 1, np.asarray(c) - 1)] for c in split.nontrivial]
    sides = [bipartite_sides(Asub) for Asub in blocks_of]
    parts: dict[int, set] = {}
    for Asub, side in zip(blocks_of, sides):
        parts.setdefault(Asub.shape[0], set()).add(
            None if side is None else min(side.sum(), side.size - side.sum()))
    by_svd = {m for m, qs in parts.items() if m >= 3 and len(qs) == 1 and None not in qs}
    delta = np.zeros((n, n))
    xi = np.zeros(n)
    lams, spectra, blocks = [], [], []
    for comp, Asub, side in zip(split.nontrivial, blocks_of, sides):
        idx = np.asarray(comp, dtype=int) - 1
        es = biadjacency_eigensystem(Asub, side, tol) if len(comp) in by_svd else _decompose(Asub, tol)
        lam = float(es.values[0])
        if not lam > 0.0 or np.any(es.vectors[:, 0] <= 0.0):
            raise ConsistencyError(f"component {comp} fails the Perron conditions")
        delta[np.ix_(idx, idx)] = Asub / lam
        xi[idx] = es.vectors[:, 0]
        lams.append(lam)
        spectra.append(EigenSystem(es.values / lam, es.vectors, tol, es.scale / lam))
        blocks.append((idx, EigenSystem(1.0 - es.values[::-1] / lam, es.vectors[:, ::-1], tol, 1.0)))
    D = 2.0 * (np.ones((n, n)) - np.eye(n)) + 2.0 * delta
    iso = np.asarray(split.isolated, dtype=int) - 1
    P = np.zeros((n, sum(b.rank for _, b in blocks) + iso.size))
    R = D - 2.0
    col = 0
    for idx, b in blocks:
        keep = b.rank_mask()
        Pc = b.vectors[:, keep] * np.sqrt(b.values[keep])
        P[idx, col:col + b.rank] = Pc
        R[np.ix_(idx, idx)] += 2.0 * (Pc @ Pc.T)
        col += b.rank
    P[iso, col + np.arange(iso.size)] = 1.0
    R[iso, iso] += 2.0
    if blocks:
        w = xi / (2.0 * xi.sum())
        edm = circumcenter_edm_looped(D, w, blocks, iso, tol)
    else:
        w = np.full(n, 1.0 / (2.0 * (n - 1))) if n >= 2 else None
        edm = validate_edm(D, tol)
    rep = OrthoRep(
        graph=G, split=split, k=split.nontrivial_count, d=P.shape[1], points=P, edm=edm, w=w,
        delta=delta, unit_spherical=bool(blocks), adjacency_lambda_max=tuple(lams),
        delta_spectra=tuple(spectra),
    )
    return rep, float(np.max(np.abs(R), initial=0.0))


def simplex_blocks_looped(D: Edm, delta: np.ndarray, split) -> list:
    """The Kuperberg blocks of a unit spherical D, one `_decompose` of each core's Delta at a time."""
    tol = D.tol
    members = [list(c) for c in split.nontrivial]
    members[-1] = sorted(members[-1] + list(split.isolated))
    core = np.ones(D.n, dtype=bool)
    core[np.asarray(split.isolated, dtype=int) - 1] = False
    blocks = []
    for comp in members:
        block = np.ix_(np.asarray(comp) - 1, np.asarray(comp) - 1)
        Db, in_core = D.dist2[block], core[np.asarray(comp) - 1]
        idx, lone = np.flatnonzero(in_core), np.flatnonzero(~in_core)
        es = _decompose(delta[block][np.ix_(idx, idx)], tol)
        lam = float(es.values[0])
        xi = es.vectors[:, 0]
        if abs(lam - 1.0) > tol.cluster or es.multiplicity() != 1 or np.any(xi <= 0.0):
            raise ConsistencyError(f"core of block {comp} fails the Perron conditions")
        w = np.zeros(Db.shape[0])
        w[idx] = xi / (2.0 * xi.sum())
        b = EigenSystem(1.0 - es.values[::-1], es.vectors[:, ::-1], tol, es.scale)
        edm = circumcenter_edm_looped(Db, w, [(idx, b)], lone, tol)
        if edm.embedding_dim != Db.shape[0] - 1:
            raise ConsistencyError(f"block {comp} has rank {edm.embedding_dim}")
        zero_rows = tuple(int(i) + 1 for i in lone)
        cert = SimplexCertificate(
            is_simplex=True, n=Db.shape[0], method="perron", lambda_max=lam, w=w,
            origin_position="interior" if float(w.min()) > tol.sign else "boundary",
            zero_rows=zero_rows, irreducible_core=True,
            residual=spherical_certificate(edm).residual,
            detail=f"support connected after dropping {len(zero_rows)} zero row(s)",
        )
        blocks.append(DecompositionBlock(indices=tuple(comp), edm=edm, certificate=cert))
    return blocks
