"""Dense symmetric spectral primitives.

Everything downstream (EDM certification, Perron data of nonnegative
matrices, embedding dimensions) consumes `eig`, `_decompose`, `_eigh_stack`
or `_perron_blocks`, the Perron-Frobenius step that orthonormal
representations and every reader of Delta share.  It decomposes the
irreducible blocks and checks nothing; `_check_perron` certifies them for
the callers that build points or Edms on them (orthonormal representations
and Kuperberg blocks), so a caller that reads only the tops skips it.  The
top of Delta and its multiplicity are read in one place, `_union_top`,
from the spectra of Delta's irreducible blocks.  One driver decomposes: a
(T, n, n) stack goes through `_eigh_stack`, one eigh call, and a single
matrix is a stack of one (`_decompose`); `_gram_exceeds` bounds the least
eigenvalue of F^T F from below by one Cholesky.  `_perron_blocks` makes one
decomposition per component order; bipartite groups by the SVD: the
blocks [[0, C], [C^T, 0]] of a group whose components are all bipartite
with the same part sizes get their eigensystems from one SVD of the
stacked biadjacencies C (`_bipartite_stack`).  The one component
traversal, `_split`, lives here with its record `ComponentSplit`, for the
graph layer, Delta's support and validation's split of a reducible
centered Gram matrix, which then loads no graph code; `_assemble` builds
the descending eigensystem of a block-diagonal matrix from its blocks', for
that validation and for the Edms built at a circumcenter.  This module alone calls
`numpy.linalg` to decompose.  All are pure functions of their
inputs and deterministic for identical input bits, so results are safe to
share across threads.

The PSD rule (slack ``tol.psd * scale``), the rank rule (cut
``tol.rank * scale``) and the cluster rule (band ``tol.cluster`` below the
top) each have one body, over stacks of descending spectra: `_psd_stack`,
`_rank_stack` and `_cluster_stack`, each a call of `tolerances._within`.
`EigenSystem.psd`, `.rank_mask` and `.multiplicity` read them on a stack of
one.  A check over a stack names each matrix's first failing check
(`_first_failures`), as `_check_perron` and `edm._circumcenter_edms` do.

Matrices enter as plain ndarrays.  `as_symmetric` is the constructor for the
"symmetric matrix" contract: it checks finiteness and near-symmetry, then
mirrors the lower triangle so the stored matrix is exactly symmetric.
Callers inside the package that build a matrix exactly symmetric (a double
centering, 0.5 (M + M^T), a principal block of an adjacency matrix) skip it
and call `_decompose` or `_eigh_stack`, which check finiteness only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, SpectralError, _record
from .tolerances import DEFAULT_TOL, Tolerances, _top_at_one, _within, scale

__all__ = [
    "EigenSystem",
    "eig",
    "PsdResult",
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
        if not _within(skew, tol.symmetry * scale(M))[0]:
            raise ValueError(f"matrix is not symmetric (max|M - M^T| = {skew:g})")
    lower = np.tril(M)
    return lower + np.tril(M, -1).T


@_record
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
        """The PSD rule (`_psd_stack`), witnessed by the least eigenpair when it fails."""
        lam_min = float(self.values[-1]) if self.order else 0.0
        if _psd_stack(self.values[None], self.scale, self.tolerance)[0]:
            return PsdResult(ok=True, min_eigenvalue=lam_min)
        return PsdResult(ok=False, min_eigenvalue=lam_min, witness=self.vectors[:, -1].copy())

    def rank_mask(self) -> np.ndarray:
        """The rank rule (`_rank_stack`): which eigenvalues count as dimensions."""
        return _rank_stack(self.values[None], self.scale, self.tolerance)[0]

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.rank_mask()))

    def multiplicity(self, band: float | None = None) -> int:
        """The cluster rule (`_cluster_stack`) at `band`, default tol.cluster."""
        band = self.tolerance.cluster if band is None else band
        return int(_cluster_stack(self.values[None], band)[0])


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
    """`eig` of a matrix that is already exactly symmetric, as `_eigh_stack` of a stack of one.

    Only finiteness is checked again (ValueError as in `as_symmetric`): a
    matrix built from finite data, such as a Gram matrix of a finite D with
    entries near the float maximum, can still overflow.
    """
    values, vectors, errors = _eigh_stack(S[None])
    if errors[0] is not None:
        raise errors[0]
    return EigenSystem(values=values[0], vectors=vectors[0], tolerance=tol, scale=scale(S))


def _eigh_stack(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """`_eigh_descending` of a (T, n, n) stack in one eigh call: (values, vectors, errors).

    errors[t] is None, or the ValueError of a NaN or Inf entry of matrix t,
    or the SpectralError of its eigh; its slots then hold NaN.  Unless all
    are finite and the stacked call converges, each matrix is decomposed
    alone.  Stacked and looped eigh agree bitwise.
    """
    todo = np.isfinite(S).all(axis=(1, 2))
    errors = [None if ok else ValueError("matrix contains NaN or Inf entries") for ok in todo.tolist()]
    if todo.all():
        try:
            return (*_eigh_descending(S), errors)
        except SpectralError as exc:
            if len(S) == 1:  # decomposed alone already
                errors[0], todo[0] = exc, False
    values, vectors = np.full(S.shape[:2], np.nan), np.full(S.shape, np.nan)
    for t in np.flatnonzero(todo).tolist():
        try:
            values[t], vectors[t] = _eigh_descending(S[t])
        except SpectralError as exc:
            errors[t] = exc
    return values, vectors, errors


def _eigh_descending(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a (..., n, n) stack: eigenvalues descending, eigenvector columns sign-normalized."""
    try:
        values, vectors = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigendecomposition failed to converge: {exc}") from exc
    return values[..., ::-1].copy(), _sign_normalize_columns(vectors[..., ::-1])


def _sign_normalize_columns(V: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive (ties: lowest index); stacks too.

    A new array: V times its `_column_signs`, which a caller that owns V
    can apply in place instead.
    """
    return V * _column_signs(V)[..., None, :] if V.size else V


def _column_signs(V: np.ndarray) -> np.ndarray:
    """The sign, -1.0 or 1.0, that makes each column's largest-magnitude entry positive (ties: lowest index).

    That entry is the column's maximum or minus its minimum, so no array of
    magnitudes is made; only a column where the two tie compares their
    first positions, and only the tied columns are gathered for it.  A
    column-reversed view, eigh's ascending output as `_eigh_descending`
    passes it, is read in its contiguous base's column order: the max, the
    min and the comparisons run there, and only the signs are reversed.
    The tie rule reads row positions, which the view keeps.  V is not empty.
    """
    W = V[..., ::-1] if (rev := V.strides[-1] < 0) else V
    top, bottom = W.max(axis=-2), W.min(axis=-2)
    flip, tie = -bottom > top, -bottom == top
    if tie.any():
        tied = np.swapaxes(W, -1, -2)[tie]  # (ties, n): each tied column as a row
        flip[tie] = np.argmin(tied, axis=-1) < np.argmax(tied, axis=-1)
    return np.where(flip, -1.0, 1.0)[..., ::-1 if rev else 1]


def _gram_exceeds(F: np.ndarray, floor: float) -> bool:
    """Whether every eigenvalue of F^T F exceeds `floor` >= 0, certified by one Cholesky of F^T F - tau I.

    F is a finite (n, k) matrix; k = 0 passes.  With u = eps / 2, d = max
    diag(A) and A = fl(F^T F), Cholesky is run on H = fl(A - tau I), where
    tau = floor + (n + k + 1) k eps d, and its success proves the claim:
    - forming A: |A - F^T F| <= gamma_n |F|^T |F| entrywise (gamma_m =
      m u / (1 - m u)), and the entries of |F|^T |F| are at most the largest
      squared column norm of F (Cauchy-Schwarz), at most d / (1 - gamma_n),
      so |A - F^T F|_2 <= k gamma_n d / (1 - gamma_n);
    - forming H: only the diagonal rounds, A_ii - tau by at most
      u |A_ii - tau|.  Each pivot of a completed Cholesky is positive, so
      H_ii > 0, hence A_ii > tau >= 0 and the rounding is at most u d;
    - factoring H: R^T R = H + dH with |dH| <= gamma_(k+1) |R^T| |R|
      (Higham 2002, theorem 10.3), and the squared column norms of R,
      H_ii + dH_ii, are at most d / (1 - gamma_(k+1)), so
      |dH|_2 <= k gamma_(k+1) d / (1 - gamma_(k+1)).
    R^T R is positive definite, so lambda_min(F^T F) exceeds tau less the
    three terms.  To first order they sum to (k (n + k + 1) + 1) u d, which
    leaves (k (n + k + 1) - 1) u d of the (n + k + 1) k eps d in tau; the
    second-order terms stay below a third of k (n + k + 1) u d, and so
    within it, while (n + k + 1) u < 1/8, that is for any n below 10^14.
    A NaN or Inf in A fails.
    """
    n, k = F.shape
    A = F.T @ F  # exactly symmetric: numpy forms A^T A by syrk
    if not np.isfinite(A).all():
        return False
    A[np.diag_indices(k)] -= floor + (n + k + 1) * k * np.finfo(float).eps * float(A.diagonal().max(initial=0.0))
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


@_record
class PsdResult:
    """Outcome of a PSD test; on failure carries the offending eigenpair."""

    ok: bool
    min_eigenvalue: float
    witness: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.ok


def _block_index(rows: np.ndarray, cols: np.ndarray) -> tuple:
    """Index of the (T, m, k) blocks M[rows[t]][:, cols[t]] (increasing): slices when T = 1 and both are ranges."""
    if (len(rows) == 1 and cols.shape[1] and rows[0, -1] - rows[0, 0] == rows.shape[1] - 1
            and cols[0, -1] - cols[0, 0] == cols.shape[1] - 1):
        return None, slice(rows[0, 0], rows[0, -1] + 1), slice(cols[0, 0], cols[0, -1] + 1)
    return rows[:, :, None], cols[:, None, :]


@_record(frozen=True)
class ComponentSplit:
    """Connected components plus the canonical block permutation.

    `components` partition 1..n, each sorted ascending, ordered by smallest
    member.  `permutation` lists original node labels in the permuted order:
    nontrivial components first (each contiguous), isolated nodes last.
    `colour[i]` is node i+1's side in the 2-colouring of its component
    that puts the component's smallest member on side 0, or -1 throughout
    a component with an odd cycle.
    """

    components: tuple
    nontrivial_count: int
    isolated: tuple
    permutation: tuple
    colour: tuple

    @property
    def nontrivial(self) -> tuple:
        return tuple(c for c in self.components if len(c) >= 2)


def _split(n: int, rows: np.ndarray, cols: np.ndarray) -> ComponentSplit:
    """Components and 2-colouring of the n-node graph with 0-based arcs (rows[a], cols[a]), in `ComponentSplit` order.

    The arcs are in row-major order, both directions of each edge present.
    The one traversal behind `graphs.components`, `graphs.support_components`,
    `edm._delta_blocks` and validation's split of a centered Gram matrix
    (`edm._reducible_eigh`): it colours each node it reaches opposite to the
    node it is reached from and notes an arc between nodes of one colour,
    which closes an odd cycle.
    """
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()  # u's neighbours: cols[bounds[u]:bounds[u + 1]]
    cols = cols.tolist()
    colour = [-1] * n  # -1: not reached yet
    comps: list[tuple] = []
    odd: list[int] = []  # the members of the components with an odd cycle
    for start in range(n):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        stack, members, clash = [start], [], False
        while stack:
            u = stack.pop()
            members.append(u + 1)
            other = 1 - colour[u]
            for v in cols[bounds[u]:bounds[u + 1]]:
                if colour[v] < 0:
                    colour[v] = other
                    stack.append(v)
                elif colour[v] != other:
                    clash = True
        comps.append(tuple(sorted(members)))
        if clash:
            odd.extend(members)
    for u in odd:
        colour[u - 1] = -1
    nontrivial = [c for c in comps if len(c) >= 2]
    isolated = [c[0] for c in comps if len(c) == 1]
    order: list[int] = []
    for c in nontrivial:
        order.extend(c)
    order.extend(isolated)
    return ComponentSplit(
        components=tuple(comps),
        nontrivial_count=len(nontrivial),
        isolated=tuple(isolated),
        permutation=tuple(order),
        colour=tuple(colour),
    )


def _by_order(comps) -> list[tuple[list, np.ndarray]]:
    """The components (1-based tuples) by order, ascending: (their positions in comps, rows (T, m), 0-based)."""
    by_order: dict[int, list] = {}
    for p, comp in enumerate(comps):
        by_order.setdefault(len(comp), []).append(p)
    return [(pos, np.array([comps[p] for p in pos]) - 1) for _, pos in sorted(by_order.items())]


def _assemble(n: int, blocks: list, lone: np.ndarray, lone_values) -> tuple[np.ndarray, np.ndarray]:
    """The descending eigensystem (values, vectors) of an order-n block-diagonal matrix, from its blocks.

    `blocks` are stacks (rows, cols, values, vectors): rows (T, m) of the
    matrix, the columns (T, m) their pairs take before sorting, and (T, m),
    (T, m, m) eigenpairs, descending and sign-normalized per block; each
    `lone` row, a block of order 1, takes `lone_values` on e_i in the last
    columns.  Sorted descending (stably: ties keep their column order),
    each block's vectors go straight to their sorted columns, zero off the
    block's rows, so each column keeps its block's largest entry, positive.
    """
    values = np.empty(n)
    values[n - lone.size:] = lone_values
    for _, cols, vals, _ in blocks:
        values[cols] = vals
    order = np.argsort(-values, kind="stable")
    place = np.empty(n, dtype=int)
    place[order] = np.arange(n)
    vectors = np.zeros((n, n))
    for rows, cols, _, vecs in blocks:
        vectors[_block_index(rows, place[cols])] = vecs
    vectors[lone, place[n - lone.size:]] = 1.0
    return values[order], vectors


def _psd_stack(values: np.ndarray, scales, tol: Tolerances) -> np.ndarray:
    """The PSD rule over a (T, m) stack of descending spectra at per-matrix scales: a (T,) mask.

    Matrix t passes when its least eigenvalue is >= -tol.psd * scales[t];
    an empty spectrum passes.
    """
    least = values[:, -1] if values.shape[1] else np.zeros(len(values))
    return _within(least, -tol.psd * np.asarray(scales), above=True)[0]


def _rank_stack(values: np.ndarray, scales, tol: Tolerances) -> np.ndarray:
    """The rank rule over a (T, m) stack of descending spectra: a (T, m) mask of the dimensions.

    Eigenvalues beyond the cut tol.rank * scale count.  Magnitude decides,
    except for a matrix the PSD rule accepts: its negative eigenvalues are
    rounding noise within the PSD slack, so only those above the cut count.
    """
    cut = (tol.rank * np.asarray(scales, dtype=float)).reshape(-1, 1)
    magnitude = np.where(_psd_stack(values, scales, tol)[:, None], values, np.abs(values))
    return _within(magnitude, cut, above=True, strict=True)[0]


def _cluster_stack(values: np.ndarray, band) -> np.ndarray:
    """The cluster rule over a (T, m) stack of descending spectra: per matrix, how many are >= top - band."""
    return np.count_nonzero(_within(values, values[:, :1] - band, above=True)[0], axis=1)


def _union_top(spectra, zeros: int, band: float) -> tuple[float, int]:
    """The top eigenvalue of a block-diagonal matrix and its multiplicity by the cluster rule at `band`.

    Its spectrum is the union of its blocks' `spectra` (arrays of any
    shape) and one zero for each of its `zeros` zero rows; (0.0, 0) when
    that union is empty.
    """
    values = np.sort(np.concatenate([np.ravel(v) for v in spectra] + [np.zeros(zeros)]))[::-1]
    if not values.size:
        return 0.0, 0
    return float(values[0]), int(_cluster_stack(values[None], band)[0])


class PerronBlocks(NamedTuple):
    """The components of one order, at positions `pos` of `_perron_blocks`'s list, rows (T, m).

    Component t: top eigenvalue lam[t] of its block of M; its block of Delta
    has eigensystem (values[t], vectors[t]) at scale scales[t] and Perron
    vector xi[t]; its block of I - Delta has (gram_values[t],
    gram_vectors[t]), the same pairs reversed, at scale gram_scales[t] =
    max(1, scales[t]): its diagonal is 1 and its other entries are -Delta's.
    `normalized`: M is an adjacency matrix, whose blocks divided by their
    tops are Delta's.
    """

    pos: list
    rows: np.ndarray
    lam: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    scales: np.ndarray
    tol: Tolerances
    normalized: bool

    @property
    def xi(self) -> np.ndarray:
        return self.vectors[:, :, 0]

    @property
    def gram_values(self) -> np.ndarray:
        return 1.0 - self.values[:, ::-1]

    @property
    def gram_vectors(self) -> np.ndarray:
        return self.vectors[:, :, ::-1]

    @property
    def gram_scales(self) -> np.ndarray:
        return np.maximum(1.0, self.scales)

    def delta(self, t: int) -> EigenSystem:
        return EigenSystem(self.values[t], self.vectors[t], self.tol, float(self.scales[t]))


def _perron_blocks(M: np.ndarray, split, tol: Tolerances, normalize: bool = False) -> list[PerronBlocks]:
    """The Perron-Frobenius blocks of the nontrivial components of `split`, the support graph of a nonnegative M.

    `split` must be M's exact support, the graph of its nonzero entries (an
    adjacency matrix and its graph's components; Delta snapped by
    `edm.nonnegative_delta` and its nonzero pattern): its components are
    then M's irreducible blocks, and its 2-colouring proves the entries
    within each part 0.0.  One decomposition per component order; bipartite
    groups by the SVD.  An order m >= 3 whose components are all bipartite
    with the same part sizes (by `split.colour`) goes through one SVD of
    the gathered biadjacency blocks
    (`_bipartite_stack`); every other order through one eigh of the
    gathered (T, m, m) stack.  Stacked and looped calls agree bitwise.
    Order 2 stays on eigh, where both are closed forms.  With `normalize`, M is an adjacency
    matrix: Delta's block is M_c / lambda_c, and the spectra are
    mu / lambda_c at scale 1 / lambda_c, the largest entry of
    M_c / lambda_c (lambda_c >= 1, so I - Delta's block is at scale 1).
    Otherwise M is Delta.  The first component in `split.nontrivial` order
    whose decomposition fails raises its error; nothing else is checked
    here: `_check_perron` certifies the blocks for a caller that builds on
    them, and a caller that reads only the tops skips it.
    """
    colour = np.array(split.colour, dtype=int)
    groups, failures = [], {}
    for pos, rows in _by_order(split.nontrivial):
        route = _bipartite_stack(M, rows, colour[rows]) if rows.shape[1] >= 3 else None
        if route is None:
            S = M[_block_index(rows, rows)]
            values, vectors, errors = _eigh_stack(S)
            failures.update((pos[t], error) for t, error in enumerate(errors) if error is not None)
        else:  # S is the biadjacency stack, at the scale of the blocks
            values, vectors, S = route
        lam = values[:, 0]
        scales = scale(S)
        if normalize:  # Delta's block is M_c / lambda_c; lambda_c <= 0 fails its check
            with np.errstate(divide="ignore", invalid="ignore"):
                values, scales = values / lam[:, None], scales / lam
        groups.append(PerronBlocks(pos, rows, lam, values, vectors, scales, tol, normalize))
    if failures:
        raise failures[min(failures)]
    return groups


def _check_perron(groups: list[PerronBlocks]) -> list[PerronBlocks]:
    """The Perron certificate of the blocks `_perron_blocks` gives, which are returned when every one passes.

    Of an adjacency matrix's blocks, lambda_c > 0 is required; of Delta's,
    lambda_c must be within tol.cluster of 1 and simple (the cluster rule).
    Every Perron vector must be positive, and every block of I - Delta
    must pass the PSD rule and have rank m - 1 by the rank rule, at its own
    scale max(1, scale of Delta's block), since its diagonal is 1: the
    certificate the blocks' Edms and points are built on.  The first
    failing component in `split.nontrivial` order raises its first failing
    check's ConsistencyError, naming it.

    The positivity check is reachable by input (ROADMAP item 9): eigh
    resolves a Perron vector's entries only to about eps times its largest,
    and can return the smaller ones as zeros.  K_30 with a path of 61 more
    nodes hanging from one of its nodes (n = 91) has Perron entries falling
    by about 1/29 per node along the path, and eigh (numpy 2.4 with
    OpenBLAS) returns 41 of them as -0.0: the check refuses the component,
    and `orthorep` exits 1, though with xi >= 0 read instead the
    construction passes every other check (d = 90).  The check and its exit
    code stay until item 9 reads such input as near-threshold.
    """
    failures = {}
    for g in groups:
        tol, lam, values, m = g.tol, g.lam, g.values, g.rows.shape[1]

        def name(t):
            return f"component {tuple((g.rows[t] + 1).tolist())}"

        if g.normalized:
            checks = [(lam > 0.0, lambda t: f"{name(t)} has an edge but adjacency eigenvalue {lam[t]:g}")]
        else:
            mult = _cluster_stack(values, tol.cluster)
            checks = [
                (_top_at_one(lam, tol)[0], lambda t: f"core lambda_max of {name(t)} = {lam[t]:.17g}, expected 1"),
                (mult == 1, lambda t: f"top eigenvalue of {name(t)} has multiplicity {mult[t]}, expected 1"),
            ]
        gram = g.gram_values
        rank = np.count_nonzero(_rank_stack(gram, g.gram_scales, tol), axis=1)
        checks += [
            (np.all(g.xi > 0.0, axis=1), lambda t: f"Perron vector of {name(t)} is not positive"),
            (_psd_stack(gram, g.gram_scales, tol),
             lambda t: f"I - Delta of {name(t)} is not PSD (eigenvalue {gram[t, -1]:g})"),
            (rank == m - 1, lambda t: f"I - Delta of {name(t)} has rank {rank[t]}, expected {m - 1}"),
        ]
        failures.update((g.pos[t], error) for t, error in enumerate(_first_failures(checks, len(g.pos)))
                        if error is not None)
    if failures:
        raise failures[min(failures)]
    return groups


def _first_failures(checks, count: int) -> list:
    """Per item t < count, the ConsistencyError of the first of `checks` it fails, or None.

    Each check is (ok, message): a (count,) mask of the items that pass it and
    the message of item t as a function of t.
    """
    out = [None] * count
    for ok, message in reversed(checks):  # the first failing check is written last
        for t in np.flatnonzero(~ok).tolist():
            out[t] = ConsistencyError(message(t))
    return out


def _bipartite_stack(M: np.ndarray, rows: np.ndarray, side: np.ndarray):
    """The blocks M[rows[t]][:, rows[t]] decomposed through one SVD of their biadjacencies: (values, vectors, C), or None.

    side[t] is the 2-colouring of block t's exact support graph (-1
    throughout for an odd cycle), so the entries within each part are 0.0.
    The route applies when every block is bipartite with the same part
    sizes p >= q: block t, its larger part's rows first, is then
    [[0, C_t], [C_t^T, 0]] with C_t = U diag(sigma) V^T of size p x q, and
    its eigenpairs are sigma_i on (u_i, v_i) / sqrt 2, p - q zeros on
    (u_j, 0) and -sigma_i on (u_i, -v_i) / sqrt 2 (Golub and Kahan 1965).
    They come back in the block's own row order, descending and
    sign-normalized as `_eigh_descending` returns them, with the (T, p, q)
    stack C.  None when the route does not apply, C has a NaN or Inf entry
    or the SVD fails to converge: eigh then decides.
    """
    T, m = side.shape
    ones = side.sum(axis=1)
    q = int(min(ones[0], m - ones[0]))
    if side.min() < 0 or np.any(np.minimum(ones, m - ones) != q):
        return None
    p = m - q
    big = side == (2 * ones > m)[:, None]  # the larger part; side 0 on a tie
    t = np.arange(T)[:, None]
    X, Y = np.nonzero(big)[1].reshape(T, p), np.nonzero(~big)[1].reshape(T, q)
    rx, ry = rows[t, X], rows[t, Y]
    C = M[rx[:, :, None], ry[:, None, :]]
    if not np.isfinite(C).all():
        return None
    try:
        U, sigma, Vh = np.linalg.svd(C)
    except np.linalg.LinAlgError:
        return None
    values = np.zeros((T, m))
    values[:, :q] = sigma
    values[:, p:] = -sigma[:, ::-1]
    h = np.sqrt(0.5)
    Ux, V = U[:, :, :q] * h, Vh.transpose(0, 2, 1) * h
    vectors = np.empty((T, m, m))
    vectors[t, X, :q] = Ux
    vectors[t, X, q:p] = U[:, :, q:]
    vectors[t, X, p:] = Ux[:, :, ::-1]
    vectors[t, Y, :q] = V
    vectors[t, Y, q:p] = 0.0
    vectors[t, Y, p:] = -V[:, :, ::-1]
    vectors *= _column_signs(vectors)[:, None, :]  # as `_sign_normalize_columns`, in place
    return values, vectors, C
