"""Minimum-dimension orthonormal representations of graphs.

An orthonormal representation assigns each node of a graph G a unit vector
so that adjacent nodes get vectors at negative inner product and
non-adjacent nodes get orthogonal ones.  With k the number of connected
components of G holding at least one edge, the minimum dimension is n - k,
achieved by the spectral construction below.  One eigendecomposition of the
adjacency block A_c of each such component gives its top eigenvalue
lambda_c and positive Perron vector, the spectrum mu / lambda_c of the
Delta block A_c / lambda_c, and the spectrum 1 - mu / lambda_c of the block
of B = I - Delta, all on the eigenvectors of A_c.  The points factor B block
by block, so each component spans its own coordinates.  The companion
squared-distance matrix D = 2(E - I) + 2 Delta is unit spherical with
circumcenter weight vector built from the Perron vectors, and the
multiplicity of lambda_max(Delta) certifies that no smaller dimension is
possible.

D is certified by construction rather than validated again: centered at
its circumcenter 2w its Gram matrix is B = I - Delta = P P^T, whose
eigensystem the blocks already hold, so the Edm takes that eigensystem and
the check is the reconstruction residual max|D - 2(E - P P^T)|, block by
block.  Only the edgeless graph, whose points have no centering at the
origin, validates D from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edm import Edm, EdmRejection, min_offdiagonal, validate_edm
from .errors import ConsistencyError
from .graphs import ComponentSplit, Graph, adjacency, components
from .spectral import EigenSystem, _decompose
from .tolerances import DEFAULT_TOL, Tolerances, scale

__all__ = [
    "OrthoRep",
    "construct_orthorep",
    "SignPatternReport",
    "verify_sign_pattern",
    "MinimalityReport",
    "minimality_bound",
]


@dataclass(eq=False)
class OrthoRep:
    """An orthonormal representation with its spectral support data.

    Attributes
    ----------
    graph : Graph
    split : ComponentSplit
        Connected components; k = number of components with an edge.
    k : int
    d : int
        Representation dimension, n - k (n for the edgeless graph).
    points : (n, d) ndarray
        Unit rows; row i represents node i+1.  Block-diagonal: each
        component's columns in split order, then one per isolated node.
    edm : Edm
        The companion squared-distance matrix 2(E - I) + 2 Delta.
    w : (n,) ndarray or None
        Circumcenter weight vector with D w = e; None only for n = 1.
    delta : (n, n) ndarray
        Block-normalized adjacency, zero on rows of isolated nodes.
    unit_spherical : bool
        True when 2 e^T w = 1 (always, except for the edgeless graph).
    adjacency_lambda_max : tuple of float
        Top adjacency eigenvalue of each nontrivial component, in split
        order; the normalizers of the Delta blocks.
    delta_spectra : tuple of EigenSystem
        Each Delta block's spectrum mu / lambda_c on the eigenvectors of A_c.
    sign_pattern, unit_rows_max_dev : SignPatternReport, float
        The self-checks: D against the edges; max | |p_i|^2 - 1 |.
    note : str or None
    """

    graph: Graph
    split: ComponentSplit
    k: int
    d: int
    points: np.ndarray
    edm: Edm
    w: np.ndarray | None
    delta: np.ndarray
    unit_spherical: bool
    adjacency_lambda_max: tuple
    delta_spectra: tuple
    sign_pattern: SignPatternReport | None = None  # filled by the self-check
    unit_rows_max_dev: float | None = None  # filled by the self-check
    note: str | None = None

    @property
    def n(self) -> int:
        return self.graph.node_count


def construct_orthorep(G: Graph, tol: Tolerances = DEFAULT_TOL) -> OrthoRep:
    """Build a minimum-dimension orthonormal representation of G.

    Per component with at least one edge, the adjacency block is scaled by
    its top eigenvalue so the block of Delta has top eigenvalue exactly 1
    with a positive eigenvector; isolated nodes contribute zero rows.  The
    points factor B = I - Delta, of rank n - k, block by block off one
    eigendecomposition per component; an isolated node gets a unit column.
    With an edge, the returned Edm of D is centered at 2w, where its Gram
    matrix is B, and carries B's eigensystem assembled from the blocks
    (`Edm.centering`, `Edm.gram_eig`); no eigendecomposition of order n is
    made.  The edgeless graph validates D with `validate_edm`.

    Parameters
    ----------
    G : Graph
    tol : Tolerances

    Returns
    -------
    OrthoRep

    Raises
    ------
    ConsistencyError
        If any post-condition fails: B PSD, the reconstruction residual
        max|D - 2(E - P P^T)| <= tol.recon * n * scale(D), D w = e,
        2 e^T w = 1, rank(B) = n - k, unit rows, or the inner-product sign
        pattern.  These cannot fail for exact arithmetic, so a failure is a
        numerical diagnostic, reported rather than silently returned.
    """
    split = components(G)
    k = split.nontrivial_count
    n = G.node_count
    A = adjacency(G)
    delta = np.zeros((n, n))
    xi = np.zeros(n)
    lams, spectra, blocks = [], [], []
    for comp in split.nontrivial:
        idx = np.asarray(comp, dtype=int) - 1
        Asub = A[np.ix_(idx, idx)]
        es = _decompose(Asub, tol)
        lam = float(es.values[0])
        if not lam > 0.0:
            raise ConsistencyError(
                f"component {comp} has an edge but adjacency eigenvalue {lam:g}"
            )
        if np.any(es.vectors[:, 0] <= 0.0):
            raise ConsistencyError(
                f"leading eigenvector of connected component {comp} is not positive"
            )
        delta[np.ix_(idx, idx)] = Asub / lam
        xi[idx] = es.vectors[:, 0]
        lams.append(lam)
        # lambda_c >= 1 once the component has an edge, so the blocks of Delta
        # and of B = I - Delta have entries of magnitude <= 1: scale 1
        spectra.append(EigenSystem(es.values / lam, es.vectors, tol, 1.0))
        b = EigenSystem(1.0 - es.values[::-1] / lam, es.vectors[:, ::-1], tol, 1.0)
        blocks.append((idx, b))
    D = 2.0 * (np.ones((n, n)) - np.eye(n)) + 2.0 * delta
    iso = np.asarray(split.isolated, dtype=int) - 1
    P = np.zeros((n, sum(b.rank for _, b in blocks) + iso.size))
    R = D - 2.0  # D - 2(E - P P^T): P P^T vanishes off the diagonal blocks
    col = 0
    for idx, b in blocks:
        keep = b.rank_mask()
        Pc = b.vectors[:, keep] * np.sqrt(b.values[keep])
        P[idx, col:col + b.rank] = Pc
        R[np.ix_(idx, idx)] += 2.0 * (Pc @ Pc.T)
        col += b.rank
    P[iso, col + np.arange(iso.size)] = 1.0
    R[iso, iso] += 2.0
    recon = float(np.max(np.abs(R), initial=0.0))
    if k:
        w, note = xi / (2.0 * xi.sum()), None
        res = _circumcenter_edm(D, 2.0 * w, blocks, iso, tol)
    else:
        # No edges: the standard basis is optimal and d = n cannot be improved
        # (any two distinct nodes need independent vectors).  D = 2(E - I) is
        # invertible for n >= 2 with D w = e at w = e / (2(n-1)).  The points
        # have no centering at the origin (their affine hull misses it), so
        # P P^T is not a Gram matrix of D and D is validated from scratch.
        w = np.full(n, 1.0 / (2.0 * (n - 1))) if n >= 2 else None
        note = "graph has no edges; standard basis, dimension n, sphere is not unit"
        res = validate_edm(D, tol)
        if isinstance(res, EdmRejection):
            raise ConsistencyError(f"constructed matrix rejected as an EDM: {res.reason} ({res.detail})")
    rep = OrthoRep(
        graph=G, split=split, k=k, d=P.shape[1], points=P, edm=res, w=w, delta=delta,
        unit_spherical=k > 0, adjacency_lambda_max=tuple(lams), delta_spectra=tuple(spectra),
        note=note,
    )
    _check_construction(rep, tol, recon)
    return rep


def _circumcenter_edm(D: np.ndarray, s: np.ndarray, blocks: list, iso: np.ndarray,
                      tol: Tolerances) -> Edm:
    """The Edm of D centered at its circumcenter s = 2w, with no eigendecomposition.

    There B = I - Delta = P P^T, block diagonal, so its eigensystem is the
    blocks' spectra 1 - mu / lambda_c on their eigenvectors plus eigenvalue 1
    on each isolated node, sorted descending; the PSD and rank rules read it
    as they read the eigensystem `validate_edm` computes.
    """
    n = D.shape[0]
    values = np.ones(n)
    vectors = np.zeros((n, n))
    col = 0
    for idx, b in blocks:
        values[col:col + idx.size] = b.values
        vectors[idx, col:col + idx.size] = b.vectors
        col += idx.size
    vectors[iso, col + np.arange(iso.size)] = 1.0
    order = np.argsort(-values, kind="stable")
    gram = EigenSystem(values[order], vectors[:, order], tol, 1.0)  # scale(I - Delta) = 1
    psd = gram.psd()
    if not psd:
        raise ConsistencyError(
            f"constructed matrix rejected as an EDM: not-psd "
            f"(I - Delta has eigenvalue {psd.min_eigenvalue:g})"
        )
    return Edm(
        dist2=D, embedding_dim=gram.rank, tol=tol, gram_eig=gram, centering=s,
        min_offdiagonal=min_offdiagonal(D),
    )


def _check_construction(rep: OrthoRep, tol: Tolerances, recon: float) -> None:
    """Post-conditions of the spectral construction, kept on `rep`; ConsistencyError on failure.

    `recon` is max|D - 2(E - P P^T)|, bounded by tol.recon * n * scale(D).
    """
    n = rep.n
    problems = []
    unit = scale(rep.edm.dist2)
    bound = tol.recon * n * unit
    if recon > bound:
        problems.append(f"reconstruction max|D - 2(E - P P^T)| = {recon:g} > {bound:g}")
    if rep.d != n - rep.k:
        problems.append(f"rank of B is {rep.d}, expected n - k = {n - rep.k}")
    if rep.unit_spherical:  # edgeless: the basis vectors' affine hull misses the origin
        if rep.edm.embedding_dim != n - rep.k:
            problems.append(
                f"embedding dimension of D is {rep.edm.embedding_dim}, expected {n - rep.k}"
            )
        Ddw = rep.edm.dist2 @ rep.w
        solve_res = float(np.max(np.abs(Ddw - 1.0)))
        if solve_res > tol.solve * unit:
            problems.append(f"max|D w - e| = {solve_res:g}")
        etw = float(rep.w.sum())
        if abs(2.0 * etw - 1.0) > tol.unit:
            problems.append(f"2 e^T w = {2.0 * etw:.17g}, expected 1")
    sign = rep.sign_pattern = verify_sign_pattern(rep.edm, rep.graph, tol)
    if not sign.ok:
        problems.append(
            f"sign pattern: {len(sign.edge_violations)} edge and "
            f"{len(sign.nonedge_violations)} non-edge violations"
        )
    sq = np.einsum("ij,ij->i", rep.points, rep.points)  # row sums of squares, O(nd)
    unit_dev = rep.unit_rows_max_dev = float(np.max(np.abs(sq - 1.0), initial=0.0))
    if unit_dev > tol.sign:
        problems.append(f"max | |p_i|^2 - 1 | = {unit_dev:g}")
    if problems:
        raise ConsistencyError("construction self-check failed: " + "; ".join(problems))


@dataclass(eq=False)
class SignPatternReport:
    """Distance-level check of the representation property.

    For unit vectors, d_ij = 2 - 2 p_i . p_j, so an edge (negative inner
    product) reads as d_ij > 2 and a non-edge (orthogonal) as d_ij = 2.
    """

    ok: bool
    edge_violations: tuple
    nonedge_violations: tuple
    min_edge_excess: float
    max_nonedge_dev: float


def verify_sign_pattern(D, G: Graph, tol: Tolerances = DEFAULT_TOL) -> SignPatternReport:
    """Check d_ij > 2 on edges and d_ij = 2 off edges, within tol.sign.

    Parameters
    ----------
    D : Edm or (n, n) array_like
        Squared distances of n unit vectors (circumradius-1 configuration).
    G : Graph
        The pattern to verify against; G.node_count must equal n.
    tol : Tolerances

    Returns
    -------
    SignPatternReport
        Violating pairs are (i, j, d_ij) with 1-based i < j.
        `min_edge_excess` is min over edges of d_ij - 2 (want > tol.sign);
        `max_nonedge_dev` is max over non-edges of |d_ij - 2|.
    """
    M = np.asarray(getattr(D, "dist2", D), dtype=float)
    n = M.shape[0]
    if n != G.node_count:
        raise ValueError(f"matrix order {n} != graph node count {G.node_count}")
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    A = adjacency(G) > 0
    edge, nonedge = upper & A, upper & ~A
    dev = M - 2.0
    edge_bad = _pairs(M, edge & ~(M > 2.0 + tol.sign))
    nonedge_bad = _pairs(M, nonedge & (np.abs(dev) > tol.sign))
    return SignPatternReport(
        ok=not edge_bad and not nonedge_bad,
        edge_violations=edge_bad,
        nonedge_violations=nonedge_bad,
        min_edge_excess=float(dev[edge].min()) if edge.any() else float("inf"),
        max_nonedge_dev=float(np.abs(dev[nonedge]).max()) if nonedge.any() else 0.0,
    )


def _pairs(M: np.ndarray, mask: np.ndarray) -> tuple:
    """(i, j, M_ij) for every set entry of `mask`, 1-based, in row-major order."""
    return tuple((int(i) + 1, int(j) + 1, float(M[i, j])) for i, j in zip(*np.nonzero(mask)))


@dataclass(eq=False)
class MinimalityReport:
    """Dimension lower bound through the multiplicity of lambda_max(Delta).

    The representation dimension of any unit spherical realization is
    n - multiplicity(lambda_max(Delta)), and the multiplicity cannot exceed
    the number k of Delta's irreducible blocks, so n - k is a floor.  For
    the spectral construction each connected block contributes a simple top
    eigenvalue 1, so m = k and the floor is met.
    """

    m: int
    k: int
    dimension: int
    lambda_global: float
    block_lambda_max: tuple  # top eigenvalue of each normalized Delta block
    bound_ok: bool
    tight: bool


def minimality_bound(rep: OrthoRep, tol: Tolerances | None = None) -> MinimalityReport:
    """Certify d = n - k is minimal by per-block top-eigenvalue multiplicity.

    Reads the stored spectrum of each diagonal block of the representation's
    Delta (normalized component adjacencies, top eigenvalue 1 each) and sums
    the multiplicities at the global maximum (`EigenSystem.multiplicity`).

    Returns
    -------
    MinimalityReport
        `bound_ok` is the theory-side inequality m <= k; `tight` marks the
        constructed case m = k, where dimension n - m equals n - k.
    """
    tol = rep.edm.tol if tol is None else tol
    tops = tuple(float(es.values[0]) for es in rep.delta_spectra)
    lam_global = max(tops, default=0.0)
    m = sum(es.multiplicity(tol.cluster) for es in rep.delta_spectra)
    return MinimalityReport(
        m=m,
        k=rep.k,
        dimension=rep.n - m,
        lambda_global=lam_global,
        block_lambda_max=tops,
        bound_ok=m <= rep.k,
        tight=m == rep.k,
    )
