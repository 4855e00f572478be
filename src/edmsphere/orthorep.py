"""Minimum-dimension orthonormal representations of graphs.

An orthonormal representation assigns each node of a graph G a unit vector
so that adjacent nodes get vectors at negative inner product and
non-adjacent nodes get orthogonal ones.  With k the number of connected
components of G holding at least one edge, the minimum dimension is n - k,
achieved by the spectral construction below.  The eigendecomposition of the
adjacency block A_c of each such component gives its top eigenvalue
lambda_c and positive Perron vector, the spectrum mu / lambda_c of the
Delta block A_c / lambda_c, and the spectrum 1 - mu / lambda_c of the block
of B = I - Delta, all on the eigenvectors of A_c; components of one order
share one stacked eigendecomposition (`spectral._perron_blocks`), and the
points and residual are assembled per order.  That is one decomposition
per component order; bipartite groups by the SVD: paths, stars, trees and
even cycles of one order and part sizes take their eigensystems from one
SVD of their biadjacency blocks, which the 2-colouring of the component
traversal (`graphs.components`) gives.  The points factor B block
by block, so each component spans its own coordinates.  The companion
squared-distance matrix D = 2(E - I) + 2 Delta is unit spherical with
circumcenter weight vector built from the Perron vectors, and the
multiplicity of lambda_max(Delta) certifies that no smaller dimension is
possible.

D is certified by construction rather than validated again: centered at
its circumcenter 2w its Gram matrix is B = I - Delta = P P^T, whose
eigensystem the blocks already hold: `edm._circumcenter_edm` builds the Edm
from it and checks w, and the reconstruction residual max|D - 2(E - P P^T)|
is checked on the diagonal blocks, where alone it can be nonzero.  The
edgeless graph's points have no centering at the origin, so its D = 2(E - I)
is taken at the centroid, where its Gram matrix I - E/n has a closed-form
eigensystem (`_edgeless_edm`); only a single node validates D.

A representation keeps five n x n arrays, each made once: Delta, written
over the adjacency matrix; D; P, each block's columns scaled straight into
it; the Perron vectors, whose signs are set in place; and the Edm's
eigenvectors.  Besides the decompositions' workspace, only a component of
order n makes another array of that size, its block of the reconstruction
residual; `verify_sign_pattern` reads D a bounded block of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edm import Edm, EdmRejection, _circumcenter_edm, centering_gram, validate_edm
from .errors import ConsistencyError
from .graphs import ComponentSplit, Graph, _edge_index, adjacency, components
from .spectral import EigenSystem, _block_index, _column_signs, _perron_blocks, _union_top
from .tolerances import DEFAULT_TOL, Tolerances, _over_two, _recon_band, _within, scale

__all__ = [
    "OrthoRep",
    "construct_orthorep",
    "SignPatternReport",
    "verify_sign_pattern",
    "MinimalityReport",
    "minimality_bound",
]

_SIGN_BLOCK_BYTES = 1 << 18  # the |d_ij - 2| that a row block of `verify_sign_pattern` holds at a time


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
    points factor B = I - Delta, of rank n - k, block by block; an isolated
    node gets a unit column.  The components of one order share one stacked
    eigendecomposition (`spectral._perron_blocks`), by the SVD of their
    biadjacency blocks when they are all bipartite with the same part sizes.  With an edge, the
    returned Edm of D is centered at 2w, where its Gram matrix is B, and
    carries B's eigensystem assembled from the blocks (`Edm.centering`,
    `Edm.gram_eig`) and the certificate of w; no eigendecomposition of
    order n is made.  The edgeless graph's Edm is taken at the centroid,
    where the Gram matrix of D = 2(E - I) is I - E/n, with its eigensystem
    in closed form and no eigendecomposition either; a single node
    validates D with `validate_edm`.

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
        If any post-condition fails: per component, a positive Perron vector
        and a block of B that is PSD of rank m - 1 (naming the component);
        then the rank rule counting each isolated node's eigenvalue 1 of B,
        D w = e, 2 e^T w = 1, the reconstruction residual
        max|D - 2(E - P P^T)| <= tol.recon * n * scale(D), unit rows, and
        the inner-product sign pattern.  These cannot fail for exact
        arithmetic, so a failure is a numerical diagnostic, reported rather
        than silently returned.
    """
    n = G.node_count
    A = adjacency(G)
    split = components(G)
    k = split.nontrivial_count
    iso = np.asarray(split.isolated, dtype=int) - 1
    groups = _perron_blocks(A, split, tol, normalize=True)
    lam = np.ones(n)  # per row: its component's lambda_c; A's isolated rows are zero
    xi = np.zeros(n)
    lams, spectra = [None] * k, [None] * k
    for g in groups:
        lam[g.rows] = g.lam[:, None]
        xi[g.rows] = g.xi
        for t, p in enumerate(g.pos):
            lams[p], spectra[p] = float(g.lam[t]), g.delta(t)
    delta = A  # A_c / lambda_c on each block, 0 off the blocks, in place of A
    delta /= lam[:, None]
    D = 2.0 * delta  # 2(E - I) + 2 Delta
    D += 2.0
    np.fill_diagonal(D, 0.0)
    P, blocks, recon = _points(D, groups, split, iso)
    if k:
        w, note = xi / (2.0 * xi.sum()), None
        res = _circumcenter_edm(D, w, blocks, iso, 1.0, tol)
    else:
        # No edges: the standard basis is optimal and d = n cannot be improved
        # (any two distinct nodes need independent vectors).  D = 2(E - I) is
        # invertible for n >= 2 with D w = e at w = e / (2(n-1)).  The points
        # have no centering at the origin (their affine hull misses it), so
        # P P^T is not a Gram matrix of D; its Gram matrix at the centroid is
        # known in closed form (`_edgeless_edm`).  A single node validates D.
        w = np.full(n, 1.0 / (2.0 * (n - 1))) if n >= 2 else None
        note = "graph has no edges; standard basis, dimension n, sphere is not unit"
        res = _edgeless_edm(D, tol) if n >= 2 else validate_edm(D, tol)
        if isinstance(res, EdmRejection):
            raise ConsistencyError(f"constructed matrix rejected as an EDM: {res.reason} ({res.detail})")
    rep = OrthoRep(
        graph=G, split=split, k=k, d=P.shape[1], points=P, edm=res, w=w, delta=delta,
        unit_spherical=k > 0, adjacency_lambda_max=tuple(lams), delta_spectra=tuple(spectra),
        note=note,
    )
    _check_construction(rep, tol, recon)
    return rep


def _edgeless_edm(D: np.ndarray, tol: Tolerances) -> Edm:
    """The Edm `validate_edm` gives for D = 2(E - I) of order n >= 2, with no eigendecomposition.

    At the centroid e/n its Gram matrix is B = I - E/n: eigenvalue 1 on
    e-perp, here on the sign-normalized Helmert basis (column j: e_1 +
    ... + e_j - j e_(j+1), normalized), and 0 on e / sqrt(n).  Its scale,
    the unit of the rank rule that gives the embedding dimension, is
    max|B| = 1 - 1/n up to rounding; it is read off B formed as validation
    forms it (`centering_gram`), so that it has the bits validation reads.
    """
    n = D.shape[0]
    helmert = np.triu(np.ones((n, n))) - np.eye(n, k=-1) * np.arange(1.0, n + 1)  # and e, last
    helmert /= np.sqrt(np.einsum("ij,ij->j", helmert, helmert))  # integer sums of squares, exact
    centroid = np.full(n, 1.0 / n)
    helmert *= _column_signs(helmert)  # as `spectral._sign_normalize_columns`, in place
    gram = EigenSystem(np.append(np.ones(n - 1), 0.0), helmert, tol, scale(centering_gram(D, centroid)))
    return Edm(dist2=D, embedding_dim=gram.rank, tol=tol, gram_eig=gram, centering=centroid, min_offdiagonal=2.0)


def _points(D: np.ndarray, groups: list, split: ComponentSplit, iso: np.ndarray) -> tuple:
    """(P, blocks of B for `_circumcenter_edm`, reconstruction residual) from the component groups.

    A component of order m takes the m - 1 columns of the pairs of its
    block of B above zero, which `_perron_blocks` certified as its rank, in
    split order, then each isolated node one.  max|D - 2(E - P P^T)| is
    taken on the diagonal blocks: off them D = 2 and P P^T = 0, and
    0 - 2 + 2 on an isolated node's diagonal.
    """
    sizes = np.array([len(c) for c in split.nontrivial], dtype=int)
    first = np.cumsum(sizes) - sizes  # each component's first column of B's unsorted eigensystem
    start = first - np.arange(sizes.size)  # ... and of P
    d = int(sizes.sum()) - sizes.size
    P = np.zeros((D.shape[0], d + iso.size))
    P[iso, d + np.arange(iso.size)] = 1.0
    blocks, recon = [], 0.0
    for g in groups:
        values, vectors, pos = g.gram_values, g.gram_vectors, np.asarray(g.pos)
        m = g.rows.shape[1]
        blocks.append((g.rows, first[pos][:, None] + np.arange(m), values, vectors))
        at = _block_index(g.rows, start[pos][:, None] + np.arange(m - 1))
        view = P[at] if isinstance(at[1], slice) else None  # P's block itself, when one range of rows holds it
        Pc = np.multiply(vectors[:, :, :m - 1], np.sqrt(values[:, None, :m - 1]), out=view)
        P[at] = Pc  # numpy skips the copy of a view onto itself
        # one block: the 2-D product, which numpy runs as a syrk
        R = (Pc[0] @ Pc[0].T)[None] if len(pos) == 1 else Pc @ Pc.transpose(0, 2, 1)
        R *= 2.0
        R += D[_block_index(g.rows, g.rows)]
        R -= 2.0
        recon = max(recon, float(np.max(np.abs(R, out=R))))
    return P, blocks, recon


def _check_construction(rep: OrthoRep, tol: Tolerances, recon: float) -> None:
    """Post-conditions of the spectral construction, kept on `rep`; ConsistencyError on failure.

    `recon` is max|D - 2(E - P P^T)|, bounded by tol.recon * n * scale(D);
    D w = e, 2 e^T w = 1 and the rank n - k of B were checked when the Edm
    was built.
    """
    n = rep.n
    problems = []
    bound = _recon_band(n, scale(rep.edm.dist2), tol)
    if not _within(recon, bound)[0]:
        problems.append(f"reconstruction max|D - 2(E - P P^T)| = {recon:g} > {bound:g}")
    sign = rep.sign_pattern = verify_sign_pattern(rep.edm, rep.graph, tol)
    if not sign.ok:
        problems.append(
            f"sign pattern: {len(sign.edge_violations)} edge and "
            f"{len(sign.nonedge_violations)} non-edge violations"
        )
    sq = np.einsum("ij,ij->i", rep.points, rep.points)  # row sums of squares, O(nd)
    unit_dev = rep.unit_rows_max_dev = float(np.max(np.abs(sq - 1.0), initial=0.0))
    if not _within(unit_dev, tol.sign)[0]:
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

    The matrix is read on its strict upper triangle, a block of rows at a
    time, with |d_ij - 2| for at most `_SIGN_BLOCK_BYTES` of them: the
    block of rows r:r+b takes the columns from r on.  Its b x b square on
    the diagonal holds both entries of each pair in it, which are equal in
    the exactly symmetric dist2 of an Edm, so only the diagonal and both
    entries of each edge are zeroed; an array's square is zeroed below the
    diagonal too.  The max of the block maxima is the max over the
    triangle, and a block past the band lists the pairs of its strict upper
    triangle, so they come in row-major order.
    """
    symmetric = isinstance(D, Edm)
    M = np.asarray(D.dist2 if symmetric else D, dtype=float)
    n = M.shape[0]
    if n != G.node_count:
        raise ValueError(f"matrix order {n} != graph node count {G.node_count}")
    i, j = _edge_index(G)
    on_edges = M[i, j]
    edge_bad = np.flatnonzero(~_over_two(on_edges, tol)[0])
    rows = max(1, _SIGN_BLOCK_BYTES // max(8 * n, 1))
    top, nonedge_bad = 0.0, ()
    for r in range(0, n, rows):
        dev = M[r:r + rows, r:] - 2.0  # then |d_ij - 2|, 0 on the diagonal and both ways on the edges
        np.abs(dev, out=dev)
        if not symmetric:  # an array's lower triangle counts for nothing
            dev[:, :len(dev)][np.tril_indices(len(dev), -1)] = 0.0
        dev.reshape(-1)[::dev.shape[1] + 1] = 0.0
        lo, hi = i.searchsorted((r, r + rows))  # the edges of the block's rows
        a, c = i[lo:hi] - r, j[lo:hi] - r
        dev[a, c] = 0.0
        dev[c[c < len(dev)], a[c < len(dev)]] = 0.0  # an edge within the square: its other entry
        top = np.maximum(top, block_top := float(dev.max()))  # a NaN stays
        if not _within(block_top, tol.sign)[0]:  # a NaN fails the band: its pair is listed
            out = np.triu(~_within(dev, tol.sign, slack=False)[0], 1)
            out[a, c] = False  # an edge's zeroed deviation is no pair of the rule, even under a NaN band
            nonedge_bad += _pairs(M, *np.add(np.nonzero(out), r))
        del dev  # one block alive at a time
    return SignPatternReport(
        ok=not edge_bad.size and not nonedge_bad,
        edge_violations=_pairs(M, i[edge_bad], j[edge_bad]),
        nonedge_violations=nonedge_bad,
        min_edge_excess=float((on_edges - 2.0).min()) if i.size else float("inf"),
        max_nonedge_dev=float(top),
    )


def _pairs(M: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple:
    """(i, j, M_ij) for each 0-based pair (rows[k], cols[k]), 1-based, in the given order."""
    return tuple((int(i) + 1, int(j) + 1, float(M[i, j])) for i, j in zip(rows, cols))


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


def minimality_bound(rep: OrthoRep) -> MinimalityReport:
    """Certify d = n - k is minimal by per-block top-eigenvalue multiplicity.

    Reads the stored spectrum of each diagonal block of the representation's
    Delta (normalized component adjacencies, top eigenvalue 1 each) and,
    with a zero for each isolated node, counts the eigenvalues at the global
    maximum by the cluster rule (`spectral._union_top`), with the band of
    the tolerances the representation was built with.  The edgeless graph's
    Delta is zero and has no Perron block: m = 0.

    Returns
    -------
    MinimalityReport
        `bound_ok` is the theory-side inequality m <= k; `tight` marks the
        constructed case m = k, where dimension n - m equals n - k.
    """
    tops = tuple(float(es.values[0]) for es in rep.delta_spectra)
    lone = len(rep.split.isolated) if rep.k else 0
    lam_global, m = _union_top([es.values for es in rep.delta_spectra], lone, rep.edm.tol.cluster)
    return MinimalityReport(
        m=m,
        k=rep.k,
        dimension=rep.n - m,
        lambda_global=lam_global,
        block_lambda_max=tops,
        bound_ok=m <= rep.k,
        tight=m == rep.k,
    )
