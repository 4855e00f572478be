"""Shared oracles for the test suite.

Everything here is deliberately written against plain numpy, not against the
package under test, so expected values come from an independent route.
"""

from __future__ import annotations

import numpy as np


def edm_from_points(X: np.ndarray) -> np.ndarray:
    """Squared pairwise distances by direct per-pair measurement."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            diff = X[i] - X[j]
            D[i, j] = float(diff @ diff)
    return D


def centered_gram_oracle(D: np.ndarray) -> np.ndarray:
    """Double centering at the centroid, straight from the formula."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    J = np.eye(n) - np.ones((n, n)) / n
    B = -0.5 * J @ D @ J
    return (B + B.T) / 2.0


def rank_oracle(M: np.ndarray, cut: float = 1e-8) -> int:
    vals = np.linalg.eigvalsh((np.asarray(M) + np.asarray(M).T) / 2.0)
    s = max(1.0, float(np.max(np.abs(M)))) if np.asarray(M).size else 1.0
    return int(np.count_nonzero(np.abs(vals) > cut * s))


def compose_block_edm(orders, singletons: int = 0) -> np.ndarray:
    """Unit spherical EDM made of unit-circumradius simplex blocks.

    Block i holds orders[i] >= 2 points at squared distance
    2 * n_i / (n_i - 1) from each other; points in different blocks (and the
    trailing `singletons` lone points) sit at squared distance exactly 2.
    """
    sizes = list(orders) + [1] * singletons
    n = sum(sizes)
    D = 2.0 * (np.ones((n, n)) - np.eye(n))
    pos = 0
    for size in sizes:
        if size >= 2:
            gamma = 2.0 * size / (size - 1.0)
            blk = gamma * (np.ones((size, size)) - np.eye(size))
            D[pos:pos + size, pos:pos + size] = blk
        pos += size
    return D


def random_sphere_points(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    X = rng.standard_normal((n, r))
    X /= np.linalg.norm(X, axis=1)[:, None]
    return X


def jittered_circle(seed: int, jitter: float = 1e-6) -> np.ndarray:
    """20 points on the unit circle, each pushed off it radially by jitter * N(0, 1)."""
    rng = np.random.default_rng(seed)
    return edm_from_points(random_sphere_points(rng, 20, 2) * (1.0 + jitter * rng.standard_normal((20, 1))))


def squeezed_sphere(rng: np.random.Generator, n: int, r: int, frac: float, rank_tol: float,
                    outlier: bool = False) -> np.ndarray:
    """n points on S^(r-1) lifted into R^(r+1), the new axis squeezed until B's (r+1)-th eigenvalue
    is frac x the rank cut rank_tol * max(1, max|B|); with `outlier`, the first point sits at radius 3."""
    X = random_sphere_points(rng, n, r)
    z = rng.standard_normal(n)
    if outlier:
        X[0] *= 3.0

    def dist2(eps):
        return edm_from_points(np.column_stack([X * np.sqrt(1.0 - (eps * z) ** 2)[:, None], eps * z]))

    B = centered_gram_oracle(dist2(1e-3))
    lam = np.linalg.eigvalsh(B)[-1 - r]  # proportional to eps^2
    return dist2(1e-3 * np.sqrt(frac * rank_tol * max(1.0, float(np.max(np.abs(B)))) / lam))


def permute_1based(M: np.ndarray, order) -> np.ndarray:
    """Rows/cols reordered so new position p holds original index order[p] (1-based)."""
    ix = np.asarray(order, dtype=int) - 1
    return np.asarray(M)[np.ix_(ix, ix)]


def random_graph_edges(rng: np.random.Generator, n: int, p: float):
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < p:
                edges.append((i, j))
    return edges


def assert_bits(a, b):
    """a and b hold the same float64 bits in the same shape (so 0.0 and -0.0 differ)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_same_eigensystem(a, b):
    """Two EigenSystems with the same bits, scale and tolerances."""
    assert_bits(a.values, b.values)
    assert_bits(a.vectors, b.vectors)
    assert a.scale == b.scale and type(a.scale) is type(b.scale) and a.tolerance == b.tolerance


def assert_same_edm_at_circumcenter(a, b):
    """Two Edms built at the circumcenter, field by field and bit by bit, certificates included."""
    assert_bits(a.dist2, b.dist2)
    assert_bits(a.centering, b.centering)
    assert_same_eigensystem(a.gram_eig, b.gram_eig)
    assert (a.embedding_dim, a.min_offdiagonal, a.tol) == (b.embedding_dim, b.min_offdiagonal, b.tol)
    ca, cb = a._certificate, b._certificate
    assert_bits(ca.w, cb.w)
    assert (ca.status, ca.etw, ca.radius, ca.unit_spherical, ca.residual) == (
        cb.status, cb.etw, cb.radius, cb.unit_spherical, cb.residual)


def with_distance(D: np.ndarray, i: int, j: int, d: float) -> np.ndarray:
    """A copy of D with d_ij = d_ji = d (1-based i, j)."""
    D = np.array(D, dtype=float)
    D[i - 1, j - 1] = D[j - 1, i - 1] = d
    return D


# Orthogonal pairs read through the sign rule: one squared distance 2 + eps,
# |eps| <= tol.sign.  The crosspolytope stays unit spherical of rank 3.
CROSS_3 = 2.0 * (np.ones((6, 6)) - np.eye(6)) + np.kron(np.eye(3), [[0.0, 2.0], [2.0, 0.0]])
NEAR_TWO_CROSS = with_distance(CROSS_3, 1, 3, 2.0 + 1e-11)
NEAR_TWO_BLOCKS = with_distance(compose_block_edm([3, 3]), 1, 6, 2.0 + 5e-8)


def _tilted_pair(eps: float) -> np.ndarray:
    """The unit triangle in span(e1, e2) and the pair +-(eps e1 + sqrt(1 - eps^2) e3)."""
    angles = 2.0 * np.pi / 3.0 * np.arange(3)
    q = np.array([eps, 0.0, np.sqrt(1.0 - eps * eps)])
    triangle = np.stack([np.cos(angles), np.sin(angles), np.zeros(3)], axis=1)
    return edm_from_points(np.vstack([triangle, q, -q]))


# Two blocks whose cross-block squared distances are 2 -+ 2 eps cos(angle): the largest
# |d - 2| is 9e-8, within tol.sign, so the sign rule alone reads the blocks as orthogonal.
TILTED_PAIR = _tilted_pair(4.5e-8)


def certificate_families() -> dict:
    """Named distance matrices for the sphericity certificate: spheres, clouds, rank 0 to 20."""
    rng = np.random.default_rng(11)
    X = random_sphere_points(rng, 12, 4)
    jitter = rng.standard_normal((12, 1))
    wide = random_sphere_points(rng, 40, 20)
    return {
        "sphere": edm_from_points(X),
        "sphere-40": edm_from_points(wide),
        "scaled-sphere": 37.5 * edm_from_points(X),
        # e^T w = 5e-11: spherical by a scale-relative rule, not by an absolute e^T w > tol.psd
        "sphere-1e10": 1e10 * edm_from_points(X),
        "cloud": edm_from_points(rng.standard_normal((12, 4))),
        # radial jitter: within rounding of the sphere, and decisively off it
        "nearly-spherical": edm_from_points(X * (1.0 + 1e-13 * jitter)),
        "off-sphere": edm_from_points(X * (1.0 + 3e-2 * jitter)),
        "crosspolytope": permute_1based(CROSS_3, [4, 1, 6, 2, 5, 3]),
        "composition": compose_block_edm([3, 2, 2], 1),
        "coincident": edm_from_points(np.vstack([X, X[:3]])),
        "zero": np.zeros((5, 5)),
        "n1": np.zeros((1, 1)),
        "n2": np.array([[0.0, 3.0], [3.0, 0.0]]),
    }
