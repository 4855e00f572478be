"""Simple graphs: parsing, connected components and their 2-colourings, adjacency, support graphs.

Nodes are 1-based externally (matrix row i holds node i+1 internally).  The
edge-list text format is: first non-comment line ``n``, then one ``i j`` pair
per line with ``1 <= i < j <= n``; ``#`` starts a comment.  `matrixio`'s
text matrices share that frame of comments, blank lines and a count line,
read by one helper (`errors._count_headed`).  The one traversal behind every
split, `_split`, and its record `ComponentSplit` live in `spectral`, so that
validation splits a centered Gram matrix with no graph code loaded.
"""

from __future__ import annotations

from dataclasses import field
from itertools import chain

import numpy as np

from .errors import FormatError, _count_headed, _record
from .spectral import ComponentSplit, _split
from .tolerances import DEFAULT_TOL, Tolerances, _within

__all__ = [
    "Graph",
    "parse_graph",
    "ComponentSplit",
    "components",
    "support_components",
    "adjacency",
    "apply_permutation",
]


@_record(frozen=True)
class Graph:
    """Simple undirected graph: no self-loops, no duplicate edges."""

    node_count: int
    edges: frozenset = field(default_factory=frozenset)  # of (i, j) with i < j, 1-based

    def __post_init__(self):
        if self.node_count < 0:
            raise ValueError("node_count must be nonnegative")
        for i, j in self.edges:
            if not (1 <= i < j <= self.node_count):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.node_count}")

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "Graph":
        return cls(node_count=node_count, edges=frozenset(tuple(sorted(e)) for e in edges))

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format; malformed input raises FormatError with a line number."""
    n, lines = _count_headed(text, "node count", 0)
    edges: dict[tuple, int] = {}
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'i j', got {line!r}", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"node indices must be integers, got {line!r}", lineno) from None
        if i == j:
            raise FormatError(f"self-loop {i} {j}", lineno)
        if i > j:
            raise FormatError(f"expected i < j, got {i} {j}", lineno)
        if not (1 <= i and j <= n):
            raise FormatError(f"node index out of range 1..{n}: {i} {j}", lineno)
        if (i, j) in edges:
            raise FormatError(f"duplicate edge {i} {j} (first at line {edges[(i, j)]})", lineno)
        edges[(i, j)] = lineno
    return Graph(node_count=n, edges=frozenset(edges))


def support_components(M, tol: Tolerances = DEFAULT_TOL) -> ComponentSplit:
    """Components of the support graph of M: off-diagonal entries with |m_ij| > tol.support.

    No decision of the library calls it: Delta's support is its nonzero
    pattern after the sign band (`edm._delta_blocks`).  The arcs come in
    row-major order from one scan of the flat indices of the support:
    row = index // n, column = index % n.
    """
    S = _support_adjacency(M, tol)
    return _split(S.shape[0], *np.divmod(np.flatnonzero(S), S.shape[0]))


def components(G: Graph) -> ComponentSplit:
    """Split `G` into connected components, ordered as `ComponentSplit` documents.

    The neighbour lists come from G's edges in both directions, sorted as
    one key, with no n x n matrix.
    """
    n = G.node_count
    i, j = _edge_ends(G)
    key = np.concatenate((i * n + j, j * n + i))  # each edge in both directions
    key.sort()
    return _split(n, *np.divmod(key, n))


def adjacency(G: Graph) -> np.ndarray:
    """0/1 symmetric adjacency matrix with zero diagonal."""
    A = np.zeros((G.node_count, G.node_count))
    i, j = _edge_ends(G)
    A[i, j] = A[j, i] = 1.0
    return A


def _edge_ends(G: Graph) -> tuple[np.ndarray, np.ndarray]:
    """0-based (i, j) arrays of G's edges, i < j, in the order the edge set iterates, read in one pass."""
    ends = np.fromiter(chain.from_iterable(G.edges), dtype=np.int64, count=2 * len(G.edges)) - 1
    return ends[0::2], ends[1::2]


def _edge_index(G: Graph) -> tuple[np.ndarray, np.ndarray]:
    """0-based (i, j) arrays of G's edges, i < j, in row-major order."""
    i, j = _edge_ends(G)
    return np.divmod(np.sort(i * G.node_count + j), G.node_count)


def apply_permutation(M: np.ndarray, order) -> np.ndarray:
    """Reorder rows and columns so new position p holds original node order[p] (1-based)."""
    ix = np.asarray(order, dtype=int) - 1
    return np.asarray(M)[np.ix_(ix, ix)]


def _support_adjacency(M: np.ndarray, tol: Tolerances) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    S = _within(M, tol.support, above=True, strict=True, slack=False)[0]  # |m_ij| > tol.support, with no |M|
    S |= _within(M, -tol.support, strict=True, slack=False)[0]
    np.fill_diagonal(S, False)
    return S
