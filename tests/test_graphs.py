import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from edmsphere import FormatError, Graph, adjacency, apply_permutation, components, parse_graph
from edmsphere.graphs import support_components
from oracles import bipartite_sides, is_irreducible, is_irreducible_power_oracle


class TestGraph:
    def test_from_edges_normalizes(self):
        g = Graph.from_edges(3, [(2, 1), (1, 3)])
        assert g.edges == frozenset({(1, 2), (1, 3)})
        assert g.has_edge(3, 1) and g.has_edge(1, 2) and not g.has_edge(2, 3)
        assert g.edge_count == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(1, 3)])
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(1, 1)])


class TestParseGraph:
    def test_example(self):
        g = parse_graph("5\n1 2\n3 4\n")
        assert g.node_count == 5
        assert g.edges == frozenset({(1, 2), (3, 4)})

    def test_comments(self):
        g = parse_graph("# demo\n3\n1 2  # an edge\n")
        assert g.edges == frozenset({(1, 2)})

    def test_edgeless(self):
        g = parse_graph("4\n")
        assert g.node_count == 4 and g.edge_count == 0

    @pytest.mark.parametrize(
        "text, match",
        [
            ("x\n", "expected node count"),
            ("3\n1\n", "expected 'i j'"),
            ("3\n1 a\n", "must be integers"),
            ("3\n2 2\n", "self-loop"),
            ("3\n2 1\n", "expected i < j"),
            ("3\n1 4\n", "out of range"),
            ("3\n1 2\n1 2\n", r"line 3: duplicate edge 1 2 \(first at line 2\)"),
            ("", "empty input"),
        ],
    )
    def test_errors(self, text, match):
        with pytest.raises(FormatError, match=match):
            parse_graph(text)


class TestComponents:
    def test_example_graph(self, example_graph):
        split = components(example_graph)
        assert split.components == ((1, 2), (3, 4), (5,))
        assert split.nontrivial == ((1, 2), (3, 4))
        assert split.nontrivial_count == 2
        assert split.isolated == (5,)
        assert split.permutation == (1, 2, 3, 4, 5)

    def test_canonical_ordering(self):
        # isolated nodes 1, 4, 7 trail; nontrivial blocks by smallest member
        g = Graph.from_edges(7, [(5, 6), (2, 3)])
        split = components(g)
        assert split.components == ((1,), (2, 3), (4,), (5, 6), (7,))
        assert split.nontrivial == ((2, 3), (5, 6))
        assert split.isolated == (1, 4, 7)
        assert split.permutation == (2, 3, 5, 6, 1, 4, 7)

    def test_single_component(self):
        g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        split = components(g)
        assert split.components == ((1, 2, 3, 4),)
        assert split.isolated == ()

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, data):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
        split = components(Graph.from_edges(n, chosen))
        flat = [v for c in split.components for v in c]
        assert sorted(flat) == list(range(1, n + 1))
        assert sorted(split.permutation) == list(range(1, n + 1))
        firsts = [c[0] for c in split.components]
        assert firsts == sorted(firsts)
        # components are the connected pieces: no edge between two, each one
        # connected by the power oracle
        label = {v: k for k, c in enumerate(split.components) for v in c}
        assert all(label[i] == label[j] for i, j in chosen)
        A = adjacency(Graph.from_edges(n, chosen))
        for c in split.nontrivial:
            idx = np.asarray(c) - 1
            assert is_irreducible_power_oracle(A[np.ix_(idx, idx)])

    @given(st.integers(0, 9), st.data())
    @settings(max_examples=80, deadline=None)
    def test_colouring_property(self, n, data):
        # components(G) builds its neighbour lists from the edge list and
        # support_components from the adjacency matrix: the same split, bit
        # for bit; each component's colouring is the breadth-first one, or
        # -1 throughout when it has an odd cycle
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
        G = Graph.from_edges(n, chosen)
        split = components(G)
        assert support_components(adjacency(G)) == split
        assert len(split.colour) == n
        A = adjacency(G)
        for c in split.components:
            idx = np.asarray(c) - 1
            side = bipartite_sides(A[np.ix_(idx, idx)])
            expected = [-1] * len(c) if side is None else side.tolist()
            assert [split.colour[i] for i in idx] == expected

    def test_colouring(self):
        # a path of 4 (relabelled), a triangle with a pendant node, an even cycle, a lone node
        G = Graph.from_edges(14, [(3, 1), (1, 4), (4, 2), (5, 6), (6, 7), (5, 7), (7, 8),
                                  (9, 10), (10, 11), (11, 12), (12, 9)])
        split = components(G)
        assert split.components == ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12), (13,), (14,))
        assert split.colour == (0, 0, 1, 1, -1, -1, -1, -1, 0, 1, 0, 1, 0, 0)


def test_adjacency(example_graph):
    A = adjacency(example_graph)
    expected = np.zeros((5, 5))
    expected[0, 1] = expected[1, 0] = 1.0
    expected[2, 3] = expected[3, 2] = 1.0
    npt.assert_array_equal(A, expected)


def test_apply_permutation():
    M = np.arange(9.0).reshape(3, 3)
    P = apply_permutation(M, (2, 3, 1))
    # new position 1 holds original node 2, so P[0, 1] = M[1, 2]
    assert P[0, 1] == M[1, 2]
    assert P[2, 0] == M[0, 1]
    npt.assert_array_equal(apply_permutation(P, (3, 1, 2)), M)  # inverse order


class TestIrreducible:
    def test_connected_path(self):
        A = adjacency(Graph.from_edges(3, [(1, 2), (2, 3)]))
        assert is_irreducible(A)
        assert is_irreducible_power_oracle(A)

    def test_disconnected(self):
        A = adjacency(Graph.from_edges(4, [(1, 2), (3, 4)]))
        assert not is_irreducible(A)
        assert not is_irreducible_power_oracle(A)

    def test_order_one_convention(self):
        assert not is_irreducible(np.zeros((1, 1)))
        assert is_irreducible(np.array([[5.0]]))
        assert not is_irreducible_power_oracle(np.zeros((1, 1)))
        assert is_irreducible_power_oracle(np.array([[5.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            is_irreducible(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_support_threshold(self):
        # an entry at 1e-13 is a structural zero, so the matrix splits
        M = np.array([[0.0, 1e-13], [1e-13, 0.0]])
        assert not is_irreducible(M)
        M2 = np.array([[0.0, 1e-6], [1e-6, 0.0]])
        assert is_irreducible(M2)

    def test_support_components_match_graph_components(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 15):
            G = Graph.from_edges(n, helpers.random_graph_edges(rng, n, 0.15))
            W = adjacency(G) * rng.uniform(0.5, 2.0, size=(n, n))
            np.fill_diagonal(W, 3.0)  # the diagonal is not an edge
            assert support_components(W + W.T) == components(G)

    def test_weighted_agrees_with_unit_entries(self):
        M = np.array(
            [[0.0, 0.3, 0.0], [0.3, 0.0, 7.0], [0.0, 7.0, 0.0]]
        )
        assert is_irreducible(M) and is_irreducible_power_oracle(M)

    def test_traversal_matches_power_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            A = adjacency(Graph.from_edges(n, helpers.random_graph_edges(rng, n, 0.3)))
            assert is_irreducible(A) == is_irreducible_power_oracle(A)
