"""Maximum matching against enumeration, and the perfect matching bridge."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from structctrl import matching
from structctrl.matching import (
    BipartiteGraph,
    Matching,
    has_perfect_matching,
    maximum_matching,
)
from structctrl.structmat import StructMatrix, identity_pattern

from oracles import max_matching_size, spanning_cycle_union_exists
from strategies import bipartite_graphs, square_matrices
from test_cli import _counted


class TestTypes:
    def test_edge_bounds_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            BipartiteGraph(2, 2, frozenset({(0, 2)}))

    def test_matching_rejects_shared_vertices(self):
        with pytest.raises(ValueError, match="share"):
            Matching(frozenset({(0, 0), (0, 1)}), frozenset())
        with pytest.raises(ValueError, match="share"):
            Matching(frozenset({(0, 0), (1, 0)}), frozenset())

    def test_matching_rejects_inconsistent_unmatched(self):
        with pytest.raises(ValueError, match="overlap"):
            Matching(frozenset({(0, 1)}), frozenset({1}))


class TestMaximumMatching:
    def test_diagonal_is_perfect(self):
        m = maximum_matching(BipartiteGraph(3, 3, frozenset((i, i) for i in range(3))))
        assert m.pairs == frozenset({(0, 0), (1, 1), (2, 2)})
        assert m.right_unmatched == frozenset()

    def test_no_edges(self):
        m = maximum_matching(BipartiteGraph(2, 3, frozenset()))
        assert not m.pairs
        assert m.right_unmatched == frozenset({0, 1, 2})

    def test_shared_right_vertex(self):
        m = maximum_matching(BipartiteGraph(2, 2, frozenset({(0, 0), (1, 0)})))
        assert len(m) == 1
        assert m.right_unmatched == frozenset({1})

    def test_augmenting_chain_resolved(self):
        # greedy pairing of left 0 to right 0 must be undone to fit both
        g = BipartiteGraph(2, 2, frozenset({(0, 0), (0, 1), (1, 0)}))
        m = maximum_matching(g)
        assert m.pairs == frozenset({(0, 1), (1, 0)})

    @given(bipartite_graphs())
    def test_size_matches_enumeration_oracle(self, g):
        assert len(maximum_matching(g)) == max_matching_size(g.left_count, g.edges)

    @given(bipartite_graphs())
    def test_result_is_a_matching_over_the_graph(self, g):
        m = maximum_matching(g)
        assert m.pairs <= g.edges
        assert m.right_unmatched == frozenset(range(g.right_count)) - {
            r for _, r in m.pairs
        }

    @given(bipartite_graphs())
    def test_deterministic(self, g):
        assert maximum_matching(g) == maximum_matching(g)

    def test_long_alternating_chain_stays_iterative(self):
        # The first sweep pairs left i with right i and strands the last
        # left vertex; its only augmenting path then rewires every pair,
        # so a recursive search would blow the stack here.
        n = 3000
        edges = {(i, i) for i in range(n - 1)}
        edges |= {(i, i + 1) for i in range(n - 1)}
        edges.add((n - 1, 0))
        m = maximum_matching(BipartiteGraph(n, n, frozenset(edges)))
        assert len(m) == n


class TestHasPerfectMatching:
    def test_diagonal(self):
        assert has_perfect_matching(identity_pattern(4))

    def test_zero_pattern(self):
        assert not has_perfect_matching(StructMatrix(2, 2, frozenset()))

    def test_single_full_row_is_rank_deficient(self):
        a = StructMatrix(2, 2, frozenset({(0, 0), (0, 1)}))
        assert not has_perfect_matching(a)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            has_perfect_matching(StructMatrix(2, 3, frozenset()))

    def test_cycle_permutation(self):
        a = StructMatrix(3, 3, frozenset({(1, 0), (2, 1), (0, 2)}))
        assert has_perfect_matching(a)

    @given(square_matrices(max_n=6), st.booleans())
    def test_matches_the_enumeration_referee(self, a, looped):
        if looped:
            a = StructMatrix(a.rows, a.cols, a.stars | {(i, i) for i in range(a.rows)})
        full_diagonal = all((i, i) in a.stars for i in range(a.rows))
        with pytest.MonkeyPatch.context() as patch:
            kernel = _counted(patch, matching, "maximum_bipartite_matching")
            assert a.perfectly_matchable == (max_matching_size(a.cols, {(c, r) for r, c in a.stars}) == a.rows)
        assert len(kernel) == (0 if full_diagonal else 1)  # the diagonal is its own certificate

    @given(square_matrices(max_n=6))
    def test_equivalent_to_spanning_cycle_unions(self, a):
        # disjoint cycles covering all states <=> a star-supported permutation
        assert has_perfect_matching(a) == spanning_cycle_union_exists(a)
