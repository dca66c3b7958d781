"""Digraph construction, condensation, and coverage queries."""

import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given

from structctrl.bench import best_time
from structctrl.demo import two_community_network
from structctrl.graph import (
    Condensation,
    condensation_report,
    condense,
    input_coverage,
    state_digraph,
)
from structctrl.structmat import StructMatrix, identity_pattern

from oracles import (
    condensation_report_by_vertex,
    condense_by_tuples,
    coverage_by_scan,
    scc_partition,
)
from strategies import instances, square_matrices


def cycle_pattern(n):
    """Stars for the single cycle x1 -> x2 -> ... -> xn -> x1."""
    return StructMatrix(n, n, frozenset(((i + 1) % n, i) for i in range(n)))


def digraph_pattern(n, edges):
    """The n x n pattern whose state digraph has exactly these edges."""
    return StructMatrix(n, n, frozenset((v, u) for u, v in edges))


def edge_set(g):
    """The (tail, head) pairs of a CSR adjacency."""
    tails, heads = g.nonzero()
    return set(zip(tails.tolist(), heads.tolist()))


def six_block_network():
    """Ten states in six SCCs, exactly two of them non-top-linked.

    Blocks: {0,1} and {2} feed {3,4,5}, which feeds {6} and {7,8},
    which both feed {9}.  Only the first two blocks lack incoming
    edges.
    """
    edges = {
        (0, 1), (1, 0),                # block one, a 2-cycle
        (2, 2),                        # block two, a self-loop
        (3, 4), (4, 5), (5, 3),        # block three, a 3-cycle
        (7, 8), (8, 7),                # block five, a 2-cycle
        (0, 3), (2, 3),                # one, two -> three
        (4, 6), (5, 7),                # three -> four, five
        (6, 9), (8, 9),                # four, five -> six
    }
    return digraph_pattern(10, edges)


class TestStateDigraph:
    def test_single_star_gives_single_edge(self):
        # a star in row 1, column 0 means state 0 feeds state 1
        g = state_digraph(StructMatrix(2, 2, frozenset({(1, 0)})))
        assert edge_set(g) == {(0, 1)}
        assert g.shape == (2, 2)

    def test_diagonal_gives_self_loops(self):
        g = state_digraph(identity_pattern(3))
        assert edge_set(g) == {(0, 0), (1, 1), (2, 2)}

    @given(square_matrices(max_n=7))
    def test_one_edge_per_star(self, a):
        g = state_digraph(a)
        assert g.nnz == len(a.stars)
        assert edge_set(g) == {(c, r) for r, c in a.stars}

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            state_digraph(StructMatrix(2, 3, frozenset()))


class TestCondense:
    def test_disjoint_self_loops(self):
        cond = condense(state_digraph(identity_pattern(3)))
        assert cond.scc_count == 3
        assert cond.non_top_linked == frozenset({0, 1, 2})
        assert not len(cond.dag_edges)

    def test_one_cycle_is_one_scc(self):
        cond = condense(state_digraph(cycle_pattern(4)))
        assert cond.scc_count == 1
        assert cond.non_top_linked == frozenset({0})

    def test_two_block_chain(self):
        # 0 <-> 1 feeding the self-looped 2
        a = StructMatrix(3, 3, frozenset({(1, 0), (0, 1), (2, 2), (2, 0)}))
        cond = condense(state_digraph(a))
        assert cond.scc_count == 2
        top = cond.scc_id[0]
        assert cond.scc_id[1] == top
        assert cond.non_top_linked == frozenset({top})
        assert set(map(tuple, cond.dag_edges.tolist())) == {(top, cond.scc_id[2])}

    def test_six_block_network(self):
        cond = condense(state_digraph(six_block_network()))
        assert cond.scc_count == 6
        assert cond.non_top_linked == {cond.scc_id[0], cond.scc_id[2]}
        assert cond.scc_id[0] == cond.scc_id[1]
        assert cond.scc_id[3] == cond.scc_id[4] == cond.scc_id[5]

    @given(square_matrices(max_n=7))
    def test_partition_matches_reachability_oracle(self, a):
        cond = condense(state_digraph(a))
        order, bounds = cond._groups()
        groups = frozenset(frozenset(order[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:]))
        assert groups == scc_partition(a.rows, {(c, r) for r, c in a.stars})

    @given(square_matrices(max_n=7))
    def test_quotient_edges_reverse_topological(self, a):
        g = state_digraph(a)
        cond = condense(g)
        assert all(i > k for i, k in cond.dag_edges)
        entered = {k for _, k in cond.dag_edges}
        assert cond.non_top_linked == frozenset(range(cond.scc_count)) - entered

    @given(square_matrices(max_n=7))
    def test_deterministic(self, a):
        g = state_digraph(a)
        first, second = condense(g), condense(g)
        assert first.scc_count == second.scc_count
        for name in ("scc_id", "dag_edges", "sources"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    @given(square_matrices(max_n=12))
    @example(StructMatrix(0, 0, ()))  # no SCC: the report is one empty line
    @example(StructMatrix(1, 1, ()))
    @example(StructMatrix(1, 1, [(0, 0)]))
    @example(StructMatrix(5, 5, ()))
    @example(digraph_pattern(3, {(0, 1), (1, 0), (0, 2), (1, 2)}))  # one quotient edge twice
    def test_matches_the_tuple_condensation(self, a):
        g = state_digraph(a)
        cond = condense(g)
        scc_id, count, dag_edges, non_top = condense_by_tuples(g)
        assert cond.scc_id.tolist() == list(scc_id)
        assert cond.scc_count == count
        assert sorted(map(tuple, cond.dag_edges.tolist())) == sorted(dag_edges)
        assert cond.sources.tolist() == sorted(non_top)
        assert cond.non_top_linked == non_top
        assert condensation_report(cond) == condensation_report_by_vertex(
            scc_id, count, non_top
        )

    @pytest.mark.parametrize("seed", range(2))
    def test_report_matches_the_vertex_walk_at_scale(self, seed):
        # a sparse random digraph on 2000 states: one large SCC among many small ones
        rng = np.random.default_rng(seed)
        n = 2000
        g = state_digraph(StructMatrix(n, n, rng.integers(0, n, (2 * n, 2))))
        cond = condense(g)
        scc_id, count, _, non_top = condense_by_tuples(g)
        assert 100 < count < n - 100 and 0 < len(non_top) < count
        assert condensation_report(cond) == condensation_report_by_vertex(scc_id, count, non_top)

    def test_linear_scaling_smoke(self):
        # 4x the graph should cost clearly less than the 16x a
        # quadratic implementation would; generous bound for CI noise.
        def timed(n):
            rng = random.Random(97 + n)
            edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)}
            g = state_digraph(digraph_pattern(n, edges))
            return best_time(lambda: condense(g))

        small, large = timed(4000), timed(16000)
        assert large < max(10.0 * small, 1e-3)


class TestCondensationInvariants:
    def test_self_quotient_edges_rejected(self):
        with pytest.raises(ValueError):
            Condensation((0, 0), 1, ((0, 0),), ())

    def test_forward_labels_rejected(self):
        with pytest.raises(ValueError, match="reverse topological"):
            Condensation((0, 1), 2, ((0, 1),), (0,))

    def test_source_set_checked(self):
        with pytest.raises(ValueError, match="non_top_linked"):
            Condensation((0, 1), 2, ((1, 0),), (0, 1))

    def test_arrays_stay_read_only_in_copies(self):
        cond = condense(state_digraph(six_block_network()))
        copies = (pickle.loads(pickle.dumps(cond)), copy.deepcopy(cond), copy.copy(cond))
        for twin in (cond, *copies):
            assert twin.scc_count == cond.scc_count
            assert twin.non_top_linked == cond.non_top_linked
            for name in ("scc_id", "dag_edges", "sources"):
                array = getattr(twin, name)
                assert np.array_equal(array, getattr(cond, name))
                assert array.dtype == np.intp and not array.flags.writeable


class TestInputCoverage:
    def test_empty_selection_covers_nothing(self):
        inst = two_community_network()
        cond = condense(state_digraph(inst.a))
        assert input_coverage(cond, inst, ()) == frozenset()

    def test_demo_channel_two_covers_both_communities(self):
        inst = two_community_network()
        cond = condense(state_digraph(inst.a))
        assert input_coverage(cond, inst, {1}) == cond.non_top_linked
        assert len(input_coverage(cond, inst, {0})) == 1
        assert input_coverage(cond, inst, {3}) == frozenset()

    def test_out_of_range_selection_rejected(self):
        inst = two_community_network()
        cond = condense(state_digraph(inst.a))
        with pytest.raises(IndexError, match="out of range"):
            input_coverage(cond, inst, {4})

    @given(instances())
    def test_matches_nested_scan_oracle(self, inst):
        cond = condense(state_digraph(inst.a))
        selected = range(0, inst.p, 2)
        assert input_coverage(cond, inst, selected) == coverage_by_scan(
            cond, inst, selected
        )


class TestReport:
    def test_demo_report_lines(self):
        inst = two_community_network()
        report = condensation_report(condense(state_digraph(inst.a)))
        lines = report.splitlines()
        assert len(lines) == 7
        assert "SCC 4: x1 x2 NON-TOP" in lines
        assert "SCC 7: x3 x4 NON-TOP" in lines
        assert sum(line.endswith("NON-TOP") for line in lines) == 2
