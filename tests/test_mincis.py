"""Input selection: covering reduction, solvers, dedicated and leader forms."""

import random

import pytest
from hypothesis import given

from structctrl.ctrl import is_structurally_controllable
from structctrl.demo import four_source_network, two_community_network
from structctrl.generate import random_struct_matrix
from structctrl.matching import PerfectMatchingRequired
from structctrl.mincis import (
    BruteForceCapExceeded,
    InfeasibleInstance,
    SelectionResult,
    brute_force_mincis,
    dedicated_input_selection,
    leader_selection_constrained,
    leader_selection_unconstrained,
    mincis_reduce,
    solve_mincis,
)
from structctrl.structmat import ProblemInstance, StructMatrix, identity_pattern

from oracles import dedicated_count_by_assignment, mincis_reduce_by_frozensets
from strategies import matchable_instances, square_matrices


def cycle_pattern(n: int) -> StructMatrix:
    return StructMatrix(n, n, frozenset(((i + 1) % n, i) for i in range(n)))


class TestSelectionResult:
    def test_report_feasible(self):
        r = SelectionResult((1,), True, "exact", 1)
        assert r.report() == "FEASIBLE 1: 2 [exact]"

    def test_report_infeasible(self):
        assert SelectionResult((), False, "greedy", None).report() == "INFEASIBLE"

    def test_chosen_is_sorted(self):
        assert SelectionResult((2, 0), True, "exact", 2).chosen == (0, 2)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="objective"):
            SelectionResult((0,), True, "exact", 2)
        with pytest.raises(ValueError, match="no selection"):
            SelectionResult((0,), False, "exact", None)
        with pytest.raises(ValueError, match="certificate"):
            SelectionResult((), False, "magic", None)


class TestReduce:
    def test_two_community_network(self):
        cover = mincis_reduce(two_community_network())
        assert cover.universe_size == 2
        assert cover.sets == (
            frozenset({0}),
            frozenset({0, 1}),
            frozenset({1}),
            frozenset(),
        )

    def test_identity_pair_needs_every_input(self):
        cover = mincis_reduce(ProblemInstance(identity_pattern(3), identity_pattern(3)))
        assert cover.universe_size == 3
        assert cover.sets == (frozenset({0}), frozenset({1}), frozenset({2}))

    @given(matchable_instances())
    def test_matches_the_frozenset_reduction(self, inst):
        # the reduction that built one frozenset per input column
        try:
            expected = mincis_reduce_by_frozensets(inst)
        except InfeasibleInstance as exc:
            with pytest.raises(InfeasibleInstance) as raised:
                mincis_reduce(inst)
            assert str(raised.value) == str(exc)
            return
        cover = mincis_reduce(inst)
        assert cover.sets == expected
        assert cover.universe_size == len(inst.a.condensation.sources)

    def test_requires_perfect_matching(self):
        inst = ProblemInstance(
            StructMatrix(2, 2, frozenset({(1, 0)})),
            identity_pattern(2),
        )
        with pytest.raises(PerfectMatchingRequired, match="reduction precondition"):
            mincis_reduce(inst)

    def test_uncovered_source_is_infeasible(self):
        inst = ProblemInstance(identity_pattern(2), StructMatrix(2, 1, frozenset()))
        with pytest.raises(InfeasibleInstance, match=r"SCCs \[0, 1\] actuated by no input"):
            mincis_reduce(inst)


class TestSolve:
    def test_exact_on_the_two_community_network(self):
        r = solve_mincis(two_community_network())
        assert (r.chosen, r.feasible, r.certificate, r.objective) == ((1,), True, "exact", 1)

    def test_greedy_on_the_two_community_network(self):
        r = solve_mincis(two_community_network(), mode="greedy")
        assert r.chosen == (1,)
        assert r.certificate == "greedy"

    def test_infeasible_is_a_result_not_an_error(self):
        inst = ProblemInstance(identity_pattern(2), StructMatrix(2, 1, frozenset()))
        r = solve_mincis(inst)
        assert not r.feasible
        assert r.chosen == ()
        assert r.objective is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            solve_mincis(two_community_network(), mode="fast")

    def test_missing_matching_propagates(self):
        inst = ProblemInstance(
            StructMatrix(2, 2, frozenset({(1, 0)})),
            identity_pattern(2),
        )
        with pytest.raises(PerfectMatchingRequired):
            solve_mincis(inst)

    @given(matchable_instances())
    def test_exact_matches_the_brute_referee(self, inst):
        via_cover = solve_mincis(inst)
        referee = brute_force_mincis(inst)
        assert via_cover.feasible == referee.feasible
        assert via_cover.objective == referee.objective

    @given(matchable_instances())
    def test_greedy_feasibility_agrees_with_exact(self, inst):
        exact = solve_mincis(inst)
        greedy = solve_mincis(inst, mode="greedy")
        assert greedy.feasible == exact.feasible
        if exact.feasible:
            assert greedy.objective >= exact.objective


class TestBruteForce:
    def test_two_community_network(self):
        r = brute_force_mincis(two_community_network())
        assert (r.chosen, r.objective, r.certificate) == ((1,), 1, "brute-force")

    def test_infeasible_instance(self):
        inst = ProblemInstance(identity_pattern(2), StructMatrix(2, 2, frozenset()))
        assert not brute_force_mincis(inst).feasible

    def test_no_matching_needed(self):
        # reduction refuses this pattern; enumeration handles it fine
        inst = ProblemInstance(
            StructMatrix(2, 2, frozenset({(1, 0)})),
            identity_pattern(2),
        )
        r = brute_force_mincis(inst)
        assert r.feasible and r.chosen == (0,)

    def test_cap_enforced(self):
        inst = ProblemInstance(identity_pattern(3), identity_pattern(3))
        with pytest.raises(BruteForceCapExceeded, match="enumeration cap of 2"):
            brute_force_mincis(inst, cap=2)


class TestDedicated:
    def test_four_source_network(self):
        r = dedicated_input_selection(four_source_network().a)
        assert r.chosen == (9, 10, 11, 12)
        assert r.certificate == "exact"

    def test_identity_needs_every_state(self):
        assert dedicated_input_selection(identity_pattern(3)).chosen == (0, 1, 2)

    def test_cycle_needs_one(self):
        assert dedicated_input_selection(cycle_pattern(3)).objective == 1

    def test_zero_pattern_needs_every_state(self):
        a = StructMatrix(2, 2, frozenset())
        assert dedicated_input_selection(a).chosen == (0, 1)

    def test_unmatched_row_doubles_as_representative(self):
        # row 1 is unmatched and sits in the only source SCC
        a = StructMatrix(2, 2, frozenset({(0, 1)}))
        assert dedicated_input_selection(a).chosen == (1,)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            dedicated_input_selection(StructMatrix(2, 3, frozenset()))

    @given(square_matrices())
    def test_matches_the_brute_referee(self, a):
        fast = dedicated_input_selection(a)
        referee = brute_force_mincis(ProblemInstance(a, identity_pattern(a.rows)))
        assert referee.feasible
        assert fast.objective == referee.objective

    def test_matches_the_assignment_referee_up_to_200_states(self):
        rng = random.Random(2013)
        for case in range(200):
            n = rng.randint(20, 200)
            density = rng.uniform(0.5, 3.0) / n
            a = random_struct_matrix(n, n, density, random.Random(rng.getrandbits(32)))
            fast = dedicated_input_selection(a)
            assert fast.objective == dedicated_count_by_assignment(a), f"case {case}, n={n}"
            assert is_structurally_controllable(
                ProblemInstance(a, identity_pattern(n)), fast.chosen
            ), f"case {case}, n={n}"


class TestLeaderSelection:
    def test_requires_self_loops(self):
        w = StructMatrix(2, 2, frozenset({(1, 1)}))
        with pytest.raises(ValueError, match="agent 0 has no self-loop"):
            leader_selection_unconstrained(w)
        with pytest.raises(ValueError, match="no self-loop"):
            leader_selection_constrained(w, identity_pattern(2))

    def test_unconstrained_four_source_network(self):
        r = leader_selection_unconstrained(four_source_network().a)
        assert r.chosen == (9, 10, 11, 12)

    def test_constrained_two_community_network(self):
        inst = two_community_network()
        r = leader_selection_constrained(inst.a, inst.b)
        assert r.chosen == (1,)

    def test_identity_channels_reduce_to_unconstrained(self):
        w = four_source_network().a
        free = leader_selection_unconstrained(w)
        pinned = leader_selection_constrained(w, identity_pattern(w.rows))
        assert pinned.objective == free.objective
