"""Controllability tests: decomposition form, covering form, numeric probe."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from structctrl import ctrl
from structctrl.cli import main
from structctrl.ctrl import (
    _realise,
    _star_mask,
    is_structurally_controllable,
    is_structurally_controllable_pm,
    numeric_probe,
)
from structctrl.demo import two_community_network
from structctrl.generate import random_instance
from structctrl.matching import PerfectMatchingRequired
from structctrl.mincis import InfeasibleInstance, mincis_reduce
from structctrl.setcover import is_cover
from structctrl.structmat import ProblemInstance, StructMatrix, identity_pattern, serialize_instance

from oracles import max_matching_size, reachability_closure, realisation_by_stars
from strategies import instances, matchable_instances


def pair(n: int, a_stars, p: int, b_stars) -> ProblemInstance:
    return ProblemInstance(
        StructMatrix(n, n, frozenset(a_stars)),
        StructMatrix(n, p, frozenset(b_stars)),
    )


def selections(inst: ProblemInstance) -> st.SearchStrategy[frozenset[int]]:
    if inst.p == 0:
        return st.just(frozenset())
    return st.frozensets(st.sampled_from(range(inst.p)))


class TestGeneralTest:
    def test_identity_pair_controllable(self):
        inst = ProblemInstance(identity_pattern(3), identity_pattern(3))
        assert is_structurally_controllable(inst, {0, 1, 2})

    def test_empty_selection_never_controllable(self):
        inst = ProblemInstance(identity_pattern(3), identity_pattern(3))
        assert not is_structurally_controllable(inst, set())

    def test_single_integrator(self):
        assert is_structurally_controllable(pair(1, [], 1, [(0, 0)]), {0})

    def test_chain_driven_at_the_root(self):
        inst = pair(3, [(1, 0), (2, 1)], 1, [(0, 0)])
        assert is_structurally_controllable(inst, {0})

    def test_inaccessible_state_fails(self):
        # second state feeds the first but nothing reaches it back
        inst = pair(2, [(0, 1), (1, 1)], 1, [(0, 0)])
        assert not is_structurally_controllable(inst, {0})

    def test_dilation_fails_despite_accessibility(self):
        # one column cannot generically rank two coupled rows
        inst = pair(2, [], 1, [(0, 0), (1, 0)])
        assert not is_structurally_controllable(inst, {0})

    def test_selection_out_of_range(self):
        inst = ProblemInstance(identity_pattern(2), identity_pattern(2))
        with pytest.raises(IndexError, match="out of range"):
            is_structurally_controllable(inst, {2})
        for selection, kind in (([1.0], "float64"), ([True], "bool")):
            with pytest.raises(IndexError, match=f"must be 64-bit integers, got {kind}"):
                is_structurally_controllable(inst, selection)

    def test_duplicate_indices_collapse(self):
        inst = pair(1, [], 1, [(0, 0)])
        assert is_structurally_controllable(inst, [0, 0])

    @given(st.one_of(instances(), matchable_instances()), st.data())
    def test_matches_the_closure_and_matching_oracles(self, inst, data):
        chosen = data.draw(selections(inst))
        n = inst.n
        edges = {(c, r) for r, c in inst.a.stars}
        actuated = sorted({r for r, j in inst.b.stars if j in chosen})
        accessible = bool(reachability_closure(n, edges)[actuated].any(axis=0).all())
        column = {j: n + t for t, j in enumerate(sorted(chosen))}
        compound = edges | {(column[j], r) for r, j in inst.b.stars if j in column}
        full_rank = max_matching_size(n + len(chosen), compound) == n
        assert is_structurally_controllable(inst, chosen) == (accessible and full_rank)

    @given(instances(), st.data())
    def test_monotone_in_the_selection(self, inst, data):
        small = data.draw(selections(inst))
        extra = data.draw(selections(inst))
        if is_structurally_controllable(inst, small):
            assert is_structurally_controllable(inst, small | extra)


class TestCoveringForm:
    def test_requires_perfect_matching(self):
        inst = pair(2, [(1, 0)], 1, [(0, 0)])
        with pytest.raises(PerfectMatchingRequired, match="no perfect matching"):
            is_structurally_controllable_pm(inst, {0})

    def test_two_community_network(self):
        inst = two_community_network()
        assert is_structurally_controllable_pm(inst, {1})
        assert is_structurally_controllable_pm(inst, {0, 2})
        assert not is_structurally_controllable_pm(inst, {0})
        assert not is_structurally_controllable_pm(inst, {3})

    @given(matchable_instances(), st.data())
    def test_equivalent_to_the_general_test(self, inst, data):
        chosen = data.draw(selections(inst))
        expected = is_structurally_controllable(inst, chosen)
        assert is_structurally_controllable_pm(inst, chosen) == expected

    @given(matchable_instances(), st.data())
    def test_selection_works_iff_it_covers(self, inst, data):
        chosen = data.draw(selections(inst))
        try:
            cover = mincis_reduce(inst)
        except InfeasibleInstance:
            assert not is_structurally_controllable(inst, range(inst.p))
            return
        expected = is_cover(cover, chosen)
        assert is_structurally_controllable(inst, chosen) == expected


class TestNumericProbe:
    def test_chain_reaches_full_rank(self):
        inst = pair(3, [(1, 0), (2, 1)], 1, [(0, 0)])
        assert numeric_probe(inst, {0})

    def test_dilation_is_rank_deficient(self):
        inst = pair(2, [], 1, [(0, 0), (1, 0)])
        assert not numeric_probe(inst, {0})

    def test_empty_selection_false(self):
        inst = ProblemInstance(identity_pattern(2), identity_pattern(2))
        assert not numeric_probe(inst, set())

    def test_repeat_calls_agree(self):
        inst = two_community_network()
        first = numeric_probe(inst, {1}, trials=2, seed=7)
        assert numeric_probe(inst, {1}, trials=2, seed=7) == first

    def test_validates_arguments(self):
        inst = pair(1, [], 1, [(0, 0)])
        with pytest.raises(ValueError, match="at least one trial"):
            numeric_probe(inst, {0}, trials=0)
        # from tol = 1 up no singular value exceeds tol times the
        # largest, so even a controllable pair would read rank deficient
        for tol in (0.0, float("nan"), float("inf"), 1.0, 2.0):
            with pytest.raises(ValueError, match="tolerance must lie strictly between 0 and 1"):
                numeric_probe(inst, {0}, tol=tol)

    def test_refuses_a_probe_over_its_budget_before_allocating(self, tmp_path, monkeypatch, capsys):
        # 50,000 states and one input: the dense mask alone would take
        # 2.5 GB and the Krylov matrix 20 GB
        def refuse(m):
            raise AssertionError("the probe allocated its dense mask")

        monkeypatch.setattr(ctrl, "_star_mask", refuse)
        inst = ProblemInstance(identity_pattern(50_000), StructMatrix(50_000, 1, [(0, 0)]))
        with pytest.raises(ValueError, match="numeric probe of 50000 states and 1 inputs needs .* GiB, over its budget"):
            numeric_probe(inst, {0})
        path = tmp_path / "wide.instance"
        path.write_text(serialize_instance(inst))
        assert main(["probe", str(path)]) == 2
        assert "over its budget" in capsys.readouterr().err

    def test_realisations_match_the_per_star_fill(self):
        # the probe's trial t: A's stars, then B's, from one generator
        rng = random.Random(11)
        for case in range(60):
            n = rng.randint(1, 25)
            p = rng.randint(0, 6)
            inst = random_instance(n, p, rng.uniform(0.02, 0.6), case, full_diagonal=case % 2 == 0)
            columns = sorted(rng.sample(range(p), rng.randint(0, p)))
            for trial in range(2):
                ours = np.random.default_rng((case, trial))
                a = _realise(_star_mask(inst.a), ours)
                b = _realise(_star_mask(inst.b)[:, columns], ours)
                theirs = np.random.default_rng((case, trial))
                expected_a, expected_b = realisation_by_stars(inst, columns, theirs)
                assert np.array_equal(a, expected_a) and np.array_equal(b, expected_b)
                assert ours.uniform() == theirs.uniform()

    @given(instances(), st.data())
    def test_full_rank_implies_structural(self, inst, data):
        # one controllable realization inside the pattern certifies the
        # pattern itself; the converse can fail on unlucky draws
        chosen = data.draw(selections(inst))
        if numeric_probe(inst, chosen, trials=1, seed=3):
            assert is_structurally_controllable(inst, chosen)
