"""Controllability tests: decomposition form, covering form, numeric probe."""

import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from structctrl import ctrl
from structctrl.cli import main
from structctrl.ctrl import (
    _probe_bytes,
    _realise,
    _star_mask,
    is_structurally_controllable,
    numeric_probe,
)
from structctrl.demo import two_community_network
from structctrl.generate import random_instance
from structctrl.graph import input_coverage
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
        # each value is checked before duplicates merge, so True never passes as 1
        cases = [([1.0], 1.0), ([True], True), ([0, True], True), ([1, True], True), ((True, 1), True),
                 ([1, "a"], "a"), ([0, None], None)]
        for selection, bad in cases:
            message = re.escape(f"input index {bad!r} is not an integer")
            with pytest.raises(IndexError, match=message):
                is_structurally_controllable(inst, selection)
            with pytest.raises(IndexError, match=message):
                input_coverage(inst.a.condensation, inst, selection)
            with pytest.raises(IndexError, match=message):
                numeric_probe(inst, selection)

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
    def test_two_community_network(self):
        inst = two_community_network()
        assert is_structurally_controllable(inst, {1})
        assert is_structurally_controllable(inst, {0, 2})
        assert not is_structurally_controllable(inst, {0})
        assert not is_structurally_controllable(inst, {3})

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

    def test_budget_bounds_the_traced_peak(self):
        # the idle pairs are rank deficient, so they run every trial;
        # tracemalloc misses the SVD's copy, which the figure counts too
        for n, width in ((100, 1), (300, 2), (600, 3)):
            sparse = random_instance(n, width + 2, 0.01, n, full_diagonal=True)
            idle = pair(n, [], width, [(r, r % width) for r in range(n)])
            for inst in (sparse, idle):
                tracemalloc.start()
                try:
                    numeric_probe(inst, range(width))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= _probe_bytes(inst, width)

    @pytest.mark.filterwarnings("error")
    def test_mid_size_probe_gets_a_verdict(self, tmp_path):
        # unscaled, the powers A^k B overflowed float64 here and the SVD did not converge
        inst = random_instance(600, 5, 0.05, 600, full_diagonal=True)
        assert numeric_probe(inst, range(inst.p)) in (True, False)
        path = tmp_path / "mid.instance"
        path.write_text(serialize_instance(inst))
        assert main(["probe", str(path)]) in (0, 1)

    @pytest.mark.parametrize("n", [60, 120])
    def test_few_false_negatives_at_mid_size(self, n):
        # the first 30 structurally controllable draws of one seeded family
        controllable = (
            inst
            for inst in (random_instance(n, 6, 0.05, seed, full_diagonal=True) for seed in itertools.count())
            if is_structurally_controllable(inst, range(inst.p))
        )
        misses = sum(not numeric_probe(inst, range(inst.p)) for inst in itertools.islice(controllable, 30))
        assert misses <= 1

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
