"""The benchmark's referees against the enumeration oracles and brute force.

Run from the repository root:

    python3 -m pytest perfbench/test_referees.py -q
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "tests", HERE.parent / "src"):
    sys.path.insert(0, str(path))

import gen  # noqa: E402
import referees  # noqa: E402
from oracles import max_matching_size, min_cover_size, reachability_closure, scc_partition  # noqa: E402

from structctrl.mincis import brute_force_mincis, dedicated_input_selection  # noqa: E402
from structctrl.setcover import SetCoverInstance, greedy_cover  # noqa: E402
from structctrl.structmat import ProblemInstance, StructMatrix  # noqa: E402

SEEDS = range(60)


def small_instance(seed: int, diagonal: bool = False):
    """n <= 7 states, p <= 5 inputs, star density around 0.3."""
    rng = np.random.default_rng([7, seed])
    n, p = int(rng.integers(1, 8)), int(rng.integers(1, 6))
    a = rng.random((n, n)) < 0.3
    if diagonal:
        np.fill_diagonal(a, True)
    b = rng.random((n, p)) < 0.3
    a_rows, a_cols = np.nonzero(a)
    b_rows, b_cols = np.nonzero(b)
    return n, p, a_rows, a_cols, b_rows, b_cols


def package_instance(n, p, a_rows, a_cols, b_rows, b_cols) -> ProblemInstance:
    return ProblemInstance(
        StructMatrix(n, n, frozenset(zip(a_rows.tolist(), a_cols.tolist()))),
        StructMatrix(n, p, frozenset(zip(b_rows.tolist(), b_cols.tolist()))),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_sccs_and_sources_match_the_closure(seed):
    n, _, a_rows, a_cols, _, _ = small_instance(seed)
    edges = list(zip(a_cols.tolist(), a_rows.tolist()))
    label, sources = referees.scc_sources(n, a_rows, a_cols)
    found = frozenset(frozenset(np.flatnonzero(label == s).tolist()) for s in set(label.tolist()))
    assert found == scc_partition(n, edges)
    reach = reachability_closure(n, edges)
    wanted = {
        int(label[v])
        for v in range(n)
        if not any(reach[u, v] and label[u] != label[v] for u in range(n))
    }
    assert set(sources.tolist()) == wanted


@pytest.mark.parametrize("seed", SEEDS)
def test_matching_size_matches_enumeration(seed):
    n, p, a_rows, a_cols, b_rows, b_cols = small_instance(seed)
    rows = np.concatenate([a_rows, b_rows])
    cols = np.concatenate([a_cols, n + b_cols])
    # the oracle matches left vertices (columns) to right ones (rows)
    assert referees.matching_size(rows, cols, n, n + p) == max_matching_size(
        n + p, list(zip(cols.tolist(), rows.tolist()))
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_smallest_controllable_subset_matches_brute_force(seed):
    n, p, a_rows, a_cols, b_rows, b_cols = small_instance(seed)
    expected = brute_force_mincis(package_instance(n, p, a_rows, a_cols, b_rows, b_cols))
    smallest = next(
        (
            size
            for size in range(p + 1)
            for subset in itertools.combinations(range(p), size)
            if referees.controllable_with(n, a_rows, a_cols, b_rows, b_cols, subset)
        ),
        None,
    )
    assert smallest == expected.objective


@pytest.mark.parametrize("seed", SEEDS)
def test_cover_optimum_matches_brute_force(seed):
    n, p, a_rows, a_cols, b_rows, b_cols = small_instance(seed, diagonal=True)
    label, sources = referees.scc_sources(n, a_rows, a_cols)
    incidence = referees.cover_incidence(label, sources, p, b_rows, b_cols)
    expected = brute_force_mincis(package_instance(n, p, a_rows, a_cols, b_rows, b_cols))
    if not incidence.any(axis=0).all():
        assert not expected.feasible
        return
    sets = [set(np.flatnonzero(row).tolist()) for row in incidence]
    assert referees.min_cover_size(incidence) == min_cover_size(len(sources), sets)
    assert referees.min_cover_size(incidence) == expected.objective


@pytest.mark.parametrize("seed", SEEDS)
def test_greedy_picks_match_lowest_index_greedy(seed):
    rng = np.random.default_rng([8, seed])
    universe, count = int(rng.integers(1, 12)), int(rng.integers(1, 16))
    incidence = rng.random((count, universe)) < 0.3
    incidence[rng.integers(0, count, universe), np.arange(universe)] = True
    family = SetCoverInstance(universe, tuple(frozenset(np.flatnonzero(r).tolist()) for r in incidence))
    assert referees.greedy_picks(incidence) == list(greedy_cover(family))


@pytest.mark.parametrize("seed", SEEDS)
def test_dedicated_count_matches_exhaustive_search(seed):
    n, _, a_rows, a_cols, _, _ = small_instance(seed)
    smallest = next(
        size
        for size in range(n + 1)
        for states in itertools.combinations(range(n), size)
        if referees.dedicated_controllable(n, a_rows, a_cols, states)
    )
    assert referees.dedicated_count(n, a_rows, a_cols) == smallest
    a = StructMatrix(n, n, frozenset(zip(a_rows.tolist(), a_cols.tolist())))
    assert len(dedicated_input_selection(a).chosen) == smallest


def test_generator_is_deterministic_and_shaped(tmp_path):
    first, _ = gen.write_workload("exact-mix", 5, tmp_path / "one")
    second, _ = gen.write_workload("exact-mix", 5, tmp_path / "two")
    assert [gen.instance_text(i) for i in first] == [gen.instance_text(i) for i in second]
    for inst in first[:40]:
        label, sources = referees.scc_sources(inst.n, inst.a_rows, inst.a_cols)
        assert 20 <= len(sources) <= 24 and inst.p == 2 * len(sources)
        incidence = referees.cover_incidence(label, sources, inst.p, inst.b_rows, inst.b_cols)
        assert (incidence.sum(axis=0) == incidence.sum(axis=0)[0]).all()


def test_every_fourth_greedy_instance_is_negative():
    _, pool, block = gen.workload_instances("check-greedy-16k", 3)
    for i, inst in enumerate(pool):
        label, sources = referees.scc_sources(inst.n, inst.a_rows, inst.a_cols)
        incidence = referees.cover_incidence(label, sources, inst.p, inst.b_rows, inst.b_cols)
        assert incidence.any(axis=0).all() == (i % block != 3)
