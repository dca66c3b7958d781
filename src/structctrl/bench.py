"""Timing harnesses behind the scaling contracts and the bench subcommand.

Both timed kernels are near linear in the pattern size: condensation
is O(V + E), and dedicated selection is one condensation plus one
maximum matching, O(E sqrt(V)).  Each size times the best of three runs
on one seeded pattern of mean degree 4 (condensation) or 3 (dedicated
selection).  On a few hundred states the fitted log-log slope mostly
shows fixed per-call costs.
"""

from __future__ import annotations

import copy
import random
import timeit

import numpy as np

from .generate import random_struct_matrix
from .graph import condense, state_digraph
from .mincis import dedicated_input_selection

_REPEATS = 3


def best_time(fn) -> float:
    """Smallest wall time over a few runs; the floor is the honest signal."""
    return min(timeit.repeat(fn, number=1, repeat=_REPEATS))


def _sparse_square(n: int, mean_degree: float, seed: int):
    density = min(1.0, mean_degree / n)
    return random_struct_matrix(n, n, density, random.Random(seed))


def dedicated_selection_times(sizes, seed: int = 0) -> list[tuple[int, float]]:
    samples = []
    for n in sizes:
        a = _sparse_square(n, 3.0, seed + n)
        # a fresh copy per run, made untimed: a pattern caches its condensation
        copies = iter([copy.copy(a) for _ in range(_REPEATS)])
        samples.append((n, best_time(lambda: dedicated_input_selection(next(copies)))))
    return samples


def condense_times(sizes, seed: int = 0) -> list[tuple[int, float]]:
    samples = []
    for n in sizes:
        g = state_digraph(_sparse_square(n, 4.0, seed + n))
        samples.append((n, best_time(lambda: condense(g))))
    return samples


def loglog_slope(samples) -> float:
    """Least-squares slope of log(time) against log(size)."""
    sizes, times = np.array(samples, dtype=float).reshape(-1, 2).T
    if np.unique(sizes).size < 2:
        raise ValueError("need at least two different sizes")
    return float(np.polyfit(np.log(sizes), np.log(np.maximum(times, 1e-9)), 1)[0])
