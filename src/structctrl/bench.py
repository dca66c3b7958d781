"""Timing harnesses behind the scaling contracts and the bench subcommand.

Both timed kernels are near linear in the pattern size: condensation
is O(V + E), and dedicated selection is one condensation plus one
maximum matching, O(E sqrt(V)).  Each size times the best of three runs
on seeded patterns of about mean_degree * n uniform stars drawn in O(stars),
4 a state for condensation and 3 for dedicated selection.  The slope shows
fixed per-call costs at a few hundred states, kernel growth at 10^3 to 10^5.
"""

from __future__ import annotations

import timeit

import numpy as np

from .ctrl import _MASK64
from .graph import condense, state_digraph
from .mincis import dedicated_input_selection
from .structmat import _BUDGET_BYTES, StructMatrix

_REPEATS = 3


def best_time(fn) -> float:
    """Smallest wall time over a few runs; the floor is the honest signal."""
    return min(timeit.repeat(fn, number=1, repeat=_REPEATS))


def _checked_sizes(sizes, mean_degree: float) -> list[int]:
    """The sizes as a list, refused before any pattern is drawn or timed."""
    sizes = list(sizes)
    if any(n < 1 for n in sizes):
        raise ValueError("sizes must be at least 1")
    if 24 * round(mean_degree * max(sizes, default=0)) > _BUDGET_BYTES:  # a star's int64 pair and sort key
        raise ValueError(f"size {max(sizes)} needs more than the {_BUDGET_BYTES / 2**30:g} GiB budget for its stars")
    return sizes


def _sparse_square(n: int, mean_degree: float, seed: int) -> StructMatrix:
    return StructMatrix(n, n, np.random.default_rng((seed & _MASK64, n)).integers(n, size=(round(mean_degree * n), 2)))


def dedicated_selection_times(sizes, seed: int = 0) -> list[tuple[int, float]]:
    samples = []
    for n in _checked_sizes(sizes, 3.0):
        # a fresh pattern per run, drawn untimed: a pattern caches its condensation
        patterns = iter([_sparse_square(n, 3.0, seed) for _ in range(_REPEATS)])
        samples.append((n, best_time(lambda: dedicated_input_selection(next(patterns)))))
    return samples


def condense_times(sizes, seed: int = 0) -> list[tuple[int, float]]:
    samples = []
    for n in _checked_sizes(sizes, 4.0):
        g = state_digraph(_sparse_square(n, 4.0, seed))
        samples.append((n, best_time(lambda: condense(g))))
    return samples


def loglog_slope(samples) -> float:
    """Least-squares slope of log(time) against log(size)."""
    sizes, times = np.array(samples, dtype=float).reshape(-1, 2).T
    if np.unique(sizes).size < 2:
        raise ValueError("need at least two different sizes")
    return float(np.polyfit(np.log(sizes), np.log(np.maximum(times, 1e-9)), 1)[0])
