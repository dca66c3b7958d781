"""Timing harnesses behind the scaling contracts and the bench subcommand.

Both timed kernels are near linear in the pattern size: condensation
is O(V + E), and dedicated selection is one condensation plus one
maximum matching, O(E sqrt(V)).  On a few hundred states the fitted
log-log slope mostly shows fixed per-call costs.
"""

from __future__ import annotations

import copy
import math
import random
import time

from .generate import random_struct_matrix
from .graph import condense, state_digraph
from .mincis import dedicated_input_selection


def best_time(fn, repeats: int = 3) -> float:
    """Smallest wall time over a few runs; the floor is the honest signal."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sparse_square(n: int, mean_degree: float, seed: int):
    density = min(1.0, mean_degree / n)
    return random_struct_matrix(n, n, density, random.Random(seed))


def dedicated_selection_times(
    sizes, seed: int = 0, mean_degree: float = 3.0, repeats: int = 3
) -> list[tuple[int, float]]:
    samples = []
    for n in sizes:
        a = _sparse_square(n, mean_degree, seed + n)
        # a fresh copy per run, made untimed: a pattern caches its condensation
        copies = iter([copy.copy(a) for _ in range(repeats)])
        samples.append((n, best_time(lambda: dedicated_input_selection(next(copies)), repeats)))
    return samples


def condense_times(
    sizes, seed: int = 0, mean_degree: float = 4.0, repeats: int = 3
) -> list[tuple[int, float]]:
    samples = []
    for n in sizes:
        g = state_digraph(_sparse_square(n, mean_degree, seed + n))
        samples.append((n, best_time(lambda: condense(g), repeats)))
    return samples


def loglog_slope(samples) -> float:
    """Least-squares slope of log(time) against log(size)."""
    if len(samples) < 2:
        raise ValueError("need at least two sample points")
    xs = [math.log(n) for n, _ in samples]
    ys = [math.log(max(t, 1e-9)) for _, t in samples]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    covariance = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    variance = sum((x - mean_x) ** 2 for x in xs)
    if variance == 0:
        raise ValueError("need at least two different sizes")
    return covariance / variance
