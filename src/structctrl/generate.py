"""Seeded random patterns and instances.

Star placement scans entries in row-major order against a single
stdlib Mersenne generator, so one seed pins one exact pattern, byte for
byte, across runs and platforms.
"""

from __future__ import annotations

import random

from .structmat import ProblemInstance, StructMatrix


def random_struct_matrix(
    rows: int, cols: int, density: float, rng: random.Random
) -> StructMatrix:
    """Independent stars with the given probability, row-major draw order."""
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    stars = frozenset(
        (r, c) for r in range(rows) for c in range(cols) if rng.random() < density
    )
    return StructMatrix(rows, cols, stars)


def random_instance(
    n: int,
    p: int,
    density: float,
    seed: int,
    full_diagonal: bool = False,
) -> ProblemInstance:
    """Random n-state, p-input instance.

    With ``full_diagonal`` every diagonal entry of the state pattern is
    forced to a star (self-loop on every state), which guarantees a
    perfect matching whatever the random draws did.
    """
    if n < 1:
        raise ValueError("need at least one state")
    if p < 0:
        raise ValueError("input count must be nonnegative")
    rng = random.Random(seed)
    a = random_struct_matrix(n, n, density, rng)
    if full_diagonal:
        a = StructMatrix(n, n, a.stars | {(i, i) for i in range(n)})
    b = random_struct_matrix(n, p, density, rng)
    return ProblemInstance(a, b)
