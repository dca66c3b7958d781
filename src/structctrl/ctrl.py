"""Structural controllability tests.

A pattern pair is structurally controllable when almost every numeric
realization is controllable.  The structural test decomposes into two
pattern conditions, jointly equivalent to almost-sure controllability:

* accessibility: every state is reachable from a selected input in the
  system digraph;
* generic rank: the bipartite graph of the compound pattern [A  B(J)]
  (columns on the left, state rows on the right) admits a matching that
  saturates every row.

Both read the analysis the state pattern caches: each pattern is
condensed and matched at most once, on first use, however many
selections are tested against it.  Only a state pattern without a
perfect matching needs one more matching, of [A  B(J)], per selection.

``numeric_probe`` cross-checks the structural verdict on random numeric
realizations.  A full-rank probe certifies structural controllability;
a deficient probe on a structurally controllable pair can only be a
numeric false negative, never a counterexample.
"""

from __future__ import annotations

import numpy as np

from .graph import _input_columns, input_coverage
from .matching import PerfectMatchingRequired, _match_rows, has_perfect_matching
from .structmat import ProblemInstance, StructMatrix, _star_columns

_MASK64 = (1 << 64) - 1
_PROBE_BYTES = 1 << 30  # the most the probe's dense mask and Krylov matrix may take together


def is_structurally_controllable(inst: ProblemInstance, j_set) -> bool:
    """Accessibility plus generic-rank test for the selected inputs.

    Every state is reachable from the inputs exactly when every
    non-top-linked SCC holds an actuated state, since each SCC is
    reachable from some non-top-linked one.
    """
    columns = _input_columns(inst, j_set)
    cond = inst.a.condensation
    if input_coverage(cond, inst, columns) != cond.non_top_linked:
        return False
    if inst.a.perfectly_matchable:  # a perfect matching of A saturates every row of [A  B(J)]
        return True
    indptr, rows = inst.b.csc
    inputs = [rows[indptr[j] : indptr[j + 1]] for j in columns]
    return bool((_match_rows(inst.a.csc, inst.n, inputs) >= 0).all())


def is_structurally_controllable_pm(inst: ProblemInstance, j_set) -> bool:
    """Covering-form test, valid only for perfectly matchable state patterns.

    With a perfect matching in hand the rank condition is automatic and
    controllability collapses to one question: does some selected input
    actuate each non-top-linked SCC?  Raises PerfectMatchingRequired
    rather than silently falling back to the general test.
    """
    if not has_perfect_matching(inst.a):
        raise PerfectMatchingRequired("state pattern admits no perfect matching")
    cond = inst.a.condensation
    return input_coverage(cond, inst, j_set) == cond.non_top_linked


def _star_mask(m: StructMatrix) -> np.ndarray:
    mask = np.zeros((m.rows, m.cols), dtype=bool)
    mask[m.csc[1], _star_columns(m)] = True
    return mask


def _realise(stars: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform [-1, 1] values on a star mask, drawn in row-major order."""
    values = np.zeros(stars.shape)
    values[stars] = rng.uniform(-1.0, 1.0, size=np.count_nonzero(stars))
    return values


def numeric_probe(
    inst: ProblemInstance,
    j_set,
    trials: int = 3,
    seed: int = 0,
    tol: float = 1e-8,
) -> bool:
    """Monte Carlo controllability check on random realizations.

    Each trial fills the stars with independent uniform [-1, 1] draws
    and tests the rank of [B, AB, ..., A^(n-1) B]; singular values below
    tol times the largest count as zero, so tol must lie strictly between
    0 and 1 (from 1 up, not even the largest would count).  True as soon
    as one trial reaches full rank.  Trial t uses a generator derived
    from (seed, t), so reruns and partial runs agree.  Raises ValueError,
    before allocating, when the dense n x n mask and the n x n|J| float64
    Krylov matrix would exceed ``_PROBE_BYTES``.
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    if not 0 < tol < 1:  # also refuses nan
        raise ValueError(f"tolerance must lie strictly between 0 and 1, got {tol:g}")
    columns = _input_columns(inst, j_set)
    if not columns:
        return False
    n, width = inst.n, len(columns)
    planned = n * n + 8 * n * n * width
    if planned > _PROBE_BYTES:
        raise ValueError(
            f"numeric probe of {n} states and {width} inputs needs {planned / 2**30:.1f} GiB, "
            f"over its budget of {_PROBE_BYTES / 2**30:g} GiB"
        )
    a_stars, b_stars = _star_mask(inst.a), _star_mask(inst.b)[:, columns]
    for trial in range(trials):
        rng = np.random.default_rng((seed & _MASK64, trial))
        a, b = _realise(a_stars, rng), _realise(b_stars, rng)
        krylov = np.empty((n, n * width))
        block = b
        for power in range(n):
            krylov[:, power * width : (power + 1) * width] = block
            block = a @ block
        singular = np.linalg.svd(krylov, compute_uv=False)
        if singular.size and singular[0] > 0.0:
            if int(np.count_nonzero(singular > tol * singular[0])) == n:
                return True
    return False
