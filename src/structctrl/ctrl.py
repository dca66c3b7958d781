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
selections are tested against it.  When the state pattern has a perfect
matching, the rank condition holds for every J, so the test is the
paper's covering form: some selected input actuates each non-top-linked
SCC.  Only a state pattern without one needs one more matching, of
[A  B(J)], per selection.

``numeric_probe`` cross-checks the structural verdict on random numeric
realizations, with scaled Krylov blocks, to about n = 120.  Full rank
certifies structural controllability; rank deficiency on a structurally
controllable pair is a numeric false negative, never a counterexample.
"""

from __future__ import annotations

import numpy as np

from .graph import _coverage
from .matching import _match_rows
from .structmat import _BUDGET_BYTES, ProblemInstance, StructMatrix, _column_indices, _star_columns

_MASK64 = (1 << 64) - 1


def is_structurally_controllable(inst: ProblemInstance, j_set) -> bool:
    """Accessibility plus generic-rank test for the selected inputs.

    Every state is reachable from the inputs exactly when every
    non-top-linked SCC holds an actuated state, since each SCC is
    reachable from some non-top-linked one.
    """
    columns = _column_indices(inst.b, j_set, "input")
    if _coverage(inst, columns) != inst.a.condensation.non_top_linked:
        return False
    if inst.a.perfectly_matchable:  # a perfect matching of A saturates every row of [A  B(J)]
        return True
    indptr, rows = inst.b.csc
    inputs = [rows[indptr[j] : indptr[j + 1]] for j in columns]
    return bool((_match_rows(inst.a.csc, inst.n, inputs) >= 0).all())


def _star_mask(m: StructMatrix) -> np.ndarray:
    mask = np.zeros((m.rows, m.cols), dtype=bool)
    mask[m.csc[1], _star_columns(m)] = True
    return mask


def _probe_bytes(inst: ProblemInstance, width: int) -> int:
    """Bytes ``numeric_probe`` may hold at once with ``width`` inputs, summed over its phases.

    Bool masks of A, B and the selection plus the star indices that fill
    them; A's float64 realisation; the selection's realisation, draws and
    two Krylov blocks; the Krylov matrix and the copy its SVD works on.
    """
    n, stars = inst.n, inst.a.csc[1].size + inst.b.csc[1].size
    return n * (n + inst.p) + 16 * stars + 8 * n * n + 33 * n * width + 16 * n * n * width


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
    and tests the rank of [B, AB, ..., A^(n-1) B], each block after B
    scaled to largest magnitude 1 (same rank, finite values); singular values below
    tol times the largest count as zero, so tol must lie strictly between
    0 and 1 (from 1 up, not even the largest would count).  True as soon
    as one trial reaches full rank.  Trial t uses a generator derived
    from (seed, t), so reruns and partial runs agree.  Raises ValueError,
    before allocating, when ``_probe_bytes`` exceeds ``_BUDGET_BYTES``.
    On ``random_instance(n, 6, 0.05, seed, full_diagonal=True)`` it misses
    none of 30 controllable pairs at n = 60 and 120, but all 30 at n = 200.
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    if not 0 < tol < 1:  # also refuses nan
        raise ValueError(f"tolerance must lie strictly between 0 and 1, got {tol:g}")
    columns = _column_indices(inst.b, j_set, "input")
    if not columns:
        return False
    n, width = inst.n, len(columns)
    planned = _probe_bytes(inst, width)
    if planned > _BUDGET_BYTES:
        raise ValueError(
            f"numeric probe of {n} states and {width} inputs needs {planned / 2**30:.1f} GiB, "
            f"over its budget of {_BUDGET_BYTES / 2**30:g} GiB"
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
            block /= max(block.max(), -block.min(), np.finfo(float).tiny)  # same span, no overflow
        singular = np.linalg.svd(krylov, compute_uv=False)
        del a, b, block, krylov  # the next trial's arrays replace these rather than join them
        if np.count_nonzero(singular > tol * singular[0]) == n:  # none counts when all are 0
            return True
    return False
