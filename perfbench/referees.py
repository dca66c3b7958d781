"""Referees for the benchmark's outputs, written apart from structctrl.

Nothing here imports the package.  Graph questions go to
``scipy.sparse.csgraph``, the exact cover size to ``scipy.optimize.milp``
(HiGHS), and the greedy cover is a short numpy loop over an incidence
matrix the benchmark builds itself.  Patterns are given as parallel
row/column index arrays of their stars; a star (r, c) of the state
pattern means state c feeds state r.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    maximum_bipartite_matching,
)


def _adjacency(size: int, heads, tails) -> csr_matrix:
    ones = np.ones(len(heads), dtype=np.int8)
    return csr_matrix((ones, (heads, tails)), shape=(size, size))


def scc_sources(n: int, a_rows, a_cols) -> tuple[np.ndarray, np.ndarray]:
    """SCC label of every state and the labels of the source SCCs.

    A source SCC is one that no edge enters from another SCC; these are
    the paper's non-top-linked SCCs.
    """
    count, label = connected_components(
        _adjacency(n, a_cols, a_rows), directed=True, connection="strong"
    )
    entered = np.zeros(count, dtype=bool)
    cross = label[a_cols] != label[a_rows]
    entered[label[a_rows[cross]]] = True
    return label, np.flatnonzero(~entered)


def matching_size(rows, cols, row_count: int, col_count: int) -> int:
    """Maximum matching between the pattern's rows and columns (its generic rank)."""
    ones = np.ones(len(rows), dtype=np.int8)
    pattern = csr_matrix((ones, (rows, cols)), shape=(row_count, col_count))
    return int(np.count_nonzero(maximum_bipartite_matching(pattern, perm_type="column") >= 0))


def controllable(n: int, a_rows, a_cols, b_rows, b_cols) -> bool:
    """Structural controllability of (A, B) with the given input stars.

    Input columns must be numbered 0..w-1.  Accessibility: a breadth
    first search from a super-source that feeds every actuated state
    reaches all n states.  Generic rank: [A B] has a matching covering
    every state row.
    """
    if len(b_rows) == 0:
        return False
    source = np.full(len(b_rows), n)
    graph = _adjacency(n + 1, np.concatenate([a_cols, source]), np.concatenate([a_rows, b_rows]))
    if len(breadth_first_order(graph, n, directed=True, return_predecessors=False)) != n + 1:
        return False
    width = n + int(b_cols.max()) + 1
    rank = matching_size(
        np.concatenate([a_rows, b_rows]), np.concatenate([a_cols, n + b_cols]), n, width
    )
    return rank == n


def controllable_with(n: int, a_rows, a_cols, b_rows, b_cols, chosen) -> bool:
    """Controllability when only the input columns in ``chosen`` are kept."""
    chosen = np.asarray(sorted(chosen), dtype=np.int64)
    keep = np.isin(b_cols, chosen)
    return controllable(n, a_rows, a_cols, b_rows[keep], np.searchsorted(chosen, b_cols[keep]))


def dedicated_controllable(n: int, a_rows, a_cols, states) -> bool:
    """Controllability when each chosen state gets an input of its own."""
    states = np.asarray(sorted(states), dtype=np.int64)
    return controllable(n, a_rows, a_cols, states, np.arange(len(states)))


def dedicated_count(n: int, a_rows, a_cols) -> int:
    """Fewest dedicated inputs: n + k - nu.

    k is the number of source SCCs and nu the maximum matching of the
    state rows against the pattern's columns plus one phantom column per
    source SCC, joined to that SCC's members.  Unmatched rows need an
    input for rank; a source SCC needs one for reach unless a phantom
    column could take one of its rows.
    """
    label, sources = scc_sources(n, a_rows, a_cols)
    phantom_of = np.full(label.max() + 1, -1)
    phantom_of[sources] = np.arange(len(sources))
    members = np.flatnonzero(phantom_of[label] >= 0)
    rows = np.concatenate([a_rows, members])
    cols = np.concatenate([a_cols, n + phantom_of[label[members]]])
    return n + len(sources) - matching_size(rows, cols, n, n + len(sources))


def cover_incidence(label, sources, p: int, b_rows, b_cols) -> np.ndarray:
    """Boolean inputs x source-SCCs matrix: input j actuates a state of source t."""
    ordinal = np.full(label.max() + 1, -1)
    ordinal[sources] = np.arange(len(sources))
    hit = ordinal[label[b_rows]]
    keep = hit >= 0
    incidence = np.zeros((p, len(sources)), dtype=bool)
    incidence[b_cols[keep], hit[keep]] = True
    return incidence


def greedy_picks(incidence: np.ndarray) -> list[int]:
    """Largest-gain-first cover, ties to the lowest set index, picks sorted."""
    weights = incidence.astype(np.float64)
    uncovered = np.ones(incidence.shape[1])
    picks = []
    while uncovered.any():
        gains = weights @ uncovered
        j = int(np.argmax(gains))
        if gains[j] == 0:
            raise ValueError("family does not cover the universe")
        picks.append(j)
        uncovered[incidence[j]] = 0.0
    return sorted(picks)


def min_cover_size(incidence: np.ndarray) -> int:
    """Optimal cover size by integer programming (HiGHS)."""
    p = incidence.shape[0]
    result = milp(
        c=np.ones(p),
        constraints=LinearConstraint(incidence.T.astype(np.float64), lb=1.0, ub=np.inf),
        integrality=np.ones(p),
        bounds=Bounds(0.0, 1.0),
    )
    if result.status != 0:
        raise ValueError(f"milp failed: {result.message}")
    return int(round(result.fun))
