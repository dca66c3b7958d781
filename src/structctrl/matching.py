"""Bipartite matching for generic-rank questions.

A pattern's columns are the left vertices and its rows the right
vertices, with one edge per star.  A matching saturating every row
certifies generic full row rank; the rows left unmatched are the rows
no column can claim.  Maximum matchings come from
``scipy.sparse.csgraph.maximum_bipartite_matching``, in O(E sqrt(V)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .structmat import StructMatrix


class PerfectMatchingRequired(ValueError):
    """An operation needed a perfectly matchable state pattern and got none."""


@dataclass(frozen=True)
class BipartiteGraph:
    left_count: int
    right_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.left_count < 0 or self.right_count < 0:
            raise ValueError("vertex counts must be nonnegative")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for l, r in self.edges:
            if not (0 <= l < self.left_count and 0 <= r < self.right_count):
                raise ValueError(f"edge ({l}, {r}) out of range")


@dataclass(frozen=True)
class Matching:
    """A matching plus the right vertices it leaves unsaturated."""

    pairs: frozenset[tuple[int, int]]
    right_unmatched: frozenset[int]

    def __post_init__(self) -> None:
        lefts = [l for l, _ in self.pairs]
        rights = [r for _, r in self.pairs]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise ValueError("pairs share a vertex")
        if self.right_unmatched & set(rights):
            raise ValueError("right_unmatched overlaps matched rights")

    def __len__(self) -> int:
        return len(self.pairs)


def _match_rows(csc: tuple[np.ndarray, np.ndarray], row_count: int, extra=()) -> np.ndarray:
    """Column matched to each row in a maximum matching, or -1.

    ``csc`` holds the columns as ``(indptr, rows)``, the way
    ``StructMatrix.csc`` gives them; each row list in ``extra`` adds one
    more column, numbered after those.  Deterministic for equal input.
    """
    indptr, rows = csc
    if extra:
        sizes = [len(column) for column in extra]
        indptr = np.concatenate((indptr, indptr[-1] + np.cumsum(sizes, dtype=np.int32)))
        rows = np.concatenate([rows, *(np.asarray(column, dtype=np.int32) for column in extra)])
    graph = csr_matrix((np.ones(len(rows)), rows, indptr), shape=(len(indptr) - 1, row_count))
    return maximum_bipartite_matching(graph, perm_type="row")


def maximum_matching(g: BipartiteGraph) -> Matching:
    """A maximum matching of ``g``, the same one for equal graphs."""
    columns = StructMatrix(g.right_count, g.left_count, [(r, l) for l, r in g.edges])
    owner = _match_rows(columns.csc, g.right_count).tolist()
    pairs = frozenset((l, r) for r, l in enumerate(owner) if l >= 0)
    free = frozenset(r for r, l in enumerate(owner) if l < 0)
    return Matching(pairs, free)


def has_perfect_matching(a: StructMatrix) -> bool:
    """True when some matching of the square pattern saturates every row."""
    if a.rows != a.cols:
        raise ValueError("perfect matching needs a square pattern")
    return bool((_match_rows(a.csc, a.rows) >= 0).all())
