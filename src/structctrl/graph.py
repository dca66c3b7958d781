"""The state digraph of a sparsity pattern and its SCC condensation.

The state digraph of a square pattern has one vertex per state and an
edge c -> r exactly when entry (r, c) is a star: a star in row r,
column c means state c feeds state r.  It is held as a scipy CSR
adjacency.  Its SCCs come from ``scipy.sparse.csgraph`` and are kept as
arrays only.  ``StructMatrix.condensation`` caches the result, so each
pattern is condensed and matched at most once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .structmat import ProblemInstance, StructMatrix, _column_indices


@dataclass(frozen=True, eq=False)
class Condensation:
    """Read-only intp arrays: each state's SCC, and the SCCs no other SCC's edge enters, ascending."""

    scc_id: np.ndarray
    scc_count: int
    sources: np.ndarray

    def __post_init__(self) -> None:
        """Freeze the arrays; ``perfbench/tracing.py`` wraps it."""
        for name in ("scc_id", "sources"):
            array = np.array(getattr(self, name), dtype=np.intp).reshape(-1)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __reduce__(self):  # copies and unpickled objects stay read-only
        return Condensation, (self.scc_id, self.scc_count, self.sources)

    @cached_property
    def non_top_linked(self) -> frozenset[int]:
        """``sources`` as a set of ints, built on first use."""
        return frozenset(self.sources.tolist())

    def _groups(self) -> tuple[np.ndarray, np.ndarray]:
        """States sorted by SCC, then index; SCC s is ``order[bounds[s]:bounds[s + 1]]``."""
        order = np.argsort(self.scc_id, kind="stable")
        return order, np.searchsorted(self.scc_id[order], np.arange(self.scc_count + 1))


def state_digraph(a: StructMatrix) -> csr_matrix:
    """CSR adjacency of the state digraph: row c lists the states c feeds."""
    if a.rows != a.cols:
        raise ValueError("state digraph needs a square pattern")
    indptr, rows = a.csc
    return csr_matrix((np.ones(len(rows)), rows, indptr), shape=(a.rows, a.rows))


def condense(g: csr_matrix) -> Condensation:
    """SCC decomposition of a state digraph and its source SCCs, ascending, O(V + E)."""
    count, labels = connected_components(g, directed=True, connection="strong")
    tails = np.repeat(labels, np.diff(g.indptr))
    heads = labels[g.indices]
    sources = np.flatnonzero(np.bincount(heads[tails != heads], minlength=count) == 0)
    return Condensation(labels, count, sources)


def input_coverage(inst: ProblemInstance, j_set) -> frozenset[int]:
    """Non-top-linked SCCs holding a state actuated by some input in j_set."""
    return _coverage(inst, _column_indices(inst.b, j_set, "input"))


def _coverage(inst: ProblemInstance, columns: list[int]) -> frozenset[int]:
    """``input_coverage`` of input columns that ``_column_indices`` has already checked."""
    cond = inst.a.condensation
    indptr, rows = inst.b.csc
    chosen = np.zeros(inst.p, dtype=bool)
    chosen[columns] = True
    actuated = cond.scc_id[rows[np.repeat(chosen, indptr[1:] - indptr[:-1])]]
    return cond.non_top_linked.intersection(actuated.tolist())


def condensation_report(cond: Condensation) -> str:
    """One line per SCC: members named x1, x2, ... by 1-based state, with a NON-TOP marker on sources.

    With no SCC at all the report is one empty line.
    """
    order, bounds = cond._groups()
    grouped = [f"x{v}" for v in (order + 1).tolist()]
    markers = np.full(cond.scc_count, "", dtype=object)
    markers[cond.sources] = " NON-TOP"
    bounds = bounds.tolist()
    report = "".join(
        f"SCC {s + 1}: {' '.join(grouped[lo:hi])}{marker}\n"
        for s, (lo, hi, marker) in enumerate(zip(bounds, bounds[1:], markers.tolist()))
    )
    return report or "\n"
