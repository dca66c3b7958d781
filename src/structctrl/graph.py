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
    """SCC partition of a state digraph plus its acyclic quotient.

    Read-only intp arrays: the SCC of each state, one (tail, head) row per
    quotient edge, and the SCCs with no incoming quotient edge, ascending.
    Indices are reverse topological: quotient edges go from high to low.
    """

    scc_id: np.ndarray
    scc_count: int
    dag_edges: np.ndarray
    sources: np.ndarray

    def __post_init__(self) -> None:
        """Freeze the arrays and check order and sources; ``perfbench/tracing.py`` wraps it."""
        for name, shape in (("scc_id", -1), ("dag_edges", (-1, 2)), ("sources", -1)):
            array = np.array(getattr(self, name), dtype=np.intp).reshape(shape)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        tails, heads = self.dag_edges.T
        if (tails == heads).any():
            raise ValueError("quotient edges never join an SCC to itself")
        if (tails < heads).any():
            raise ValueError("SCC indices must be reverse topological")
        entered = np.bincount(heads, minlength=self.scc_count)[: self.scc_count]
        if not np.array_equal(self.sources, np.flatnonzero(entered == 0)):
            raise ValueError("non_top_linked inconsistent with quotient edges")

    def __reduce__(self):  # copies and unpickled objects stay read-only
        return Condensation, (self.scc_id, self.scc_count, self.dag_edges, self.sources)

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
    """SCC decomposition of a state digraph, O(V + E).

    scipy numbers an SCC only after every SCC it reaches, so its labels
    are already reverse topological; ``Condensation`` checks that.
    """
    count, labels = connected_components(g, directed=True, connection="strong")
    tails = np.repeat(labels.astype(np.intp), np.diff(g.indptr))  # keys reach count**2
    heads = labels[g.indices]
    keys = np.sort((tails * count + heads)[tails != heads])
    keys = np.delete(keys, np.flatnonzero(keys[1:] == keys[:-1]))  # each quotient edge once
    edges = np.column_stack((keys // count, keys % count))
    sources = np.flatnonzero(np.bincount(edges[:, 1], minlength=count) == 0)
    return Condensation(labels, count, edges, sources)


def input_coverage(cond: Condensation, inst: ProblemInstance, j_set) -> frozenset[int]:
    """Non-top-linked SCCs holding a state actuated by some input in j_set."""
    return _coverage(cond, inst, _column_indices(inst.b, j_set, "input"))


def _coverage(cond: Condensation, inst: ProblemInstance, columns: list[int]) -> frozenset[int]:
    """``input_coverage`` of input columns that ``_column_indices`` has already checked."""
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
