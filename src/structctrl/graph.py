"""The state digraph of a sparsity pattern and its SCC condensation.

The state digraph of a square pattern has one vertex per state and an
edge c -> r exactly when entry (r, c) is a star: a star in row r,
column c means state c feeds state r.  It is held as a scipy CSR
adjacency, and its strongly connected components come from
``scipy.sparse.csgraph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .structmat import ProblemInstance, StructMatrix


@dataclass(frozen=True)
class Condensation:
    """SCC partition of a state digraph plus its acyclic quotient.

    SCC indices follow reverse topological order: every quotient edge
    goes from a higher index to a lower one.  ``non_top_linked`` holds
    the SCCs with no incoming quotient edge.
    """

    scc_id: tuple[int, ...]
    scc_count: int
    dag_edges: frozenset[tuple[int, int]]
    non_top_linked: frozenset[int]

    def __post_init__(self) -> None:
        for i, k in self.dag_edges:
            if i == k:
                raise ValueError("quotient edges never join an SCC to itself")
            if i < k:
                raise ValueError("SCC indices must be reverse topological")
        entered = {k for _, k in self.dag_edges}
        if self.non_top_linked != frozenset(range(self.scc_count)) - entered:
            raise ValueError("non_top_linked inconsistent with quotient edges")

    @cached_property
    def labels(self) -> np.ndarray:
        """``scc_id`` as a read-only int array, built on first use."""
        labels = np.array(self.scc_id, dtype=np.intp)
        labels.flags.writeable = False
        return labels

    def members(self) -> tuple[tuple[int, ...], ...]:
        """Vertices of each SCC, grouped by SCC index, each group sorted."""
        groups: list[list[int]] = [[] for _ in range(self.scc_count)]
        for v, s in enumerate(self.scc_id):
            groups[s].append(v)
        return tuple(tuple(g) for g in groups)


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
    tails = np.repeat(labels, np.diff(g.indptr))
    heads = labels[g.indices]
    cross = tails != heads
    entered = heads[cross].tolist()
    dag_edges = frozenset(zip(tails[cross].tolist(), entered))
    non_top = frozenset(range(count)).difference(entered)
    return Condensation(tuple(labels.tolist()), count, dag_edges, non_top)


def input_coverage(cond: Condensation, inst: ProblemInstance, j_set) -> frozenset[int]:
    """Non-top-linked SCCs holding a state actuated by some input in j_set."""
    selected = list(set(j_set))
    for j in selected:
        if not 0 <= j < inst.p:
            raise IndexError(f"input index {j} out of range for {inst.p} inputs")
    indptr, rows = inst.b.csc
    chosen = np.zeros(inst.p, dtype=bool)
    chosen[selected] = True
    actuated = cond.labels[rows[np.repeat(chosen, indptr[1:] - indptr[:-1])]]
    return cond.non_top_linked.intersection(actuated.tolist())


def condensation_report(cond: Condensation, names=None) -> str:
    """One line per SCC: members, 1-based, with a NON-TOP marker on sources."""
    if names is None:
        names = [f"x{v + 1}" for v in range(len(cond.scc_id))]
    lines = []
    for s, group in enumerate(cond.members()):
        label = " ".join(names[v] for v in group)
        marker = " NON-TOP" if s in cond.non_top_linked else ""
        lines.append(f"SCC {s + 1}: {label}{marker}")
    return "\n".join(lines) + "\n"
