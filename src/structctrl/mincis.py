"""Minimum input selection.

Choosing a minimum cardinality subset of input columns that keeps a
pattern pair structurally controllable is, for perfectly matchable
state patterns, the same problem as set covering over the
non-top-linked SCCs of the state digraph: input j covers SCC i exactly
when j actuates a state inside i.  ``mincis_reduce`` builds that
covering instance (set index j is input column j, so solutions lift
back unchanged), ``solve_mincis`` routes it through a covering solver,
and ``brute_force_mincis`` enumerates subsets directly as a slow,
assumption-free referee.

``dedicated_input_selection`` solves the one-input-per-state special
case in polynomial time from one maximum matching (Commault and Dion,
Automatica 2013): extend the state pattern by one phantom column per
non-top-linked SCC, with a star on each member of that SCC, then
actuate every row no real column matches plus one representative of
each non-top-linked SCC none of those rows falls in.  Unmatched rows
are forced by the rank condition and representatives by accessibility.
With k non-top-linked SCCs and nu the size of the extended matching,
every selection needs at least n + k - nu states and this one uses at
most that many, so it is optimal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ctrl import _controllable, is_structurally_controllable
from .graph import Condensation, condense, state_digraph
from .matching import PerfectMatchingRequired, _match_rows, has_perfect_matching
from .setcover import SetCoverInstance, exact_min_cover, greedy_cover
from .structmat import ProblemInstance, StructMatrix


class InfeasibleInstance(ValueError):
    """No input subset can make the pair structurally controllable."""


class BruteForceCapExceeded(ValueError):
    """Enumeration refused: too many input columns."""


@dataclass(frozen=True)
class SelectionResult:
    """A selection outcome. Infeasibility is a result here, not an error."""

    chosen: tuple[int, ...]
    feasible: bool
    certificate: str
    objective: int | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "chosen", tuple(sorted(self.chosen)))
        if self.certificate not in ("exact", "greedy", "brute-force"):
            raise ValueError(f"unknown certificate {self.certificate!r}")
        if self.feasible:
            if self.objective != len(self.chosen):
                raise ValueError("objective must equal the selection size")
        elif self.chosen or self.objective is not None:
            raise ValueError("infeasible results carry no selection")

    def report(self, index_base: int = 1) -> str:
        """Human-readable one-liner; indices shift by index_base."""
        if not self.feasible:
            return "INFEASIBLE"
        parts = [f"FEASIBLE {len(self.chosen)}:"]
        parts.extend(str(j + index_base) for j in self.chosen)
        parts.append(f"[{self.certificate}]")
        return " ".join(parts)


def _source_ordinals(cond: Condensation) -> np.ndarray:
    """Number the non-top-linked SCCs 0..k-1 by smallest member state; -1 elsewhere."""
    _, smallest = np.unique(cond.labels, return_index=True)
    sources = np.array(sorted(cond.non_top_linked))
    ordinal = np.full(cond.scc_count, -1)
    ordinal[sources[np.argsort(smallest[sources])]] = np.arange(len(sources))
    return ordinal


def mincis_reduce(inst: ProblemInstance) -> SetCoverInstance:
    """Build the covering instance whose solutions are minimum selections.

    Requires a perfectly matchable state pattern; universe element t is
    the t-th non-top-linked SCC (ordered by smallest member state), and
    set j collects the SCCs that input column j actuates.
    """
    if not has_perfect_matching(inst.a):
        raise PerfectMatchingRequired(
            "reduction precondition failed: state pattern admits no perfect matching"
        )
    cond = condense(state_digraph(inst.a))
    ordinal = _source_ordinals(cond)
    indptr, rows = inst.b.csc
    element = ordinal[cond.labels[rows]]  # per input star, column by column
    hit = element >= 0
    covered = element[hit]
    actuated = np.zeros(len(cond.non_top_linked), dtype=bool)
    actuated[covered] = True
    if not actuated.all():
        missing = np.flatnonzero(~actuated).tolist()
        raise InfeasibleInstance(
            f"infeasible instance: non-top-linked SCCs {missing} actuated by no input"
        )
    bounds = np.concatenate(([0], np.cumsum(hit)))[indptr].tolist()
    elements = covered.tolist()
    sets = tuple(frozenset(elements[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    return SetCoverInstance(len(cond.non_top_linked), sets)


def solve_mincis(inst: ProblemInstance, mode: str = "exact") -> SelectionResult:
    """Minimum (or greedy) input selection through the covering reduction.

    Infeasible instances come back as an infeasible result; a state
    pattern without a perfect matching raises, because the reduction
    itself is unsound there (use brute_force_mincis instead).
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    try:
        cover = mincis_reduce(inst)
    except InfeasibleInstance:
        return SelectionResult((), False, mode, None)
    chosen = exact_min_cover(cover) if mode == "exact" else greedy_cover(cover)
    result = SelectionResult(chosen, True, mode, len(chosen))
    if not is_structurally_controllable(inst, result.chosen):
        raise AssertionError("selection failed its own controllability check")
    return result


def brute_force_mincis(inst: ProblemInstance, cap: int = 20) -> SelectionResult:
    """Exhaustive referee: smallest subset by size, then lexicographic.

    Works on any instance, no matching precondition, at exponential
    cost; refuses instances with more than ``cap`` input columns.
    """
    if inst.p > cap:
        raise BruteForceCapExceeded(
            f"{inst.p} input columns exceed the enumeration cap of {cap}"
        )
    everything = tuple(range(inst.p))
    cond = condense(state_digraph(inst.a))
    if not _controllable(inst, cond, everything):
        # Monotone: if the full set fails, every subset fails.
        return SelectionResult((), False, "brute-force", None)
    for size in range(inst.p + 1):
        for subset in itertools.combinations(everything, size):
            if _controllable(inst, cond, subset):
                return SelectionResult(subset, True, "brute-force", size)
    raise AssertionError("full set passed but enumeration found nothing")


def _biased_unmatched_rows(a: StructMatrix, cond: Condensation) -> frozenset[int]:
    """Rows no real column matches in one maximum matching of the state
    pattern extended by a phantom column per non-top-linked SCC.

    A phantom column has a star on every member of its SCC, so each
    phantom that finds a row marks one more SCC holding an unmatched row.
    """
    members = cond.members()
    phantoms = [members[s] for s in sorted(cond.non_top_linked)]
    owner = _match_rows(a.csc, a.rows, phantoms)
    return frozenset(np.flatnonzero((owner < 0) | (owner >= a.cols)).tolist())


def dedicated_input_selection(a: StructMatrix) -> SelectionResult:
    """Minimum set of states to actuate with their own dedicated inputs.

    Always feasible: actuating every state trivially suffices.  Runs in
    O(E sqrt(n)) for E stars; the result is exact.
    """
    if a.rows != a.cols:
        raise ValueError("dedicated selection needs a square pattern")
    cond = condense(state_digraph(a))
    unmatched = _biased_unmatched_rows(a, cond)
    chosen = set(unmatched)
    hit = {cond.scc_id[v] for v in unmatched}
    members = cond.members()
    for s in sorted(cond.non_top_linked):
        if s not in hit:
            chosen.add(members[s][0])
    return SelectionResult(tuple(chosen), True, "exact", len(chosen))


def _require_self_loops(w: StructMatrix) -> None:
    if w.rows != w.cols:
        raise ValueError("agent coupling pattern must be square")
    for i in range(w.rows):
        if (i, i) not in w.stars:
            raise ValueError(f"agent {i} has no self-loop; leader selection needs one per agent")


def leader_selection_unconstrained(w: StructMatrix) -> SelectionResult:
    """Fewest leaders when any agent may lead.

    The coupling pattern must carry a self-loop on every agent (each
    agent weighs its own state), which also guarantees the perfect
    matching the covering machinery relies on.
    """
    _require_self_loops(w)
    return dedicated_input_selection(w)


def leader_selection_constrained(w: StructMatrix, b: StructMatrix) -> SelectionResult:
    """Fewest leaders when column j of ``b`` lists the agents leader j may steer."""
    _require_self_loops(w)
    return solve_mincis(ProblemInstance(w, b), mode="exact")
