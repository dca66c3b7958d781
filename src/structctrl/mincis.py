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

from .ctrl import is_structurally_controllable
from .matching import PerfectMatchingRequired, _match_rows, has_perfect_matching
from .setcover import SetCoverInstance, exact_min_cover, greedy_cover
from .structmat import ProblemInstance, StructMatrix, _star_columns


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

    def report(self) -> str:
        """Human-readable one-liner with 1-based input numbers."""
        if not self.feasible:
            return "INFEASIBLE"
        parts = [f"FEASIBLE {len(self.chosen)}:"]
        parts.extend(str(j + 1) for j in self.chosen)
        parts.append(f"[{self.certificate}]")
        return " ".join(parts)


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
    cond = inst.a.condensation
    # number the sources 0..k-1 by smallest member state, -1 elsewhere
    order, starts = cond._groups()
    ordinal = np.full(cond.scc_count, -1)
    ordinal[cond.sources[np.argsort(order[starts[cond.sources]])]] = np.arange(len(cond.sources))
    element = ordinal[cond.scc_id[inst.b.csc[1]]]  # per input star, column by column
    hit = element >= 0
    k = len(cond.sources)
    missing = np.flatnonzero(np.bincount(element[hit], minlength=k) == 0).tolist()
    if missing:
        raise InfeasibleInstance(
            f"infeasible instance: non-top-linked SCCs {missing} actuated by no input"
        )
    pairs = np.column_stack((element, _star_columns(inst.b)))[hit]
    return SetCoverInstance(k, StructMatrix(k, inst.p, pairs))


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
    if not is_structurally_controllable(inst, everything):
        # Monotone: if the full set fails, every subset fails.
        return SelectionResult((), False, "brute-force", None)
    for size in range(inst.p + 1):
        for subset in itertools.combinations(everything, size):
            if is_structurally_controllable(inst, subset):
                return SelectionResult(subset, True, "brute-force", size)
    raise AssertionError("full set passed but enumeration found nothing")


def dedicated_input_selection(a: StructMatrix) -> SelectionResult:
    """Minimum set of states to actuate with their own dedicated inputs.

    Always feasible: actuating every state suffices.  Exact, in O(E sqrt(n))
    for E stars; a non-square pattern raises ValueError from its condensation.
    """
    cond = a.condensation
    order, bounds = cond._groups()
    phantoms = [order[bounds[s] : bounds[s + 1]] for s in cond.sources.tolist()]
    owner = _match_rows(a.csc, a.rows, phantoms)
    unmatched = np.flatnonzero((owner < 0) | (owner >= a.cols))
    missed = cond.sources[~np.isin(cond.sources, cond.scc_id[unmatched])]
    chosen = np.concatenate((unmatched, order[bounds[missed]])).tolist()
    return SelectionResult(tuple(chosen), True, "exact", len(chosen))


def _require_self_loops(w: StructMatrix) -> None:
    if w.rows != w.cols:
        raise ValueError("agent coupling pattern must be square")
    rows = w.csc[1]
    looped = np.bincount(rows[rows == _star_columns(w)], minlength=w.rows)
    if not looped.all():
        raise ValueError(f"agent {looped.argmin()} has no self-loop; leader selection needs one per agent")


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
