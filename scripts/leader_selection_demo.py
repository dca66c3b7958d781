"""Walk the two worked networks end to end.

The first network has nine agents in two weakly coupled communities and
four candidate input channels; selecting leaders means covering both
non-top-linked SCCs, and one channel happens to reach both.  The second
has thirteen self-looped agents fed by four source chains and
unrestricted inputs, where leader selection picks exactly the four
sources, the smallest agent of each non-top-linked SCC.
"""

from __future__ import annotations

from structctrl.demo import four_source_network, two_community_network
from structctrl.graph import condensation_report
from structctrl.mincis import (
    leader_selection_unconstrained,
    mincis_reduce,
    solve_mincis,
)
from structctrl.setcover import serialize_set_cover


def constrained() -> None:
    inst = two_community_network()
    print(f"== constrained: {inst.label} ==")
    print(condensation_report(inst.a.condensation), end="")
    print("covering instance (universe = non-top-linked SCCs):")
    print(serialize_set_cover(mincis_reduce(inst)), end="")
    print("exact :", solve_mincis(inst).report())
    print("greedy:", solve_mincis(inst, mode="greedy").report())


def unconstrained() -> None:
    inst = four_source_network()
    print(f"== unconstrained: {inst.label} ==")
    print(condensation_report(inst.a.condensation), end="")
    print("leaders:", leader_selection_unconstrained(inst.a).report())


if __name__ == "__main__":
    constrained()
    print()
    unconstrained()
