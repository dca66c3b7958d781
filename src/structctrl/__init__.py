"""Structural controllability analysis and minimum input selection.

Everything operates on {0, star} sparsity patterns: a property asserted
here holds for almost every numeric realization of the pattern.
"""

from .ctrl import is_structurally_controllable, numeric_probe
from .graph import (
    Condensation,
    condensation_report,
    condense,
    input_coverage,
    state_digraph,
)
from .matching import (
    BipartiteGraph,
    Matching,
    PerfectMatchingRequired,
    has_perfect_matching,
    maximum_matching,
)
from .mincis import (
    BruteForceCapExceeded,
    InfeasibleInstance,
    SelectionResult,
    brute_force_mincis,
    dedicated_input_selection,
    leader_selection_constrained,
    leader_selection_unconstrained,
    mincis_reduce,
    solve_mincis,
)
from .setcover import (
    SetCoverInstance,
    UncoverableError,
    exact_min_cover,
    greedy_cover,
    is_cover,
    parse_set_cover,
    serialize_set_cover,
    setcover_to_mincis,
)
from .structmat import (
    ParseError,
    ProblemInstance,
    StructMatrix,
    identity_pattern,
    parse_instance,
    parse_instance_blocks,
    parse_struct_matrix,
    serialize_instance,
    serialize_struct_matrix,
)

__version__ = "0.1.0"
