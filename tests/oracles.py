"""Independent reference implementations the suite checks against.

Each oracle favors the most literal formulation available over speed
and shares no code with the package path it referees: reachability by
repeated squaring, matchings by enumeration, cycle unions by
permutation search, covers by subfamily enumeration, dedicated
selection by one dense weighted assignment.  The rest are the
package's earlier, slower paths, kept when they were replaced: the
line-by-line pattern and cover parsers, the covering reduction that built one
frozenset per input, the greedy cover that rescans every gain,
the exact cover's two searches (size, then witness), its one
search on frozensets and its covering dual summed set by set in
order of gain, the condensation
built from tuples and sets with its per-vertex report, and the numeric
probe's star-by-star realisation.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from structctrl.matching import PerfectMatchingRequired, has_perfect_matching
from structctrl.mincis import InfeasibleInstance
from structctrl.setcover import SetCoverInstance
from structctrl.structmat import ParseError, StructMatrix


def reachability_closure(n: int, edges) -> np.ndarray:
    """Reflexive transitive closure by repeated squaring."""
    reach = np.eye(n, dtype=bool)
    for u, v in edges:
        reach[u, v] = True
    while True:
        squared = reach | (reach @ reach)
        if np.array_equal(squared, reach):
            return reach
        reach = squared


def scc_partition(n: int, edges) -> frozenset[frozenset[int]]:
    """Mutual-reachability classes, order-free."""
    reach = reachability_closure(n, edges)
    mutual = reach & reach.T
    return frozenset(
        frozenset(int(w) for w in np.flatnonzero(mutual[v])) for v in range(n)
    )


def max_matching_size(left_count: int, edges) -> int:
    """Maximum matching by enumeration over per-left-vertex assignments.

    Every matching appears as one assignment path, memoized on the set
    of used right vertices, so this is exhaustive without being slow.
    """
    adjacency: list[list[int]] = [[] for _ in range(left_count)]
    for l, r in sorted(edges):
        adjacency[l].append(r)
    seen: dict[tuple[int, int], int] = {}

    def best(level: int, used: int) -> int:
        if level == left_count:
            return 0
        key = (level, used)
        if key not in seen:
            value = best(level + 1, used)
            for r in adjacency[level]:
                bit = 1 << r
                if not used & bit:
                    value = max(value, 1 + best(level + 1, used | bit))
            seen[key] = value
        return seen[key]

    return best(0, 0)


def spanning_cycle_union_exists(a) -> bool:
    """Does the state digraph contain disjoint cycles covering every vertex?

    Such a family is exactly a permutation sigma with a star at
    (sigma(i), i) for every i, so search the permutations.
    """
    n = a.rows
    stars = a.stars
    return any(
        all((sigma[i], i) in stars for i in range(n))
        for sigma in itertools.permutations(range(n))
    )


def first_min_cover(universe_size: int, sets) -> tuple[int, ...] | None:
    """The first covering subfamily in ``itertools.combinations`` order, by size.

    Enumeration goes in increasing size, and within a size in
    lexicographic order, so this is the lexicographically smallest
    minimum cover.
    """
    universe = set(range(universe_size))
    for size in range(len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), size):
            covered: set[int] = set()
            for j in combo:
                covered |= sets[j]
            if covered == universe:
                return combo
    return None


def min_cover_size(universe_size: int, sets) -> int | None:
    """Smallest covering subfamily's size, by enumeration in increasing size."""
    cover = first_min_cover(universe_size, sets)
    return None if cover is None else len(cover)


def coverage_by_scan(cond, inst, j_set) -> frozenset[int]:
    """Non-top-linked SCCs actuated by j_set, by nested scan over stars."""
    selected = set(j_set)
    covered = set()
    for s in cond.non_top_linked:
        for v, home in enumerate(cond.scc_id):
            if home != s:
                continue
            for j in selected:
                if (v, j) in inst.b.stars:
                    covered.add(s)
    return frozenset(covered)


def harmonic(d: int) -> float:
    return sum(1.0 / i for i in range(1, d + 1))


def dedicated_count_by_assignment(a) -> int:
    """Fewest dedicated inputs, by one dense weighted assignment.

    The formulation of Pequito, Kar and Aguiar (IEEE TAC 2016): real
    columns keep their stars at a weight above any number of tie-break
    edges, and each source SCC adds a phantom column reaching its
    members at weight one.  The optimum maximizes the matching first
    and the number of source SCCs holding an unmatched row second; the
    count is the unmatched rows plus one state for every source SCC
    they miss.  O(n^3) time and dense memory, so meant for n <= 200.
    """
    n = a.rows
    reach = reachability_closure(n, {(c, r) for r, c in a.stars})
    mutual = reach & reach.T
    # a state sits in a source SCC when everything reaching it is reached back
    in_source = ~(reach & ~reach.T).any(axis=0)
    sources = {frozenset(np.flatnonzero(mutual[v]).tolist()) for v in np.flatnonzero(in_source)}
    heavy = n + 1
    weight = np.zeros((n + len(sources), n), dtype=np.int64)
    for r, c in a.stars:
        weight[c, r] = heavy
    for t, group in enumerate(sources):
        weight[n + t, sorted(group)] = 1
    left, right = linear_sum_assignment(weight, maximize=True)
    matched = {int(r) for l, r in zip(left, right) if l < n and weight[l, r] == heavy}
    unmatched = set(range(n)) - matched
    return len(unmatched) + sum(1 for group in sources if not group & unmatched)


def _significant_lines(lines: list[str], start: int):
    """Yield (1-based line number, stripped text), skipping blanks and comments."""
    for offset, raw in enumerate(lines):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        yield start + offset, text


def _parse_pattern_lines(lines: list[str], start: int) -> StructMatrix:
    rows = cols = -1
    stars: set[tuple[int, int]] = set()
    saw_header = False
    for lineno, text in _significant_lines(lines, start):
        parts = text.split()
        if not saw_header:
            if len(parts) != 2:
                raise ParseError(f"malformed header line {lineno}")
            try:
                rows, cols = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"malformed header line {lineno}") from None
            if rows < 0 or cols < 0:
                raise ParseError(f"negative dimension line {lineno}")
            saw_header = True
            continue
        if len(parts) != 2:
            raise ParseError(f"malformed entry line {lineno}")
        try:
            r, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"malformed entry line {lineno}") from None
        if not (0 <= r < rows and 0 <= c < cols):
            raise ParseError(f"entry out of range line {lineno}")
        if (r, c) in stars:
            raise ParseError(f"duplicate entry line {lineno}")
        stars.add((r, c))
    if not saw_header:
        raise ParseError("missing header")
    return StructMatrix(rows, cols, frozenset(stars))


def parse_pattern_by_lines(text: str) -> StructMatrix:
    """One pattern block, parsed and checked a line at a time."""
    return _parse_pattern_lines(text.splitlines(), 1)


def parse_blocks_by_lines(text: str) -> tuple[StructMatrix, StructMatrix]:
    """The two blocks of an instance file, parsed a line at a time."""
    lines = text.splitlines()
    separators = [i for i, raw in enumerate(lines) if raw.strip() == "---"]
    if not separators:
        raise ParseError("missing '---' separator between the two pattern blocks")
    if len(separators) > 1:
        raise ParseError(f"unexpected extra separator line {separators[1] + 1}")
    cut = separators[0]
    first = _parse_pattern_lines(lines[:cut], 1)
    second = _parse_pattern_lines(lines[cut + 1 :], cut + 2)
    return first, second


def _line_integers(text: str) -> list[int] | None:
    """The numbers of a line, or None unless it holds only ASCII decimal integers with optional signs."""
    if not text.isascii() or "_" in text:
        return None
    try:
        return [int(part) for part in text.split()]
    except ValueError:
        return None


def parse_set_cover_by_lines(text: str) -> SetCoverInstance:
    """A cover file parsed a line at a time, each line stripped, with one Python set per line."""
    lines = [line.strip() for line in text.splitlines()]
    head = _line_integers(lines[0]) if lines else None
    if head is None or len(head) != 2 or head[0] < 1 or head[1] < 0:
        raise ParseError("malformed header line 1")
    m, count = head
    if len(lines) < 1 + count:
        raise ParseError(f"expected {count} set lines, found {len(lines) - 1}")
    if m > 2**31 - 1:  # the universe is refused before any set line is read
        raise ValueError(f"dimensions must be at most 2**31 - 1, got {m}x{count}")
    sets: list[list[int]] = []
    for offset in range(count):
        lineno = offset + 2
        numbers = _line_integers(lines[1 + offset])
        if numbers is None:
            raise ParseError(f"malformed element line {lineno}")
        members: set[int] = set()
        for e in numbers:
            if not 0 <= e < m:
                raise ParseError(f"element out of range line {lineno}")
            if e in members:
                raise ParseError(f"duplicate element line {lineno}")
            members.add(e)
        sets.append(numbers)
    for extra in range(1 + count, len(lines)):
        if lines[extra]:
            raise ParseError(f"unexpected content line {extra + 1}")
    return SetCoverInstance(m, sets)


def mincis_reduce_by_frozensets(inst) -> tuple[frozenset[int], ...]:
    """The covering reduction's family, one frozenset of source ordinals per input column.

    Source SCCs are numbered by smallest member state, as in
    ``mincis_reduce``, and raise its errors with its messages.
    """
    if not has_perfect_matching(inst.a):
        raise PerfectMatchingRequired(
            "reduction precondition failed: state pattern admits no perfect matching"
        )
    cond = inst.a.condensation
    order, starts = cond._groups()
    ordinal = np.full(cond.scc_count, -1)
    ordinal[cond.sources[np.argsort(order[starts[cond.sources]])]] = np.arange(len(cond.sources))
    indptr, rows = inst.b.csc
    element = ordinal[cond.scc_id[rows]]  # per input star, column by column
    hit = element >= 0
    covered = element[hit]
    missing = np.flatnonzero(np.bincount(covered, minlength=len(cond.sources)) == 0).tolist()
    if missing:
        raise InfeasibleInstance(
            f"infeasible instance: non-top-linked SCCs {missing} actuated by no input"
        )
    bounds = np.concatenate(([0], np.cumsum(hit)))[indptr].tolist()
    elements = covered.tolist()
    return tuple(frozenset(elements[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def greedy_cover_by_rescan(inst) -> tuple[int, ...]:
    """Largest-gain-first cover, recomputing every set's gain at each pick."""
    uncovered = set(range(inst.universe_size))
    picked: list[int] = []
    while uncovered:
        gains = [len(s & uncovered) for s in inst.sets]
        j = gains.index(max(gains))
        picked.append(j)
        uncovered -= inst.sets[j]
    return tuple(sorted(picked))


def exact_min_cover_two_pass(inst) -> tuple[int, ...]:
    """Minimum cover, ties to the lexicographically smallest, in two searches.

    The first finds the optimal cardinality by branch and bound on the
    lowest uncovered element, from the greedy size; the second walks set
    indices in ascending order, taking a set before skipping it, and
    keeps the first path that reaches that cardinality.
    """
    sets = inst.sets
    universe = frozenset(range(inst.universe_size))
    best_size = len(greedy_cover_by_rescan(inst))

    def bound(uncovered: frozenset[int]) -> int:
        biggest = max(len(s & uncovered) for s in sets)
        return -(-len(uncovered) // biggest)

    pending = [(universe, 0)]
    while pending:
        uncovered, depth = pending.pop()
        if not uncovered:
            best_size = min(best_size, depth)
            continue
        if depth + bound(uncovered) >= best_size:
            continue
        e = min(uncovered)
        candidates = [j for j, s in enumerate(sets) if e in s]
        candidates.sort(key=lambda j: (-len(sets[j] & uncovered), j))
        pending.extend((uncovered - sets[j], depth + 1) for j in reversed(candidates))

    suffix_union: list[frozenset[int]] = [frozenset()] * (len(sets) + 1)
    for i in reversed(range(len(sets))):
        suffix_union[i] = suffix_union[i + 1] | sets[i]

    def viable(i: int, uncovered: frozenset[int], size: int) -> bool:
        if i == len(sets) or size == best_size:
            return False
        if not uncovered <= suffix_union[i]:
            return False
        biggest = max(len(sets[t] & uncovered) for t in range(i, len(sets)))
        return size + -(-len(uncovered) // biggest) <= best_size

    taken: list[tuple[int, frozenset[int]]] = []
    i, uncovered = 0, universe
    while uncovered:
        if viable(i, uncovered, len(taken)):
            if sets[i] & uncovered:
                taken.append((i, uncovered))
                uncovered = uncovered - sets[i]
            i += 1
            continue
        i, uncovered = taken.pop()
        i += 1
    return tuple(j for j, _ in taken)


def exact_min_cover_by_frozensets(inst) -> tuple[int, ...]:
    """Minimum cover, ties to the lexicographically smallest, by one
    bounded search on frozensets.

    ``completion(uncovered, first, budget)`` finds at most ``budget``
    sets, none below ``first``, that cover ``uncovered``: depth first,
    on the lowest uncovered element, larger gains first, cut when even
    the largest gain in the pool could not finish within the budget.
    It shrinks the greedy cover to the minimum size k, then pins the
    witness index by index against an incumbent size-k cover.
    """
    sets = inst.sets

    def completion(uncovered: frozenset[int], first: int, budget: int) -> tuple[int, ...] | None:
        pool = range(first, len(sets))
        pending = [(uncovered, ())]
        while pending:
            left, path = pending.pop()
            if not left:
                return path
            biggest = max((len(sets[t] & left) for t in pool), default=0)
            if not biggest or len(path) + -(-len(left) // biggest) > budget:
                continue
            e = min(left)
            candidates = sorted((j for j in pool if e in sets[j]), key=lambda j: (len(sets[j] & left), -j))
            pending.extend((left - sets[j], (*path, j)) for j in candidates)
        return None

    universe = frozenset(range(inst.universe_size))
    best = greedy_cover_by_rescan(inst)
    while (smaller := completion(universe, 0, len(best) - 1)) is not None:
        best = smaller
    k, incumbent = len(best), set(best)
    chosen: list[int] = []
    uncovered = universe
    for j, s in enumerate(sets):
        if not uncovered:
            break
        if j not in incumbent:
            if not s & uncovered:
                continue
            rest = completion(uncovered - s, j + 1, k - len(chosen) - 1)
            if rest is None:
                continue
            incumbent = set(rest)
        chosen.append(j)
        uncovered -= s
    return tuple(chosen)


def dual_bound_by_sorted_gains(left: int, gains: list[int], pool: list[int]) -> float:
    """The exact search's covering LP dual on the bitmask ``left``, set by set.

    Set i is the mask ``pool[i]``, with gain ``gains[i]`` on ``left``.  The
    sets are walked by gain, largest first, and each element weighs 1/g,
    g the gain of the first set that holds it; inf when ``pool`` misses
    part of ``left``.
    """
    total = 0.0
    for i in sorted(range(len(pool)), key=gains.__getitem__, reverse=True):
        hit = pool[i] & left
        if hit:
            total += hit.bit_count() / gains[i]
            left ^= hit
            if not left:
                break
    return float("inf") if left else total


def condense_by_tuples(g) -> tuple[tuple[int, ...], int, frozenset[int]]:
    """SCC labels, SCC count and source set of a CSR state digraph, as a
    tuple and a frozenset."""
    count, labels = connected_components(g, directed=True, connection="strong")
    tails = np.repeat(labels, np.diff(g.indptr))
    heads = labels[g.indices]
    non_top = frozenset(range(count)).difference(heads[tails != heads].tolist())
    return tuple(labels.tolist()), count, non_top


def condensation_report_by_vertex(scc_id, count, non_top) -> str:
    """One line per SCC, its members gathered by a walk over the states."""
    names = [f"x{v + 1}" for v in range(len(scc_id))]
    groups: list[list[int]] = [[] for _ in range(count)]
    for v, s in enumerate(scc_id):
        groups[s].append(v)
    lines = []
    for s, group in enumerate(groups):
        label = " ".join(names[v] for v in group)
        marker = " NON-TOP" if s in non_top else ""
        lines.append(f"SCC {s + 1}: {label}{marker}")
    return "\n".join(lines) + "\n"


def realisation_by_stars(inst, columns, rng) -> tuple[np.ndarray, np.ndarray]:
    """A and B restricted to ``columns``, one uniform [-1, 1] draw per
    star, A's stars and then B's, each in sorted (row, column) order."""
    n, width = inst.n, len(columns)
    offset = {j: t for t, j in enumerate(columns)}
    a = np.zeros((n, n))
    for r, c in sorted(inst.a.stars):
        a[r, c] = rng.uniform(-1.0, 1.0)
    b = np.zeros((n, width))
    for r, c in sorted((r, offset[j]) for r, j in inst.b.stars if j in offset):
        b[r, c] = rng.uniform(-1.0, 1.0)
    return a, b
