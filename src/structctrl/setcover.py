"""Set covering: greedy and exact solvers plus the pattern embedding.

A family is held as its incidence pattern: a ``StructMatrix`` with one
row per element and one column per set, whose ``csc`` lists each set's
elements in ascending order.  It is the input pattern of
``mincis_reduce`` with its rows merged by source SCC, and
``setcover_to_mincis`` hands it back as an input pattern.  Instances
are always coverable by construction; a family whose union misses part
of the universe is rejected up front, so solver loops can rely on
progress.

File format: header line ``M N`` (universe size, set count), then
exactly N lines, line j listing the members of set j as space-separated
0-based integers.  An empty line is an empty set.  Numbers follow the
pattern files' rule: ASCII decimal integers with an optional sign.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .structmat import ParseError, ProblemInstance, StructMatrix, identity_pattern
from .structmat import _column_indices, _integer_pair, _integers, _is_integer


class UncoverableError(ValueError):
    """The family's union misses part of the universe."""


def _columns(m: StructMatrix) -> list[list[int]]:
    """The rows of each column of a pattern, ascending, as Python lists."""
    indptr, rows = m.csc
    bounds, values = indptr.tolist(), rows.tolist()
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _incidence(universe_size: int, sets) -> StructMatrix:
    """The incidence pattern of a family given as collections of integer elements."""
    members = [list(s) for s in sets]
    for j, s in enumerate(members):  # checked here to name the set; the array skips the constructor's scan
        for e in s:
            if not _is_integer(e):
                raise ValueError(f"element {e!r} of set {j} is not an integer")
            if not 0 <= e < universe_size:
                raise ValueError(f"element {e} of set {j} outside universe")
    pairs = np.array([(e, j) for j, s in enumerate(members) for e in s], dtype=np.int64).reshape(-1, 2)
    return StructMatrix(universe_size, len(members), pairs)


@dataclass(frozen=True, init=False)
class SetCoverInstance:
    """A family of sets that covers ``range(universe_size)``, kept as its ``incidence`` pattern.

    ``sets`` holds each set's integer elements, repeats allowed, or is
    the universe_size x set-count incidence pattern itself.
    """

    universe_size: int
    incidence: StructMatrix

    def __init__(self, universe_size: int, sets) -> None:
        self.__post_init__(universe_size, sets)

    def __post_init__(self, universe_size: int, sets) -> None:
        """Check the universe and the family and build ``incidence``; ``perfbench/tracing.py`` wraps it."""
        if not _is_integer(universe_size):
            raise ValueError(f"universe size must be an integer, got {universe_size!r}")
        if universe_size < 1:
            raise ValueError("universe must be nonempty")
        incidence = sets if isinstance(sets, StructMatrix) else _incidence(universe_size, sets)
        if incidence.rows != universe_size:
            raise ValueError(f"incidence has {incidence.rows} rows for a universe of {universe_size}")
        seen = np.unique(incidence.csc[1])
        if seen.size < universe_size:  # the first seen.size + 10 numbers hold the ten smallest missing
            missing = np.setdiff1d(np.arange(min(universe_size, seen.size + 10)), seen)[:10].tolist()
            more = universe_size - seen.size - len(missing)
            raise UncoverableError(f"uncoverable: elements {missing}{f' and {more} more' if more else ''} in no set")
        object.__setattr__(self, "universe_size", int(universe_size))
        object.__setattr__(self, "incidence", incidence)

    def __reduce__(self):  # copies go through the checks and carry no ``sets`` view
        return SetCoverInstance, (self.universe_size, self.incidence)

    @cached_property
    def sets(self) -> tuple[frozenset[int], ...]:
        """Each set's elements, built from ``incidence`` on first use."""
        return tuple(map(frozenset, _columns(self.incidence)))


def is_cover(inst: SetCoverInstance, chosen) -> bool:
    picked = _column_indices(inst.incidence, chosen, "set")
    sets = _columns(inst.incidence)
    return len(set().union(*(sets[j] for j in picked))) == inst.universe_size


def greedy_cover(inst: SetCoverInstance) -> tuple[int, ...]:
    """Largest-gain-first cover, ties to the lowest set index.

    Lazy greedy (Minoux 1978): the heap holds each set's gain as last
    computed, keyed (-gain, index).  Gains only shrink, so when the top
    entry's gain is still current, no set gains more and no set of equal
    gain has a lower index; otherwise it goes back with its current gain.
    """
    return _greedy(_columns(inst.incidence), inst.universe_size)


def _greedy(sets: list[list[int]], universe_size: int) -> tuple[int, ...]:
    """``greedy_cover`` of the family whose set j holds the elements ``sets[j]``."""
    uncovered = set(range(universe_size))
    heap = [(-len(s), j) for j, s in enumerate(sets) if s]
    heapq.heapify(heap)
    picked: list[int] = []
    while uncovered:
        stale, j = heapq.heappop(heap)
        gain = len(uncovered.intersection(sets[j]))
        if gain == -stale:
            picked.append(j)
            uncovered.difference_update(sets[j])
        elif gain:
            heapq.heappush(heap, (-gain, j))
    return tuple(sorted(picked))


def _components(sets: list[list[int]], universe_size: int) -> list[list[int]]:
    """The non-empty sets grouped into connected components, each ascending.

    Two sets are connected when a chain of sets, each sharing an element
    with the next, joins them.  The groups come from union-find over the
    elements.
    """
    root = list(range(universe_size))

    def find(e: int) -> int:
        while root[e] != e:
            root[e] = root[root[e]]
            e = root[e]
        return e

    nonempty = [j for j, s in enumerate(sets) if s]
    for j in nonempty:
        top = find(sets[j][0])
        for e in sets[j][1:]:
            root[find(e)] = top
    groups: dict[int, list[int]] = {}
    for j in nonempty:
        groups.setdefault(find(sets[j][0]), []).append(j)
    return list(groups.values())


def exact_min_cover(inst: SetCoverInstance) -> tuple[int, ...]:
    """Minimum-cardinality cover, ties to the lexicographically smallest index set.

    Each connected component of the family is solved alone: its sets keep
    their index order, and a dict numbers its elements from 0 in
    ascending order.  The witness is the sorted union of the components'
    witnesses.  That union is the lexicographically smallest minimum
    cover: a minimum cover is one per component, and the pinning in
    ``_connected_min_cover`` decides set j from j's component alone.
    """
    sets = _columns(inst.incidence)
    chosen: list[int] = []
    for part in _components(sets, inst.universe_size):
        place = {e: i for i, e in enumerate(sorted({e for j in part for e in sets[j]}))}
        local_sets = [[place[e] for e in sets[j]] for j in part]
        chosen.extend(part[i] for i in _connected_min_cover(local_sets, len(place)))
    return tuple(sorted(chosen))


def _connected_min_cover(sets: list[list[int]], universe_size: int) -> tuple[int, ...]:
    """``exact_min_cover`` of a connected family, its sets and elements numbered from 0.

    Set j holds the elements ``sets[j]``.  One pass over the sets lists
    the sets ``holders[e]`` that hold element e, ascending by
    construction.  One bounded search, ``completion``, both
    proves the size and pins the witness.  From the greedy cover it is
    asked for a smaller cover until it finds none, which proves the size
    k minimum.  Then, in index order, set j is taken when some size-k
    cover that agrees with the decisions so far holds it: the incumbent
    such cover, or else a completion from the sets after j, which
    becomes the incumbent.

    The search runs on bitmasks: set j is the Python int ``masks[j]``
    with bit e set when e is in the set, so a gain is one ``&`` and one
    popcount.  The search returns the first leaf within budget
    in depth-first order, and a sound bound cuts only subtrees that hold
    no such leaf, so tightening the bound never changes the witness.
    """
    masks = [sum(1 << e for e in s) for s in sets]
    holders: list[list[int]] = [[] for _ in range(universe_size)]
    for j, s in enumerate(sets):
        for e in s:
            holders[e].append(j)

    def completion(uncovered: int, first: int, budget: int) -> tuple[int, ...] | None:
        """At most ``budget`` sets, none below ``first``, that cover ``uncovered``; or None.

        Depth first on its own stack, so depth is not bounded by the
        recursion limit.  It branches on the lowest uncovered element,
        larger gains first, and cuts a node whose remaining budget of r
        sets cannot finish even with the r largest gains in the pool.
        ``budget`` is never negative, so neither is r.
        """
        pool = masks[first:]
        pending = [(uncovered, ())]
        while pending:
            left, path = pending.pop()
            if not left:
                return path
            gains = [(m & left).bit_count() for m in pool]
            if sum(sorted(gains, reverse=True)[: budget - len(path)]) < left.bit_count():
                continue
            near = holders[(left & -left).bit_length() - 1]
            candidates = sorted((j for j in near if j >= first), key=lambda j: (gains[j - first], -j))
            pending.extend((left & ~masks[j], (*path, j)) for j in candidates)
        return None

    universe = (1 << universe_size) - 1
    best = _greedy(sets, universe_size)
    while (smaller := completion(universe, 0, len(best) - 1)) is not None:
        best = smaller
    k, incumbent = len(best), set(best)
    chosen: list[int] = []
    uncovered = universe
    for j, m in enumerate(masks):
        if not uncovered:
            break
        if j not in incumbent:  # the incumbent's indices below j are exactly ``chosen``
            if not m & uncovered:
                continue
            rest = completion(uncovered & ~m, j + 1, k - len(chosen) - 1)
            if rest is None:
                continue
            incumbent = set(rest)
        chosen.append(j)
        uncovered &= ~m
    return tuple(chosen)


def setcover_to_mincis(inst: SetCoverInstance) -> ProblemInstance:
    """Embed a covering instance as an input-selection instance.

    The state pattern is the identity (each element is an isolated
    self-looped state, hence its own source SCC), and input j actuates
    exactly the members of set j.  Selections that cover the universe
    are then exactly the structurally controllable input subsets.
    """
    return ProblemInstance(identity_pattern(inst.universe_size), inst.incidence)


def parse_set_cover(text: str) -> SetCoverInstance:
    lines = text.splitlines()
    head = _integer_pair(lines[0]) if lines else None
    if head is None or head[0] < 1 or head[1] < 0:
        raise ParseError("malformed header line 1")
    m, count = head
    if len(lines) < 1 + count:
        raise ParseError(f"expected {count} set lines, found {len(lines) - 1}")
    sets: list[list[int]] = []
    for offset in range(count):
        lineno = offset + 2
        numbers = _integers(lines[1 + offset])
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
        if lines[extra].strip():
            raise ParseError(f"unexpected content line {extra + 1}")
    return SetCoverInstance(m, sets)


def serialize_set_cover(inst: SetCoverInstance) -> str:
    lines = [f"{inst.universe_size} {inst.incidence.cols}"]
    lines.extend(" ".join(map(str, s)) for s in _columns(inst.incidence))
    return "\n".join(lines) + "\n"
