"""Set covering: greedy and exact solvers plus the pattern embedding.

Instances are always coverable by construction; a family whose union
misses part of the universe is rejected up front, so solver loops can
rely on progress.

File format: header line ``M N`` (universe size, set count), then
exactly N lines, line j listing the members of set j as space-separated
0-based integers.  An empty line is an empty set.  Numbers follow the
pattern files' rule: ASCII decimal integers with an optional sign.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .structmat import ParseError, ProblemInstance, StructMatrix, _integer_pair, _integers, identity_pattern


class UncoverableError(ValueError):
    """The family's union misses part of the universe."""


def _is_integer(value) -> bool:
    """An int or numpy integer, not a bool or float: the rule ``StructMatrix`` applies to stars."""
    return type(value) is int or isinstance(value, np.integer)


@dataclass(frozen=True)
class SetCoverInstance:
    universe_size: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if not _is_integer(self.universe_size):
            raise ValueError(f"universe size must be an integer, got {self.universe_size!r}")
        if self.universe_size < 1:
            raise ValueError("universe must be nonempty")
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        seen: set[int] = set()
        for idx, s in enumerate(self.sets):
            for e in s:
                if not _is_integer(e):
                    raise ValueError(f"element {e!r} of set {idx} is not an integer")
                if not 0 <= e < self.universe_size:
                    raise ValueError(f"element {e} of set {idx} outside universe")
            seen |= s
        if len(seen) != self.universe_size:
            missing = sorted(set(range(self.universe_size)) - seen)
            raise UncoverableError(f"uncoverable: elements {missing} in no set")


def is_cover(inst: SetCoverInstance, chosen) -> bool:
    picked = list(chosen)
    for j in picked:
        if not _is_integer(j):
            raise IndexError(f"set index {j!r} is not an integer")
        if not 0 <= j < len(inst.sets):
            raise IndexError(f"set index {j} out of range for {len(inst.sets)} sets")
    covered: set[int] = set()
    for j in picked:
        covered |= inst.sets[j]
    return len(covered) == inst.universe_size


def greedy_cover(inst: SetCoverInstance) -> tuple[int, ...]:
    """Largest-gain-first cover, ties to the lowest set index.

    Lazy greedy (Minoux 1978): the heap holds each set's gain as last
    computed, keyed (-gain, index).  Gains only shrink, so when the top
    entry's gain is still current, no set gains more and no set of equal
    gain has a lower index; otherwise it goes back with its current gain.
    """
    uncovered = set(range(inst.universe_size))
    heap = [(-len(s), j) for j, s in enumerate(inst.sets) if s]
    heapq.heapify(heap)
    picked: list[int] = []
    while uncovered:
        stale, j = heapq.heappop(heap)
        gain = len(inst.sets[j] & uncovered)
        if gain == -stale:
            picked.append(j)
            uncovered -= inst.sets[j]
        elif gain:
            heapq.heappush(heap, (-gain, j))
    return tuple(sorted(picked))


def _components(inst: SetCoverInstance) -> list[list[int]]:
    """The non-empty sets grouped into connected components, each ascending.

    Two sets are connected when a chain of sets, each sharing an element
    with the next, joins them.  The groups come from union-find over the
    elements.
    """
    root = list(range(inst.universe_size))

    def find(e: int) -> int:
        while root[e] != e:
            root[e] = root[root[e]]
            e = root[e]
        return e

    nonempty = [j for j, s in enumerate(inst.sets) if s]
    for j in nonempty:
        elements = iter(inst.sets[j])
        top = find(next(elements))
        for e in elements:
            root[find(e)] = top
    groups: dict[int, list[int]] = {}
    for j in nonempty:
        groups.setdefault(find(next(iter(inst.sets[j]))), []).append(j)
    return list(groups.values())


def exact_min_cover(inst: SetCoverInstance) -> tuple[int, ...]:
    """Minimum-cardinality cover, ties to the lexicographically smallest index set.

    Each connected component of the family is solved alone, its elements
    numbered from 0 and its sets kept in index order, and the witness is
    the sorted union of the components' witnesses.  That union is the
    lexicographically smallest minimum cover: a minimum cover is one per
    component, and the pinning in ``_connected_min_cover`` decides set j
    from j's component alone.
    """
    parts = _components(inst)
    if len(parts) == 1:
        return _connected_min_cover(inst)
    chosen: list[int] = []
    for part in parts:
        local = {e: i for i, e in enumerate(sorted(set().union(*(inst.sets[j] for j in part))))}
        sets = tuple(frozenset(map(local.__getitem__, inst.sets[j])) for j in part)
        chosen.extend(part[i] for i in _connected_min_cover(SetCoverInstance(len(local), sets)))
    return tuple(sorted(chosen))


def _connected_min_cover(inst: SetCoverInstance) -> tuple[int, ...]:
    """``exact_min_cover`` of a family, searched as a whole.

    One bounded search, ``completion``, both proves the size and pins
    the witness.  From the greedy cover it is asked for a smaller cover
    until it finds none, which proves the size k minimum.  Then, in
    index order, set j is taken when some size-k cover that agrees with
    the decisions so far holds it: the incumbent such cover, or else a
    completion from the sets after j, which becomes the incumbent.

    The search runs on bitmasks: set j is the Python int ``masks[j]``
    with bit e set when e is in the set, so a gain is one ``&`` and one
    popcount, and the sets holding an element come from its ascending
    ``holders`` list.  The search returns the first leaf within budget
    in depth-first order, and a sound bound cuts only subtrees that hold
    no such leaf, so tightening the bound never changes the witness.
    """
    masks = [sum(1 << e for e in s) for s in inst.sets]
    holders: list[list[int]] = [[] for _ in range(inst.universe_size)]
    for j, s in enumerate(inst.sets):
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

    universe = (1 << inst.universe_size) - 1
    best = greedy_cover(inst)
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
    m = inst.universe_size
    stars = frozenset((i, j) for j, s in enumerate(inst.sets) for i in s)
    return ProblemInstance(identity_pattern(m), StructMatrix(m, len(inst.sets), stars))


def parse_set_cover(text: str) -> SetCoverInstance:
    lines = text.splitlines()
    head = _integer_pair(lines[0]) if lines else None
    if head is None or head[0] < 1 or head[1] < 0:
        raise ParseError("malformed header line 1")
    m, count = head
    if len(lines) < 1 + count:
        raise ParseError(f"expected {count} set lines, found {len(lines) - 1}")
    sets: list[frozenset[int]] = []
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
        sets.append(frozenset(members))
    for extra in range(1 + count, len(lines)):
        if lines[extra].strip():
            raise ParseError(f"unexpected content line {extra + 1}")
    return SetCoverInstance(m, tuple(sets))


def serialize_set_cover(inst: SetCoverInstance) -> str:
    lines = [f"{inst.universe_size} {len(inst.sets)}"]
    lines.extend(" ".join(str(e) for e in sorted(s)) for s in inst.sets)
    return "\n".join(lines) + "\n"
