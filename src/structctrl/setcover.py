"""Set covering: greedy and exact solvers plus the pattern embedding.

Instances are always coverable by construction; a family whose union
misses part of the universe is rejected up front, so solver loops can
rely on progress.

File format: header line ``M N`` (universe size, set count), then
exactly N lines, line j listing the members of set j as space-separated
0-based integers.  An empty line is an empty set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .structmat import ParseError, ProblemInstance, StructMatrix, identity_pattern


class UncoverableError(ValueError):
    """The family's union misses part of the universe."""


@dataclass(frozen=True)
class SetCoverInstance:
    universe_size: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise ValueError("universe must be nonempty")
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        seen: set[int] = set()
        for idx, s in enumerate(self.sets):
            for e in s:
                if not 0 <= e < self.universe_size:
                    raise ValueError(f"element {e} of set {idx} outside universe")
            seen |= s
        if len(seen) != self.universe_size:
            missing = sorted(set(range(self.universe_size)) - seen)
            raise UncoverableError(f"uncoverable: elements {missing} in no set")


def is_cover(inst: SetCoverInstance, chosen) -> bool:
    picked = set(chosen)
    for j in picked:
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


def exact_min_cover(inst: SetCoverInstance) -> tuple[int, ...]:
    """Minimum-cardinality cover, ties to the lexicographically smallest index set.

    Branch and bound in two passes: the first finds the optimal
    cardinality (branching on the lowest uncovered element, greedy upper
    bound, covering-rate lower bound), the second re-walks set indices
    in ascending order to pin the lexicographically smallest witness of
    that cardinality.  Both searches keep their own stacks, so neither
    depth is bounded by the recursion limit.
    """
    sets = inst.sets
    universe = frozenset(range(inst.universe_size))
    best_size = len(greedy_cover(inst))

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

    # Depth first, taking set i before skipping it.  ``taken`` holds the
    # (index, uncovered-before) of each set on the current path; a dead
    # end drops the latest one and skips it instead.
    taken: list[tuple[int, frozenset[int]]] = []
    i, uncovered = 0, universe
    while uncovered:
        if viable(i, uncovered, len(taken)):
            if sets[i] & uncovered:
                taken.append((i, uncovered))
                uncovered = uncovered - sets[i]
            i += 1
            continue
        assert taken, "optimal cardinality must be attainable"
        i, uncovered = taken.pop()
        i += 1
    return tuple(j for j, _ in taken)


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
    if not lines or not lines[0].split():
        raise ParseError("malformed header line 1")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("malformed header line 1")
    try:
        m, count = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("malformed header line 1") from None
    if m < 1 or count < 0:
        raise ParseError("malformed header line 1")
    if len(lines) < 1 + count:
        raise ParseError(f"expected {count} set lines, found {len(lines) - 1}")
    sets: list[frozenset[int]] = []
    for offset in range(count):
        lineno = offset + 2
        members: set[int] = set()
        for token in lines[1 + offset].split():
            try:
                e = int(token)
            except ValueError:
                raise ParseError(f"malformed element line {lineno}") from None
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
