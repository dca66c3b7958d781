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
0-based integers.  An empty line is an empty set.  The pattern files'
tokenizer reads it: ASCII decimal integers with an optional sign, and
blanks at a line's ends, Unicode ones too, are ignored.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .structmat import ParseError, ProblemInstance, StructMatrix, identity_pattern
from .structmat import _INT64_MAX, _block, _check_dimensions, _column_indices, _is_integer, _lf_bytes, _numbers

_FAILED_CAP = 1 << 16  # a component's table of failed subproblems is emptied at this size
_SLACK = 1e-9  # how far a dual sum must pass a budget to cut: far above its float rounding


class UncoverableError(ValueError):
    """The family's union misses part of the universe."""


def _columns(m: StructMatrix) -> dict[int, list[int]]:
    """The rows of each non-empty column of a pattern, ascending, as Python lists keyed by column."""
    indptr, rows = m.csc
    full = np.flatnonzero(indptr[1:] > indptr[:-1])
    starts, ends, values = indptr[full].tolist(), indptr[full + 1].tolist(), rows.tolist()
    return {j: values[lo:hi] for j, lo, hi in zip(full.tolist(), starts, ends)}


def _incidence(universe_size: int, sets) -> StructMatrix:
    """The incidence pattern of a family given as collections of integer elements."""
    members = [list(s) for s in sets]
    _check_dimensions(universe_size, len(members))  # before numpy meets an element past int64
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
        columns = _columns(self.incidence)
        return tuple(frozenset(columns.get(j, ())) for j in range(self.incidence.cols))


def is_cover(inst: SetCoverInstance, chosen) -> bool:
    picked = _column_indices(inst.incidence, chosen, "set")
    sets = _columns(inst.incidence)
    return len(set().union(*(sets.get(j, ()) for j in picked))) == inst.universe_size


def greedy_cover(inst: SetCoverInstance) -> tuple[int, ...]:
    """Largest-gain-first cover, ties to the lowest set index.

    Lazy greedy (Minoux 1978): the heap holds each set's gain as last
    computed, keyed (-gain, index).  Gains only shrink, so when the top
    entry's gain is still current, no set gains more and no set of equal
    gain has a lower index; otherwise it goes back with its current gain.
    """
    return _greedy(_columns(inst.incidence), inst.universe_size)


def _greedy(sets: dict[int, list[int]], universe_size: int) -> tuple[int, ...]:
    """``greedy_cover`` of the family whose non-empty set j holds the elements ``sets[j]``."""
    uncovered = set(range(universe_size))
    heap = [(-len(s), j) for j, s in sets.items()]
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


def _components(sets: dict[int, list[int]], universe_size: int) -> list[list[int]]:
    """The non-empty sets j, holding ``sets[j]``, grouped into connected components, each ascending.

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

    for s in sets.values():
        top = find(s[0])
        for e in s[1:]:
            root[find(e)] = top
    groups: dict[int, list[int]] = {}
    for j, s in sets.items():
        groups.setdefault(find(s[0]), []).append(j)
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
    construction, and ``widest[j]``, the size of the largest set from j
    on.  One bounded search, ``completion``, both
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
    no such leaf, so adding or dropping a bound never changes the witness.

    ``failed`` maps an uncovered mask to the largest budget known not to
    cover it.  One table serves every search of the component: ``first``
    never decreases (0 in the size proof, then j + 1 for j ascending), so
    each pool is a subset of every earlier one.  It is emptied when it
    holds ``_FAILED_CAP`` masks, so a long search keeps bounded memory.
    """
    masks = [sum(1 << e for e in s) for s in sets]
    holders: list[list[int]] = [[] for _ in range(universe_size)]
    for j, s in enumerate(sets):
        for e in s:
            holders[e].append(j)
    widest = [0] * (len(sets) + 1)
    for j in range(len(sets) - 1, -1, -1):
        widest[j] = max(widest[j + 1], len(sets[j]))
    failed: dict[int, int] = {}

    def completion(uncovered: int, first: int, budget: int) -> tuple[int, ...] | None:
        """At most ``budget`` sets, none below ``first``, that cover ``uncovered``; or None.

        Depth first on its own stack, so depth is not bounded by the
        recursion limit.  It branches on the lowest uncovered element,
        larger gains first.  ``top`` is the size of the pool's widest set.
        A node with a budget of r sets left is cut, cheapest test first,
        when ``failed`` refutes it, when more elements are left than
        r * ``top``, or when ``_dual_bound`` exceeds r.  The dual
        dominates the middle test, since each element weighs at least
        1/``top``, so that test cuts no node the dual keeps and only
        spares its pass.  A node that either bound cuts enters ``failed``
        at once.  Only an expanded node pushes a marker, under its
        children, that enters the node in ``failed`` when it pops: no
        child has returned.  ``budget`` is never negative, so neither is r.
        """
        pool, top = masks[first:], widest[first]
        pending: list = [(uncovered, ())]
        while pending:
            left, path = pending.pop()
            if left < 0:  # the marker of node -left, path its budget: no child returned
                left, r = -left, path
            elif not left:
                return path
            else:
                r = budget - len(path)
                if failed.get(left, -1) >= r:
                    continue
                if left.bit_count() <= r * top and _dual_bound(left, pool, top) <= r + _SLACK:
                    pending.append((-left, r))
                    near = (j for j in holders[(left & -left).bit_length() - 1] if j >= first)
                    candidates = sorted(near, key=lambda j: ((masks[j] & left).bit_count(), -j))
                    pending.extend((left & ~masks[j], (*path, j)) for j in candidates)
                    continue
            if len(failed) >= _FAILED_CAP:  # start afresh: what is near the search counts most
                failed.clear()
            failed[left] = r
        return None

    universe = (1 << universe_size) - 1
    best = _greedy(dict(enumerate(sets)), universe_size)
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


def _dual_bound(left: int, pool: list[int], top: int) -> float:
    """A lower bound on the number of sets in ``pool`` that cover ``left``; inf when none do.

    No set in ``pool`` has more than ``top`` elements.  Each element weighs
    1/g, g the largest gain on ``left`` among its holders, so no set holds
    more than 1: a feasible covering LP dual, whose sum bounds any cover.
    One pass ORs each set's hit on ``left`` into ``level[gain]``; the walk
    from ``top`` down then weighs the elements first met at level g.
    """
    level = [0] * (top + 1)
    for m in pool:
        hit = m & left
        level[hit.bit_count()] |= hit
    total = 0.0
    for g in range(top, 0, -1):
        hit = level[g] & left
        if hit:
            total += hit.bit_count() / g
            left ^= hit
    return float("inf") if left else total


def setcover_to_mincis(inst: SetCoverInstance) -> ProblemInstance:
    """Embed a covering instance as an input-selection instance.

    The state pattern is the identity (each element is an isolated
    self-looped state, hence its own source SCC), and input j actuates
    exactly the members of set j.  Selections that cover the universe
    are then exactly the structurally controllable input subsets.
    """
    return ProblemInstance(identity_pattern(inst.universe_size), inst.incidence)


def parse_set_cover(text: str) -> SetCoverInstance:
    """Read a cover file, set j's elements as column j's rows; ParseError names the first bad line."""
    data = _lf_bytes(text)
    lines = data.count(b"\n") + (not data.endswith(b"\n"))  # as str.splitlines counts them
    numbers, count, malformed = _numbers(data)
    if malformed == 0 or count[0] != 2 or numbers[0] < 1 or numbers[1] < 0:
        raise ParseError("malformed header line 1")
    m, size = numbers[:2].tolist()
    if _INT64_MAX in (m, size):  # a number past int64 was clamped; the header line holds it
        m, size = map(int, text.splitlines()[0].split())
    if lines < 1 + size:
        raise ParseError(f"expected {size} set lines, found {lines - 1}")
    _check_dimensions(m, size)  # before faults are placed among elements clamped to int64
    extra = np.flatnonzero(count[1 + size :])  # nothing is counted from a malformed line on
    bad = 1 + size + int(extra[0]) if extra.size else malformed
    fault = None if bad is None else f"{'malformed element' if bad <= size else 'unexpected content'} line {bad + 1}"
    per_set = count[1 : 1 + size]
    pairs = np.column_stack((numbers[2 : 2 + per_set.sum()], np.repeat(np.arange(size), per_set)))
    return SetCoverInstance(m, _block(m, size, pairs, lambda: pairs[:, 1] + 2, fault, "element"))  # set j: line j + 2


def serialize_set_cover(inst: SetCoverInstance) -> str:
    """Inverse of parse_set_cover: the header, then one line per set, its elements ascending."""
    lines = [f"{inst.universe_size} {inst.incidence.cols}"]
    columns = _columns(inst.incidence)
    lines.extend(" ".join(map(str, columns.get(j, ()))) for j in range(inst.incidence.cols))
    return "\n".join(lines) + "\n"
