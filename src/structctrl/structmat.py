"""Sparsity patterns and system instances.

A structured matrix records which entries are free parameters (stars);
every other entry is a hard zero.  All analysis in this package is done
on these patterns, never on numeric values: a property holds for a
pattern when it holds for almost every numeric realization of it.

Text formats
------------
Pattern file: first significant line is a header ``ROWS COLS``, each
following significant line is one star position ``R C`` (0-based).
Lines that are blank or start with ``#`` are skipped.  Duplicate star
lines are rejected.  Numbers are ASCII decimal integers with an optional
sign, and dimensions are at most 2**31 - 1, so every index fits the
int32 arrays of ``StructMatrix.csc``.  Building them takes 12 bytes a
column within a budget of 1 GiB, so at most 89,478,485 columns.

Instance file: two pattern blocks separated by a line containing only
``---``.  The first block is the square state pattern, the second the
input pattern (rows = states, columns = inputs).

Parsing
-------
Pattern, instance and cover text (``setcover``) share one tokenizer,
``_numbers``, and one fault placer, ``_block``; each reader adds only
its format's rules.  A text with a line end other than LF or CRLF is
first rewritten with LF, so its lines are those of ``str.splitlines``.
Array passes count each line's tokens.  A line with a byte other than
an ASCII digit, sign or blank, a token over 18 bytes or a misplaced
sign is read alone and written back as plain numbers, so one
``numpy.fromstring`` reads every number up to the first malformed line.
The ``StructMatrix`` constructor range-checks the stars and groups them
into ``csc``.  Only when it refuses or merges stars, or a line is
malformed, is a fault placed: the ``ParseError`` names the first bad
line, numbered from 1 in the whole text.  No ``stars`` set is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MAX_DIMENSION = int(np.iinfo(np.int32).max)
_INT64_MAX = int(np.iinfo(np.int64).max)
_BUDGET_BYTES = 1 << 30  # the most memory a pattern's column arrays, or a probe, may plan to hold
_ARRAY_BYTES = b"0123456789+- \t\r\n"  # what the array pass reads, comments aside
_LINE_ENDS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines also ends a line at these and a lone CR


class ParseError(ValueError):
    """Malformed pattern or instance text. Message names the offending line."""


def _is_integer(value) -> bool:
    """An int or numpy integer, not a bool or float; numpy reads a bool among ints as an int."""
    return type(value) is int or isinstance(value, np.integer)


def _column_indices(m: StructMatrix, selection, noun: str) -> list[int]:
    """The distinct columns of ``m`` in ``selection``, ascending; IndexError names the first
    value that is no column index, checked before any merge, so a bool never passes as an int."""
    picked = list(selection)
    for v in picked:
        if not _is_integer(v):
            raise IndexError(f"{noun} index {v!r} is not an integer")
        if not 0 <= v < m.cols:
            raise IndexError(f"{noun} index {v} out of range for {m.cols} {noun}s")
    return sorted(set(picked))


def _check_dimensions(rows: int, cols: int) -> None:
    """Refuse a rows x cols shape that int32 arrays cannot index, before anything is built."""
    if rows < 0 or cols < 0:
        raise ValueError(f"dimensions must be nonnegative, got {rows}x{cols}")
    if max(rows, cols) > _MAX_DIMENSION:
        raise ValueError(f"dimensions must be at most 2**31 - 1, got {rows}x{cols}")


@dataclass(frozen=True, eq=False, init=False)
class StructMatrix:
    """A {0, star} matrix given by its dimensions and star positions.

    ``stars`` is any iterable of (row, col) integer pairs or a (k, 2)
    integer array; a repeated pair counts once.  The pattern keeps only
    ``csc``: the stars grouped by column, as read-only int32 arrays
    ``(indptr, rows)``.  Column c holds the stars in rows
    ``rows[indptr[c]:indptr[c + 1]]``, ascending.  Read as CSR, the pair
    is the transpose: row c lists the states that column c feeds.
    """

    rows: int
    cols: int
    csc: tuple[np.ndarray, np.ndarray]

    def __init__(self, rows: int, cols: int, stars) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        self.__post_init__(stars)

    def __post_init__(self, stars) -> None:
        """Check the dimensions and stars and build ``csc``; ``perfbench/tracing.py`` wraps it."""
        _check_dimensions(self.rows, self.cols)
        if 12 * self.cols > _BUDGET_BYTES:  # int32 indptr and int64 counts, before allocating either
            raise ValueError(
                f"{self.rows}x{self.cols} pattern needs {12 * self.cols / 2**30:.1f} GiB for its column arrays, "
                f"over the budget of {_BUDGET_BYTES / 2**30:g} GiB"
            )
        if not isinstance(stars, np.ndarray):
            stars = list(stars)
        pairs = np.asarray(stars)  # ValueError if ragged
        if pairs.size and (
            pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu"
            or isinstance(stars, list) and not all(_is_integer(v) for star in stars for v in star)
        ):
            raise ValueError("stars must be (row, col) pairs of 64-bit integers")
        pairs = pairs.reshape(-1, 2).astype(np.int64, copy=False)
        outside = pairs.view(np.uint64) >= (self.rows, self.cols)  # a negative index wraps high
        if outside.any():
            r, c = pairs[outside.any(axis=1).argmax()].tolist()
            raise ValueError(f"star {(r, c)} outside {self.rows}x{self.cols}")
        keys = np.sort(pairs[:, 1] * self.rows + pairs[:, 0])  # np.unique hashes, which is slower here
        keys = np.delete(keys, np.flatnonzero(keys[1:] == keys[:-1]))
        indptr = np.zeros(self.cols + 1, np.int32)
        np.cumsum(np.bincount(keys // max(self.rows, 1), minlength=self.cols), dtype=np.int32, out=indptr[1:])
        rows = (keys % max(self.rows, 1)).astype(np.int32)
        indptr.flags.writeable = rows.flags.writeable = False
        object.__setattr__(self, "csc", (indptr, rows))

    @cached_property
    def stars(self) -> frozenset[tuple[int, int]]:
        """The star positions (row, col), built from ``csc`` on first use."""
        return frozenset(zip(self.csc[1].tolist(), _star_columns(self).tolist()))

    @cached_property
    def condensation(self):
        """SCC condensation of the state digraph of this square pattern, built on first use."""
        from .graph import condense, state_digraph  # graph imports this module
        return condense(state_digraph(self))

    @cached_property
    def perfectly_matchable(self) -> bool:
        """True when some matching of this square pattern saturates every row; found on first use,
        and with no matching run when every state has a self-loop, since the diagonal is one."""
        from .matching import _match_rows  # matching imports this module
        if self.rows != self.cols:
            raise ValueError("perfect matching needs a square pattern")
        return bool(_self_looped(self).all() or (_match_rows(self.csc, self.rows) >= 0).all())

    def __reduce__(self):  # copies go through the checks, stay read-only and carry no cache
        return StructMatrix, (self.rows, self.cols, np.column_stack((self.csc[1], _star_columns(self))))

    def __contains__(self, position: tuple[int, int]) -> bool:
        return position in self.stars

    def _key(self) -> tuple:
        return self.rows, self.cols, self.csc[0].tobytes(), self.csc[1].tobytes()

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, StructMatrix) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


def _star_columns(m: StructMatrix) -> np.ndarray:
    """The column of each star, in the order of ``m.csc[1]``, in O(stars) extra memory."""
    indptr = m.csc[0]
    if m.cols > indptr[-1]:  # the repeat would build two O(cols) arrays for fewer stars
        return np.searchsorted(indptr, np.arange(indptr[-1], dtype=indptr.dtype), side="right") - 1
    return np.repeat(np.arange(m.cols, dtype=indptr.dtype), np.diff(indptr))


def _self_looped(m: StructMatrix) -> np.ndarray:
    """Bool mask of the states of square ``m`` whose diagonal entry is a star."""
    rows = m.csc[1]
    return np.bincount(rows, weights=rows == _star_columns(m), minlength=m.rows) > 0  # a mask would index slower


@dataclass(frozen=True)
class ProblemInstance:
    """A state pattern plus an input pattern over the same states.

    ``a`` is square (n states); ``b`` has one row per state and one
    column per input channel.  Zero input columns are allowed.
    """

    a: StructMatrix
    b: StructMatrix
    label: str | None = None

    def __post_init__(self) -> None:
        if self.a.rows != self.a.cols:
            raise ValueError(f"state pattern must be square, got {self.a.rows}x{self.a.cols}")
        if self.a.rows < 1:
            raise ValueError("instance needs at least one state")
        if self.b.rows != self.a.rows:
            raise ValueError(
                f"input pattern has {self.b.rows} rows for {self.a.rows} states"
            )

    @property
    def n(self) -> int:
        return self.a.rows

    @property
    def p(self) -> int:
        return self.b.cols


def transpose(m: StructMatrix) -> StructMatrix:
    return StructMatrix(m.cols, m.rows, np.column_stack((_star_columns(m), m.csc[1])))


def identity_pattern(n: int) -> StructMatrix:
    """The n x n pattern with stars exactly on the diagonal."""
    if n < 1:
        raise ValueError("identity pattern needs n >= 1")
    diagonal = np.arange(n)
    return StructMatrix(n, n, np.column_stack((diagonal, diagonal)))


def _integers(text: str) -> list[int] | None:
    """The numbers of a line, or None unless it holds only ASCII decimal integers with optional signs."""
    if not text.isascii() or "_" in text:
        return None
    try:
        return [int(part) for part in text.split()]
    except ValueError:
        return None


def _lf_bytes(text: str) -> bytearray:
    """The UTF-8 bytes of ``text``, each line ended with LF if a line end other than LF or
    CRLF occurs, so that its lines, split at LF, are those of ``str.splitlines``."""
    if ("\r" in text and text.count("\r") != text.count("\r\n")) or any(brk in text for brk in _LINE_ENDS):
        text = "\n".join(text.splitlines()) + "\n"  # the LF keeps a last empty line
    return bytearray(text, "utf-8")


def _blank_comments(buf: np.ndarray) -> np.ndarray:
    """Overwrite each line's text from its first ``#`` on with spaces; return those lines' indices."""
    ends = np.flatnonzero(buf == ord("\n"))
    hashes = np.flatnonzero(buf == ord("#"))
    lines, first = np.unique(np.searchsorted(ends, hashes), return_index=True)
    inside = np.zeros(len(buf) + 1, np.int8)
    inside[hashes[first]] = 1
    inside[np.append(ends, len(buf))[lines]] = -1
    buf[np.cumsum(inside[:-1], dtype=np.int8).view(bool)] = ord(" ")
    return lines


def _tokens_per_line(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The token count of each line, and the byte positions that int64 may not read.

    A token is a run of bytes above space.  A position is flagged when
    it starts 19 token bytes in a row, or holds a sign that does not
    open its token or is not followed by a digit.
    """
    mark = buf > ord(" ")  # the token bytes
    run = mark
    for step in (1, 2, 4, 8, 3):  # run[i]: bytes i to i + 1, 3, 7, 15, then 18 are all token bytes
        run = run[:-step] & run[step:]
    long = np.flatnonzero(run) if run.any() else np.empty(0, np.intp)
    del run
    mark[1:] &= ~mark[:-1]  # now each token's first byte
    signs = np.flatnonzero((buf == ord("+")) | (buf == ord("-")))
    if signs.size:  # a sign as the last byte is followed by itself, no digit
        signs = signs[~mark[signs] | (buf[np.minimum(signs + 1, len(buf) - 1)] < ord("0"))]
    mark |= buf == ord("\n")
    events = np.flatnonzero(mark)  # token starts and line ends, in text order
    del mark
    count = np.diff(np.flatnonzero(buf[events] == ord("\n")), prepend=-1, append=len(events))
    count -= 1
    return count, np.concatenate((long, signs))


def _numbers(data: bytearray) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Every number of the LF-ended lines in ``data``, each line's token count, and the first
    malformed line or None.  Odd lines are read alone up to that line, blank ones skipped, and
    written back clamped to [-1, 2**63 - 1], so range faults survive; nothing from it on counts."""
    scan = bytes(data)
    count, flagged = _tokens_per_line(np.frombuffer(scan, np.uint8))
    malformed, end = None, len(data)  # the first malformed line and its first byte
    if flagged.size or scan.translate(None, _ARRAY_BYTES):  # a byte beyond ASCII, among others
        buf = np.frombuffer(scan, np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
        flagged = np.append(flagged, np.flatnonzero(np.isin(buf, list(_ARRAY_BYTES), invert=True)))
        odd = np.unique(np.searchsorted(ends, flagged))
        ends = [-1, *ends.tolist(), len(data)]  # line i spans ends[i] + 1 to ends[i + 1]
        for line in odd.tolist():
            lo, hi = ends[line] + 1, ends[line + 1]
            stripped = scan[lo:hi].decode().strip()
            values = _integers(stripped) if stripped else []
            if values is None:
                malformed, end = line, lo
                count[line:] = 0
                break
            plain = b" ".join(b"%d" % min(max(v, -1), _INT64_MAX) for v in values)  # no longer than the line
            data[lo:hi], count[line] = plain.ljust(hi - lo), len(values)
        scan = bytes(data[:end])
    numbers = np.fromstring(scan, np.int64, sep=" ") if count.any() else np.empty(0, np.int64)  # blanks read as [0]
    return numbers, count, malformed


def _separator_lines(data: bytearray) -> list[tuple[int, int]]:
    """The byte spans of the lines that hold ``---`` between blanks."""
    spans = []
    at = data.find(b"---")
    while at >= 0:
        lo = data.rfind(b"\n", 0, at) + 1
        hi = data.find(b"\n", at)
        hi = len(data) if hi < 0 else hi
        if data[lo:hi].decode().strip() == "---":
            spans.append((lo, hi))
        at = data.find(b"---", hi)
    return spans


def _block(rows: int, cols: int, pairs: np.ndarray, lines, fault: str | None, noun: str) -> StructMatrix:
    """The pattern of the (row, col) ``pairs``, in text order; ``lines()`` numbers each one's line.

    ``fault`` is the message for the line where reading stopped, if it did.  Faults are
    placed only when the constructor refuses the stars or merges a repeat, or reading
    stopped: the first repeat or ``noun`` out of range, else ``fault``; any other
    ValueError passes unchanged.
    """
    refused = None
    if fault is None:
        try:
            m = StructMatrix(rows, cols, pairs)
            if m.csc[1].size == len(pairs):
                return m
        except ValueError as exc:  # a star out of range, or a dimension or the memory budget
            refused = exc
    at = lines()  # built only on a fault
    out = np.append(((pairs < 0) | (pairs >= (rows, cols))).any(axis=1), True).argmax()  # exact for any rows
    order = np.lexsort((pairs[:out, 0], pairs[:out, 1]))  # stable, so each repeat follows its first copy
    repeats = order[1:][(np.diff(pairs[order], axis=0) == 0).all(axis=1)]
    if repeats.size:  # all lie before the first star out of range
        raise ParseError(f"duplicate {noun} line {at[repeats.min()]}")
    if out < len(pairs):
        raise ParseError(f"{noun} out of range line {at[out]}")
    if fault is not None:
        raise ParseError(fault)
    raise refused


def _read(text: str, blocks: int) -> list[StructMatrix]:
    """The ``blocks`` patterns of a text; ParseError names its first bad line."""
    data = _lf_bytes(text)
    buf = np.frombuffer(data, np.uint8)  # writable, shares data
    bounds = [0]  # each block's first line, then the line count
    if blocks == 2:
        spans = _separator_lines(data)
        if not spans:
            raise ParseError("missing '---' separator between the two pattern blocks")
        lines = [np.count_nonzero(buf[:lo] == ord("\n")) for lo, _ in spans]
        if len(lines) > 1:
            raise ParseError(f"unexpected extra separator line {lines[1] + 1}")
        buf[slice(*spans[0])] = ord(" ")
        bounds += lines
    commented = _blank_comments(buf) if b"#" in data else np.empty(0, np.intp)
    numbers, count, malformed = _numbers(data)
    bounds.append(len(count))
    bad = np.concatenate((np.flatnonzero((count | 2) != 2), commented[count[commented] != 0]))  # or tokens before '#'
    stop = int(bad.min(initial=len(count) if malformed is None else malformed))  # first malformed line, or the end
    count[stop:] = 0
    patterns, first = [], 0
    for lo, hi in zip(bounds, bounds[1:]):
        size = int(count[lo:hi].sum())
        values, first = numbers[first : first + size], first + size
        fault = f"malformed entry line {stop + 1}" if stop < hi else None  # else it is past this block
        if not values.size:
            raise ParseError("missing header" if fault is None else f"malformed header line {stop + 1}")
        rows, cols = values[:2].tolist()
        if min(rows, cols) < 0 or max(rows, cols) > _MAX_DIMENSION:
            fact = "negative dimension" if min(rows, cols) < 0 else "dimension too large"
            raise ParseError(f"{fact} line {lo + count[lo:hi].argmax() + 1}")
        stars = values[2:].reshape(-1, 2)  # the lines with tokens after the header's, in order
        patterns.append(_block(rows, cols, stars, lambda: lo + 1 + np.flatnonzero(count[lo:hi])[1:], fault, "entry"))
    return patterns


def parse_struct_matrix(text: str) -> StructMatrix:
    """Parse a single pattern block. Raises ParseError with a line number."""
    return _read(text, 1)[0]


def serialize_struct_matrix(m: StructMatrix) -> str:
    """Inverse of parse_struct_matrix: header line plus star lines sorted by row, then column."""
    rows, cols = m.csc[1], _star_columns(m)
    order = np.lexsort((cols, rows))
    lines = [f"{m.rows} {m.cols}"]
    lines.extend(f"{r} {c}" for r, c in zip(rows[order].tolist(), cols[order].tolist()))
    return "\n".join(lines) + "\n"


def parse_instance_blocks(text: str) -> tuple[StructMatrix, StructMatrix]:
    """Parse the two pattern blocks of an instance file, uncoupled.

    Dimension coupling between the blocks is left to the caller, so the
    second block may also hold an output pattern for transposed use.
    """
    return tuple(_read(text, 2))


def parse_instance(text: str) -> ProblemInstance:
    """Parse an instance file: state block, ``---`` line, input block."""
    return ProblemInstance(*parse_instance_blocks(text))


def serialize_instance(inst: ProblemInstance) -> str:
    """Render an instance file. The label, if any, becomes leading comments, one per line."""
    head = "".join(f"# {line}\n" for line in (inst.label or "").splitlines())
    return (
        head
        + serialize_struct_matrix(inst.a)
        + "---\n"
        + serialize_struct_matrix(inst.b)
    )
