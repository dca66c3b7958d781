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
int32 arrays of ``StructMatrix.csc``.

Instance file: two pattern blocks separated by a line containing only
``---``.  The first block is the square state pattern, the second the
input pattern (rows = states, columns = inputs).

Parsing
-------
A text in the common shape is read by array passes over its UTF-8
bytes: LF or CRLF line ends, and lines that hold two integers (digits
with an optional sign, separated by spaces or tabs), blanks only, a
whole-line ``#`` comment (any characters but line ends), or the ``---``
separator.  The separator, found by its line, and the comments become
spaces; one pass checks that only ASCII digits, signs, blanks and line
ends are left, one checks that every non-blank line holds two tokens of
at most 18 bytes with signs only before a digit, and one
``numpy.fromstring`` reads every number.  Each block's array goes to the ``StructMatrix``
constructor, the one place where stars are range-checked and grouped
into ``csc``; a duplicate shows as fewer stars than lines.  Any other
text, and any text with a fault, is walked line by line, which raises
the ``ParseError`` of the first bad line (malformed, out of range or
duplicate, numbered from 1 in the whole text) or returns the patterns
when it finds none.  No ``stars`` set is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MAX_DIMENSION = int(np.iinfo(np.int32).max)
_ARRAY_BYTES = b"0123456789+- \t\r\n"  # what the array pass reads, comments aside


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
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"dimensions must be nonnegative, got {self.rows}x{self.cols}")
        if max(self.rows, self.cols) > _MAX_DIMENSION:
            raise ValueError(f"dimensions must be at most 2**31 - 1, got {self.rows}x{self.cols}")
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
        """True when some matching of this square pattern saturates every row; found on first use."""
        from .matching import _match_rows  # matching imports this module
        if self.rows != self.cols:
            raise ValueError("perfect matching needs a square pattern")
        return bool((_match_rows(self.csc, self.rows) >= 0).all())

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
    """The column of each star, in the order of ``m.csc[1]``."""
    return np.repeat(np.arange(m.cols), np.diff(m.csc[0]))


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


def _significant_lines(lines: list[str], start: int):
    """Yield (1-based line number, stripped text), skipping blanks and comments."""
    for offset, raw in enumerate(lines):
        text = raw.strip()
        if text and not text.startswith("#"):
            yield start + offset, text


def _integers(text: str) -> list[int] | None:
    """The numbers of a line, or None unless it holds only ASCII decimal integers with optional signs."""
    if not text.isascii() or "_" in text:
        return None
    try:
        return [int(part) for part in text.split()]
    except ValueError:
        return None


def _integer_pair(text: str) -> tuple[int, int] | None:
    """The two integers of a header or star line, or None if it holds anything else."""
    numbers = _integers(text)
    return (numbers[0], numbers[1]) if numbers is not None and len(numbers) == 2 else None


def _walk_block(lines: list[str], start: int) -> StructMatrix:
    """Parse one block a line at a time; ``start`` numbers its first line.

    Raises the ParseError of the first bad line: malformed, out of range
    or duplicate.
    """
    significant = _significant_lines(lines, start)
    header = next(significant, None)
    if header is None:
        raise ParseError("missing header")
    lineno, text = header
    dims = _integer_pair(text)
    if dims is None:
        raise ParseError(f"malformed header line {lineno}")
    rows, cols = dims
    if rows < 0 or cols < 0:
        raise ParseError(f"negative dimension line {lineno}")
    if max(rows, cols) > _MAX_DIMENSION:
        raise ParseError(f"dimension too large line {lineno}")
    seen: set[tuple[int, int]] = set()
    for lineno, text in significant:
        entry = _integer_pair(text)
        if entry is None:
            raise ParseError(f"malformed entry line {lineno}")
        r, c = entry
        if not (0 <= r < rows and 0 <= c < cols):
            raise ParseError(f"entry out of range line {lineno}")
        if entry in seen:
            raise ParseError(f"duplicate entry line {lineno}")
        seen.add(entry)
    return StructMatrix(rows, cols, seen)


def _walk(text: str, blocks: int) -> list[StructMatrix]:
    """The ``blocks`` patterns of a text, read a line at a time."""
    lines = text.splitlines()
    if blocks == 1:
        return [_walk_block(lines, 1)]
    cuts = [i for i, line in enumerate(lines) if line.strip() == "---"]
    if not cuts:
        raise ParseError("missing '---' separator between the two pattern blocks")
    if len(cuts) > 1:
        raise ParseError(f"unexpected extra separator line {cuts[1] + 1}")
    return [_walk_block(lines[: cuts[0]], 1), _walk_block(lines[cuts[0] + 1 :], cuts[0] + 2)]


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


def _tokens_per_line(buf: np.ndarray) -> np.ndarray | None:
    """The token count of each line, or None unless every token is a decimal int64.

    ``buf`` holds only digits, signs, spaces, tabs, CRs and LFs.  A
    token is a run of digits and signs: a sign may only open it and be
    followed by a digit, and it has at most 18 bytes, so int64 holds its
    number.
    """
    mark = buf > ord(" ")  # the token bytes
    run = mark
    for step in (1, 2, 4, 8, 3):  # run[i]: bytes i to i + 1, 3, 7, 15, then 18 are all token bytes
        run = run[:-step] & run[step:]
    if run.any():
        return None
    del run
    mark[1:] &= ~mark[:-1]  # now each token's first byte
    signs = np.flatnonzero((buf == ord("+")) | (buf == ord("-")))
    if signs.size and (signs[-1] == len(buf) - 1 or not mark[signs].all() or (buf[signs + 1] < ord("0")).any()):
        return None
    mark |= buf == ord("\n")
    events = np.flatnonzero(mark)  # token starts and line ends, in text order
    del mark
    count = np.diff(np.flatnonzero(buf[events] == ord("\n")), prepend=-1, append=len(events))
    count -= 1
    return count


def _pattern(numbers: np.ndarray) -> StructMatrix | None:
    """One block's pattern from its numbers, header first; None at any fault."""
    if numbers.size < 2:
        return None
    rows, cols = numbers[:2].tolist()
    pairs = numbers[2:].reshape(-1, 2)
    try:
        m = StructMatrix(rows, cols, pairs)
    except ValueError:  # a dimension or a star out of range
        return None
    return m if m.csc[1].size == len(pairs) else None  # else a duplicate star


def _separator_lines(data: bytearray) -> list[tuple[int, int]]:
    """The byte spans of the lines that hold ``---`` between spaces, tabs and a final CR."""
    spans = []
    at = data.find(b"---")
    while at >= 0:
        lo = data.rfind(b"\n", 0, at) + 1
        hi = data.find(b"\n", at)
        hi = len(data) if hi < 0 else hi
        if data[lo:hi].strip(b" \t\r") == b"---":
            spans.append((lo, hi))
        at = data.find(b"---", hi)
    return spans


def _read_by_arrays(text: str, blocks: int) -> list[StructMatrix] | None:
    """The ``blocks`` patterns of a text in the common shape, or None.

    The common shape is text with LF or CRLF line ends whose lines each
    hold two integers, blanks only, a whole-line ``#`` comment or, in an
    instance, the one ``---`` separator; only comments may hold
    characters beyond ASCII.  Comments and the separator are overwritten
    with spaces in the UTF-8 bytes, each remaining check is one array
    pass over those bytes, and one ``numpy.fromstring`` reads every
    number.  Any other text, and any fault, gets None.
    """
    if not text:
        return None
    data = bytearray(text, "utf-8")
    buf = np.frombuffer(data, np.uint8)  # writable, shares data
    cr = np.flatnonzero(buf[:-1] == ord("\r"))
    if (buf[cr + 1] != ord("\n")).any():  # str.splitlines ends a line at a lone CR
        return None
    separators = []  # the separator's line index
    if blocks == 2:
        spans = _separator_lines(data)
        if len(spans) != 1:
            return None
        lo, hi = spans[0]
        buf[lo:hi] = ord(" ")
        separators.append(np.count_nonzero(buf[:lo] == ord("\n")))
    commented = np.empty(0, np.intp)
    if "#" in text:
        if any(brk in text for brk in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"):  # more line ends to str.splitlines
            return None
        commented = _blank_comments(buf)
    raw = bytes(data)
    del data, buf  # the passes below hold one copy of the text
    if raw.translate(None, _ARRAY_BYTES):  # a byte beyond ASCII outside a comment, among others
        return None
    count = _tokens_per_line(np.frombuffer(raw, np.uint8))
    if count is None or ((count | 2) != 2).any() or count[commented].any():  # each line: 0 or 2 tokens
        return None
    bounds = [0, *(int(count[:line].sum()) for line in separators), int(count.sum())]
    del count
    numbers = np.fromstring(raw, dtype=np.int64, sep=" ")
    patterns = [_pattern(numbers[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return None if any(m is None for m in patterns) else patterns


def _read(text: str, blocks: int) -> list[StructMatrix]:
    """The ``blocks`` patterns of a text: by arrays when it has the common shape, else line by line."""
    return _read_by_arrays(text, blocks) or _walk(text, blocks)


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
