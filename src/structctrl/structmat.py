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
The text is split into stripped lines and the separator is found once.
A block's star lines become one int64 array in one ``numpy.loadtxt``
call, and that array goes to the ``StructMatrix`` constructor, the one
place where stars are range-checked and grouped into ``csc``.  A block
whose numbers the constructor refuses, or in which it counts fewer
stars than lines, is walked line by line to raise the ``ParseError`` of
its first bad line: malformed, out of range or duplicate, numbered from
1 in the whole text.  No ``stars`` set is built.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn

import numpy as np

_MAX_DIMENSION = int(np.iinfo(np.int32).max)
_STAR_LINE_BYTES = b"0123456789+- \t\x1f\n"  # what a block's star lines may hold


class ParseError(ValueError):
    """Malformed pattern or instance text. Message names the offending line."""


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
        pairs = np.asarray(stars if isinstance(stars, np.ndarray) else list(stars))  # ValueError if ragged
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu"):
            raise ValueError("stars must be (row, col) pairs of 64-bit integers")
        pairs = pairs.reshape(-1, 2).astype(np.int64, copy=False)
        outside = pairs.view(np.uint64) >= (self.rows, self.cols)  # a negative index wraps high
        if outside.any():
            r, c = pairs[outside.any(axis=1).argmax()].tolist()
            raise ValueError(f"star {(r, c)} outside {self.rows}x{self.cols}")
        keys = np.sort(pairs[:, 1] * self.rows + pairs[:, 0])  # np.unique hashes, which is slower here
        keys = np.delete(keys, np.flatnonzero(keys[1:] == keys[:-1]))
        indptr = np.searchsorted(keys, np.arange(self.cols + 1) * self.rows).astype(np.int32)
        rows = (keys % max(self.rows, 1)).astype(np.int32)
        indptr.flags.writeable = rows.flags.writeable = False
        object.__setattr__(self, "csc", (indptr, rows))

    @cached_property
    def stars(self) -> frozenset[tuple[int, int]]:
        """The star positions (row, col), built from ``csc`` on first use."""
        return frozenset(zip(self.csc[1].tolist(), _star_columns(self).tolist()))

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
    return StructMatrix(n, n, frozenset((i, i) for i in range(n)))


def _significant_lines(lines: list[str], start: int):
    """Yield (1-based line number, text) of stripped lines, skipping blanks and comments."""
    for offset, text in enumerate(lines):
        if text and not text.startswith("#"):
            yield start + offset, text


def _integer_pair(text: str) -> tuple[int, int] | None:
    """The two integers of a header or star line, or None if it holds anything else."""
    parts = text.split()
    if len(parts) != 2 or not text.isascii() or "_" in text:
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        return None


def _read_numbers(entries: list[str]) -> np.ndarray:
    """The star lines' numbers, one int64 row per line; ValueError unless all are integers."""
    if not any(entries):
        return np.empty((0, 2), dtype=np.int64)
    # numpy's reader sees nothing but ASCII digits, signs and blanks: it
    # would misread some non-ASCII characters as digits.
    if "\n".join(entries).encode().translate(None, _STAR_LINE_BYTES):
        raise ValueError("not an ASCII integer")
    return np.loadtxt(entries, dtype=np.int64, comments=None, ndmin=2)


def _reject(lines: list[str], start: int, rows: int, cols: int) -> NoReturn:
    """Raise the ParseError of the first bad star line of a refused block."""
    seen: set[tuple[int, int]] = set()
    for lineno, text in _significant_lines(lines, start):
        entry = _integer_pair(text)
        if entry is None:
            raise ParseError(f"malformed entry line {lineno}")
        r, c = entry
        if not (0 <= r < rows and 0 <= c < cols):
            raise ParseError(f"entry out of range line {lineno}")
        if entry in seen:
            raise ParseError(f"duplicate entry line {lineno}")
        seen.add(entry)
    raise AssertionError("the line walk found no fault in a block the array pass refused")


def _parse_pattern_lines(lines: list[str], start: int) -> StructMatrix:
    """Parse one block of stripped lines; ``start`` numbers its first line."""
    header = next(_significant_lines(lines, start), None)
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
    body = lines[lineno - start + 1 :]
    entries = body
    if "#" in "".join(body):
        entries = [text for text in body if not text.startswith("#")]
    with contextlib.suppress(ValueError):  # a line that is not a star in range
        pairs = _read_numbers(entries)
        m = StructMatrix(rows, cols, pairs)
        if m.csc[1].size == len(pairs):  # else a duplicate star
            return m
    _reject(body, lineno + 1, rows, cols)


def _stripped_lines(text: str) -> list[str]:
    return list(map(str.strip, text.splitlines()))


def parse_struct_matrix(text: str) -> StructMatrix:
    """Parse a single pattern block. Raises ParseError with a line number."""
    return _parse_pattern_lines(_stripped_lines(text), 1)


def serialize_struct_matrix(m: StructMatrix) -> str:
    """Inverse of parse_struct_matrix: header line plus sorted star lines."""
    lines = [f"{m.rows} {m.cols}"]
    lines.extend(f"{r} {c}" for r, c in sorted(m.stars))
    return "\n".join(lines) + "\n"


def parse_instance_blocks(text: str) -> tuple[StructMatrix, StructMatrix]:
    """Parse the two pattern blocks of an instance file, uncoupled.

    Dimension coupling between the blocks is left to the caller, so the
    second block may also hold an output pattern for transposed use.
    """
    lines = _stripped_lines(text)
    separators = lines.count("---")
    if not separators:
        raise ParseError("missing '---' separator between the two pattern blocks")
    cut = lines.index("---")
    if separators > 1:
        raise ParseError(f"unexpected extra separator line {lines.index('---', cut + 1) + 1}")
    first = _parse_pattern_lines(lines[:cut], 1)
    second = _parse_pattern_lines(lines[cut + 1 :], cut + 2)
    return first, second


def parse_instance(text: str) -> ProblemInstance:
    """Parse an instance file: state block, ``---`` line, input block."""
    return ProblemInstance(*parse_instance_blocks(text))


def serialize_instance(inst: ProblemInstance) -> str:
    """Render an instance file. The label, if any, becomes a leading comment."""
    head = f"# {inst.label}\n" if inst.label else ""
    return (
        head
        + serialize_struct_matrix(inst.a)
        + "---\n"
        + serialize_struct_matrix(inst.b)
    )
