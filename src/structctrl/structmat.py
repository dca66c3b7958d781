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
Each block is read in one pass.  The text is split into stripped lines
once; the separator is found once; a block's star lines become one
int64 array in one ``numpy.loadtxt`` call; range and duplicates are
checked on that array; and the checked arrays become the pattern's
``csc`` arrays, so nothing is validated twice or rebuilt.  Only a block
that this pass refuses is walked line by line, to raise the
``ParseError`` for its first bad line: malformed, out of range or
duplicate, numbered from 1 in the whole text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn

import numpy as np

_MAX_DIMENSION = int(np.iinfo(np.int32).max)
_STAR_LINE_BYTES = b"0123456789+- \t\x1f\n"  # what a block's star lines may hold


class ParseError(ValueError):
    """Malformed pattern or instance text. Message names the offending line."""


def _compress(height: int, width: int, r: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``csc`` arrays of the distinct stars (r[i], c[i]) of a height x width pattern."""
    height = max(height, 1)
    order = c.astype(np.int64) * height + r
    order.sort()
    indptr = np.zeros(width + 1, dtype=np.int32)
    np.cumsum(np.bincount(c, minlength=width), out=indptr[1:])
    rows = (order % height).astype(np.int32)
    indptr.flags.writeable = rows.flags.writeable = False
    return indptr, rows


@dataclass(frozen=True)
class StructMatrix:
    """A {0, star} matrix given by its dimensions and star positions."""

    rows: int
    cols: int
    stars: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"dimensions must be nonnegative, got {self.rows}x{self.cols}")
        object.__setattr__(self, "stars", frozenset(self.stars))
        for entry in self.stars:
            r, c = entry
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"star {entry} outside {self.rows}x{self.cols}")

    @classmethod
    def _checked(cls, rows: int, cols: int, stars: frozenset, csc: tuple) -> StructMatrix:
        """A pattern whose stars and matching ``csc`` arrays the caller has checked."""
        m = cls.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, stars=stars, csc=csc)
        return m

    def __contains__(self, position: tuple[int, int]) -> bool:
        return position in self.stars

    @cached_property
    def csc(self) -> tuple[np.ndarray, np.ndarray]:
        """The stars grouped by column, as int32 arrays ``(indptr, rows)``.

        Column c holds the stars in rows ``rows[indptr[c]:indptr[c + 1]]``,
        ascending.  Read as CSR, the pair is the transpose: row c lists the
        states that column c feeds.  Parsed patterns get the arrays from
        the parser; others build them on first use.  Either way they are
        kept, so they are read-only.
        """
        flat = np.fromiter(
            itertools.chain.from_iterable(self.stars), dtype=np.int32, count=2 * len(self.stars)
        )
        return _compress(self.rows, self.cols, flat[0::2], flat[1::2])


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
    return StructMatrix(m.cols, m.rows, frozenset((c, r) for r, c in m.stars))


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


def _read_pairs(entries: list[str]) -> np.ndarray | None:
    """The star lines as one (k, 2) int64 array, or None if some line is not two integers."""
    if not any(entries):
        return np.empty((0, 2), dtype=np.int64)
    # numpy's reader sees nothing but ASCII digits, signs and blanks: it
    # would misread some non-ASCII characters as digits.
    if "\n".join(entries).encode().translate(None, _STAR_LINE_BYTES):
        return None
    try:
        pairs = np.loadtxt(entries, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    return pairs if pairs.shape[1] == 2 else None


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
    pairs = _read_pairs(entries)
    if pairs is not None:
        r, c = pairs[:, 0], pairs[:, 1]
        if ((r >= 0) & (r < rows) & (c >= 0) & (c < cols)).all():
            stars = frozenset(zip(r.tolist(), c.tolist()))
            if len(stars) == len(pairs):
                return StructMatrix._checked(rows, cols, stars, _compress(rows, cols, r, c))
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
