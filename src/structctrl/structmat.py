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
lines are rejected.

Instance file: two pattern blocks separated by a line containing only
``---``.  The first block is the square state pattern, the second the
input pattern (rows = states, columns = inputs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ParseError(ValueError):
    """Malformed pattern or instance text. Message names the offending line."""


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

    def __contains__(self, position: tuple[int, int]) -> bool:
        return position in self.stars

    @cached_property
    def csc(self) -> tuple[np.ndarray, np.ndarray]:
        """The stars grouped by column, as int32 arrays ``(indptr, rows)``.

        Column c holds the stars in rows ``rows[indptr[c]:indptr[c + 1]]``,
        ascending.  Read as CSR, the pair is the transpose: row c lists the
        states that column c feeds.  Built on first use and kept, so the
        arrays are read-only.
        """
        flat = np.fromiter(
            itertools.chain.from_iterable(self.stars), dtype=np.int32, count=2 * len(self.stars)
        )
        cols, height = flat[1::2], max(self.rows, 1)
        order = cols.astype(np.int64) * height + flat[0::2]
        order.sort()
        indptr = np.zeros(self.cols + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=self.cols), out=indptr[1:])
        rows = (order % height).astype(np.int32)
        indptr.flags.writeable = rows.flags.writeable = False
        return indptr, rows


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


def parse_struct_matrix(text: str) -> StructMatrix:
    """Parse a single pattern block. Raises ParseError with a line number."""
    return _parse_pattern_lines(text.splitlines(), 1)


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
