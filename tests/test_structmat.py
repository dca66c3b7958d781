"""Pattern types, algebra, and the two text formats."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from structctrl.structmat import (
    ParseError,
    ProblemInstance,
    StructMatrix,
    identity_pattern,
    parse_instance,
    parse_instance_blocks,
    parse_struct_matrix,
    serialize_instance,
    serialize_struct_matrix,
    transpose,
)

from oracles import parse_blocks_by_lines, parse_pattern_by_lines
from strategies import instances, struct_matrices

# Texts for the parser referee: small signed or zero-padded numbers,
# tabs, comments, blank lines, inline comments, lines of one or three
# tokens, non-integers and numbers past int64, with LF, CRLF and CR ends.
# Most lines are well formed, so many texts parse and the faults that
# remain fall on different lines.  Numbers past int64 stay off header
# lines, where the int32 dimension bound, which the line parser lacks,
# would reject them.


def _numbers(digits: str):
    return st.builds(
        "".join,
        st.tuples(st.sampled_from([""] * 8 + ["+", "-"]), st.sampled_from(["", "", "0"]), st.sampled_from(digits)),
    )


_DIMENSION = _numbers("0234445")
_INDEX = _numbers("0123")
_WORD = st.sampled_from(["x", "1.0", "2e1", "+", "-", "--", "0x1", "1,2"])
_GAP = st.sampled_from([" ", "  ", "\t", " \t "])
_PAD = st.sampled_from(["", "", " ", "\t"])
_HEADER_KINDS = ["pair"] * 24 + ["inline", "one", "three", "word"]
_ENTRY_KINDS = _HEADER_KINDS + ["comment", "comment", "blank", "blank", "past int64"]


@st.composite
def _line(draw, number, kinds):
    kind = draw(st.sampled_from(kinds))
    pad, gap = draw(_PAD), draw(_GAP)
    if kind == "comment":
        return pad + "#" + draw(st.sampled_from(["", " note", "# 0 0", " 1 1"]))
    if kind == "blank":
        return pad
    if kind == "one":
        return pad + draw(number)
    if kind == "word":
        return pad + draw(st.one_of(number, _WORD)) + gap + draw(_WORD)
    if kind == "past int64":
        return pad + draw(number) + gap + "99999999999999999999"
    pair = pad + draw(number) + gap + draw(number) + draw(_PAD)
    if kind == "inline":
        return pair + " # note"
    if kind == "three":
        return pair + gap + draw(number)
    return pair


@st.composite
def _block_lines(draw):
    """Optional comments and blanks, a header line, then star lines."""
    lines = draw(st.lists(st.sampled_from(["", "# block", "  # indented", "\t"]), max_size=2))
    lines.append(draw(_line(_DIMENSION, _HEADER_KINDS)))
    lines += draw(st.lists(_line(_INDEX, _ENTRY_KINDS), max_size=8))
    return lines


def _join(draw, lines) -> str:
    endings = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@st.composite
def pattern_texts(draw):
    return _join(draw, draw(_block_lines()))


@st.composite
def instance_texts(draw):
    """Two blocks around one ``---`` line; sometimes none, sometimes an extra
    one, and sometimes a second block with no header."""
    headless = st.lists(st.sampled_from(["", "# no header"]), max_size=2)
    first, second = draw(_block_lines()), draw(st.one_of(_block_lines(), _block_lines(), headless))
    separator = draw(st.sampled_from(["---", "---", " ---\t"]))
    count = draw(st.sampled_from([1, 1, 1, 0, 2]))
    lines = first + [separator] * min(count, 1) + second
    if count == 2:
        lines.insert(draw(st.integers(0, len(lines))), separator)
    return _join(draw, lines)


def _outcome(parse, text):
    """The parse result, or the ParseError message; any warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse(text)
        except ParseError as exc:
            return f"ParseError: {exc}"


def _assert_columns_hold_stars(m: StructMatrix) -> None:
    indptr, rows = m.csc
    assert indptr.dtype == rows.dtype == np.int32
    assert len(indptr) == m.cols + 1 and not rows.flags.writeable
    for c in range(m.cols):
        assert rows[indptr[c] : indptr[c + 1]].tolist() == sorted(r for r, cc in m.stars if cc == c)


class TestStructMatrix:
    def test_holds_given_stars(self):
        m = StructMatrix(2, 3, frozenset({(0, 0), (1, 2)}))
        assert (0, 0) in m and (1, 2) in m
        assert (0, 2) not in m

    def test_star_outside_dimensions_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            StructMatrix(2, 2, frozenset({(2, 0)}))
        with pytest.raises(ValueError, match="outside"):
            StructMatrix(2, 2, frozenset({(0, -1)}))

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            StructMatrix(-1, 2, frozenset())

    def test_zero_width_allowed(self):
        m = StructMatrix(3, 0, frozenset())
        assert m.cols == 0 and not m.stars

    def test_entries_must_be_integer_pairs(self):
        for stars in (
            {(0.5, 1)},
            {(1.0, 1)},
            {(0, 1, 1)},
            [(0, 1), (1,)],
            [(0, 1), 1],
            {("0", "1")},
            np.array([[0.0, 1.0]]),
            np.zeros((2, 3), dtype=np.int64),
        ):
            with pytest.raises(ValueError):
                StructMatrix(2, 2, stars)

    @given(struct_matrices(), st.integers(2, 3))
    def test_one_stored_form_whatever_the_input(self, m, repeats):
        listed = sorted(m.stars, reverse=True) * repeats
        patterns = [
            StructMatrix(m.rows, m.cols, frozenset(listed)),
            StructMatrix(m.rows, m.cols, listed),
            StructMatrix(m.rows, m.cols, np.array(listed, dtype=np.int64).reshape(-1, 2)),
        ]
        for p in patterns:
            assert p == m and hash(p) == hash(m)
            assert p.stars == m.stars
            assert all(np.array_equal(mine, theirs) for mine, theirs in zip(p.csc, m.csc))
            for name in ("rows", "csc", "stars"):
                with pytest.raises(AttributeError):
                    setattr(p, name, None)


class TestProblemInstance:
    def test_shape_coupling(self):
        a = identity_pattern(3)
        b = StructMatrix(3, 2, frozenset({(0, 0)}))
        inst = ProblemInstance(a, b)
        assert inst.n == 3 and inst.p == 2

    def test_nonsquare_state_pattern_rejected(self):
        with pytest.raises(ValueError, match="square"):
            ProblemInstance(StructMatrix(2, 3, frozenset()), StructMatrix(2, 1, frozenset()))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            ProblemInstance(identity_pattern(3), StructMatrix(2, 1, frozenset()))

    def test_zero_states_rejected(self):
        with pytest.raises(ValueError):
            ProblemInstance(StructMatrix(0, 0, frozenset()), StructMatrix(0, 1, frozenset()))


class TestPatternParsing:
    def test_two_stars(self):
        assert parse_struct_matrix("2 2\n0 0\n1 1\n") == StructMatrix(
            2, 2, frozenset({(0, 0), (1, 1)})
        )

    def test_header_only_is_all_zero(self):
        assert parse_struct_matrix("1 1\n") == StructMatrix(1, 1, frozenset())

    def test_comments_and_blank_lines_skipped(self):
        text = "# pattern\n\n2 2\n# the diagonal\n0 0\n\n1 1\n"
        assert parse_struct_matrix(text).stars == frozenset({(0, 0), (1, 1)})

    def test_duplicate_entry_names_its_line(self):
        with pytest.raises(ParseError, match="duplicate entry line 3"):
            parse_struct_matrix("2 2\n0 0\n0 0\n")

    def test_out_of_range_entry_names_its_line(self):
        with pytest.raises(ParseError, match="out of range line 2"):
            parse_struct_matrix("2 2\n2 0\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="header line 1"):
            parse_struct_matrix("2\n")
        with pytest.raises(ParseError, match="header line 1"):
            parse_struct_matrix("two two\n")

    def test_malformed_entry(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_struct_matrix("2 2\n0 0 0\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_struct_matrix("2 2\nx y\n")

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError, match="missing header"):
            parse_struct_matrix("")

    @given(struct_matrices())
    def test_parse_inverts_serialize(self, m):
        assert parse_struct_matrix(serialize_struct_matrix(m)) == m

    @given(pattern_texts())
    def test_matches_the_line_parser(self, text):
        got = _outcome(parse_struct_matrix, text)
        assert got == _outcome(parse_pattern_by_lines, text)
        if isinstance(got, StructMatrix):
            _assert_columns_hold_stars(got)

    def test_header_only_block_parses_without_warnings(self):
        for text in ("3 2\n", "3 2\n\n  \n", "3 2\n# no stars\n"):
            assert _outcome(parse_struct_matrix, text) == StructMatrix(3, 2, frozenset())

    def test_entry_past_int64_is_out_of_range(self):
        with pytest.raises(ParseError, match="out of range line 3"):
            parse_struct_matrix("2 2\n0 0\n99999999999999999999 0\n")

    def test_numbers_are_ascii_decimal(self):
        # The line parser took underscores, non-ASCII digits and non-ASCII
        # blanks; numpy's reader misreads some non-ASCII characters as
        # digits, so star and header lines must be ASCII.
        for text in ("2 2\n0_1 1\n", "2 2\n\uff11 1\n", "2 2\n0\u01fe1 1\n", "2 2\n1\xa01\n"):
            with pytest.raises(ParseError, match="malformed entry line 2"):
                parse_struct_matrix(text)
        with pytest.raises(ParseError, match="malformed header line 1"):
            parse_struct_matrix("1_0 2\n")

    def test_comments_may_hold_any_text(self):
        assert parse_struct_matrix("# \u00e9tat 1_0\n1 1\n0 0 \n").stars == frozenset({(0, 0)})

    def test_dimensions_fit_int32(self):
        assert parse_struct_matrix("2147483647 0\n").rows == 2**31 - 1
        with pytest.raises(ParseError, match="dimension too large line 2"):
            parse_struct_matrix("# big\n1 2147483648\n")


class TestInstanceParsing:
    TEXT = "2 2\n0 0\n1 1\n---\n2 1\n0 0\n"

    def test_blocks_split_on_separator(self):
        inst = parse_instance(self.TEXT)
        assert inst.a == identity_pattern(2)
        assert inst.b == StructMatrix(2, 1, frozenset({(0, 0)}))

    def test_missing_separator(self):
        with pytest.raises(ParseError, match="---"):
            parse_instance("2 2\n0 0\n")

    def test_extra_separator_named(self):
        with pytest.raises(ParseError, match="separator line 5"):
            parse_instance("1 1\n---\n1 1\n0 0\n---\n")

    def test_second_block_errors_use_file_line_numbers(self):
        with pytest.raises(ParseError, match="duplicate entry line 6"):
            parse_instance("2 2\n0 0\n---\n2 1\n0 0\n0 0\n")

    def test_blocks_stay_uncoupled_when_asked(self):
        # output patterns have as many columns as states, not rows
        first, second = parse_instance_blocks("2 2\n---\n3 2\n2 1\n")
        assert first.rows == 2 and second.rows == 3

    @given(instance_texts())
    def test_matches_the_line_parser(self, text):
        got = _outcome(parse_instance_blocks, text)
        assert got == _outcome(parse_blocks_by_lines, text)
        if not isinstance(got, str):
            for m in got:
                _assert_columns_hold_stars(m)

    @given(instances())
    def test_instance_round_trip(self, inst):
        back = parse_instance(serialize_instance(inst))
        assert back.a == inst.a and back.b == inst.b

    def test_label_becomes_a_comment(self):
        inst = ProblemInstance(identity_pattern(1), StructMatrix(1, 1, frozenset()), label="demo")
        assert serialize_instance(inst).startswith("# demo\n")


class TestTranspose:
    def test_small_example(self):
        m = StructMatrix(3, 2, frozenset({(0, 0), (2, 1)}))
        assert transpose(m) == StructMatrix(2, 3, frozenset({(0, 0), (1, 2)}))

    @given(struct_matrices())
    def test_involution(self, m):
        assert transpose(transpose(m)) == m


class TestColumnArrays:
    def test_small_example(self):
        m = StructMatrix(3, 4, frozenset({(0, 1), (1, 3), (2, 0), (2, 2), (0, 3)}))
        indptr, rows = m.csc
        assert indptr.tolist() == [0, 1, 2, 3, 5]
        assert rows.tolist() == [2, 0, 2, 0, 1]
        assert indptr.dtype == rows.dtype == np.int32

    def test_built_once(self):
        m = identity_pattern(3)
        assert m.csc is m.csc

    def test_no_stars(self):
        indptr, rows = StructMatrix(2, 3, frozenset()).csc
        assert indptr.tolist() == [0, 0, 0, 0] and rows.size == 0

    @given(struct_matrices())
    def test_columns_hold_their_stars_in_row_order(self, m):
        indptr, rows = m.csc
        assert len(indptr) == m.cols + 1
        for c in range(m.cols):
            column = rows[indptr[c] : indptr[c + 1]].tolist()
            assert column == sorted(r for r, cc in m.stars if cc == c)


class TestIdentityPattern:
    def test_diagonal_stars(self):
        assert identity_pattern(3).stars == frozenset({(0, 0), (1, 1), (2, 2)})

    def test_needs_positive_size(self):
        with pytest.raises(ValueError):
            identity_pattern(0)

    def test_transpose_fixes_identity(self):
        assert transpose(identity_pattern(4)) == identity_pattern(4)
