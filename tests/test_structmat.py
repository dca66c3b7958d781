"""Pattern types, algebra, and the two text formats."""

import copy
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import find, given
from hypothesis import strategies as st

from structctrl import structmat
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
# some padded past 18 characters, tabs and unit separators between
# numbers, no-break and ideographic spaces as line padding or blank
# lines, comments, blank lines, inline comments, lines of one or three
# tokens, non-integers and numbers past int64, with LF, CRLF, CR, FF,
# NEL and LS line ends.  Most lines are well formed, so many texts parse
# and the faults that remain fall on different lines; many hold lines
# that the array pass leaves to be read one at a time.  Numbers past
# int64 stay off header lines, where the int32 dimension bound, which
# the line parser lacks, would reject them.  Non-ASCII blanks stay out
# from between numbers, where the line parser's split accepts them.


def _numbers(digits: str):
    return st.builds(
        "".join,
        st.tuples(
            st.sampled_from([""] * 8 + ["+", "-"]),
            st.sampled_from(["", "", "0", "", "", "0", "0" * 18, "0" * 21]),
            st.sampled_from(digits),
        ),
    )


_DIMENSION = _numbers("0234445")
_INDEX = _numbers("0123")
_WORD = st.sampled_from(["x", "1.0", "2e1", "+", "-", "--", "0x1", "1,2"])
_GAP = st.sampled_from([" ", "  ", "\t", " \t ", " ", "\x1f", " \x1f"])
_PAD = st.sampled_from(["", "", " ", "\t", "", "", " ", "\t", "\xa0", "\u3000"])
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
    ends = st.sampled_from(["\n"] * 6 + ["\r\n"] * 3 + ["\r", "\r", "\x0c", "\x85", "\u2028"])
    endings = draw(st.lists(ends, min_size=len(lines), max_size=len(lines)))
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
            [(0, 0), (True, 1)],  # numpy would read the bool as the int 1
            [(0, 0), (1, np.bool_(False))],
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

    @given(struct_matrices())
    def test_copies_keep_read_only_columns(self, m):
        m.stars  # also when the star set is already built and cached
        for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
            assert twin == m and twin.stars == m.stars
            _assert_columns_hold_stars(twin)
            assert not twin.csc[0].flags.writeable


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

    def test_column_arrays_fit_the_budget(self, monkeypatch):
        with pytest.raises(ValueError, match="1x2147483647 pattern needs 24.0 GiB .* budget of 1 GiB"):
            parse_struct_matrix("1 2147483647\n")
        # 12 bytes a column; the budget is lowered so that no test allocates it
        monkeypatch.setattr(structmat, "_BUDGET_BYTES", 12 * 1000)
        assert StructMatrix(1, 1000, []).cols == 1000
        with pytest.raises(ValueError, match="1x1001 pattern needs .* GiB for its column arrays"):
            StructMatrix(1, 1001, [])
        # the parser passes that refusal on, unless a line is at fault first
        with pytest.raises(ValueError, match="GiB") as refused:
            parse_instance("1 1\n0 0\n---\n1 1001\n0 1000\n")
        assert not isinstance(refused.value, ParseError)
        for text, fault in (("1 1001\n0 5\n0 5\n", "duplicate entry line 3"), ("1 1001\n1 5\n", "out of range line 2"),
                            ("1 1001\n0 5\nx\n", "malformed entry line 3")):
            with pytest.raises(ParseError, match=fault):
                parse_struct_matrix(text)

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

    @pytest.mark.parametrize("label", ["two\ncommunities", "a\u2028b", "x\r\ny"])
    def test_labels_with_line_breaks_round_trip(self, label, walks):
        inst = ProblemInstance(identity_pattern(3), StructMatrix(3, 2, frozenset({(0, 1), (2, 0)})), label=label)
        back = parse_instance(serialize_instance(inst))
        assert back.a == inst.a and back.b == inst.b
        assert walks == []  # one comment line per label line, so the array path reads it


def _instance_lines(seed: int, n: int = 4000) -> list[str]:
    """About 16k lines as ``serialize_instance`` writes them: n states, three
    stars per state row, n / 10 inputs, each state on one input, a label."""
    rng = np.random.default_rng(seed)
    a = StructMatrix(n, n, np.column_stack((np.repeat(np.arange(n), 3), rng.integers(0, n, 3 * n))))
    b = StructMatrix(n, n // 10, np.column_stack((np.arange(n), rng.integers(0, n // 10, n))))
    return serialize_instance(ProblemInstance(a, b, label=f"seed {seed}")).splitlines()


def _respell(lines: list[str], seed: int, number, gap=lambda rng: " ") -> list[str]:
    """Each two-number line rewritten with ``number(rng, token)`` and ``gap(rng)``."""
    rng = np.random.default_rng(seed)
    out = []
    for line in lines:
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#"):
            line = number(rng, parts[0]) + gap(rng) + number(rng, parts[1])
        out.append(line)
    return out


def _commented(lines: list[str], seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    out = []
    for line in lines:
        if rng.random() < 0.1:
            out.append(str(rng.choice(["# note", "  # indented 1 2", "\t#", "", "  "])))
        out.append(line)
    return out


def _labelled(lines: list[str], seed: int) -> list[str]:
    """``lines`` with comments beyond ASCII, some holding ``---``, around the separator."""
    cut = lines.index("---")
    return ["# K\u00f6nigsberg \u2014 run --- 3", *lines[:cut], "#\u00a0---", "---", "# \u5165\u529b ---", *lines[cut + 1 :]]


_SHAPES = {
    "lf": lambda lines, seed: "\n".join(lines) + "\n",
    "crlf": lambda lines, seed: "\r\n".join(lines) + "\r\n",
    "no final line end": lambda lines, seed: "\n".join(lines),
    "comments": lambda lines, seed: "\n".join(_commented(lines, seed)) + "\n",
    "labels beyond ASCII": lambda lines, seed: "\r\n".join(_labelled(lines, seed)) + "\r\n",
    "tabs": lambda lines, seed: "\n".join(
        _respell(lines, seed, lambda rng, t: t, lambda rng: str(rng.choice(["\t", "  ", " \t "])))
        + ["\t", " "]
    ),
    "signs": lambda lines, seed: "\n".join(
        _respell(lines, seed, lambda rng, t: "-0" if t == "0" else str(rng.choice(["", "+"])) + t)
    ),
    "zero padding": lambda lines, seed: "\r\n".join(
        _respell(lines, seed, lambda rng, t: "0" * int(rng.integers(0, 12)) + t)
    ),
    "line ends in comments": lambda lines, seed: "\n".join(_commented(lines, seed)).replace("#", "# \x85#") + "\n",
}


def _faulty(lines: list[str], fault: str, at: int) -> list[str]:
    """``lines`` with one bad star line at index ``at``."""
    lines = list(lines)
    rows = lines[1].split()[0]
    lines[at] = {"malformed": "1 x", "three numbers": "1 2 3", "out of range": f"{rows} 0",
                 "past int64": "1 99999999999999999999", "duplicate": lines[at - 1]}[fault]
    return lines


class TestParsingAtScale:
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_accepted_shapes_match_the_line_parser(self, shape, walks):
        for seed in range(2):
            text = _SHAPES[shape](_instance_lines(seed), seed)
            got = _outcome(parse_instance_blocks, text)
            assert not isinstance(got, str)
            assert got == _outcome(parse_blocks_by_lines, text)
        assert walks == []

    def test_written_instances_never_reach_the_line_walk(self, walks):
        lines = _instance_lines(7)
        first, second = parse_instance_blocks("\n".join(lines) + "\n")
        assert parse_struct_matrix("\n".join(lines[: lines.index("---")])) == first
        for shape in _SHAPES.values():
            assert parse_instance_blocks(shape(lines, 7)) == (first, second)
        assert walks == []

    def test_odd_lines_are_read_one_at_a_time(self, walks):
        # a unit separator gap, a padded comment and blank, a number past 18 characters
        text = "3 3\n0\x1f1\n\xa0# note\n\u3000\n2 2\n0000000000000000000001 1\n2\t0\n"
        assert parse_struct_matrix(text) == StructMatrix(3, 3, [(0, 1), (2, 2), (1, 1), (2, 0)])
        assert walks == ["0\x1f1", "0000000000000000000001 1"]
        with pytest.raises(ParseError, match="duplicate entry line 6"):  # after the odd line it repeats
            parse_struct_matrix("3 3\n0\x1f1\n1 1\n\n \n0 1\n")
        with pytest.raises(ParseError, match="entry out of range line 3"):  # before the malformed line
            parse_struct_matrix("3 3\n0 1\n9 9\x1f\n0 x\n")
        with pytest.raises(ParseError, match="malformed entry line 3"):  # the lines after it are not read
            parse_struct_matrix("3 3\n0 1\n0 x\n9 9\n0 1\n")

    def test_drawn_texts_read_some_lines_one_at_a_time(self, walks):
        def read_by_line(text):
            walks.clear()
            got = _outcome(parse_instance_blocks, text)
            return bool(walks) and got == _outcome(parse_blocks_by_lines, text)

        find(instance_texts(), read_by_line)

    @pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029", "\x0c"])
    def test_line_ends_inside_comments_go_to_the_line_walk(self, brk, walks):
        # str.splitlines ends a line there, so "1 1" is a star line; the
        # text is normalised to LF first, so no line is read on its own
        lines = _instance_lines(5, n=40)
        lines[0] = f"# label{brk}1 1"
        text = "\n".join(lines) + "\n"
        assert _outcome(parse_instance_blocks, text) == _outcome(parse_blocks_by_lines, text)
        assert walks == []

    @pytest.mark.parametrize("fault", ["malformed", "three numbers", "out of range", "past int64", "duplicate"])
    @pytest.mark.parametrize("block", [0, 1])
    def test_faults_near_the_end_match_the_line_parser(self, fault, block, walks):
        lines = _instance_lines(3)
        end = lines.index("---") if block == 0 else len(lines)
        for shape in ("lf", "crlf", "comments"):
            text = _SHAPES[shape](_faulty(lines, fault, end - 2), 3)
            got = _outcome(parse_instance_blocks, text)
            assert got.startswith("ParseError: ")
            assert got == _outcome(parse_blocks_by_lines, text)
        # only a line the array pass cannot read is read on its own, once per shape;
        # three numbers are refused by their token count
        bad = _faulty(lines, fault, end - 2)[end - 2]
        assert walks == ([] if fault in ("three numbers", "out of range", "duplicate") else [bad] * 3)


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

    @given(struct_matrices(max_cols=12))
    def test_star_columns_either_way(self, m):
        # fewer stars than columns take the searchsorted branch, the rest the repeat
        indptr = m.csc[0]
        columns = structmat._star_columns(m)
        assert np.array_equal(columns, np.repeat(np.arange(m.cols), np.diff(indptr)))
        # searchsorted returns intp; the repeat keeps indptr's int32 rather than building int64
        assert columns.dtype == (np.intp if m.cols > indptr[-1] else np.int32)

    def test_star_columns_of_a_wide_pattern_cost_its_stars(self):
        m = StructMatrix(1, 5_000_000, [(0, 4_999_999)])
        tracemalloc.start()
        try:
            assert serialize_struct_matrix(m) == "1 5000000\n0 4999999\n"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one column array of 5,000,000 entries would take 20 to 40 MB

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
