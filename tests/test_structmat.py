"""Pattern types, algebra, and the two text formats."""

import numpy as np
import pytest
from hypothesis import given

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

from strategies import instances, struct_matrices


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
