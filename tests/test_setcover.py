"""Set covering solvers, the file format, and the pattern embedding."""

import copy
import pickle
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from structctrl.demo import two_community_network
from structctrl.mincis import mincis_reduce
from structctrl.setcover import (
    SetCoverInstance,
    UncoverableError,
    _SLACK,
    _dual_bound,
    exact_min_cover,
    greedy_cover,
    is_cover,
    parse_set_cover,
    serialize_set_cover,
    setcover_to_mincis,
)
from structctrl.structmat import ParseError, ProblemInstance, StructMatrix

from oracles import (
    dual_bound_by_sorted_gains,
    exact_min_cover_by_frozensets,
    exact_min_cover_two_pass,
    first_min_cover,
    greedy_cover_by_rescan,
    harmonic,
    min_cover_size,
    parse_set_cover_by_lines,
)
from strategies import cover_instances


def family(m: int, *sets) -> SetCoverInstance:
    return SetCoverInstance(m, tuple(frozenset(s) for s in sets))


def random_family(m: int, degree: int, seed: int) -> SetCoverInstance:
    """Universe m and 2m sets; each element joins ``degree`` distinct random sets."""
    rng = np.random.default_rng(seed)
    sets: list[set[int]] = [set() for _ in range(2 * m)]
    for e in range(m):
        for j in rng.choice(2 * m, size=degree, replace=False).tolist():
            sets[j].add(e)
    return family(m, *sets)


def _drawn_pool(inst: SetCoverInstance, data):
    """A drawn ``left`` and the pool of sets from a drawn ``first`` on, as the search holds them.

    Returns ``left``, the pool's sets, their masks, the mask of ``left``
    and ``top``, the size of the pool's widest set.
    """
    first = data.draw(st.integers(0, len(inst.sets)))
    left = data.draw(st.frozensets(st.integers(0, inst.universe_size - 1)))
    pool = inst.sets[first:]
    masks = [sum(1 << e for e in s) for s in pool]
    return left, pool, masks, sum(1 << e for e in left), max(map(len, pool), default=0)


def highs_min_cover_size(inst: SetCoverInstance) -> int:
    """The optimum of the covering MILP, solved by HiGHS."""
    incidence = np.zeros((inst.universe_size, len(inst.sets)))
    for j, s in enumerate(inst.sets):
        incidence[sorted(s), j] = 1.0
    ones = np.ones(len(inst.sets))
    optimum = milp(ones, constraints=LinearConstraint(incidence, lb=1.0), integrality=ones, bounds=Bounds(0, 1))
    assert optimum.success
    return round(optimum.fun)


class TestInstance:
    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError, match="nonempty"):
            SetCoverInstance(0, ())

    def test_rejects_element_outside_universe(self):
        with pytest.raises(ValueError, match="outside universe"):
            family(2, {0, 2})

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError, match="element 0.5 of set 0 is not an integer"):
            family(2, {0, 0.5})
        with pytest.raises(ValueError, match="element 0.5 of set 0 is not an integer"):
            family(2, {0, 0.5, 1})
        with pytest.raises(ValueError, match="universe size must be an integer, got 2.0"):
            family(2.0, {0, 1})
        # numpy would read a bool among ints as an int
        with pytest.raises(ValueError, match="element True of set 1 is not an integer"):
            SetCoverInstance(2, [[0], [True]])

    def test_rejects_uncoverable_family(self):
        with pytest.raises(UncoverableError, match=r"elements \[1\] in no set"):
            family(2, {0}, {0})

    def test_uncoverable_check_costs_the_stars_not_the_universe(self):
        # one element in use out of 10**9: the check reads the one star
        # and names the ten smallest missing elements
        start = time.perf_counter()
        named = re.escape("elements [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 999999989 more in no set")
        with pytest.raises(UncoverableError, match=named):
            parse_set_cover(f"{10**9} 1\n0\n")
        with pytest.raises(UncoverableError, match=named):
            family(10**9, {0})
        assert time.perf_counter() - start < 5.0

    def test_rejects_a_universe_past_int32_before_building(self):
        # numpy cannot hold 10**19 in int64, so the dimension is checked first
        with pytest.raises(ValueError, match=re.escape("dimensions must be at most 2**31 - 1, got 100000000000000000000x1")):
            SetCoverInstance(10**20, [[10**19]])

    def test_rejects_an_incidence_of_another_universe(self):
        with pytest.raises(ValueError, match="incidence has 3 rows for a universe of 2"):
            SetCoverInstance(2, StructMatrix(3, 1, [(0, 0), (1, 0), (2, 0)]))

    def test_every_form_gives_one_cover(self):
        # frozensets, lists with repeated elements, and the reduction's arrays
        frozen = family(2, {0}, {0, 1}, {1}, set())
        listed = SetCoverInstance(2, [[0, 0], [1, 0, 1], [1], []])
        reduced = mincis_reduce(two_community_network())
        assert frozen == listed == reduced
        assert hash(frozen) == hash(listed) == hash(reduced)
        assert listed.sets == reduced.sets == frozen.sets

    def test_copies_keep_the_incidence_read_only(self):
        inst = family(3, {0, 1}, {2}, {1, 2})
        inst.sets  # copies go through the constructor, so they leave the built view behind
        for twin in (copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
            assert twin == inst and hash(twin) == hash(inst)
            assert "sets" not in vars(twin)
            assert twin.incidence is not inst.incidence
            for array in twin.incidence.csc:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1

    def test_empty_sets_allowed(self):
        inst = family(1, set(), {0})
        assert inst.sets[0] == frozenset()


class TestIsCover:
    def test_examples(self):
        inst = family(3, {0, 1}, {2}, {1, 2})
        assert is_cover(inst, [0, 1])
        assert is_cover(inst, [0, 2])
        assert not is_cover(inst, [0])
        assert not is_cover(inst, [])

    def test_index_checked(self):
        inst = family(1, {0})
        with pytest.raises(IndexError, match="out of range"):
            is_cover(inst, [1])

    def test_index_must_be_an_integer(self):
        # set indices follow the package's integer rule, as input columns do
        inst = family(2, {0}, {1})
        for bad in (True, 2.0, 0.5, "1", np.float64(1.0)):
            with pytest.raises(IndexError, match=re.escape(f"set index {bad!r} is not an integer")):
                is_cover(inst, [bad])
        with pytest.raises(IndexError, match="set index True is not an integer"):
            is_cover(inst, [0, 1, True])
        assert is_cover(inst, [np.int64(0), np.int32(1)])


class TestGreedy:
    def test_two_community_family(self):
        inst = family(2, {0}, {0, 1}, {1}, set())
        assert greedy_cover(inst) == (1,)

    def test_prefers_the_larger_gain(self):
        inst = family(4, {0}, {1, 2, 3}, {0, 1})
        assert greedy_cover(inst) == (0, 1)

    def test_ties_go_to_the_lowest_index(self):
        inst = family(2, {0, 1}, {0, 1})
        assert greedy_cover(inst) == (0,)

    def test_classic_logarithmic_trap(self):
        # the two halves are optimal but greedy grabs the big middle set
        inst = family(6, {0, 1, 2}, {3, 4, 5}, {1, 2, 3, 4})
        assert greedy_cover(inst) == (0, 1, 2)
        assert exact_min_cover(inst) == (0, 1)

    @given(cover_instances())
    def test_always_returns_a_cover(self, inst):
        assert is_cover(inst, greedy_cover(inst))

    @given(st.data())
    def test_matches_the_full_rescan(self, data):
        # few small distinct sets, drawn with repeats and empties, so
        # most picks are ties
        m = data.draw(st.integers(1, 8))
        kinds = data.draw(st.lists(st.frozensets(st.integers(0, m - 1), max_size=3), min_size=1, max_size=5))
        sets = data.draw(st.lists(st.sampled_from([frozenset(), *kinds]), min_size=1, max_size=14))
        missing = frozenset(range(m)).difference(*sets)
        if missing:
            sets.insert(data.draw(st.integers(0, len(sets))), missing)
        inst = SetCoverInstance(m, tuple(sets))
        assert greedy_cover(inst) == greedy_cover_by_rescan(inst)

    @pytest.mark.parametrize("m", (200, 256))
    def test_matches_the_full_rescan_on_wide_universes(self, m):
        for seed in range(2):
            inst = random_family(m, 6, seed)
            assert greedy_cover(inst) == greedy_cover_by_rescan(inst)


class TestExact:
    def test_two_community_family(self):
        inst = family(2, {0}, {0, 1}, {1}, set())
        assert exact_min_cover(inst) == (1,)

    def test_lexicographically_smallest_witness(self):
        inst = family(2, {0}, {1}, {0}, {1})
        assert exact_min_cover(inst) == (0, 1)

    def test_singleton_universe(self):
        assert exact_min_cover(family(1, {0})) == (0,)

    def test_long_witness_scan_stays_iterative(self):
        # the witness search walks every set index before reaching {0}
        inst = SetCoverInstance(1, (frozenset(),) * 1499 + (frozenset({0}),))
        assert exact_min_cover(inst) == (1499,)

    def test_long_optimal_cover_stays_iterative(self):
        # 1500 singletons, the cover the reduction builds for an
        # identity-input instance: the witness is 1500 picks long
        inst = SetCoverInstance(1500, tuple(frozenset({e}) for e in range(1500)))
        assert exact_min_cover(inst) == tuple(range(1500))

    @given(cover_instances())
    def test_matches_enumeration_size(self, inst):
        chosen = exact_min_cover(inst)
        assert is_cover(inst, chosen)
        assert chosen == first_min_cover(inst.universe_size, inst.sets)

    @pytest.mark.parametrize("m", range(16, 25))
    @pytest.mark.parametrize("degree", (6, 7))
    def test_matches_the_two_pass_search(self, m, degree):
        # families shaped like the benchmark's exact covers
        for seed in range(2):
            inst = random_family(m, degree, seed)
            assert exact_min_cover(inst) == exact_min_cover_two_pass(inst)

    @pytest.mark.parametrize("m", range(28, 33))
    def test_matches_the_frozenset_search(self, m):
        # the search on frozensets that the bitmask search replaced
        for seed in range(3):
            inst = random_family(m, 6, seed)
            assert exact_min_cover(inst) == exact_min_cover_by_frozensets(inst)

    @pytest.mark.parametrize("copies", (3, 6))
    def test_masks_wider_than_a_machine_word(self, copies):
        # element e of the core family reappears as c * m + e for each
        # copy c, so the masks pass 64 bits (3 copies) or 128 (6 copies);
        # the copies are covered exactly when e is, so the witness is the core's
        for m in range(22, 25):
            core = random_family(m, 6, m)
            wide = family(m * copies, *({c * m + e for e in s for c in range(copies)} for s in core.sets))
            assert exact_min_cover(wide) == exact_min_cover_by_frozensets(wide) == exact_min_cover_by_frozensets(core)

    def test_disjoint_blocks_are_solved_apart(self):
        # one search over the union took 7-14 s; per block it takes about 1 ms
        blocks = [random_family(16, 6, seed) for seed in range(3)]
        union = family(48, *({16 * b + e for e in s} for b, block in enumerate(blocks) for s in block.sets))
        witness = [32 * b + j for b, block in enumerate(blocks) for j in exact_min_cover(block)]
        assert exact_min_cover(union) == tuple(witness)
        assert is_cover(union, witness)

    def test_components_keep_the_lexicographic_witness(self):
        # blocks interleaved by index, empty sets between them, and a block of one set
        inst = family(5, {3}, set(), {0, 1}, {4}, {1, 2}, {3}, {0}, {2}, set(), {4})
        assert exact_min_cover(inst) == exact_min_cover_by_frozensets(inst) == (0, 2, 3, 4)

    @given(cover_instances())
    def test_matches_the_frozenset_search_on_small_families(self, inst):
        assert exact_min_cover(inst) == exact_min_cover_by_frozensets(inst)

    @pytest.mark.parametrize("seed", range(3))
    def test_optimum_matches_highs(self, seed):
        inst = random_family(32, 6, seed)
        assert len(exact_min_cover(inst)) == highs_min_cover_size(inst)

    def test_overlap_family_matches_highs(self):
        # n = 8000 states: the full diagonal plus 3n random stars, and each
        # state on 2 random inputs of n / 10; its cover is 402 elements by
        # 800 sets, one component of 101 sets.  On a 2-core host the search
        # without the dual bound and the table of failures took 153 s, with
        # them 0.4 s, and with the dual as a walk over gain levels 0.22 s.
        n, p = 8000, 800
        rng = np.random.default_rng(1)
        rows, cols = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
        states = np.arange(n)
        a = StructMatrix(n, n, np.column_stack((np.concatenate([rows, states]), np.concatenate([cols, states]))))
        b = StructMatrix(n, p, np.column_stack((np.repeat(states, 2), rng.integers(0, p, 2 * n))))
        inst = mincis_reduce(ProblemInstance(a, b))
        chosen = exact_min_cover(inst)
        assert is_cover(inst, chosen)
        assert len(chosen) == highs_min_cover_size(inst)

    def test_refuted_pins_in_a_row(self):
        # pinning refutes sets 1, 2, 3, 6, 7 and 9 one after another, then 12,
        # and the later refutations meet subproblems that earlier ones failed
        inst = family(7, {0, 1}, {0, 2, 4, 6}, {1, 5}, {2}, set(), set(), {3}, {3}, set(), {1, 5}, {2, 3, 4}, {4},
                      {0, 6}, {5, 6})
        assert exact_min_cover(inst) == exact_min_cover_by_frozensets(inst) == (0, 10, 13)

    @given(cover_instances(), st.data())
    def test_dual_bound_never_exceeds_the_optimum(self, inst, data):
        # over the sets from ``first`` on, covering ``left`` takes at least the bound
        left, pool, masks, target, top = _drawn_pool(inst, data)
        place = {e: i for i, e in enumerate(sorted(left))}
        optimum = min_cover_size(len(place), [frozenset(place[e] for e in s if e in place) for s in pool])
        bound = _dual_bound(target, masks, top)
        if optimum is None:
            assert bound == float("inf")
        else:
            assert bound <= optimum + 1e-9
        # it cuts every budget r that the r largest gains cannot fill, and so
        # every budget r that r sets of the widest set's size cannot fill
        ranked = sorted(((m & target).bit_count() for m in masks), reverse=True)
        for r in range(len(masks) + 1):
            if sum(ranked[:r]) < len(left):
                assert bound > r + _SLACK
            if len(left) > r * top:
                assert bound > r + _SLACK

    @settings(max_examples=300)
    @given(cover_instances(max_m=20, max_sets=14), st.data())
    def test_dual_bound_matches_the_sorted_walk(self, inst, data):
        # the walk over gain levels gives the set-by-set sum, up to float rounding
        left, _, masks, target, top = _drawn_pool(inst, data)
        expected = dual_bound_by_sorted_gains(target, [(m & target).bit_count() for m in masks], masks)
        bound = _dual_bound(target, masks, top)
        assert (bound == float("inf")) == (expected == float("inf"))
        if expected != float("inf"):
            assert abs(bound - expected) <= 1e-9

    @given(cover_instances())
    def test_greedy_within_harmonic_factor(self, inst):
        d = max(len(s) for s in inst.sets)
        assert len(greedy_cover(inst)) <= harmonic(d) * len(exact_min_cover(inst))


class TestEmbedding:
    def test_structure(self):
        inst = family(2, {0}, {0, 1}, {1}, set())
        lifted = setcover_to_mincis(inst)
        assert lifted.a.stars == frozenset({(0, 0), (1, 1)})
        assert lifted.b.stars == frozenset({(0, 0), (0, 1), (1, 1), (1, 2)})
        assert lifted.p == 4

    @given(cover_instances())
    def test_column_j_actuates_set_j(self, inst):
        lifted = setcover_to_mincis(inst)
        for j, s in enumerate(inst.sets):
            assert {r for r, c in lifted.b.stars if c == j} == set(s)


# Cover texts for the parser referee: small signed or zero-padded numbers,
# some padded past 18 characters, joined by spaces, tabs, unit separators
# or non-ASCII blanks, which also pad line ends, with every line end of
# str.splitlines.  Faults are injected: malformed tokens, elements out of
# range (past int64 too), repeated elements, header faults, too few set
# lines and trailing content.  Numbers past int64 stay off the header
# line: for a universe of 2**63 or more the reader compares an element
# past int64 as 2**63 - 1, where the line parser compares it exactly or
# fails with OverflowError.
_COVER_ENDS = ["\n"] * 8 + ["\r\n"] * 4 + ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_COVER_GAPS = [" "] * 8 + ["  ", "\t", "\x1f", " \x1f ", "\xa0", "\u3000"]
_COVER_PADS = [""] * 8 + [" ", "\t", "\x1f", "\xa0", "\u3000", "\u2003"]
_COVER_WORDS = ["x", "1.0", "+", "-", "--1", "1_0", "\u0663", "#", "0x1", "1,2", "\x00"]
_COVER_TRAILERS = ["", "", " ", "\xa0", "\x1f", "\u3000 ", "junk", "0", "# note"]


def _spelled(draw, value: int) -> str:
    """``value`` with an optional sign and zero padding, sometimes past 18 characters."""
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "", "+"] + ["-"] * (value == 0)))
    return sign + draw(st.sampled_from(["", "", "", "0", "0" * 18, "0" * 21])) + str(abs(value))


@st.composite
def cover_texts(draw):
    m = draw(st.integers(1, 4))
    sets = draw(st.lists(st.lists(st.integers(0, m - 1), unique=True, max_size=m), max_size=5))
    if draw(st.booleans()):  # so that many texts parse
        sets.append(draw(st.permutations(range(m))))
    rows = [[_spelled(draw, e) for e in s] for s in sets]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        if not rows:
            break
        j = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["malformed", "out of range", "repeat"]))
        if kind == "malformed":
            token = draw(st.sampled_from(_COVER_WORDS))
        elif kind == "out of range" or not sets[j]:
            token = draw(st.sampled_from([str(m), str(m + 3), "-1", "-0000000000000000000007", "99999999999999999999"]))
        else:
            token = _spelled(draw, draw(st.sampled_from(sets[j])))
        rows[j].insert(draw(st.integers(0, len(rows[j]))), token)
    head = [_spelled(draw, m), _spelled(draw, len(rows) + draw(st.sampled_from([0] * 8 + [-1, 1, 2])))]
    kind = draw(st.sampled_from(["pair"] * 12 + ["one", "three", "word", "zero universe", "negative count", "big"]))
    if kind in ("one", "three"):
        head = head[:1] if kind == "one" else head + ["0"]
    elif kind == "word":
        head[1] = draw(st.sampled_from(_COVER_WORDS))
    elif kind == "zero universe":
        head[0] = _spelled(draw, 0)
    elif kind == "negative count":
        head[1] = "-1"
    elif kind == "big":  # past int32, short of int64 or past it
        head[0] = draw(st.sampled_from(["2147483648", "1000000000000000000", "100000000000000000000"]))
    lines = [head, *rows] + [[t] for t in draw(st.lists(st.sampled_from(_COVER_TRAILERS), max_size=3))]
    text = "".join(
        draw(st.sampled_from(_COVER_PADS)) + draw(st.sampled_from(_COVER_GAPS)).join(tokens)
        + draw(st.sampled_from(_COVER_PADS)) + draw(st.sampled_from(_COVER_ENDS))
        for tokens in lines
    )
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(parse, text):
    """The parsed cover, or the ValueError's type and message; any warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse(text)
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"


class TestParsing:
    GOLDEN = "2 4\n0\n0 1\n1\n\n"

    def test_golden_round_trip(self):
        inst = parse_set_cover(self.GOLDEN)
        assert inst.universe_size == 2
        assert inst.sets == (
            frozenset({0}),
            frozenset({0, 1}),
            frozenset({1}),
            frozenset(),
        )
        assert serialize_set_cover(inst) == self.GOLDEN

    def test_trailing_blank_lines_tolerated(self):
        assert parse_set_cover("1 1\n0\n\n\n").universe_size == 1

    def test_malformed_header(self):
        # numbers are ASCII decimal integers, as in pattern files
        for text in ("", "2\n", "a 1\n0\n", "0 1\n0\n", "1_1 1\n0 1 2 3 4 5 6 7 8 9 1_0\n", "\u0662 1\n0\n"):
            with pytest.raises(ParseError, match="malformed header line 1"):
                parse_set_cover(text)

    def test_missing_set_lines(self):
        with pytest.raises(ParseError, match="expected 2 set lines"):
            parse_set_cover("1 2\n0\n")

    def test_malformed_element(self):
        for text in ("1 1\nx\n", "11 1\n0 1 2 3 4 5 6 7 8 9 1_0\n", "4 1\n0 1 2 \u0663\n"):
            with pytest.raises(ParseError, match="malformed element line 2"):
                parse_set_cover(text)

    def test_element_out_of_range(self):
        with pytest.raises(ParseError, match="element out of range line 3"):
            parse_set_cover("2 2\n0\n2\n")

    def test_duplicate_element(self):
        with pytest.raises(ParseError, match="duplicate element line 2"):
            parse_set_cover("1 1\n0 0\n")

    def test_a_universe_past_int64_is_refused_before_its_elements(self):
        # both elements clamp to 2**63 - 1, which read as a repeat
        with pytest.raises(ValueError, match=re.escape("dimensions must be at most 2**31 - 1, got 100000000000000000000x1")):
            parse_set_cover("100000000000000000000 1\n99999999999999999999 99999999999999999998\n")

    def test_unexpected_trailing_content(self):
        with pytest.raises(ParseError, match="unexpected content line 4"):
            parse_set_cover("1 1\n0\n\njunk\n")

    @pytest.mark.parametrize("end", ["\r", "\x0c", "\x85", "\u2028"])
    def test_a_last_empty_set_line_counts_after_any_line_end(self, end):
        # str.splitlines ends a line at each of these, so the last line is the empty set 1
        assert parse_set_cover(f"1 2{end}0{end}{end}") == family(1, {0}, ())

    @given(cover_instances())
    def test_round_trip(self, inst):
        assert parse_set_cover(serialize_set_cover(inst)) == inst

    @settings(max_examples=400)
    @given(cover_texts())
    def test_matches_the_line_parser(self, text):
        assert _outcome(parse_set_cover, text) == _outcome(parse_set_cover_by_lines, text)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_written_covers_never_reach_the_line_walk(self, end, walks):
        for seed in range(3):
            inst = random_family(400, 3, seed)
            assert parse_set_cover(serialize_set_cover(inst).replace("\n", end)) == inst
        assert walks == []
