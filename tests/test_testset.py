import logging
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graveropt import graver
from graveropt.core import IntMatrix, ParseError, conformal_leq
from graveropt.graver import compute_graver, graver_oracle, project_first_n
from graveropt.testset import (
    TestSet,
    box_test_set,
    build_lifted_matrix,
    build_split_matrix,
    compute_test_set,
    format_test_set,
    parse_test_set,
)
from tests.conftest import random_int_matrix

ZERO3 = IntMatrix.zero(0, 3)

# first quadratic rewrite: (x1+x2+x3)^2 + (x2+x3)^2 family
SUM_PAIR = IntMatrix.from_rows([[1, 1, 1], [0, 1, 1]])
SUM_PAIR_SET = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (0, 1, -1), (1, 0, -1)}

# second rewrite of the same quadratic, wilder rows
WIDE_TRIPLE = IntMatrix.from_rows([[1, -2, 1], [3, 1, 4], [1, 0, -1]])
WIDE_TRIPLE_BOXED = {
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (0, 1, -1),
    (0, 1, 1), (1, 0, 1), (1, 0, -1), (1, 1, -1), (1, 1, 1), (1, -1, 1),
}

# all-pairs rewrite of the 2+ones quadratic: (x1+x2)^2+(x1+x3)^2+(x2+x3)^2
PAIR_TRIPLE = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
PAIR_TRIPLE_SET = {
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1),
    (1, 1, -1), (1, -1, 1), (1, -1, -1),
}


class TestBuildLiftedMatrix:
    def test_tracking_columns(self):
        lifted = build_lifted_matrix(ZERO3, SUM_PAIR)
        assert lifted.entries == ((1, 1, 1, 1, 0), (0, 1, 1, 0, 1))

    def test_block_assembly(self):
        lifted = build_lifted_matrix(IntMatrix.identity(1), IntMatrix.from_rows([[2]]))
        assert lifted.entries == ((1, 0), (2, 1))

    def test_no_composition_rows(self):
        a = IntMatrix.from_rows([[1, 2]])
        assert build_lifted_matrix(a, IntMatrix.zero(0, 2)) == a

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            build_lifted_matrix(IntMatrix.zero(0, 2), SUM_PAIR)


class TestComputeTestSet:
    def test_sum_pair_family(self):
        got = compute_test_set(ZERO3, SUM_PAIR)
        assert got.directions == SUM_PAIR_SET

    def test_pair_triple_family(self):
        got = compute_test_set(ZERO3, PAIR_TRIPLE)
        assert got.directions == PAIR_TRIPLE_SET

    def test_ones_plus_identity_family(self):
        c = IntMatrix.from_rows([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert compute_test_set(ZERO3, c).directions == SUM_PAIR_SET

    def test_two_dim_family_contains_coupling(self):
        got = compute_test_set(IntMatrix.zero(0, 2),
                               IntMatrix.from_rows([[1, 1], [1, -1]]))
        assert {(1, 0), (0, 1), (1, 1)} <= got.directions
        assert got.directions == {(1, 0), (0, 1), (1, 1), (1, -1)}

    def test_wide_triple_family(self):
        # the wild rows blow the set up well past the unit box
        got = compute_test_set(ZERO3, WIDE_TRIPLE)
        assert len(got.directions) == 42
        assert WIDE_TRIPLE_BOXED < got.directions
        unit = {v for v in got.directions if all(abs(x) <= 1 for x in v)}
        assert unit == WIDE_TRIPLE_BOXED

    def test_wide_triple_against_enumeration(self):
        lifted = build_lifted_matrix(ZERO3, WIDE_TRIPLE)
        basis = compute_graver(lifted)
        bound = max(max(abs(x) for x in v) for v in basis.directions)
        assert graver_oracle(lifted, bound) == basis.directions
        assert project_first_n(basis.directions, 3) == \
            compute_test_set(ZERO3, WIDE_TRIPLE).directions

    def test_strict_inclusion_between_rewrites(self):
        small = compute_test_set(ZERO3, SUM_PAIR).directions
        assert small < compute_test_set(ZERO3, WIDE_TRIPLE).directions
        assert small < compute_test_set(ZERO3, PAIR_TRIPLE).directions

    def test_provenance_recorded(self):
        got = compute_test_set(ZERO3, SUM_PAIR)
        assert got.provenance == (ZERO3, SUM_PAIR)
        assert got.provenance[1].rows == 2
        assert got.dimension == 3


def counted_box_set(caplog, a, c, upper):
    """box_test_set(a, c, upper) and the candidate count its INFO line gives."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="graveropt.testset"):
        got = box_test_set(a, c, upper)
    found = re.fullmatch(r"test set: box, (\d+) candidates, (\d+) directions",
                         caplog.messages[-1])
    assert found and int(found.group(2)) == len(got)
    return got, int(found.group(1))


class TestBoxTestSet:
    """The directly built box set against the box members of the full
    completion, which shares no enumeration code with it."""

    def test_matches_boxed_completion(self, caplog):
        rng = random.Random(41)
        pruned = 0
        for _ in range(12):
            cols = rng.randint(2, 3)
            a = random_int_matrix(rng, rng.randint(0, 1), cols, -1, 2)
            c = random_int_matrix(rng, rng.randint(1, 2), cols, -1, 2)
            upper = tuple(rng.randint(1, 2) for _ in range(cols))
            got, candidates = counted_box_set(caplog, a, c, upper)
            boxed = {d for d in compute_test_set(a, c).directions
                     if all(abs(x) <= u for x, u in zip(d, upper))}
            assert got.directions == boxed, (a.entries, c.entries, upper)
            assert got.provenance == (a, c) and got.box == upper
            pruned += candidates - len(got)
        # the minimality filter must have had something to drop
        assert pruned > 0

    def test_lift_past_int64(self, caplog):
        big = 1 << 62
        c = IntMatrix.from_rows([[big, big, -big], [1, -2, 1]])
        got, candidates = counted_box_set(caplog, ZERO3, c, (2, 1, 2))
        boxed = {d for d in compute_test_set(ZERO3, c).directions
                 if all(abs(x) <= u for x, u in zip(d, (2, 1, 2)))}
        assert candidates == 37 and got.directions == boxed
        # no box candidate at all: the lift still takes C past int64
        got, candidates = counted_box_set(caplog, IntMatrix.identity(3), c, (2, 1, 2))
        assert candidates == 0 and got.directions == frozenset()

    def test_norms_exact_past_int64(self, caplog):
        # every lifted entry fits in int64 and every lifted 1-norm
        # passes 2^63; all four candidates are minimal
        b = (1 << 62) - 1
        c = ((b, b), (b, -b), (b, b))
        got, candidates = counted_box_set(caplog, IntMatrix.zero(0, 2),
                                          IntMatrix.from_rows(c), (1, 1))
        boxed = [(1, 0), (0, 1), (1, 1), (1, -1)]
        lifted = [z + tuple(-(x * z[0] + y * z[1]) for x, y in c) for z in boxed]
        minimal = {v[:2] for v in lifted
                   if not any(g != v and (conformal_leq(g, v)
                                          or conformal_leq(g, tuple(-x for x in v)))
                              for g in lifted)}
        assert candidates == 4 and got.directions == minimal == set(boxed)

    def test_pruned_scan_matches_boxed_completion(self, monkeypatch, caplog):
        # boxes of 3 over 4 and 5 columns, several hundred candidates
        # each; the default scan blocks, then blocks of one or two rows,
        # so non-minimal members leave the scan after nearly every row
        rng = random.Random(5)
        shapes = []
        while len(shapes) < 4:
            cols = 4 + len(shapes) % 2
            a = random_int_matrix(rng, cols - 4, cols, -1, 2)
            c = random_int_matrix(rng, rng.randint(1, 2), cols, -1, 2)
            boxed = {d for d in compute_test_set(a, c).directions if max(map(abs, d)) <= 3}
            shapes.append((a, c, boxed))
        for cap in (graver._FILTER_ELEMS, 1 << 10):
            monkeypatch.setattr(graver, "_FILTER_ELEMS", cap)
            for a, c, boxed in shapes:
                got, candidates = counted_box_set(caplog, a, c, (3,) * a.cols)
                assert candidates >= 300 and len(got) < candidates, (a.entries, c.entries)
                assert got.directions == boxed, (a.entries, c.entries, cap)

    def test_debug_line_counts_prefilter_pairs(self, caplog, monkeypatch):
        # the 3280 canonical vectors of the box |z_j| <= 4 in Z^4, lifted
        # by two composition rows
        c = ((2, -1, 1, 0), (1, 1, -2, 3))
        met = []
        fits = graver._sign_fits

        def spy(*masks):
            plus, minus = fits(*masks)
            met.append(plus.size)
            return plus, minus

        monkeypatch.setattr(graver, "_sign_fits", spy)
        with caplog.at_level(logging.DEBUG, logger="graveropt.testset"):
            got = box_test_set(IntMatrix.zero(0, 4), IntMatrix.from_rows(c), (4, 4, 4, 4))
        records = [r for r in caplog.records if r.name == "graveropt.testset"]
        assert [r.getMessage() for r in records] == [
            "box: 3280 candidates, 48 kept, 185933 sign-prefilter pairs",
            "test set: box, 3280 candidates, 48 directions"]
        assert len(got) == 48 and sum(met) == 185933
        # the scan without dropping: one-member-word blocks of 2^17 //
        # 3280 rows in ascending 1-norm, each meeting every member up to
        # the largest norm of its rows less one
        norms = sorted(sum(map(abs, z)) + sum(abs(sum(x * y for x, y in zip(row, z)))
                                              for row in c)
                       for z in graver.box_kernel_vectors(IntMatrix.zero(0, 4), (4,) * 4))
        reach = [x - 1 for x in norms if x > norms[0]]
        step = (1 << 17) // len(norms)
        unpruned = sum(len(reach[s:s + step]) * sum(x <= reach[s:s + step][-1] for x in norms)
                       for s in range(0, len(reach), step))
        assert unpruned == 5261145 > 185933

    def test_wide_triple_unit_box(self):
        got = box_test_set(ZERO3, WIDE_TRIPLE, (1, 1, 1))
        assert got.directions == WIDE_TRIPLE_BOXED

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            box_test_set(ZERO3, IntMatrix.zero(0, 2), (1, 1, 1))
        with pytest.raises(ValueError):
            box_test_set(ZERO3, SUM_PAIR, (1, 1))


class TestSetInvariants:
    def test_directions_lie_in_kernel(self):
        a = IntMatrix.from_rows([[1, 1, 1]])
        c = IntMatrix.from_rows([[1, -1, 0]])
        for t in compute_test_set(a, c).directions:
            assert a.mat_vec(t) == (0,)

    def test_identity_composition_recovers_graver(self):
        rng = random.Random(37)
        for _ in range(6):
            a = random_int_matrix(rng, rng.randint(0, 3), rng.randint(2, 4))
            got = compute_test_set(a, IntMatrix.identity(a.cols))
            assert got.directions == compute_graver(a).directions, a.entries

    def test_graver_contained(self):
        rng = random.Random(43)
        for _ in range(5):
            a = random_int_matrix(rng, rng.randint(0, 2), rng.randint(2, 3))
            c = random_int_matrix(rng, rng.randint(1, 2), a.cols)
            assert compute_graver(a).directions <= compute_test_set(a, c).directions

    def test_sorted_once_keeps_equality_and_hash(self):
        t = compute_test_set(ZERO3, SUM_PAIR)
        twin = TestSet(t.dimension, t.directions, t.provenance)
        # the walk's scan order: canonical directions sorted, + before -
        assert t.scan == tuple(v for d in sorted(SUM_PAIR_SET)
                               for v in (d, tuple(-x for x in d)))
        assert t.scan is t.scan and "scan" not in repr(t)
        assert t == twin and hash(t) == hash(twin) and repr(t) == repr(twin)
        with pytest.raises(AttributeError):
            t.directions = frozenset()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 2).flatmap(lambda d: st.integers(2, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           min_size=d, max_size=d))))
    def test_no_composition_rows_is_the_graver_basis(self, rows):
        # whole TestSets compared: directions, provenance, box
        a = IntMatrix.from_rows(rows)
        assert compute_test_set(a, IntMatrix.zero(0, a.cols)) == compute_graver(a)


class TestBuildSplitMatrix:
    def test_single_row_single_step(self):
        a = IntMatrix.zero(0, 1)
        c = IntMatrix.from_rows([[1]])
        assert build_split_matrix(a, c, 1).entries == ((1, -1, 1),)

    def test_column_count(self):
        for k in (1, 2, 3):
            m = build_split_matrix(ZERO3, SUM_PAIR, k)
            assert m.cols == 3 + 2 * k * 2
            assert m.rows == 2

    def test_projection_identity(self):
        rng = random.Random(47)
        for _ in range(4):
            n = rng.randint(2, 3)
            a = random_int_matrix(rng, rng.randint(0, 1), n, lo=-1, hi=1)
            c = random_int_matrix(rng, 1 if n == 3 else rng.randint(1, 2), n)
            want = compute_test_set(a, c).directions
            for k in (1, 2):
                split = build_split_matrix(a, c, k)
                got = project_first_n(compute_graver(split).directions, n)
                assert got == want, (a.entries, c.entries, k)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            build_split_matrix(ZERO3, SUM_PAIR, 0)
        with pytest.raises(ValueError):
            build_split_matrix(IntMatrix.zero(0, 2), SUM_PAIR, 1)


class TestSerialization:
    def test_round_trip(self):
        t = compute_test_set(ZERO3, SUM_PAIR)
        back = parse_test_set(format_test_set(t))
        assert back.directions == t.directions
        assert back.dimension == t.dimension

    def test_header_line(self):
        text = format_test_set(compute_test_set(ZERO3, SUM_PAIR))
        first = text.splitlines()[0]
        assert first == "# hcip n=3 s=2"

    def test_header_counts_rows_of_c(self):
        # s= is the row count of the provenance's C: computed and box
        # sets carry one, a parsed set none
        a = IntMatrix.from_rows([[1, 1, 1]])
        for c in (SUM_PAIR, WIDE_TRIPLE, IntMatrix.zero(0, 3)):
            for t in (compute_test_set(a, c), box_test_set(a, c, (2, 2, 2))):
                header = format_test_set(t).splitlines()[0]
                assert header == "# hcip n=3 s=%d" % c.rows
                parsed = parse_test_set(format_test_set(t))
                assert format_test_set(parsed).splitlines()[0] == "# hcip n=3 s=0"

    def test_box_round_trip(self):
        t = box_test_set(ZERO3, SUM_PAIR, (2, 1, 2))
        text = format_test_set(t)
        assert text.splitlines()[1] == "# hcip box=2,1,2"
        back = parse_test_set(text)
        assert (back.dimension, back.directions, back.box) == (3, t.directions, (2, 1, 2))
        assert format_test_set(back) == format_test_set(
            TestSet(3, t.directions, box=(2, 1, 2)))

    @pytest.mark.parametrize("line", ["# hcip box=1,1", "# hcip box=1,-1,1",
                                      "# hcip box=1,x,1", "# hcip box=",
                                      "# hcip box=1,1,1 box=1,1,1"])
    def test_malformed_box_rejected(self, line):
        with pytest.raises(ParseError):
            parse_test_set(line + "\n1 3\n1 -1 0\n")

    def test_rows_sorted(self):
        text = format_test_set(compute_test_set(ZERO3, SUM_PAIR))
        rows = text.splitlines()[2:]
        assert rows == sorted(rows, key=lambda ln: [int(x) for x in ln.split()])

    def test_parse_canonicalizes(self):
        t = parse_test_set("2 2\n-1 0\n0 1\n")
        assert t.directions == {(1, 0), (0, 1)}

    def test_parse_rejects_zero_row(self):
        with pytest.raises(ParseError):
            parse_test_set("1 2\n0 0\n")

    def test_comments_ignored(self):
        t = parse_test_set("# anything at all\n1 2\n1 -1\n# trailing\n")
        assert t.directions == {(1, -1)}
