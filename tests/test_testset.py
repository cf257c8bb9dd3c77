import logging
import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graveropt import graver, testset
from graveropt.augment import (CipInstance, SolveStatus, brute_force_optimum,
                               instance_test_set, solve)
from graveropt.core import IntMatrix, ParseError, canonical_rep, conformal_leq, negate
from graveropt.graver import compute_graver, graver_oracle, project_first_n
from graveropt.objective import ScaledEvenPower, SeparableObjective, Term, linear_objective
from graveropt.testset import (
    TestSet,
    box_test_set,
    build_lifted_matrix,
    build_split_matrix,
    compute_test_set,
    format_test_set,
    parse_test_set,
)
from tests.conftest import clear_box_caches, random_int_matrix

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
        assert TestSet(3, project_first_n(basis.rows, 3)) == \
            TestSet(3, compute_test_set(ZERO3, WIDE_TRIPLE).rows)

    def test_strict_inclusion_between_rewrites(self):
        small = compute_test_set(ZERO3, SUM_PAIR).directions
        assert small < compute_test_set(ZERO3, WIDE_TRIPLE).directions
        assert small < compute_test_set(ZERO3, PAIR_TRIPLE).directions

    def test_provenance_recorded(self):
        got = compute_test_set(ZERO3, SUM_PAIR)
        assert got.provenance == (ZERO3, SUM_PAIR)
        assert got.provenance[1].rows == 2
        assert got.dimension == 3


lift_families = st.integers(3, 5).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 2), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=3)))


class TestRedundantCompositionRows:
    """compute_test_set(A, C) is unchanged when C gains a unit row or an
    integer multiple, up to sign, of one of its rows: the lifted kernels
    are isomorphic and their conformal orders agree, since the new
    coordinate's sign and size follow from an old one.  Each added row
    is one more lift step of another lifted matrix.  Shapes as in the
    graver-lift benchmark: one row of A in 1..2, rows of C in -2..2."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(lift_families, st.data())
    def test_added_row_keeps_the_set(self, family, data):
        a_row, c_rows = family
        n = len(a_row)
        if data.draw(st.booleans(), label="unit row"):
            j = data.draw(st.integers(0, n - 1))
            row = [int(k == j) for k in range(n)]
        else:
            k = data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
            row = [k * x for x in data.draw(st.sampled_from(c_rows))]
        at = data.draw(st.integers(0, len(c_rows)))
        a = IntMatrix.from_rows([a_row])
        grown = IntMatrix.from_rows(c_rows[:at] + [row] + c_rows[at:], cols=n)
        assert compute_test_set(a, grown).directions == \
            compute_test_set(a, IntMatrix.from_rows(c_rows)).directions


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
            # a kept set would hand back the first scan's result
            clear_box_caches()
            for a, c, boxed in shapes:
                got, candidates = counted_box_set(caplog, a, c, (3,) * a.cols)
                assert candidates >= 300 and len(got) < candidates, (a.entries, c.entries)
                assert got.directions == boxed, (a.entries, c.entries, cap)
            assert testset._box_family.cache_info()[:2] == (0, len(shapes))

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
            "box: 3280 candidates, 48 kept, 173921 sign-prefilter pairs",
            "test set: box, 3280 candidates, 48 directions"]
        assert len(got) == 48 and sum(met) == 173921
        assert testset._box_family.cache_info()[:2] == (0, 1)
        # the scan without dropping: one-member-word blocks of 2^17 //
        # 3280 rows in ascending 1-norm, each meeting every member up to
        # the largest norm of its rows less one
        norms = sorted(sum(map(abs, z)) + sum(abs(sum(x * y for x, y in zip(row, z)))
                                              for row in c)
                       for z in graver.box_kernel_vectors(IntMatrix.zero(0, 4), (4,) * 4,
                                                          limit=10 ** 4))
        reach = [x - 1 for x in norms if x > norms[0]]
        step = (1 << 17) // len(norms)
        unpruned = sum(len(reach[s:s + step]) * sum(x <= reach[s:s + step][-1] for x in norms)
                       for s in range(0, len(reach), step))
        assert unpruned == 5261145 > 173921

    def test_filter_meets_the_members_in_chunks(self, caplog, monkeypatch):
        # the 171 canonical vectors of the box |z_j| <= 3 in Z^3, lifted
        # by three composition rows, fill one row block; a row leaves at
        # the first chunk of 64 members holding one below it, and the
        # rows that reach past it meet the next chunk
        shapes = []
        fits = graver._sign_fits

        def spy(*masks):
            plus, minus = fits(*masks)
            shapes.append(plus.shape)
            return plus, minus

        monkeypatch.setattr(graver, "_sign_fits", spy)
        with caplog.at_level(logging.DEBUG, logger="graveropt.testset"):
            c = IntMatrix.from_rows([(2, -1, 1), (1, 1, -2), (1, 0, 3)])
            box_test_set(ZERO3, c, (3, 3, 3))
        [line] = [m for m in caplog.messages if m.startswith("box:")]
        candidates, kept, pairs = map(int, re.findall(r"\d+", line))
        assert candidates == 171 and graver._FILTER_ELEMS // candidates >= candidates
        # the lightest row meets no member: the others are all heavier
        assert len(shapes) >= 2 and shapes[0] == (170, 64)
        assert all(rows < 170 for rows, _ in shapes[1:])
        assert sum(rows * members for rows, members in shapes) == pairs

    def test_wide_triple_unit_box(self):
        got = box_test_set(ZERO3, WIDE_TRIPLE, (1, 1, 1))
        assert got.directions == WIDE_TRIPLE_BOXED

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            box_test_set(ZERO3, IntMatrix.zero(0, 2), (1, 1, 1))
        with pytest.raises(ValueError):
            box_test_set(ZERO3, SUM_PAIR, (1, 1))


SKIP_LINE = re.compile(r"box: (\d+) candidates, all kept, no two compare")


def box_debug(caplog, a, c, upper):
    """box_test_set(a, c, upper) and the messages of the DEBUG records
    it logs on graveropt.testset."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="graveropt.testset"):
        got = box_test_set(a, c, upper)
    return got, [r.getMessage() for r in caplog.records
                 if r.name == "graveropt.testset" and r.levelno == logging.DEBUG]


def boxed(a, c, upper):
    """The box members of compute_test_set(a, c)."""
    return {d for d in compute_test_set(a, c).directions
            if all(abs(x) <= u for x, u in zip(d, upper))}


def enumerated_box_kernel(a, upper):
    """The canonical z != 0 with Az = 0 and |z_j| <= u_j, by going over
    the whole box."""
    return {canonical_rep(z) for z in product(*(range(-u, u + 1) for u in upper))
            if any(z) and all(sum(x * y for x, y in zip(row, z)) == 0 for row in a.entries)}


def pairwise_incomparable(vectors):
    return not any(g != v and (conformal_leq(g, v) or conformal_leq(g, negate(v)))
                   for g in vectors for v in vectors)


class TestIncomparableCandidates:
    """Where no two box candidates of (A, u) compare, families after the
    first filter that kept them all take every candidate unfiltered; the
    sets must still be the box members of the full completion."""

    def test_random_incomparable_boxes_skip_the_filter(self, caplog):
        rng = random.Random(29)
        draws = []
        for _ in range(2000):
            cols = rng.randint(3, 5)
            a = random_int_matrix(rng, rng.randint(1, 2), cols)
            upper = tuple(rng.randint(1, 2) for _ in range(cols))
            cands = enumerated_box_kernel(a, upper)
            if len(cands) >= 2 and pairwise_incomparable(cands):
                draws.append((a, upper, len(cands)))
                if len(draws) == 8:
                    break
        assert len(draws) == 8
        skipped = 0
        for a, upper, count in draws:
            for k in range(3):
                c = random_int_matrix(rng, rng.randint(1, 2), a.cols)
                got, lines = box_debug(caplog, a, c, upper)
                assert got.directions == boxed(a, c, upper), (a.entries, c.entries, upper)
                assert len(got) == count
                if k:
                    assert [int(SKIP_LINE.fullmatch(m).group(1)) for m in lines] == [count]
                    skipped += 1
                else:
                    assert lines == ["box: %d candidates, %d kept, %s sign-prefilter pairs"
                                     % (count, count, lines[0].split()[-3])]
            assert testset._box_candidates(a, upper).incomparable is True
        assert skipped == 16

    def test_comparable_candidates_are_filtered_after_a_keep_all(self, caplog, monkeypatch):
        # (1, 0) lies below (1, 1) in the box |z| <= 1 of Z^2, yet under
        # the first C every lift is minimal, so the check runs, finds
        # them comparable, and every later family is filtered
        zero, upper = IntMatrix.zero(0, 2), (1, 1)
        calls = []
        minimal = testset.conformally_minimal

        def spy(rows):
            calls.append(rows.shape)
            return minimal(rows)

        monkeypatch.setattr(testset, "conformally_minimal", spy)
        for rows, kept in (([[1, -1], [1, 1]], 4), ([[1, 1]], 3), ([[1, -1], [1, 2]], 4)):
            c = IntMatrix.from_rows(rows)
            got, lines = box_debug(caplog, zero, c, upper)
            assert got.directions == boxed(zero, c, upper) and len(got) == kept
            assert len(lines) == 1 and not SKIP_LINE.fullmatch(lines[0])
        # one check, on the unlifted candidates, before the second
        # family's filter; the third family keeps them all again without
        # a second check
        assert calls == [(4, 4), (4, 2), (4, 3), (4, 4)]
        assert testset._box_candidates(zero, upper).incomparable is False

    def test_cleared_caches_forget_the_verdict(self, caplog):
        # (1,-1,0), (1,0,-1), (0,1,-1): no two compare
        a, upper = IntMatrix.from_rows([[1, 1, 1]]), (1, 1, 1)
        box_debug(caplog, a, IntMatrix.from_rows([[1, 2, 0]]), upper)
        # a family that keeps them all is evidence, not yet a check
        cands = testset._box_candidates(a, upper)
        assert (cands.kept_all, cands.incomparable) == (True, None)
        _, lines = box_debug(caplog, a, IntMatrix.from_rows([[0, 1, 3]]), upper)
        assert lines == ["box: 3 candidates, all kept, no two compare"]
        assert cands.incomparable is True
        clear_box_caches()
        cands = testset._box_candidates(a, upper)
        assert (cands.kept_all, cands.incomparable) == (False, None)
        c = IntMatrix.from_rows([[2, 0, 1]])
        got, lines = box_debug(caplog, a, c, upper)
        assert got.directions == boxed(a, c, upper) and len(got) == 3
        assert len(lines) == 1 and lines[0].startswith("box: 3 candidates, 3 kept, ")


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



def reference_scan(rows) -> tuple:
    """The walk order written out by hand: the distinct canonical rows
    (first nonzero entry positive) in tuple order, each followed by its
    negation."""
    canon = set()
    for r in rows:
        r = tuple(int(x) for x in r)
        lead = next(x for x in r if x)
        canon.add(r if lead > 0 else tuple(-x for x in r))
    return tuple(v for r in sorted(canon) for v in (r, tuple(-x for x in r)))


BIG_ENTRIES = (1 << 61, (1 << 63) + 5, -(1 << 64) - 3)


@st.composite
def direction_rows(draw):
    """Nonzero rows of one dimension, some of them with an entry past
    int64 or at the int64/object boundary of int_dtype."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3) | st.sampled_from(BIG_ENTRIES)
    rows = draw(st.lists(st.tuples(*[entry] * n).filter(any), max_size=8))
    return n, rows


class TestRepresentation:
    """Every form a direction set can be handed over in gives one set."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(direction_rows(), st.randoms(use_true_random=False))
    def test_every_form_gives_the_same_set(self, drawn, rng):
        n, rows = drawn
        shuffled = rows + [tuple(-x for x in r) for r in rows] + rows[:2]
        rng.shuffle(shuffled)
        forms = [frozenset(rows), list(reversed(rows)), shuffled,
                 np.array(rows, dtype=object).reshape(len(rows), n),
                 np.array(shuffled, dtype=object).reshape(len(shuffled), n)]
        small = all(abs(x) < 1 << 61 for r in rows for x in r)
        if small:
            forms += [np.array(rows, dtype=np.int64).reshape(len(rows), n),
                      np.array(shuffled, dtype=np.int64).reshape(len(shuffled), n)]
        sets = [TestSet(n, form) for form in forms]
        want = reference_scan(rows)
        reach = max((abs(x) for r in rows for x in r), default=0)
        for t in sets:
            assert t == sets[0] and hash(t) == hash(sets[0])
            assert t.scan == want and len(t) == len(want) // 2
            assert all(type(x) is int for v in t.scan for x in v)
            assert all(type(x) is int for v in t.directions for x in v)
            assert t.reach == reach
            assert t.rows.dtype == (np.int64 if small else object)
            assert not t.rows.flags.writeable and not t.scan_array.flags.writeable
            assert t.scan_array.tolist() == [list(v) for v in want]
            assert format_test_set(t) == format_test_set(sets[0])

    def test_int64_and_object_arrays_of_the_same_rows_are_one_set(self):
        rows = [(1, -2), (0, 3)]
        small, wide = (TestSet(2, np.array(rows, dtype=d)) for d in (np.int64, object))
        assert small == wide and hash(small) == hash(wide)
        assert {small} == {wide} and small.rows.dtype == wide.rows.dtype == np.int64


class TestConstructorRefusals:
    # a float entry once slipped through: step_limits truncated 0.5 to
    # 0 while line_search walked the real 0.5
    FLOAT = frozenset({(0.5, 0), (0, 1)})
    ZERO_ROW = frozenset({(0, 0), (0, 1)})
    SHORT_ROW = frozenset({(1,), (0, 1)})

    @pytest.mark.parametrize("provenance", [None, (IntMatrix.from_rows([[0, 0]]),
                                                   IntMatrix.zero(0, 2))])
    @pytest.mark.parametrize("rows", [FLOAT, ZERO_ROW, SHORT_ROW,
                                      np.array([[0.5, 0], [0, 1]]),
                                      np.zeros((1, 2), dtype=np.int64),
                                      np.ones((1, 3), dtype=np.int64),
                                      [(1, 2), (1, 2, 3)]])
    def test_refused(self, provenance, rows):
        with pytest.raises(ValueError):
            TestSet(2, rows, provenance)

    def test_float_case_walks_to_the_box_optimum(self):
        # with the float set the walk ended unbounded-suspected at (3, 0),
        # value 3; the integer axes reach the box optimum (0, 0)
        a = IntMatrix.from_rows([[0, 0]])
        inst = CipInstance(a, (0,), (4, 4), linear_objective([1, 1]))
        with pytest.raises(ValueError):
            TestSet(2, self.FLOAT)
        report = solve(inst, TestSet(2, {(1, 0), (0, 1)}), (3, 3), cap=10)
        assert (report.status, report.optimum, report.value) == (
            SolveStatus.OPTIMAL, (0, 0), 0)
        assert brute_force_optimum(inst, (4, 4)) == ((0, 0), 0)

    def test_parse_keeps_its_messages(self):
        with pytest.raises(ParseError, match="^test set: zero direction$"):
            parse_test_set("2 2\n0 0\n0 1\n")
        with pytest.raises(ParseError, match="non-integer"):
            parse_test_set("2 2\n0.5 0\n0 1\n")


class TestSolvePathBuildsNoTuples:
    """solve reads the set's array; the frozenset view stays unbuilt."""

    def square_instance(self, upper):
        a = IntMatrix.from_rows([[1, 1, 1]])
        obj = SeparableObjective(3, (Term(ScaledEvenPower(1, 2), (1, -1, 0), 0),
                                     Term(ScaledEvenPower(2, 2), (0, 1, -1), -1)),
                                 (Fraction(0),) * 3)
        return CipInstance(a, (6,), upper, obj)

    @pytest.mark.parametrize("upper", [None, (6, 6, 6)])
    @pytest.mark.parametrize("best", [False, True])
    def test_instance_test_set(self, upper, best):
        inst = self.square_instance(upper)
        t_set = instance_test_set(inst)
        report = solve(inst, t_set, (6, 0, 0), best=best)
        assert report.status is SolveStatus.OPTIMAL and report.steps
        assert "directions" not in vars(t_set)

    def test_compute_test_set(self):
        inst = self.square_instance(None)
        t_set = compute_test_set(inst.a, inst.objective.composition_matrix)
        report = solve(inst, t_set, (0, 0, 6))
        assert report.status is SolveStatus.OPTIMAL and report.steps
        assert "directions" not in vars(t_set)

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
                got = TestSet(n, project_first_n(compute_graver(split).rows, n))
                assert got.directions == want, (a.entries, c.entries, k)

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
