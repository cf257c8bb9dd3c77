import logging
import random
import re
import tracemalloc
from functools import reduce
from itertools import permutations, product
from math import gcd, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graveropt import graver
from graveropt.core import IntMatrix, canonical_rep, conformal_leq, negate, parse_int_matrix
from graveropt.graver import (
    TestSet,
    box_kernel_vectors,
    compute_graver,
    conformally_minimal,
    graver_oracle,
    project_first_n,
    verify_against_oracle,
)
from tests.conftest import random_int_matrix
from tests.helpers import (expand_duplicated_column, expand_negated_column,
                           path_difference_instance, time_bound)


class TestComputeGraver:
    def test_free_two_dims(self):
        assert compute_graver(IntMatrix.zero(0, 2)).directions == {(1, 0), (0, 1)}

    def test_difference_matrix(self):
        assert compute_graver(IntMatrix.from_rows([[1, -1]])).directions == {(1, 1)}

    def test_one_two_matrix(self):
        assert compute_graver(IntMatrix.from_rows([[1, 2]])).directions == {(2, -1)}

    def test_entry_between_2_63_and_2_64(self):
        # NumPy infers uint64 or float64 for such ints; one that reached
        # the completion as float64 would lose (2^63 + 1, -2, 0)
        got = compute_graver(IntMatrix.from_rows([[2, 2**63 + 1, 0]])).directions
        assert got == {(0, 0, 1), (2**63 + 1, -2, 0)}

    def test_trivial_kernel(self):
        assert compute_graver(IntMatrix.from_rows([[1]])).directions == frozenset()

    def test_sum_of_three(self):
        got = compute_graver(IntMatrix.from_rows([[1, 1, 1]])).directions
        assert got == {(1, -1, 0), (1, 0, -1), (0, 1, -1)}

    def test_deterministic_across_runs(self):
        a = IntMatrix.from_rows([[2, -3, 1], [0, 1, -2]])
        assert compute_graver(a).directions == compute_graver(a).directions

    def test_basis_invariants_hold(self):
        rng = random.Random(17)
        for _ in range(6):
            a = random_int_matrix(rng, rng.randint(1, 2), rng.randint(2, 4))
            basis = compute_graver(a)
            elems = sorted(basis.directions)
            for v in elems:
                assert any(v)
                assert not any(a.mat_vec(v))
            for v in elems:
                for g in elems:
                    if g == v:
                        continue
                    assert not conformal_leq(g, v) and not conformal_leq(g, negate(v))


class TestMembership:
    def test_in_is_refused(self):
        # v and -v stand for one direction, so a plain `in` would be
        # negation-blind or sign-sensitive by accident; it fails loudly
        basis = compute_graver(IntMatrix.from_rows([[1, 2]]))
        for v in ((2, -1), (-2, 1), (1, 0), (0, 0), (2, -1, 0)):
            with pytest.raises(TypeError):
                v in basis
        assert basis.directions == {(2, -1)}
        assert len(basis) == 1


class TestOracle:
    def test_free_two_dims(self):
        assert graver_oracle(IntMatrix.zero(0, 2), 3) == {(1, 0), (0, 1)}

    def test_sum_of_three(self):
        got = graver_oracle(IntMatrix.from_rows([[1, 1, 1]]), 2)
        assert got == {(1, -1, 0), (1, 0, -1), (0, 1, -1)}

    def test_two_minus_three(self):
        assert graver_oracle(IntMatrix.from_rows([[2, -3]]), 5) == {(3, 2)}

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            graver_oracle(IntMatrix.zero(0, 2), -1)

    @staticmethod
    def work(caplog, a, bound):
        """graver_oracle's result and the work its DEBUG line counts."""
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="graveropt.graver"):
            got = graver_oracle(a, bound)
        [line] = caplog.messages
        found, kept, work = map(int, re.fullmatch(
            r"oracle: (\d+) kernel vectors, (\d+) minimal, work (\d+)", line).groups())
        assert kept == len(got)
        return got, found, work

    def test_work_is_vectors_and_pairs(self, caplog):
        # (0, 1), (1, -1), (1, 0), (1, 1): (0, 1) and (1, 0) test all
        # four, (1, -1) and (1, 1) stop at (0, 1), below them up to sign
        assert self.work(caplog, IntMatrix.zero(0, 2), 1) == ({(0, 1), (1, 0)}, 4, 4 + 10)

    @pytest.mark.parametrize("rows, bound", [([[1, 1, 1]], 2), ([[1, -2, 3]], 4),
                                             ([[1, 1, -1, -1]], 2)])
    def test_budget_bounds_the_work(self, monkeypatch, caplog, rows, bound):
        # box searches of at most cols * work partial assignments
        a = IntMatrix.from_rows(rows)
        want, found, work = self.work(caplog, a, bound)
        monkeypatch.setattr(graver, "ORACLE_BUDGET", work)
        assert graver_oracle(a, bound) == want
        monkeypatch.setattr(graver, "ORACLE_BUDGET", work - 1)
        with pytest.raises(graver.OracleBudgetError,
                           match="budget of %d vectors and pairs .ORACLE_BUDGET." % (work - 1)):
            graver_oracle(a, bound)
        # a budget below the vectors stops the box search itself
        monkeypatch.setattr(graver, "ORACLE_BUDGET", found - 1)
        with pytest.raises(graver.OracleBudgetError, match="ORACLE_BUDGET"):
            graver_oracle(a, bound)

    def test_box_search_stops_at_cols_times_the_budget(self, monkeypatch, caplog):
        # one kernel vector and one pair, but the search tries the 6
        # values 0..5 of v_0 and then v_1 = 2 v_0 / 3 under 0 and 3: 8
        # partial assignments, more than 2 * 3
        a = IntMatrix.from_rows([[2, -3]])
        assert self.work(caplog, a, 5) == ({(3, 2)}, 1, 2)
        monkeypatch.setattr(graver, "ORACLE_BUDGET", 3)
        with pytest.raises(graver.OracleBudgetError, match="budget of 3 vectors"):
            graver_oracle(a, 5)
        monkeypatch.setattr(graver, "ORACLE_BUDGET", 4)
        assert graver_oracle(a, 5) == {(3, 2)}


class TestBoxKernelVectors:
    def test_matches_product_enumeration(self):
        rng = random.Random(31)
        for _ in range(10):
            a = random_int_matrix(rng, rng.randint(0, 2), rng.randint(1, 4))
            bounds = tuple(rng.randint(0, 2) for _ in range(a.cols))
            expected = {canonical_rep(v)
                        for v in product(*(range(-u, u + 1) for u in bounds))
                        if any(v) and not any(a.mat_vec(v))}
            got = box_kernel_vectors(a, bounds, limit=10 ** 4)
            assert len(got) == len(expected) and set(got) == expected, a.entries

    def test_limit_reports_overflow(self):
        a = IntMatrix.from_rows([[1, 1, -1, -1]])
        full = box_kernel_vectors(a, (2, 2, 2, 2), limit=10 ** 4)
        assert len(full) > 10
        assert box_kernel_vectors(a, (2, 2, 2, 2), limit=10) is None
        assert box_kernel_vectors(a, (2, 2, 2, 2), limit=len(full) - 1) is None
        assert box_kernel_vectors(a, (2, 2, 2, 2), limit=len(full)) == full
        assert box_kernel_vectors(a, (2, 2, 2, 2), limit=10 * len(full)) == full

    def test_limit_caps_dead_end_search(self):
        # only multiples of 1000 in the first coordinate close the row,
        # so the first level reaches 10**6 partial assignments for 1000
        # vectors; the budget of n * limit gives up early
        a = IntMatrix.from_rows([[1, 1000]])
        with time_bound(5):
            assert box_kernel_vectors(a, (10 ** 6, 10 ** 6), limit=4096) is None
            got = box_kernel_vectors(a, (10 ** 4, 10 ** 4), limit=10 ** 4)
        assert got == [(1000 * k, -k) for k in range(1, 11)]

    def test_deeper_than_the_recursion_limit(self):
        inst = path_difference_instance()
        with time_bound(20):
            got = box_kernel_vectors(inst.a, inst.upper, limit=4096)
        assert got == [(1,) * inst.n]

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            box_kernel_vectors(IntMatrix.zero(0, 2), (1,), limit=10)
        with pytest.raises(ValueError):
            box_kernel_vectors(IntMatrix.zero(0, 2), (1, -1), limit=10)


def norm1(v):
    return sum(map(abs, v))


class TestInt64BoundCrossing:
    """Lattice seeds below a lowered int64 bound and basis elements
    above it: the completion crosses the bound on a member's 1-norm
    while absorbing candidates and has to finish on object arrays."""

    LIMIT = 11   # seed 1-norms are 5 to 10, basis 1-norms reach 11 to 17

    @pytest.mark.parametrize("rows, bound", [
        ([[1, -3, -3, 3], [-2, 1, 0, -2]], 6),
        ([[0, -1, -1, -3], [3, -1, 1, 2]], 9),
    ])
    def test_matches_oracle_past_the_bound(self, monkeypatch, rows, bound):
        a = IntMatrix.from_rows(rows)
        monkeypatch.setattr(graver, "_FAST_ABS_LIMIT", self.LIMIT)
        seeds = graver.kernel_lattice_basis(a)
        assert max(map(norm1, seeds)) < self.LIMIT
        with time_bound(15):
            got = compute_graver(a).directions
        assert max(map(norm1, got)) >= self.LIMIT
        assert max(abs(x) for v in got for x in v) == bound
        assert got == graver_oracle(a, 2 * bound)

    def test_crossed_inside_a_lift_step(self, monkeypatch):
        # the last lift step starts from 1-norms below the bound and its
        # completion has to create the basis element of 1-norm 11
        a = IntMatrix.from_rows([[-2, 0, 1, 3], [-2, 1, 0, 0]])
        monkeypatch.setattr(graver, "_FAST_ABS_LIMIT", self.LIMIT)
        steps = []
        complete = graver._complete

        def spy(seeds, n, fixed, budget):
            minimal, candidates = complete(seeds, n, fixed, budget)
            steps.append((fixed, max(map(norm1, seeds)), max(map(norm1, minimal))))
            return minimal, candidates

        monkeypatch.setattr(graver, "_complete", spy)
        with time_bound(15):
            got = compute_graver(a).directions
        assert steps[-1] == (3, 5, 11)
        assert got == graver_oracle(a, 12)

    def test_norm_past_int64_with_entries_below_the_bound(self):
        # kernel spanned by (K, K, K, K, K, 1): every entry is below
        # _FAST_ABS_LIMIT, the 1-norm is past 2^63
        k = (1 << 61) - 1
        rows = [[int(j == i) - int(j == i + 1) for j in range(6)] for i in range(4)]
        rows.append([0, 0, 0, 0, 1, -k])
        with time_bound(15):
            got = compute_graver(IntMatrix.from_rows(rows)).directions
        assert got == {(k, k, k, k, k, 1)}


class TestCompletionBudget:
    def spent(self, monkeypatch, a):
        """The work compute_graver(a) charges to its budget."""
        budgets = []
        budget = graver._Budget

        def spy(limit):
            budgets.append(budget(limit))
            return budgets[-1]

        monkeypatch.setattr(graver, "_Budget", spy)
        compute_graver(a)
        monkeypatch.setattr(graver, "_Budget", budget)
        return budgets[0].spent

    @pytest.mark.parametrize("rows", [[[2, 3, 5]], [[1, 2, 2, 1, 1], [0, 1, -1, 2, 0]],
                                      [[11, 13, 17, 19, 23]]])
    def test_budget_bounds_the_work(self, monkeypatch, rows):
        # a start completion, or unit start and lift steps only, or a
        # start completion of 80 elements that reduces rows across chunks
        # (test_rows_reduce_across_chunks)
        a = IntMatrix.from_rows(rows)
        want = compute_graver(a)
        spent = self.spent(monkeypatch, a)
        assert spent >= graver._SCAN_PAIRS
        monkeypatch.setattr(graver, "COMPLETION_BUDGET", spent)
        assert compute_graver(a) == want
        monkeypatch.setattr(graver, "COMPLETION_BUDGET", spent - 1)
        with pytest.raises(graver.CompletionBudgetError,
                           match="budget of %d pairs .COMPLETION_BUDGET." % (spent - 1)):
            compute_graver(a)

    def test_rows_reduce_across_chunks(self, monkeypatch):
        # the normal forms of [11 13 17 19 23]'s start completion (index
        # 11, 80 elements), against the reference: some rows meet a set
        # of more than 64 members and take reducers from two chunks or
        # more
        spans = []
        normal_form = graver._batch_normal_form

        def spy(state, cand, budget):
            got = normal_form(state, cand, budget)
            if len(state) > 64:
                want, chunks = reference_normal_forms(state.arr.tolist(), cand.tolist())
                assert got.tolist() == want
                spans.extend(map(len, chunks))
            return got

        monkeypatch.setattr(graver, "_batch_normal_form", spy)
        assert len(compute_graver(IntMatrix.from_rows([[11, 13, 17, 19, 23]]))) == 284
        assert max(spans) > 1

    def test_tiny_budget_is_a_value_error(self, monkeypatch):
        monkeypatch.setattr(graver, "COMPLETION_BUDGET", 10)
        with pytest.raises(ValueError, match="COMPLETION_BUDGET"):
            compute_graver(IntMatrix.from_rows([[2, 3, 5]]))


class TestMaximalMultiple:
    def test_multiple_past_int64_in_one_step(self, monkeypatch):
        # (2^200, 1) drops to (0, 1) by one subtraction of 2^200 (1, 0);
        # a fill for the zero entry below 2^200 would cap the multiple
        monkeypatch.setattr(graver, "_FAST_ABS_LIMIT", 1)
        state = graver._Completion(2)
        state.add_block(np.array([[1, 0]], dtype=np.int64))
        assert state.arr.dtype == object
        with time_bound(5):
            got = graver._batch_normal_form(state, np.array([[1 << 200, 1]], dtype=object),
                                            graver._Budget(graver.COMPLETION_BUDGET))
        assert got.tolist() == [[0, 1]]


def reference_normal_forms(members, rows):
    """The normal forms of rows against members (canonical, in insertion
    order), reduced one at a time, and the chunks of the norm-sorted
    members (64, 64, 128, ...) each row's reducers came from.

    Each step takes the first member in (1-norm, insertion) order that
    lies conformally below the row or its negation, checked entrywise
    here, and subtracts its largest multiple that stays below.  Zero
    forms drop out; the rest keep their input order."""
    ordered = sorted(members, key=lambda g: sum(map(abs, g)))  # stable

    def below(g, r):
        return all(x == 0 or (x * y > 0 and abs(x) <= abs(y)) for x, y in zip(g, r))

    forms, spans = [], []
    for row in rows:
        r, chunks = list(row), set()
        while True:
            for p, g in enumerate(ordered):
                s = 1 if below(g, r) else -1 if below(g, [-y for y in r]) else 0
                if s:
                    break
            else:
                break
            k = min(abs(y) // abs(x) for x, y in zip(g, r) if x)
            r = [y - k * s * x for x, y in zip(g, r)]
            chunks.add(0 if p < 64 else (p // 64).bit_length())
        spans.append(chunks)
        if any(r):
            forms.append(r)
    return forms, spans


def normal_form_case(seed, big):
    """(members, rows): 130 to 260 distinct canonical members of two to
    four entries in -3..3 and rows in -9..9, a fifth of them multiples
    of a member.  With big, one member holds an entry past 2^63 and a
    fifth of the rows hold multiples of it."""
    rng = random.Random(seed)
    n = rng.choice((5, 6, 8))
    members, seen = [], set()
    if big:
        members.append(canonical_rep(((1 << 63) + 3, -1) + (0,) * (n - 2)))
    size = rng.randint(130, 260)
    while len(members) < size:
        v = [0] * n
        for j in rng.sample(range(n), rng.randint(2, 4)):
            v[j] = rng.choice((-1, 1)) * rng.randint(1, 3)
        v = canonical_rep(tuple(v))
        if v not in seen:
            seen.add(v)
            members.append(v)
    rows = []
    for _ in range(rng.randint(40, 80)):
        r = [rng.randint(-9, 9) for _ in range(n)]
        if rng.random() < 0.2:
            r = [rng.choice((-2, 1, 3)) * x for x in rng.choice(members)]
        elif big and rng.random() < 0.25:
            r = [rng.randint(1, 5) * x + y for x, y in zip(members[0], r)]
        rows.append(r)
    return members, rows


class TestNormalForm:
    """_batch_normal_form against reference_normal_forms, which shares
    no code with graver."""

    @staticmethod
    def run(members, rows, dtype):
        state = graver._Completion(len(rows[0]))
        state.add_block(np.array(members, dtype=dtype))
        return graver._batch_normal_form(state, np.array(rows, dtype=dtype),
                                         graver._Budget(graver.COMPLETION_BUDGET)).tolist()

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10 ** 6), mode=st.sampled_from(["int64", "limit 4", "big"]))
    def test_matches_the_reference(self, seed, mode):
        # int64 arrays; object arrays from 1-norm 4 on; an entry past 2^63
        members, rows = normal_form_case(seed, mode == "big")
        want, _ = reference_normal_forms(members, rows)
        with pytest.MonkeyPatch.context() as mp:
            if mode == "limit 4":
                mp.setattr(graver, "_FAST_ABS_LIMIT", 4)
            got = self.run(members, rows, object if mode == "big" else np.int64)
        assert got == want

    def test_rows_reduce_across_chunks(self, monkeypatch):
        members, rows = normal_form_case(5, False)
        want, spans = reference_normal_forms(members, rows)
        assert len(members) > 128 and sum(len(s) > 1 for s in spans) > 10
        assert self.run(members, rows, np.int64) == want
        monkeypatch.setattr(graver, "_FAST_ABS_LIMIT", 4)
        assert self.run(members, rows, np.int64) == want


class TestFirstBelow:
    """The member _first_below reports for each row, from the chunk
    _below reports, against a scan of conformal_leq over the members in
    (1-norm, insertion) order, which shares no code with graver."""

    @staticmethod
    def reference(members, row):
        """(index, sign) of the first member g in norm order with
        sign * g conformally below row, (-1, 1) for none."""
        ordered = sorted(range(len(members)), key=lambda i: sum(map(abs, members[i])))
        for i in ordered:
            for sign in (1, -1):
                if conformal_leq([sign * x for x in members[i]], row):
                    return i, sign
        return -1, 1

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10 ** 6), mode=st.sampled_from(["int64", "object", "big"]))
    def test_lightest_member_below(self, seed, mode):
        # int64 arrays; object arrays (the int64 limit lowered to 4); an
        # entry past 2^63.  Each member is a row too, and the first
        # member below a heavy one may lie past the first chunk; no
        # member lies below the zero row.
        members, rows = normal_form_case(seed, mode == "big")
        rows += [list(g) for g in members] + [[0] * len(rows[0])]
        with pytest.MonkeyPatch.context() as mp:
            if mode == "object":
                mp.setattr(graver, "_FAST_ABS_LIMIT", 4)
            state = graver._Completion(len(rows[0]))
            state.add_block(np.array(members, dtype=object if mode == "big" else np.int64))
            work = np.array(rows, dtype=state.arr.dtype)
            first, sign, _ = graver._first_below(state, np.abs(work),
                                                 graver._pack_signs(work, state.words))
        assert state.arr.dtype == (np.int64 if mode == "int64" else object)
        got = list(zip(first.tolist(), sign.tolist()))
        assert got == [self.reference(members, row) for row in rows]
        positions = np.argsort(state.norm, kind="stable").tolist()
        assert max(positions.index(i) for i, _ in got if i >= 0) >= 64, "one chunk only"


def naive_minimal(vectors):
    """Double loop over the set: v stays unless some other member lies
    conformally below v or -v.  A support bitmask skips pairs early."""
    supp = [sum(1 << j for j, x in enumerate(v) if x) for v in vectors]

    def below(g, v):
        return all(x == 0 or (x * y > 0 and abs(x) <= abs(y)) for x, y in zip(g, v))

    kept = set()
    for i, v in enumerate(vectors):
        neg = tuple(-x for x in v)
        if not any(j != i and not supp[j] & ~supp[i] and (below(g, v) or below(g, neg))
                   for j, g in enumerate(vectors)):
            kept.add(v)
    return kept


def random_canonical_set(rng, size, n, weight):
    """Distinct canonical vectors of at most ``weight`` nonzero entries,
    half of them sums of two sign-compatible members with disjoint
    supports, so plenty of members are dominated."""
    out = set()
    while len(out) < size:
        v = [0] * n
        for j in rng.sample(range(n), rng.randint(1, weight)):
            v[j] = rng.choice((-2, -1, 1, 2))
        out.add(canonical_rep(tuple(v)))
        if len(out) < size and len(out) > 1 and rng.random() < 0.5:
            g, h = rng.sample(sorted(out), 2)
            if not any(x and y for x, y in zip(g, h)):
                out.add(canonical_rep(tuple(x + y for x, y in zip(g, h))))
    return sorted(out)


def random_dominated_set(rng, size, n, mags):
    """Distinct canonical vectors of three or four nonzero entries of
    magnitudes in mags; about half of them lie conformally above an
    earlier one: they add entries of its signs on its support or
    beyond it."""
    out: list[tuple[int, ...]] = []
    seen = set()
    while len(out) < size:
        if out and rng.random() < 0.5:
            v = list(rng.choice(out))
            for j in rng.sample(range(n), rng.randint(1, 2)):
                sign = (v[j] > 0) - (v[j] < 0) or rng.choice((-1, 1))
                v[j] += sign * rng.choice(mags)
        else:
            v = [0] * n
            for j in rng.sample(range(n), rng.randint(3, 4)):
                v[j] = rng.choice((-1, 1)) * rng.choice(mags)
        v = canonical_rep(tuple(v))
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


class TestConformallyMinimal:
    @pytest.mark.parametrize("n, weight, sizes", [
        (6, 4, (1, 2, 40, 700, 1500)),     # one sign-mask word
        (70, 4, (1, 40, 1500)),            # three words
    ])
    def test_matches_naive_filter(self, monkeypatch, n, weight, sizes):
        rng = random.Random(n)
        caps = (graver._FILTER_ELEMS, 64)
        limits = (graver._FAST_ABS_LIMIT, 4)
        for size in sizes:
            vectors = random_canonical_set(rng, size, n, weight)
            want = naive_minimal(vectors)
            if size > 2:
                assert 0 < len(want) < size
            # the default temporaries, then blocks of a row or two and
            # many magnitude-check slices; int64 arrays, then object
            # arrays from the first member of 1-norm 4 on
            rows = np.array(vectors, dtype=np.int64)
            for cap, limit in product(caps, limits):
                monkeypatch.setattr(graver, "_FILTER_ELEMS", cap)
                monkeypatch.setattr(graver, "_FAST_ABS_LIMIT", limit)
                keep, _ = conformally_minimal(rows)
                got = [v for v, k in zip(vectors, keep) if k]
                assert len(got) == len(set(got)) and set(got) == want, \
                    (n, size, cap, limit)

    @pytest.mark.parametrize("mags", [(1, 2, 3, 5), (1, 2, (1 << 61) + 1, (1 << 62) + 3)])
    def test_chunked_scan_matches_pairwise_filter(self, monkeypatch, mags):
        # int64 rows, then object rows with entries past 2^61, against
        # the pairwise filter on conformal_leq
        rng = random.Random(max(mags))
        vectors = random_dominated_set(rng, 400, 6, mags)
        want = [not any(g != v and (conformal_leq(g, v) or conformal_leq(g, negate(v)))
                        for g in vectors) for v in vectors]
        assert 100 < sum(want) < 300
        rows = np.array(vectors, dtype=graver.int_dtype(max(mags)))
        shapes = []
        fits = graver._sign_fits

        def spy(*masks):
            plus, minus = fits(*masks)
            shapes.append(plus.shape)
            return plus, minus

        monkeypatch.setattr(graver, "_sign_fits", spy)
        keep, met = conformally_minimal(rows)
        assert keep.tolist() == want
        assert met == sum(r * m for r, m in shapes)
        # one row block: chunks of members [0, 64), [64, 128) and from
        # 128 on a wider one, so the prefix passes 192 members
        assert shapes[0][1] == 64 and len(shapes) >= 3 and max(m for _, m in shapes) > 64
        # blocks of one row each, at most 400: some meet a second chunk
        monkeypatch.setattr(graver, "_FILTER_ELEMS", 1 << 8)
        shapes.clear()
        keep, met = conformally_minimal(rows)
        assert keep.tolist() == want
        assert met == sum(r * m for r, m in shapes)
        assert {r for r, _ in shapes} == {1} and len(shapes) > 400

    def test_filter_transient_stays_small(self):
        # the 1200 canonical vectors of the box |z_j| <= 3 in Z^4, lifted
        # by two composition rows
        c = ((2, -1, 1, 0), (1, 1, -2, 3))
        box = box_kernel_vectors(IntMatrix.zero(0, 4), (3, 3, 3, 3), limit=10 ** 4)
        lifted = [z + tuple(-sum(x * y for x, y in zip(row, z)) for row in c)
                  for z in box]
        assert len(lifted) == 1200
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            keep, _ = conformally_minimal(np.array(lifted, dtype=np.int64))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert keep.any() and peak < 4_000_000


small_matrices = st.integers(0, 2).flatmap(lambda rows: st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows).map(
        lambda entries: IntMatrix.from_rows(entries, cols=cols))))


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(small_matrices)
    def test_random_small_matrices(self, a):
        # the default bound, then object arrays from 1-norm 4 on; the
        # default temporaries, then one-row scan blocks and one-pair
        # magnitude slices; whole pairing rounds, then one pivot per
        # round
        for limit, cap, batch in product((graver._FAST_ABS_LIMIT, 4),
                                         (graver._FILTER_ELEMS, 1),
                                         (graver._PAIR_BATCH, 1)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graver, "_FAST_ABS_LIMIT", limit)
                mp.setattr(graver, "_FILTER_ELEMS", cap)
                mp.setattr(graver, "_PAIR_BATCH", batch)
                assert verify_against_oracle(a, compute_graver(a)), \
                    (a.entries, limit, cap, batch)

    def test_absorb_reduces_a_form_again(self, monkeypatch):
        # some batch of normal forms of the start completion (index 4)
        # holds a form with another form of the batch below it, so that
        # form reduces again
        a = IntMatrix.from_rows([[4, 5, 6, 7]])
        sizes, fixed = [], []
        minimal, complete = graver.conformally_minimal, graver._complete

        def spy(rows):
            keep, met = minimal(rows)
            sizes.append((fixed[-1], len(rows), int(keep.sum())))
            return keep, met

        def spy_complete(seeds, n, f, budget):
            fixed.append(f)
            return complete(seeds, n, f, budget)

        monkeypatch.setattr(graver, "conformally_minimal", spy)
        monkeypatch.setattr(graver, "_complete", spy_complete)
        basis = compute_graver(a)
        assert any(f == 0 and kept < given for f, given, kept in sizes), sizes
        assert verify_against_oracle(a, basis)

    @pytest.mark.parametrize("rows, cols", [
        ([[2, 3]], 2),                      # start lattice 3Z: not unimodular
        ([[6, 10, 15]], 3),                 # |det| 6 on the start columns
        ([], 3),                            # 0-row A: unit vectors
        ([[0, 1, -1, 0], [0, 2, 1, 0]], 4),  # zero columns
        ([[1, 0], [0, 1]], 2),              # trivial kernel
        ([[1, 2, 0], [0, 0, 0]], 3),        # zero row and zero column
    ])
    def test_edge_cases(self, rows, cols):
        a = IntMatrix.from_rows(rows, cols=cols)
        assert verify_against_oracle(a, compute_graver(a)), rows


    def test_random_matrices_verify(self):
        rng = random.Random(23)
        for _ in range(8):
            a = random_int_matrix(rng, rng.randint(0, 2), rng.randint(2, 4))
            basis = compute_graver(a)
            assert verify_against_oracle(a, basis), a.entries

    def test_oracle_at_exact_max_norm(self):
        a = IntMatrix.from_rows([[2, -3, 1]])
        basis = compute_graver(a)
        bound = max(max(abs(x) for x in v) for v in basis.directions)
        assert graver_oracle(a, bound) == basis.directions

    def test_positive_sum_property(self):
        # every boxed kernel vector is conformally above some basis element
        rng = random.Random(29)
        for _ in range(5):
            a = random_int_matrix(rng, rng.randint(1, 2), rng.randint(2, 3))
            basis = compute_graver(a)
            signed = {v for g in basis.directions for v in (g, negate(g))}
            for v in product(range(-3, 4), repeat=a.cols):
                if not any(v) or any(a.mat_vec(v)):
                    continue
                assert any(conformal_leq(g, v) for g in signed), (a.entries, v)


class TestLeastIndexStart:
    """A one-row matrix starts where its lattice index is least: leaving
    out column j gives index |a_j| / gcd(a), computed here from the row
    alone."""

    class Chosen(Exception):
        """Raised with the start pivots, so that no completion runs."""

    def start_pivots(self, a):
        """The pivots of the start columns compute_graver chooses."""
        start_columns = graver._start_columns

        def spy(seeds, columns):
            sigma, basis = start_columns(seeds, columns)
            raise self.Chosen([row[j] for row, j in zip(basis, sigma)])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graver, "_start_columns", spy)
            with pytest.raises(self.Chosen) as chosen:
                compute_graver(a)
        return chosen.value.args[0]

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=6).filter(any))
    @example([10, 9, 6])  # a unit sweep takes the 6, after 10 and 9, and leaves out the 9
    @example([2, 3, 5, 7, 11, 13])
    def test_pivot_product_is_the_least_index(self, row):
        a = IntMatrix.from_rows([row])
        least = min(abs(x) for x in row if x) // reduce(gcd, row)
        assert abs(prod(self.start_pivots(a))) == least
        if len(row) <= 3 and max(map(abs, row)) <= 12:
            assert verify_against_oracle(a, compute_graver(a)), row


def graver_set(rows):
    """compute_graver of the matrix of rows, as a TestSet without
    provenance, so that sets of different matrices compare."""
    return TestSet(len(rows[0]), compute_graver(IntMatrix.from_rows(rows)).rows)


GOLDEN = Path(__file__).parent / "data" / "golden"

metamorphic_matrices = st.integers(1, 2).flatmap(lambda m: st.integers(2, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=m, max_size=m)))


class TestMetamorphic:
    """compute_graver against itself on a transformed matrix, mapped
    back: another matrix takes other start columns and another lift
    order, so each relation compares two different runs."""

    SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

    @SETTINGS
    @given(metamorphic_matrices, st.data())
    def test_column_permutation(self, rows, data):
        # G(A P) = G(A) P: column j of A P is column p[j] of A
        p = data.draw(st.permutations(range(len(rows[0]))))
        permuted = graver_set([[row[j] for j in p] for row in rows])
        assert TestSet(len(p), permuted.rows[:, np.argsort(p)]) == graver_set(rows)

    @SETTINGS
    @given(metamorphic_matrices, st.data())
    def test_column_sign_flips(self, rows, data):
        # G(A D) = G(A) D for D diagonal with entries +/-1, D = D^-1
        d = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=len(rows[0]),
                               max_size=len(rows[0])))
        flipped = graver_set([[x * s for x, s in zip(row, d)] for row in rows])
        assert TestSet(len(d), flipped.rows * np.array(d)) == graver_set(rows)

    @SETTINGS
    @given(metamorphic_matrices, st.data())
    def test_unimodular_row_operation(self, rows, data):
        # G(U A) = G(A): U negates a row, or adds k times one row to the
        # other (two rows) and then may swap them
        u = [list(row) for row in rows]
        i = data.draw(st.integers(0, len(u) - 1))
        if len(u) == 1 or data.draw(st.booleans()):
            u[i] = [-x for x in u[i]]
        else:
            k = data.draw(st.sampled_from((-2, -1, 1, 2)))
            u[1 - i] = [x + k * y for x, y in zip(u[1 - i], u[i])]
            if data.draw(st.booleans()):
                u.reverse()
        assert graver_set(u) == graver_set(rows)

    def test_865_element_basis(self):
        # [2 3 5 7 11 13 17] reversed, with the 7 negated: the 2 it
        # leaves out of the start is now the last column, and the sweep
        # and lift orders change; mapped back, the recorded CLI output
        row = [2, 3, 5, 7, 11, 13, 17]
        p = list(range(len(row)))[::-1]
        d = [1, 1, 1, -1, 1, 1, 1]
        got = graver_set([[row[j] * s for j, s in zip(p, d)]])
        mapped = TestSet(len(p), (got.rows * np.array(d))[:, np.argsort(p)])
        want = parse_int_matrix((GOLDEN / "graver_primes.out").read_text())
        assert len(want.entries) == 865
        assert mapped == TestSet(len(row), want.entries)


def normal_form_complete(seeds, n, fixed, budget):
    """graver._complete as it ran before lift steps dropped reducible
    sums: every candidate reduces to its normal form, the batch-minimal
    forms join and the others reduce again, in lift steps as in the
    start completion.  One pivot a round."""
    state = graver._Completion(n)
    state.add_block(seeds)
    old = graver._pack_signs((np.arange(n) < fixed)[None], state.words)[0]
    old |= graver._flip(old)
    pivot = 0
    while pivot < len(state):
        work = graver._pop_candidates(state, pivot, pivot + 1, old)
        pivot += 1
        while len(work):
            forms = graver._canonical(graver._batch_normal_form(state, work, budget))
            keep, _ = conformally_minimal(forms)
            state.add_block(forms[keep])
            work = forms[~keep]
    below, _ = graver._find_below(state)
    return state.arr[~below], (0, 0)


class TestLiftStepDrops:
    """A lift step drops each critical sum that a member lies below
    instead of reducing it to its normal form (compute_graver explains
    why); bases stay those of the completion that reduces every sum."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(metamorphic_matrices)
    def test_matches_the_normal_form_completion(self, rows):
        # the default int64 limit, then object arrays from 1-norm 4 on
        a = IntMatrix.from_rows(rows)
        for limit in (graver._FAST_ABS_LIMIT, 4):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graver, "_FAST_ABS_LIMIT", limit)
                got = compute_graver(a)
                mp.setattr(graver, "_complete", normal_form_complete)
                assert compute_graver(a) == got, (rows, limit)

    def test_some_dropped_sum_has_a_nonzero_normal_form(self, monkeypatch):
        # the sums a lift step drops are not all ones that reduce to zero
        nonzero = []
        reducible = graver._reducible

        def spy(state, cand, budget):
            below = reducible(state, cand, budget)
            if below.any():
                forms = graver._batch_normal_form(state, cand[below],
                                                  graver._Budget(graver.COMPLETION_BUDGET))
                nonzero.append(len(forms))
            return below

        monkeypatch.setattr(graver, "_reducible", spy)
        # the lifted matrix [[A, 0], [C, I]] of a graver-lift shape, A = [1 2 1 2]
        compute_graver(IntMatrix.from_rows([[1, 2, 1, 2, 0, 0], [-2, 2, -1, 1, 1, 0],
                                            [1, 2, -1, 0, 0, 1]]))
        assert max(nonzero) > 0

    def test_normal_forms_only_in_the_start_completion(self, monkeypatch):
        fixed, reduced = [], []
        complete, normal_form = graver._complete, graver._batch_normal_form

        def spy_complete(seeds, n, f, budget):
            fixed.append(f)
            return complete(seeds, n, f, budget)

        def spy_normal_form(state, cand, budget):
            reduced.append(fixed[-1])
            return normal_form(state, cand, budget)

        monkeypatch.setattr(graver, "_complete", spy_complete)
        monkeypatch.setattr(graver, "_batch_normal_form", spy_normal_form)
        # a start completion (index 2) that reduces candidates, then a
        # lift step
        a = IntMatrix.from_rows([[2, 3, 5]])
        assert verify_against_oracle(a, compute_graver(a))
        assert fixed[0] == 0 and max(fixed) > 0
        assert reduced and set(reduced) == {0}


def table_cycles(r, c):
    """Canonical +/-1 vectors of the cycles of K_{r,c}, entry i*c + j
    for cell (i, j): rows i_1..i_k and columns j_1..j_k give +1 at
    (i_t, j_t) and -1 at (i_{t+1}, j_t), indices mod k."""
    out = set()
    for k in range(2, min(r, c) + 1):
        for rows in permutations(range(r), k):
            for cols in permutations(range(c), k):
                v = [0] * (r * c)
                for t in range(k):
                    v[rows[t] * c + cols[t]] = 1
                    v[rows[(t + 1) % k] * c + cols[t]] = -1
                if next(x for x in v if x) < 0:
                    v = [-x for x in v]
                out.add(tuple(v))
    return out


class TestTwoWayTables:
    """The Graver basis of the r x c two-way table matrix (row and
    column sums) is its set of circuits, the cycles of K_{r,c}."""

    @pytest.mark.parametrize("r, c, size", [(3, 3, 15), (3, 4, 42), (3, 5, 90), (4, 4, 204)])
    @pytest.mark.parametrize("batch", [graver._PAIR_BATCH, 256])
    def test_basis_is_the_cycles(self, monkeypatch, r, c, size, batch):
        # a cap of 256 splits the rounds of the larger lift steps into
        # calls of a few pivots each
        monkeypatch.setattr(graver, "_PAIR_BATCH", batch)
        rows = [[int(j // c == i) for j in range(r * c)] for i in range(r)]
        rows += [[int(j % c == i) for j in range(r * c)] for i in range(c)]
        want = table_cycles(r, c)
        assert len(want) == size
        assert compute_graver(IntMatrix.from_rows(rows)).directions == want


class TestColumnExpansion:
    def test_negated_from_trivial_basis(self):
        base = compute_graver(IntMatrix.from_rows([[1]]))
        widened = expand_negated_column(base)
        assert widened.directions == {(1, 1)}
        assert widened.directions == compute_graver(IntMatrix.from_rows([[1, -1]])).directions

    def test_swap_vector_always_present(self):
        base = compute_graver(IntMatrix.from_rows([[1, 2]]))
        assert (0, 1, 1) in expand_negated_column(base).directions
        assert (0, 1, -1) in expand_duplicated_column(base).directions

    def test_duplicated_is_column_symmetric(self):
        base = compute_graver(IntMatrix.from_rows([[2, -3]]))
        dup = expand_duplicated_column(base)
        for v in sorted(dup.directions):
            assert canonical_rep(v[:-2] + (v[-1], v[-2])) in dup.directions

    def test_matches_direct_computation(self):
        rng = random.Random(31)
        for _ in range(5):
            rows = [[rng.randint(-2, 2) for _ in range(rng.randint(2, 4))]
                    for _ in range(rng.randint(1, 2))]
            rows = [r for r in rows]
            width = len(rows[0])
            rows = [r[:width] for r in rows]
            a = IntMatrix.from_rows(rows, cols=width)
            base = compute_graver(a)
            neg_direct = compute_graver(
                IntMatrix.from_rows([list(r) + [-r[-1]] for r in rows], cols=width + 1))
            dup_direct = compute_graver(
                IntMatrix.from_rows([list(r) + [r[-1]] for r in rows], cols=width + 1))
            assert expand_negated_column(base).directions == neg_direct.directions
            assert expand_duplicated_column(base).directions == dup_direct.directions

    def test_iterated_expansion_projects_back(self):
        # widening by repeated +/- copies of the last column leaves the
        # projection onto the untouched coordinates unchanged
        for rows in ([[1, 2]], [[1, 1]], [[2, -3], [0, 1]]):
            a = IntMatrix.from_rows(rows)
            base = compute_graver(a)
            chained = expand_duplicated_column(base)
            chained = expand_negated_column(chained)
            chained = expand_duplicated_column(chained)
            n = a.cols - 1
            assert projection(chained.rows, n) == projection(base.rows, n)


def projection(rows, n: int) -> set:
    """project_first_n of the rows as a set of tuples, after checking
    that it holds each projection once."""
    out = project_first_n(np.array(rows), n).tolist()
    assert len(out) == len(set(map(tuple, out)))
    return set(map(tuple, out))


class TestProjection:
    def test_plain_projection(self):
        assert projection([(1, 0, -1, 2)], 2) == {(1, 0)}

    def test_zero_projection_removed(self):
        assert projection([(0, 0, 1, -1)], 2) == set()

    def test_canonicalizes(self):
        assert projection([(0, -2, 5, 1)], 2) == {(0, 2)}

    def test_rows_in_distinct_projections_out(self):
        # the bench reads len of the argument and of the result
        rows = np.array([(0, -2, 5, 1), (0, 2, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0)])
        assert project_first_n(rows, 2).tolist() == [[0, 2], [1, 1]]

    def test_lawrence_lifting_recovers_basis(self):
        a = IntMatrix.from_rows([[1, 2]])
        lifted = IntMatrix.from_rows([[1, 2, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]])
        basis = compute_graver(lifted)
        assert basis.directions == {(2, -1, -2, 1)}
        assert projection(basis.rows, 2) == compute_graver(a).directions


class TestBasisType:
    def test_graver_basis_is_a_frozen_test_set(self):
        a = IntMatrix.zero(0, 2)
        b = compute_graver(a)
        assert b == TestSet(2, frozenset({(1, 0), (0, 1)}), (a, IntMatrix.zero(0, 2)))
        with pytest.raises(AttributeError):
            b.dimension = 3
        assert hash(b) == hash(TestSet(2, frozenset({(1, 0), (0, 1)}), b.provenance))


class TestCanonical:
    """_canonical against the sorted set of the rows' canonical tuples,
    computed here with no code of graver."""

    @staticmethod
    def reference(rows):
        out = set()
        for row in rows:
            sign = 1 if next(x for x in row if x) > 0 else -1
            out.add(tuple(sign * x for x in row))
        return sorted(out)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_distinct_canonical_rows_in_tuple_order(self, data):
        # int64 rows, object rows, and object rows with an entry past
        # 2^63; each row enters negated, duplicated or both, shuffled
        n = data.draw(st.integers(1, 5))
        mode = data.draw(st.sampled_from(["int64", "object", "big"]))
        rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                                  .filter(any), min_size=1, max_size=10))
        if mode == "big":
            j = data.draw(st.integers(0, n - 1))
            rows[0][j] = data.draw(st.sampled_from(((1 << 63) + 5, -(1 << 64) - 3)))
        signs = st.sampled_from(((1,), (-1,), (1, -1), (1, 1), (-1, 1, -1)))
        copies = [[s * x for x in row] for row in rows for s in data.draw(signs)]
        copies = data.draw(st.permutations(copies))
        arr = np.array(copies, dtype=np.int64 if mode == "int64" else object)
        got = graver._canonical(arr)
        assert got.dtype == arr.dtype
        assert got.tolist() == [list(v) for v in self.reference(copies)]


class TestProjectAndLift:
    def test_unit_pivots_preferred(self):
        # column 0 has pivot 2 on the kernel basis, columns 1 and 2 a unit one
        a = IntMatrix.from_rows([[1, 2, 2]])
        sigma, basis = graver._start_columns(graver.kernel_lattice_basis(a), range(3))
        det, _ = graver._lift_map(basis, sigma, [0, 1, 2])
        assert sigma == [1, 2] and abs(det) == 1

    def test_lift_map_is_exact(self):
        # every basis element is recovered column by column from its
        # part on the start columns
        for rows in ([[6, 10, 15]], [[2, 3]], [[1, -3, -3, 3], [-2, 1, 0, -2]]):
            a = IntMatrix.from_rows(rows)
            n = a.cols
            sigma, basis = graver._start_columns(graver.kernel_lattice_basis(a), range(n))
            det, lift = graver._lift_map(basis, sigma, list(range(n)))
            for v in compute_graver(a).directions:
                head = np.array([[v[j] for j in sigma]], dtype=np.int64)
                got = tuple(graver.append_products(head, [[row[j]] for row in lift],
                                                   det)[0, -1] for j in range(n))
                assert got == v, (rows, v)

    # |det| > 1 with a negative pivot, a unit start with negative pivots,
    # |det| 3 with positive pivots, and two rows with pivots 1 and -2
    PIVOT_CASES = [([[3, 2, 4]], True, True), ([[1, 1, 1]], False, True),
                   ([[0, 2, 3]], True, False),
                   ([[-2, -2, 0, -1], [3, 0, 0, -1]], True, True)]

    @pytest.mark.parametrize("rows, big_det, negative", PIVOT_CASES)
    def test_pivot_cases_are_what_they_claim(self, rows, big_det, negative):
        a = IntMatrix.from_rows(rows)
        sigma, basis = graver._start_columns(graver.kernel_lattice_basis(a), range(a.cols))
        pivots = [row[j] for row, j in zip(basis, sigma)]
        assert (abs(prod(pivots)) > 1, min(pivots) < 0) == (big_det, negative)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 2).flatmap(lambda m: st.integers(3, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                           min_size=m, max_size=m))))
    @example([[3, 2, 4]])
    @example([[1, 1, 1]])
    @example([[0, 2, 3]])
    @example([[-2, -2, 0, -1], [3, 0, 0, -1]])
    def test_start_block_triangular_and_lift_map_integral(self, rows):
        a = IntMatrix.from_rows(rows)
        n = a.cols
        seeds = graver.kernel_lattice_basis(a)
        r = len(seeds)
        sigma, basis = graver._start_columns(seeds, range(n))
        assert len(set(sigma)) == len(sigma) == r
        block = [[row[j] for j in sigma] for row in basis]
        # upper triangular with a nonzero diagonal, in choice order
        for k in range(r):
            assert block[k][k] and not any(block[k][:k]), (rows, block)
        order = sigma + [j for j in range(n) if j not in sigma]
        det, lift = graver._lift_map(basis, sigma, order)
        assert det == prod(block[k][k] for k in range(r))
        # adj(B) . B = det I on the start columns
        assert [row[:r] for row in lift] == [[det * (i == k) for k in range(r)]
                                             for i in range(r)]
        # every Graver element from its start part, in exact integers
        for v in compute_graver(a).directions:
            head = [v[j] for j in sigma]
            scaled = [sum(y * row[c] for y, row in zip(head, lift)) for c in range(n)]
            assert all(x % det == 0 for x in scaled), (rows, v)
            assert [x // det for x in scaled] == [v[j] for j in order], (rows, v)

    def test_lift_column_past_int64(self):
        big = 1 << 62
        rows = np.array([[big, 3], [-1, 2]], dtype=np.int64)
        got = graver.append_products(rows, [[4], [2]], 2)
        assert got.dtype == object
        assert got.tolist() == [[big, 3, 2 * big + 3], [-1, 2, 0]]

    def test_one_log_line_per_lift_step(self, caplog):
        # a unit start, then a start of |det| 2, the least index of
        # [2 3 5], that needs a completion
        for rows, rank, det in (([[1, 2, 2, 1, 1], [0, 1, -1, 2, 0]], 3, 1),
                                ([[2, 3, 5]], 2, 2)):
            a = IntMatrix.from_rows(rows)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="graveropt.graver"):
                basis = compute_graver(a)
            records = [r for r in caplog.records if r.name == "graveropt.graver"]
            start, steps = records[0], records[1:]
            assert start.getMessage().startswith("start: columns [")
            columns, start_det, candidates, rounds, _ = start.args
            assert start_det == det
            if det == 1:
                assert candidates == rounds == 0
            else:
                assert candidates > 0 and rounds >= 1
            assert len(steps) == a.cols - rank
            previous = start.args[-1]
            for k, rec in enumerate(steps, 1):
                step, column, elements_in, candidates, rounds, elements_out = rec.args
                assert rec.levelno == logging.DEBUG
                assert step == k and 0 <= column < a.cols
                assert elements_in == previous and candidates >= 0 and rounds >= 1
                previous = elements_out
            assert previous == len(basis)
            assert sorted(columns + [r.args[1] for r in steps]) == list(range(a.cols))
